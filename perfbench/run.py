"""co2nowcast benchmark: one command per workload, run from the repository root.

    python3 perfbench/run.py --workload density --seed 1 --seconds 55 --trace 0

Each repetition is a fresh interpreter (perfbench/worker.py) that drives the
command line as a user does, so every repetition pays the program's cold
caches: it builds a seeded panel and runs `co2nowcast ingest`, `run` and
`evaluate`. Untraced, it also runs `evaluate` on the previous repetition's
archive before `run`, so that evaluate_s is sampled across the whole run.
Repetitions run one after another (a closed loop with one client) while half
of another fits in --seconds, at least two; repetition k uses panel k of the
seed, so a run averages over several panels. --trace 0 reports the median of
each end-to-end metric over the repetitions; --trace 1 runs one untraced and
one traced repetition on panel 0 with per-layer counters, and their
archive.csv files must be byte-identical. Every repetition's outputs are
checked. The last line of standard output is the result JSON; the full
record, with the machine, goes to
.perfbench_work/results/<workload>-seed<seed>-trace<0|1>.json.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from statistics import median

import numpy
import scipy

from checks import check_outputs
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "perfbench", "worker.py")
# identical BLAS/OpenMP threading on every commit; the benchmark adds no threads
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
MIN_REPS = 2  # repetitions per timed run
HARD_LIMIT_S = 170.0  # a run must end within 180 s
CHILD_NOTE = ("calls made in child processes (for example a process pool over "
              "years) are not seen by the trace")


class BenchError(RuntimeError):
    pass


def _git_commit(root):
    # the ceiling keeps git from reporting a repository that encloses the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "not a git checkout"
    return proc.stdout.strip() if proc.returncode == 0 else "not a git checkout"


def machine_info():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return dict(nproc=os.cpu_count(), cpu=cpu, python=platform.python_version(),
                numpy=numpy.__version__, scipy=scipy.__version__,
                commit=_git_commit(ROOT), thread_env=THREAD_ENV)


class Runner:
    """Runs repetitions of one workload and seed in fresh worker processes."""

    def __init__(self, workload, seed, work, start):
        self.workload, self.seed, self.work, self.start = workload, seed, work, start
        self.env = dict(os.environ, **THREAD_ENV)
        self.count = 0
        self.prev = None  # results directory of the previous checked repetition

    def elapsed(self):
        return time.monotonic() - self.start

    def rep(self, panel, trace=0):
        """One repetition on panel number `panel` of the seed; untraced, it
        also evaluates the archive of the previous checked repetition."""
        self.count += 1
        d = os.path.join(self.work, f"rep{self.count}")
        os.makedirs(d)
        result_path = os.path.join(d, "result.json")
        cmd = [sys.executable, WORKER, "--root", ROOT, "--workdir", d,
               "--workload", self.workload.name, "--seed", str(self.seed),
               "--panel", str(panel), "--trace", str(trace), "--result", result_path]
        if self.prev and not trace:
            cmd += ["--prev", self.prev]
        timeout = max(1.0, HARD_LIMIT_S - self.elapsed())
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"repetition exceeded {timeout:.0f} s") from None
        t_end = time.monotonic()
        if proc.returncode != 0:
            raise BenchError(f"repetition exited {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
        with open(result_path) as fh:
            res = json.load(fh)
        res["panel"] = panel
        res["setup_s"] = res["t_ready"] - t_spawn
        res["wall_s"] = t_end - t_spawn
        res["check"] = check_outputs(d, self.workload)
        if not res["check"]["errors"]:
            self.prev = os.path.join(self.work, "prev")
            shutil.rmtree(self.prev, ignore_errors=True)
            shutil.move(os.path.join(d, "results"), self.prev)
        spans = os.path.join(d, "spans.csv")
        if os.path.exists(spans):
            keep = os.path.join(os.path.dirname(self.work), "results")
            os.makedirs(keep, exist_ok=True)
            res["spans_file"] = os.path.join(
                keep, f"{self.workload.name}-seed{self.seed}-spans.csv")
            shutil.move(spans, res["spans_file"])
        shutil.rmtree(d)
        return res


def timed_run(runner, seconds):
    """Repetitions on panels 0, 1, ... while at least half of another fits
    in --seconds, so a run ends within half a repetition of --seconds; at
    least MIN_REPS; stops at the first repetition whose outputs fail."""
    reps = []
    while True:
        reps.append(runner.rep(panel=len(reps)))
        if reps[-1]["check"]["errors"]:  # the verdict reports it
            return reps
        half_end = runner.elapsed() + median(r["wall_s"] for r in reps) / 2
        if len(reps) >= MIN_REPS and half_end > seconds:
            return reps


def traced_run(runner):
    """One untraced and one traced repetition of panel 0; their archives
    must be byte-identical, which is the rerun check."""
    return [runner.rep(0), runner.rep(0, trace=1)]


def _median(values):
    """Median, or 0 where a failed repetition left no sample."""
    values = list(values)
    return median(values) if values else 0.0


def verdict(full, workload):
    """(correct, attempted, failed, problems) over the repetitions."""
    problems = []
    for codes in [r["codes"] for r in full]:
        bad = {k: v for k, v in codes.items() if v != 0}
        if bad:
            problems.append(f"nonzero exit codes {bad}")
    for r in full:
        problems += r["check"]["errors"]
        if r["check"]["archived"] > workload.expected_rows:
            problems.append(f"{r['check']['archived']} rows archived, "
                            f"expected {workload.expected_rows}")
    for panel in {r["panel"] for r in full}:
        if len({r["check"]["archive_sha256"] for r in full if r["panel"] == panel}) > 1:
            problems.append(f"archive.csv differs between repetitions of panel {panel}")
    attempted = workload.expected_rows * len(full)
    failed = sum(max(0, workload.expected_rows - r["check"]["archived"]) for r in full)
    return not problems, attempted, failed, problems


def end_to_end(full, workload):
    run_s = _median(r["run_s"] for r in full if "run_s" in r)
    archived = sum(r["check"]["archived"] for r in full)
    return {
        "setup_s": _median(r["setup_s"] for r in full),
        "run_s": run_s,
        "evaluate_s": _median(s for r in full for s in r["evaluate_s"]),
        "cells_per_s": workload.cells / run_s if run_s else 0.0,
        "peak_rss_mb": median(r["peak_rss_mb"] for r in full),
        "archived_share": archived / (workload.expected_rows * len(full)),
    }


def per_layer(full):
    plain, traced = full
    values = dict(traced["layers"])
    if "run_s" in plain and "run_s" in traced:
        values["trace.overhead_ratio"] = traced["run_s"] / plain["run_s"]
    for key in ("rel_rmsfe", "rel_crps", "density_logscore"):
        values[f"accuracy.{key}"] = traced["check"][key]
    return values


def describe(workload, seed, full, values, info):
    w = workload
    print(f"# workload {w.name} seed {seed}: {w.entities} entities, eval "
          f"{w.eval_start}-{w.eval_start + w.eval_years - 1}, estimation from "
          f"{w.estimation_start}, specs {','.join(w.specs)}, taus {w.taus}, "
          f"fit_density {w.fit_density}: {w.cells} cells, {w.expected_rows} rows")
    print(f"# machine: {info['nproc']} cpus, {info['cpu']}, python {info['python']}, "
          f"numpy {info['numpy']}, scipy {info['scipy']}, commit {info['commit']}, "
          f"threads {info['thread_env']}")
    for key, series in (("setup_s", [r["setup_s"] for r in full]),
                        ("run_s", [r["run_s"] for r in full if "run_s" in r]),
                        ("evaluate_s", [s for r in full for s in r["evaluate_s"]])):
        if series:
            print(f"# {key}: median {median(series):.4f} max {max(series):.4f} "
                  f"n {len(series)}")
    if "layers" in full[-1]:
        calls = {k[:-len(".calls")]: v for k, v in values.items()
                 if k.endswith(".calls")}
        top = sorted(calls, key=lambda n: -values[f"{n}.self_s"])[:6]
        print("# largest self time: " + ", ".join(
            f"{n} {values[n + '.self_s']:.3f}s/{calls[n]}" for n in top))
        print(f"# trace: {CHILD_NOTE}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be a non-negative integer")
    start = time.monotonic()

    src = os.path.join(ROOT, "src", "co2nowcast")
    if not os.path.isfile(os.path.join(src, "cli.py")):
        print(f"error: no program source at {src}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    compileall.compile_dir(os.path.join(ROOT, "src"), quiet=1)

    workload = WORKLOADS[args.workload]
    base = os.path.join(ROOT, ".perfbench_work")
    work = os.path.join(base, f"{workload.name}-seed{args.seed}-pid{os.getpid()}")
    os.makedirs(work)
    runner = Runner(workload, args.seed, work, start)
    try:
        full = traced_run(runner) if args.trace else timed_run(runner, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct, attempted, failed, problems = verdict(full, workload)
    if args.trace:
        values, wanted = per_layer(full), spec["per_layer"]
    else:
        values, wanted = end_to_end(full, workload), spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}
    info = machine_info()
    describe(workload, args.seed, full, values, info)
    for p in problems:
        print(f"# check failed: {p}")
    record = dict(workload=workload.name, seed=args.seed, trace=args.trace,
                  machine=info, problems=problems, full=full, values=values)
    os.makedirs(os.path.join(base, "results"), exist_ok=True)
    with open(os.path.join(base, "results",
                           f"{workload.name}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    print(json.dumps(dict(correct=correct, attempted=attempted, failed=failed,
                          metrics=metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
