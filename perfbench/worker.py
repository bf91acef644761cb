"""One full benchmark repetition in a fresh interpreter.

Drives the command line as a user does: generates panel number --panel of
the seeded raw panels and runs `co2nowcast ingest`, then `co2nowcast run`
with a config file, then `co2nowcast evaluate` for rmsfe, qs (tau = 0.5) and
crps. Traced, it evaluates once. Untraced, it evaluates in timed passes
(evaluate keeps no state): for EVALUATE_BUDGET_S after the run, and, given
--prev, for as long again before the run on the archive in that directory,
so that the passes of a timed run are spread over its whole length. Writes
its timings, exit codes and peak RSS as JSON to --result. With --trace 1 the
program's public functions are wrapped first and the per-layer counters and
spans are written too.

    python3 perfbench/worker.py --root . --workdir W --workload density \
        --seed 1 --panel 0 --trace 0 --result W/result.json [--prev DIR]
"""

import argparse
import json
import os
import resource
import sys
import time

EVALUATIONS = (("rmsfe", []), ("qs", ["--tau", "0.5"]), ("crps", []))
EVALUATE_BUDGET_S = 2.5


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--panel", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", required=True)
    ap.add_argument("--prev", help="results directory of an earlier repetition")
    args = ap.parse_args(argv)
    result_path = os.path.abspath(args.result)
    prev = os.path.abspath(args.prev) if args.prev else None

    src = os.path.join(os.path.abspath(args.root), "src")
    sys.path.insert(0, src)
    import co2nowcast
    from co2nowcast import cli
    from panel_gen import HF_LEAD_YEARS, make_panel, write_raw
    from workloads import EVAL_END, WORKLOADS

    if not os.path.abspath(co2nowcast.__file__).startswith(src + os.sep):
        raise SystemExit(f"co2nowcast imported from {co2nowcast.__file__}, not {src}")
    tracer = None
    if args.trace:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer, co2nowcast)

    # relative paths keep the config file, and so the config hash in every
    # output header, identical across repetitions
    os.chdir(args.workdir)
    w = WORKLOADS[args.workload]
    raw, store, out, tables = "raw", "store", "results", "tables"
    codes = {}
    result = dict(codes=codes)
    panel = make_panel(w.entities, w.first_year, EVAL_END, [args.seed, args.panel],
                       w.eval_start)
    manifest = write_raw(panel, w.first_year, raw,
                         hf_from=w.hf_first_year - HF_LEAD_YEARS)
    codes["ingest"] = cli.main(["ingest", "--data-dir", raw, "--manifest", manifest,
                                "--out", store])
    result["t_ready"] = time.monotonic()
    passes = result["evaluate_s"] = []

    def evaluate(archive_dir, tables_dir, budget):
        """Timed passes until `budget` seconds have passed, at least two;
        one pass if budget is 0."""
        n = len(passes)
        while not any(codes.values()) and (len(passes) == n or budget and (
                len(passes) < n + 2 or sum(passes[n:]) < budget)):
            t0 = time.perf_counter()
            for metric, extra in EVALUATIONS:
                codes[f"evaluate_{metric}"] = cli.main(
                    ["evaluate", "--archive", os.path.join(archive_dir, "archive.csv"),
                     "--metric", metric, *extra, "--out", tables_dir])
            passes.append(time.perf_counter() - t0)

    budget = 0.0 if args.trace else EVALUATE_BUDGET_S
    # a step is skipped once an earlier one has failed; its exit code is reported
    if prev and budget:
        evaluate(prev, "tables_prev", budget)
    if not any(codes.values()):
        config = "run.cfg"
        with open(config, "w") as fh:
            fh.write(w.config_text(store))
        t0 = time.perf_counter()
        codes["run"] = cli.main(["run", "--config", config, "--out", out])
        result["run_s"] = time.perf_counter() - t0
    evaluate(out, tables, budget)

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.write_spans("spans.csv")
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
