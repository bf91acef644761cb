"""Self-check of the benchmark on a miniature shape; runs in about a minute.

    python3 perfbench/selfcheck.py

Checks that BENCHMARK.json keeps its contract, that run.py prints exactly the
declared metrics on the `mini` workload with and without tracing (untraced
over several repetitions, traced with a byte-identical rerun), that panels
of different seeds share their history, that a run the program fails
outright is reported as incorrect, that the output checks catch a crossed
quantile set, a non-positive sigma and a missing header, that the tracer
wraps every binding of a public function, and that the benchmark fails
without a result when the program source is absent.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys

from checks import check_outputs
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".perfbench_work", "selfcheck")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def check_spec(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, sorted(spec)
    assert [w["name"] for w in spec["workloads"]] == ["density", "menu"]
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200, w
        assert w["name"] in WORKLOADS
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names)), "metric or workload name used twice"
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}, m
        assert 0 < m["bound"] <= 0.25, m
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}, m
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher"), m
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert 1 <= spec["run_seconds"] <= 60 and isinstance(spec["run_seconds"], int)


def run_bench(cwd, trace, seconds=1, workload="mini"):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_repetitions():
    """A run long enough for several repetitions (each about 8 s) reports
    medians over all of them, one panel per repetition."""
    check_result(run_bench(ROOT, 0, seconds=22), SPEC["end_to_end"])
    with open(os.path.join(ROOT, ".perfbench_work", "results",
                           "mini-seed3-trace0.json")) as fh:
        record = json.load(fh)
    assert len(record["full"]) >= 3, len(record["full"])
    assert [r["panel"] for r in record["full"]] == list(range(len(record["full"])))


def check_rerun():
    """The traced run repeats panel 0, and the two archives are identical."""
    check_result(run_bench(ROOT, 1), SPEC["per_layer"])
    with open(os.path.join(ROOT, ".perfbench_work", "results",
                           "mini-seed3-trace1.json")) as fh:
        record = json.load(fh)
    assert [r["panel"] for r in record["full"]] == [0, 0]
    assert len({r["check"]["archive_sha256"] for r in record["full"]}) == 1
    return record["values"]


def check_history():
    """Panels of different seeds differ only from the evaluation year on."""
    from panel_gen import HF_LEAD_YEARS, make_panel

    a = make_panel(2, 2000, 2012, [1, 0], 2012)
    b = make_panel(2, 2000, 2012, [2, 0], 2012)
    co2_a, co2_b = a["CO2"]["S01"][1], b["CO2"]["S01"][1]
    assert (co2_a[:-1] == co2_b[:-1]).all() and co2_a[-1] != co2_b[-1]
    weci_a, weci_b = a["WECI"]["S00"][1], b["WECI"]["S00"][1]
    split = 52 * (2012 - (2000 - HF_LEAD_YEARS))
    assert (weci_a[:split] == weci_b[:split]).all()
    assert (weci_a[split:] != weci_b[split:]).all()


def check_fatal():
    """A run the program fails outright still gives a verdict: incorrect."""
    proc = run_bench(ROOT, 0, workload="fatal")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == result["attempted"], result


def check_result(proc, declared):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and math.isfinite(got["value"]), (m, got)
    return result["metrics"]


def check_detection():
    """The output checks pass on a clean run and flag each broken output."""
    rep = os.path.join(SCRATCH, "rep")
    os.makedirs(rep)
    subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
                    "--workdir", rep, "--workload", "mini", "--seed", "3",
                    "--result", os.path.join(rep, "result.json")],
                   check=True, capture_output=True, timeout=170)
    mini = WORKLOADS["mini"]
    clean = check_outputs(rep, mini)
    assert not clean["errors"] and clean["archived"] == mini.expected_rows, clean
    archive = os.path.join(rep, "results", "archive.csv")
    with open(archive) as fh:
        original = fh.read()
    lines = original.splitlines()
    # swap the predictions of the first and last rows of one CO2 quantile set
    first = next(i for i, ln in enumerate(lines) if ",CO2," in ln)
    last = first + len(mini.taus) - 1
    a, b = lines[first].split(","), lines[last].split(",")
    a[6], b[6] = b[6], a[6]
    lines[first], lines[last] = ",".join(a), ",".join(b)
    broken = {
        "crossed": "\n".join(lines) + "\n",
        "header": original.split("\n", 1)[1],
    }
    for what, text in broken.items():
        with open(archive, "w") as fh:
            fh.write(text)
        assert check_outputs(rep, mini)["errors"], f"{what} archive not detected"
    with open(archive, "w") as fh:
        fh.write(original)
    density = os.path.join(rep, "results", "density_params.csv")
    with open(density) as fh:
        header = fh.read()
    with open(density, "w") as fh:
        fh.write(header + "HistMean,S00,2012,1,0.0,-1.0,0.0,3.0\n")
    assert check_outputs(rep, mini)["errors"], "negative sigma not detected"


def check_wrapping():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import co2nowcast
    from co2nowcast import panel_qr, pipeline

    from tracer import Tracer, install

    names = install(Tracer(), co2nowcast)
    assert pipeline.fit_quantile is panel_qr.fit_quantile
    assert hasattr(pipeline.fit_quantile, "__wrapped__")
    assert hasattr(pipeline.NowcastArchive.to_csv, "__wrapped__")
    assert "skew_t.fit_from_quantiles" in names and len(names) == len(set(names))


def check_bare():
    """Only BENCHMARK.json and perfbench/: exit nonzero, print no result."""
    bare = os.path.join(SCRATCH, "bare")
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run_bench(bare, 0)
    assert proc.returncode != 0, proc.stdout
    assert '"metrics"' not in proc.stdout, proc.stdout


def main() -> int:
    shutil.rmtree(SCRATCH, ignore_errors=True)
    os.makedirs(SCRATCH)
    try:
        check_spec(SPEC)
        check_repetitions()
        layers = check_rerun()
        assert layers["panel_qr.fit_quantile.calls"] > 0
        assert layers["skew_t.fit_from_quantiles.calls"] == 0
        check_history()
        check_fatal()
        check_detection()
        check_wrapping()
        check_bare()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print("selfcheck ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
