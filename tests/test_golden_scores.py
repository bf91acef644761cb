"""Golden score tables: `co2nowcast evaluate` on the archive of one small
synthetic run must reproduce the rmsfe, qs (tau = 0.5) and crps tables
pinned in `golden_scores.json` byte for byte. Each table's first line is
checked to be the header of the archive it scores; the rest of the file is
pinned as text.

The run has three entities, one evaluation year and four specs, one of
which (DirectAR-W-M-Q) archives no energy rows and so gets a header-only
rmsfe table. Regenerate the file only for an intended change of output:

    PYTHONPATH=src python tests/test_golden_scores.py
"""

import json
import os

from co2nowcast.cli import EXIT_OK, _header, main
from co2nowcast.pipeline import RunConfig, run_out_of_sample

from _dgp import make_dataset

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_scores.json")
SPECS = ("HistMean", "AR", "AR-W-M-Q", "DirectAR-W-M-Q")
METRICS = (("rmsfe",), ("qs", "--tau", "0.5"), ("crps",))


def _score_tables(root):
    """{file name: text below the header line} of every score table."""
    dataset, _ = make_dataset(n_entities=3, seed=21)
    config = RunConfig(estimation_start=1990, eval_start=2012, eval_end=2012,
                       specs=SPECS, fit_density=False)
    text = run_out_of_sample(dataset, config).to_csv()
    archive = os.path.join(root, "archive.csv")
    with open(archive, "w") as fh:
        fh.write(text)
    out = os.path.join(root, "tables")
    for metric in METRICS:
        assert main(["evaluate", "--archive", archive, "--metric", *metric,
                     "--out", out]) == EXIT_OK
    tables = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name)) as fh:
            first = fh.readline()
            assert first == _header(text), name
            tables[name] = fh.read()
    return tables


def test_score_tables_match_golden(tmp_path):
    with open(GOLDEN_PATH) as fh:
        want = json.load(fh)
    got = _score_tables(str(tmp_path))
    assert sorted(got) == sorted(want)
    assert len(got) == len(METRICS) * len(SPECS)
    assert want["scores_rmsfe_DirectAR-W-M-Q.csv"] == (
        "phase,week,q10,q25,q50,q75,q90,aggregate\n")
    for name in want:
        assert got[name] == want[name], name


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as root:
        pinned = _score_tables(root)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(pinned)} tables to {GOLDEN_PATH}")
