"""Golden score tables: `co2nowcast evaluate` on the archives of two small
synthetic runs must reproduce the tables pinned in `golden_scores.json` and
`golden_scores_ragged.json` byte for byte. Each table's first line is
checked to be the header of the archive it scores; the rest of the file is
pinned as text.

`plain` has three entities, one evaluation year and four specs, one of
which (DirectAR-W-M-Q) archives no energy rows and so gets a header-only
rmsfe table; its tables are rmsfe, qs (tau = 0.5) and crps. `ragged` has
the same specs, three entities, two evaluation years and three quantile
levels, and S02's weekly series ends in week 20 of 2012: the specs that
read it drop S02 from weeks 25-48 of 2012 (a diagnostics gap), so those
weeks score S02 on one year and the other entities on two. Its tables are
rmsfe, crps and qs at each level. Regenerate the files only for an intended
change of output:

    PYTHONPATH=src python tests/test_golden_scores.py
"""

import json
import os

from co2nowcast.cli import EXIT_OK, _header, main
from co2nowcast.panel import MixedFreqSeries, PanelDataset
from co2nowcast.pipeline import RunConfig, run_out_of_sample

from _dgp import make_dataset

HERE = os.path.dirname(__file__)
SPECS = ("HistMean", "AR", "AR-W-M-Q", "DirectAR-W-M-Q")


def _ragged_dataset():
    base, _ = make_dataset(n_entities=3, seed=23)
    ds = PanelDataset()
    for var in base.variables:
        for e, s in base.series_of(var):
            if e == "S02" and var == "WECI":
                end = 52 * (2012 - s.start.year) + 20
                s = MixedFreqSeries(e, s.frequency, s.start, s.values[:end])
            ds.add(var, s)
    return ds


CASES = {
    "plain": dict(
        path=os.path.join(HERE, "golden_scores.json"),
        dataset=lambda: make_dataset(n_entities=3, seed=21)[0],
        config=RunConfig(estimation_start=1990, eval_start=2012, eval_end=2012,
                         specs=SPECS, fit_density=False),
        metrics=(("rmsfe",), ("qs", "--tau", "0.5"), ("crps",)),
    ),
    "ragged": dict(
        path=os.path.join(HERE, "golden_scores_ragged.json"),
        dataset=_ragged_dataset,
        config=RunConfig(estimation_start=1990, eval_start=2011, eval_end=2012,
                         specs=SPECS, fit_density=False),
        metrics=(("rmsfe",), ("crps",), ("qs", "--tau", "0.25"),
                 ("qs", "--tau", "0.5"), ("qs", "--tau", "0.75")),
    ),
}


def _score_tables(name, root):
    """The case's archive text and {file name: text below the header line}
    of every score table."""
    case = CASES[name]
    text = run_out_of_sample(case["dataset"](), case["config"]).to_csv()
    archive = os.path.join(root, "archive.csv")
    with open(archive, "w") as fh:
        fh.write(text)
    out = os.path.join(root, "tables")
    for metric in case["metrics"]:
        assert main(["evaluate", "--archive", archive, "--metric", *metric,
                     "--out", out]) == EXIT_OK
    tables = {}
    for table in sorted(os.listdir(out)):
        with open(os.path.join(out, table)) as fh:
            first = fh.readline()
            assert first == _header(text), table
            tables[table] = fh.read()
    return text, tables


def _golden(name):
    with open(CASES[name]["path"]) as fh:
        return json.load(fh)


def test_score_tables_match_golden(tmp_path):
    want = _golden("plain")
    _, got = _score_tables("plain", str(tmp_path))
    assert sorted(got) == sorted(want)
    assert len(got) == len(CASES["plain"]["metrics"]) * len(SPECS)
    assert want["scores_rmsfe_DirectAR-W-M-Q.csv"] == (
        "phase,week,q10,q25,q50,q75,q90,aggregate\n")
    for name in want:
        assert got[name] == want[name], name


def test_ragged_score_tables_match_golden(tmp_path):
    want = _golden("ragged")
    text, got = _score_tables("ragged", str(tmp_path))
    assert sorted(got) == sorted(want)
    assert len(got) == len(CASES["ragged"]["metrics"]) * len(SPECS)
    assert want["scores_rmsfe_DirectAR-W-M-Q.csv"] == (
        "phase,week,q10,q25,q50,q75,q90,aggregate\n")
    # the archive is ragged where the pin says it is: S02 is missing from
    # 2012 for the specs that read its weekly series, from week 25 on
    rows = [line.split(",") for line in text.splitlines()[1:]]
    s02_2012 = {(r[0], int(r[4])) for r in rows if r[2] == "S02" and r[3] == "2012"}
    for spec in SPECS:
        weeks = {v for s, v in s02_2012 if s == spec}
        gap = spec in ("AR-W-M-Q", "DirectAR-W-M-Q")
        assert weeks == set(range(1, 25 if gap else 49)), spec
    for name in want:
        assert got[name] == want[name], name


if __name__ == "__main__":
    import tempfile

    for case in CASES:
        with tempfile.TemporaryDirectory() as root:
            _, pinned = _score_tables(case, root)
        with open(CASES[case]["path"], "w") as fh:
            json.dump(pinned, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {len(pinned)} tables to {CASES[case]['path']}")
