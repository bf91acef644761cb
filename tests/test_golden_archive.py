"""Golden-archive regression: small synthetic runs of `run_out_of_sample`
whose archive, density and diagnostics values are pinned in
`golden_archive.json`. A refactor that claims to preserve behaviour must
reproduce every row, in order, to a relative tolerance of 1e-9.

The cases cover all eight model specs, bridge density fits with three
quantile levels, the diagnostics of thin entities and failed stages, and
(case `faces`) quantile fits whose optimal face is flat, so the tie-break LP
picks their point, and skew-t densities matched inside the shape bound.
Regenerate the file only for an intended change of output:

    PYTHONPATH=src python tests/test_golden_archive.py

which prints, per case, table and float column, the largest absolute and
relative change from the file it replaces.
"""

import csv
import io
import json
import os

import numpy as np
import pytest

from co2nowcast import panel_qr
from co2nowcast.panel import Frequency, MixedFreqSeries, PanelDataset, PeriodIndex
from co2nowcast.pipeline import MODEL_KINDS, RunConfig, run_out_of_sample

from _dgp import make_dataset

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_archive.json")
REL = 1e-9


def _late_starter():
    """Three entities; S02's annual series start in 2007, so it is too thin
    for a fixed effect in some weeks and is dropped there."""
    base, _ = make_dataset(n_entities=3, seed=23)
    ds = PanelDataset()
    for var in base.variables:
        for e, s in base.series_of(var):
            if e == "S02" and var in ("EC", "CO2"):
                k = 2007 - s.start.year
                s = MixedFreqSeries(e, Frequency.ANNUAL, PeriodIndex(2007), s.values[k:])
            ds.add(var, s)
    return ds


CASES = {
    # every spec, one quantile level, no densities
    "all_specs": lambda: (
        make_dataset(n_entities=2, seed=21)[0],
        RunConfig(estimation_start=1990, eval_start=2012, eval_end=2012,
                  taus=(0.5,), specs=MODEL_KINDS, fit_density=False),
    ),
    # quantile triples, rearrangement and skew-t fits
    "density": lambda: (
        make_dataset(n_entities=2, seed=22)[0],
        RunConfig(estimation_start=1990, eval_start=2012, eval_end=2012,
                  specs=("AR-W",), fit_density=True),
    ),
    # entity gaps in the energy and CO2 stages
    "late_starter": lambda: (
        _late_starter(),
        RunConfig(estimation_start=1990, eval_start=2012, eval_end=2012,
                  taus=(0.5,), specs=("HistMean", "AR", "AR-W-M-Q", "DirectAR-W-M-Q"),
                  fit_density=False),
    ),
    # failed energy stages and empty designs
    "short_sample": lambda: (
        make_dataset(n_entities=2, first_year=2005, last_year=2009, seed=2)[0],
        RunConfig(estimation_start=2005, eval_start=2009, eval_end=2009,
                  specs=("HistMean", "AR-W", "DirectAR-W-M-Q"), fit_density=False),
    ),
    # quantile LPs with flat optimal faces and skew-t densities matched
    # inside the shape bound
    "faces": lambda: (
        make_dataset(n_entities=8, first_year=1985, last_year=2018, seed=1)[0],
        RunConfig(eval_start=2018, eval_end=2018, specs=("HistMean", "DirectAR-W-M-Q")),
    ),
}


COLUMNS = dict(
    energy=("spec", "entity", "year", "week", "prediction", "benchmark", "realized"),
    co2=("spec", "entity", "year", "week", "tau", "prediction", "benchmark",
         "realized"),
    density=("spec", "entity", "year", "week", "mu", "sigma", "alpha", "nu"),
    diagnostics=("spec", "year", "week", "stage", "detail"),
)


def _tables(archive):
    """Every archived row as a flat list, in archive order, read from the
    text of the three files: int year and week, float numbers, str names."""
    tables = {table: [] for table in COLUMNS}
    for line in archive.to_csv().splitlines()[1:]:
        spec, variable, entity, year, week, tau, *values = line.split(",")
        row = [spec, entity, int(year), int(week)]
        if variable == "EC":
            tables["energy"].append(row + [float(x) for x in values])
        else:
            tables["co2"].append(row + [float(x) for x in (tau, *values)])
    for line in archive.density_csv().splitlines()[1:]:
        spec, entity, year, week, *values = line.split(",")
        tables["density"].append([spec, entity, int(year), int(week),
                                  *(float(x) for x in values)])
    for spec, year, week, stage, detail in list(
            csv.reader(io.StringIO(archive.diagnostics_csv())))[1:]:
        tables["diagnostics"].append([spec, int(year), int(week), stage, detail])
    return tables


def _run(name):
    dataset, config = CASES[name]()
    return _tables(run_out_of_sample(dataset, config))


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def test_golden_covers_every_spec_and_a_density_fit(golden):
    specs = {row[0] for case in golden.values() for row in case["co2"]}
    assert specs == set(MODEL_KINDS)
    assert golden["density"]["density"]
    assert any(d[3] == "energy" for d in golden["late_starter"]["diagnostics"])
    assert any(d[3] == "co2" for d in golden["short_sample"]["diagnostics"])


def test_faces_case_reaches_face_lps_and_matched_densities(monkeypatch):
    whats = []
    highs = panel_qr._highs

    def counted(*args, what="quantile LP", **kwargs):
        whats.append(what)
        return highs(*args, what=what, **kwargs)

    monkeypatch.setattr(panel_qr, "_highs", counted)
    tables = _run("faces")
    assert "quantile tie-break LP" in whats
    assert any(abs(alpha) < 32.0 for *_, alpha, _ in tables["density"])


@pytest.mark.parametrize("name", sorted(CASES))
def test_archive_matches_golden(golden, name):
    got, want = _run(name), golden[name]
    for table in ("energy", "co2", "density", "diagnostics"):
        assert len(got[table]) == len(want[table]), f"{name}/{table}: row count"
        for i, (g, w) in enumerate(zip(got[table], want[table])):
            where = f"{name}/{table} row {i}"
            assert len(g) == len(w), where
            for a, b in zip(g, w):
                if isinstance(b, float):
                    assert a == pytest.approx(b, rel=REL, nan_ok=True), (where, g, w)
                else:
                    assert a == b, (where, g, w)


def _changes(old, new):
    """One line per case, table and float column: the largest absolute and
    relative change from `old` to `new`. Any other difference (a row count, a
    string or an int) is reported as such."""
    lines = []
    for name in sorted(new):
        for table, columns in COLUMNS.items():
            was, now = old.get(name, {}).get(table, []), new[name][table]
            where = f"{name}/{table}"
            if len(was) != len(now):
                lines.append(f"{where}: {len(was)} -> {len(now)} rows")
                continue
            if not now:
                continue
            for j, col in enumerate(columns):
                pairs = [(w[j], g[j]) for w, g in zip(was, now)]
                if not all(isinstance(w, float) for w, _ in pairs):
                    if any(w != g for w, g in pairs):
                        lines.append(f"{where}.{col}: values differ")
                    continue
                w, g = np.array(pairs).T
                same = (w == g) | (np.isnan(w) & np.isnan(g))
                diff = np.where(same, 0.0, np.abs(g - w))
                with np.errstate(divide="ignore", invalid="ignore"):
                    rel = np.where(same, 0.0, diff / np.abs(w))
                lines.append(f"{where}.{col}: max abs {diff.max():.3g}, "
                             f"max rel {rel.max():.3g} over {len(pairs)} rows")
    return lines


if __name__ == "__main__":
    with open(GOLDEN_PATH) as fh:
        previous = json.load(fh)
    pinned = {name: _run(name) for name in sorted(CASES)}
    print("\n".join(_changes(previous, pinned)))
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(pinned, fh, indent=None, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")
