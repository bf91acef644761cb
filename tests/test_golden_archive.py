"""Golden-archive regression: small synthetic runs of `run_out_of_sample`
whose archive, density and diagnostics values are pinned in
`golden_archive.json`. A refactor that claims to preserve behaviour must
reproduce every row, in order, to a relative tolerance of 1e-9.

The cases cover all eight model specs, bridge density fits with three
quantile levels, and the diagnostics of thin entities and failed stages.
Regenerate the file only for an intended change of output:

    PYTHONPATH=src python tests/test_golden_archive.py
"""

import json
import os

import pytest

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
}


def _tables(archive):
    """Every archived row as a flat list, in archive order."""
    return dict(
        energy=[[r["spec"], r["entity"], r["year"], r["week"],
                 r["prediction"], r["benchmark"], r["realized"]]
                for r in archive.energy_rows],
        co2=[[r["spec"], r["entity"], r["year"], r["week"], r["tau"],
              r["prediction"], r["benchmark"], r["realized"]]
             for r in archive.co2_rows],
        density=[[r["spec"], r["entity"], r["year"], r["week"],
                  r["params"].mu, r["params"].sigma, r["params"].alpha,
                  r["params"].nu]
                 for r in archive.density_rows],
        diagnostics=[[d["spec"], d["year"], d["week"], d["stage"], d["detail"]]
                     for d in archive.diagnostics],
    )


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


if __name__ == "__main__":
    pinned = {name: _run(name) for name in sorted(CASES)}
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(pinned, fh, indent=None, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")
