"""Acceptance gate: one test per release criterion, named so that the
verbose pytest report reads as a pass/fail checklist. Tolerances and runtime
budgets are part of the criteria and asserted here."""

import io
import time
from contextlib import redirect_stdout

import numpy as np
import pytest

from co2nowcast.almon import AlmonSpec, build_almon_map, implied_weights, restriction_matrix
from co2nowcast.cli import EXIT_OK, main
from co2nowcast.evaluation import (
    crps,
    crps_per_entity,
    quantile_score,
    relative_and_distribution,
    rmsfe_per_entity,
    score_tables,
)
from co2nowcast.panel import MixedFreqSeries, PanelDataset, PeriodIndex, ordinal
from co2nowcast.panel_ls import DesignRow, fit_within
from co2nowcast.panel_qr import QuantileSpec, fit_quantile
from co2nowcast.pipeline import (
    MODEL_KINDS,
    ModelSpec,
    PanelArrays,
    RunConfig,
    assemble_energy_design,
    bridge_design,
    co2_benchmark_quantiles,
    direct_design,
    energy_hist_mean,
    nowcast_co2_density,
    nowcast_energy,
)
from co2nowcast.release_calendar import information_set, table2_rules
from co2nowcast.skew_t import SkewTParams, cdf, fit_from_quantiles, quantile

from _dgp import make_dataset
from test_almon import _constrained_ls_oracle
from test_calendar import GOLDEN_2021
from test_panel_qr import lp_oracle


def test_criterion_1_calendar_golden_2021():
    """All 48 weekly rows of the 2021 release calendar, string-equal."""
    t0 = time.monotonic()
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(["calendar", "print", "--year", "2021"]) == EXIT_OK
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "phase,week,date,CO2,EC,PI,ELEC,WECI"
    assert lines[1:] == GOLDEN_2021.strip().splitlines()
    assert time.monotonic() - t0 < 1.0


def test_criterion_2_almon_restriction_exactness():
    """Lag-map restrictions hold exactly; transformed regression matches a
    constrained least-squares oracle."""
    spec = AlmonSpec(p=3, r=2, C=52)
    amap = build_almon_map(spec)
    A = restriction_matrix(spec)
    # row-relative residual: restriction rows have entries up to (C-1)^p
    resid = np.abs(A @ amap.basis) / np.linalg.norm(A, axis=1, keepdims=True)
    assert np.max(resid) < 1e-12

    rng = np.random.default_rng(0)
    c = float(spec.C - 1)
    for _ in range(100):
        gamma = rng.normal(0, 5, spec.n_params)
        b = implied_weights(amap, gamma)
        theta = amap.basis @ gamma
        scale = max(1.0, float(np.max(np.abs(b))))
        assert abs(b[-1]) < 1e-10 * scale
        slope = sum(l * theta[l] * c ** (l - 1) for l in range(1, spec.p + 1))
        assert abs(slope) < 1e-10 * max(1.0, float(np.max(np.abs(theta))))

    small = AlmonSpec(p=2, r=1, C=8)
    small_map = build_almon_map(small)
    for _ in range(20):
        X = rng.normal(size=(40, small.C))
        y = rng.normal(size=40)
        gamma, *_ = np.linalg.lstsq(X @ small_map.Q.T, y, rcond=None)
        b_ours = implied_weights(small_map, gamma)
        b_oracle = _constrained_ls_oracle(X, y, small)
        assert np.allclose(b_ours, b_oracle, atol=1e-8)


def _dummy_ols(rows):
    """Entity-dummy OLS via the normal equations (independent oracle)."""
    ents = sorted({r.entity for r in rows})
    pos = {e: j for j, e in enumerate(ents)}
    n, k = len(rows), len(rows[0].x)
    Z = np.zeros((n, len(ents) + k))
    y = np.zeros(n)
    for i, r in enumerate(rows):
        Z[i, pos[r.entity]] = 1.0
        Z[i, len(ents):] = r.x
        y[i] = r.y
    coef = np.linalg.solve(Z.T @ Z, Z.T @ y)
    return {e: coef[pos[e]] for e in ents}, coef[len(ents):]


def test_criterion_3_within_estimator_matches_dummy_ols():
    """50 random small panels: demeaned LS equals dummy-variable OLS."""
    rng = np.random.default_rng(7)
    for _ in range(50):
        n_ent = int(rng.integers(2, 6))
        k = int(rng.integers(1, 5))
        rows = []
        for i in range(n_ent):
            t_i = int(rng.integers(2, 11))
            for s in range(t_i):
                x = rng.normal(size=k)
                y = float(rng.normal() + i + x.sum())
                rows.append(DesignRow(entity=f"E{i}", year=s, y=y, x=x))
        model = fit_within(rows)
        alpha, beta = _dummy_ols(rows)
        assert np.allclose(model.beta, beta, atol=1e-8)
        for e in alpha:
            assert model.alpha[e] == pytest.approx(alpha[e], abs=1e-8)


def test_criterion_4_quantile_regression_matches_lp_optimum():
    """25 random panels, tau x lambda grid: fitted objective within 1e-6
    relative of the exact LP optimum from an independent encoding."""
    rng = np.random.default_rng(21)
    for _ in range(25):
        n_ent = int(rng.integers(2, 5))
        k = int(rng.integers(1, 4))
        rows = []
        for i in range(n_ent):
            for s in range(int(rng.integers(4, 12))):
                x = rng.normal(size=k)
                y = float(0.5 * i + x @ rng.normal(size=k) + rng.normal())
                rows.append(DesignRow(entity=f"E{i}", year=s, y=y, x=x))
        assert len(rows) <= 200
        tau = float(rng.choice([0.25, 0.5, 0.75]))
        lam = float(rng.choice([0.0, 1.0, 10.0]))
        opt = lp_oracle(rows, tau, lam)
        model = fit_quantile(rows, QuantileSpec(tau=tau, lam=lam))
        assert model.objective <= opt * (1.0 + 1e-6) + 1e-9


def test_criterion_5_skew_t_self_consistency():
    """cdf/quantile round trips, quantile-matching recovery and the
    normal limit of the quantile function."""
    levels = (0.25, 0.5, 0.75)
    for params in (
        SkewTParams(mu=0.0, sigma=1.0, alpha=0.0, nu=5.0),
        SkewTParams(mu=0.3, sigma=0.7, alpha=3.0, nu=8.0),
        SkewTParams(mu=-1.0, sigma=2.0, alpha=-5.0, nu=12.0),
    ):
        for tau in (0.05, 0.25, 0.5, 0.75, 0.95):
            assert cdf(params, quantile(params, tau)) == pytest.approx(tau, abs=1e-9)

    truth = SkewTParams(mu=0.2, sigma=0.8, alpha=2.5, nu=8.0)
    values = tuple(quantile(truth, t) for t in levels)
    # three quantiles cannot identify nu, so recovery pins the generating nu
    fitted = fit_from_quantiles(levels, values, nu=truth.nu)
    assert fitted.mu == pytest.approx(truth.mu, abs=1e-3)
    assert fitted.sigma == pytest.approx(truth.sigma, abs=1e-3)
    assert fitted.alpha == pytest.approx(truth.alpha, abs=1e-3)

    limit = SkewTParams(mu=0.0, sigma=1.0, alpha=0.0, nu=1e6)
    assert quantile(limit, 0.975) == pytest.approx(1.959964, abs=1e-3)


def test_criterion_6_scoring_identities():
    """QS(0.5) = MAE/2 exactly; CRPS is the mean of the quantile scores;
    the benchmark scored against itself is 1 in every cell."""
    rng = np.random.default_rng(3)
    rows = [
        dict(entity=f"S{i % 4}", year=2000 + i // 4,
             prediction=float(rng.normal()), realized=float(rng.normal()))
        for i in range(40)
    ]
    mae = float(np.mean([abs(r["realized"] - r["prediction"]) for r in rows]))
    per = rmsfe_per_entity(rows)  # grouping sanity: 4 entities present
    assert len(per) == 4
    total = sum(
        abs(r["realized"] - r["prediction"]) for r in rows
    ) / len(rows)
    assert mae == total
    qs_by_entity_mean = quantile_score(rows, 0.5)
    flat = [abs(r["realized"] - r["prediction"]) for r in rows]
    # balanced panel: per-entity averaging equals the pooled mean
    assert qs_by_entity_mean == pytest.approx(0.5 * float(np.mean(flat)), abs=1e-12)

    by_tau = {
        tau: [dict(r, prediction=r["prediction"] + tau) for r in rows]
        for tau in (0.25, 0.5, 0.75)
    }
    expected = np.mean([quantile_score(by_tau[t], t) for t in by_tau])
    assert crps(by_tau) == pytest.approx(float(expected), abs=1e-14)

    weekly = {v: rows for v in range(1, 49)}
    table = score_tables([dict(r, spec="HistMean", variable="EC", week=v)
                          for v, week_rows in weekly.items() for r in week_rows],
                         "rmsfe")["HistMean"]
    assert len(table) == 48
    for row in table:
        assert row["aggregate"] == pytest.approx(1.0)
        for key in ("q10", "q25", "q50", "q75", "q90"):
            assert row[key] == pytest.approx(1.0)


SENTINEL = 1.0e9
LEAK_LIMIT = 1.0e8


def _poison_after(dataset, info):
    """Every cell strictly after the information set becomes the sentinel."""
    out = PanelDataset()
    for var in dataset.variables:
        freq = dataset.frequency(var)
        n_keep_end = ordinal(freq, info[var])
        for entity, series in dataset.series_of(var):
            vals = np.array(series.values)
            keep = n_keep_end - ordinal(freq, series.start) + 1
            if keep < len(vals):
                vals[max(keep, 0):] = SENTINEL
            out.add(var, MixedFreqSeries(entity, freq, series.start, vals))
    return out


def _assert_clean(rows, pred):
    for r in rows:
        assert abs(r.y) < LEAK_LIMIT
        assert np.all(np.abs(r.x) < LEAK_LIMIT)
    for _, x in pred:
        assert np.all(np.abs(x) < LEAK_LIMIT)


def test_criterion_7_information_discipline_sentinel_audit():
    """Poison every period after the information set with 1e9 and assemble
    every design, benchmark and factor of a full toy run from the poisoned
    panel's arrays, read through the information set: the sentinel must
    never appear."""
    t0 = time.monotonic()
    dataset, _ = make_dataset(n_entities=2, first_year=1990, last_year=2012, seed=5)
    rules = table2_rules()
    est_start = 1995
    specs = [ModelSpec(kind=k) for k in MODEL_KINDS if k != "HistMean"]
    for t in (2011, 2012):
        for v in range(1, 49):
            info = information_set(rules, t, v)
            ds = PanelArrays(_poison_after(dataset, info))
            energy = energy_hist_mean(ds, info)
            benchmarks = co2_benchmark_quantiles(ds, info, (0.25, 0.5, 0.75))
            for e in ds.entities:
                assert abs(energy[e]) < LEAK_LIMIT
                for q in benchmarks[e]:
                    assert abs(q) < LEAK_LIMIT
            rows, pred, _ = bridge_design(ds, info, energy, t, est_start)
            _assert_clean(rows, pred)
            for spec in specs:
                if spec.is_direct:
                    rows, pred, _ = direct_design(ds, info, spec, t, est_start)
                else:
                    rows, pred, _ = assemble_energy_design(ds, info, spec, t, est_start)
                _assert_clean(rows, pred)
    assert time.monotonic() - t0 < 30.0


def _relative_scores_one_seed(seed):
    """One synthetic panel: weekly relative RMSFE for the full mixed-frequency
    model and its relative CRPS at the final week."""
    dataset, _ = make_dataset(n_entities=6, noise_c=0.01, seed=seed)
    rules = table2_rules()
    config = RunConfig(estimation_start=1990, eval_start=2011, eval_end=2012,
                       specs=("HistMean", "AR-W-M-Q"), fit_density=False)
    spec = ModelSpec(kind="AR-W-M-Q")
    hist = ModelSpec(kind="HistMean")

    def realized(var, entity, year):
        return dataset.get(var, entity).value_at(PeriodIndex(year))

    model_rows, bench_rows = {}, {}
    co2_model, co2_bench = {}, {}
    ds = PanelArrays(dataset)
    for t in config.eval_years:
        for v in range(9, 49):
            info = information_set(rules, t, v)
            for m_spec, store in ((spec, model_rows), (hist, bench_rows)):
                out, _ = nowcast_energy(ds, info, m_spec, config)
                store.setdefault(v, []).extend(
                    dict(entity=n.entity, year=t, prediction=n.value,
                         realized=realized("EC", n.entity, t))
                    for n in out
                )
        info = information_set(rules, t, 48)
        energy = nowcast_energy(ds, info, spec, config)
        out, _ = nowcast_co2_density(ds, info, spec, config, energy,
                                     co2_benchmark_quantiles(ds, info, config.taus))
        for n in out:
            y = realized("CO2", n.entity, t)
            for tau, q_m, q_b in zip(config.taus, n.quantiles, n.benchmark):
                co2_model.setdefault(tau, []).append(
                    dict(entity=n.entity, year=t, prediction=q_m, realized=y))
                co2_bench.setdefault(tau, []).append(
                    dict(entity=n.entity, year=t, prediction=q_b, realized=y))

    rel_rmsfe = {
        v: relative_and_distribution(
            rmsfe_per_entity(model_rows[v]), rmsfe_per_entity(bench_rows[v])
        )["aggregate"]
        for v in model_rows
    }
    rel_crps = relative_and_distribution(
        crps_per_entity(co2_model), crps_per_entity(co2_bench)
    )["aggregate"]
    return rel_rmsfe, rel_crps


def test_criterion_8_synthetic_accuracy_properties():
    """Over 20 seeded synthetic panels: the full mixed-frequency model beats
    the historical-mean benchmark at every nowcast week on average, improves
    from week 9 to week 48, and its week-48 density nowcast beats the
    benchmark on CRPS."""
    t0 = time.monotonic()
    n_seeds = 20
    rmsfe_by_week: dict = {}
    crps_vals = []
    for seed in range(n_seeds):
        rel_rmsfe, rel_crps = _relative_scores_one_seed(seed)
        for v, r in rel_rmsfe.items():
            rmsfe_by_week.setdefault(v, []).append(r)
        crps_vals.append(rel_crps)

    means = {v: float(np.mean(r)) for v, r in rmsfe_by_week.items()}
    assert all(means[v] < 1.0 for v in range(9, 49)), means
    assert means[48] < means[9]
    assert float(np.mean(crps_vals)) < 1.0
    assert time.monotonic() - t0 < 300.0
