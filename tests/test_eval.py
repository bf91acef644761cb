import numpy as np
import pytest

from co2nowcast import evaluation
from co2nowcast.errors import DomainError, ScoringGapError
from co2nowcast.evaluation import DIST_LEVELS, level, pinball, score_columns, score_table_csv

QUANTILE_KEYS = ("q10", "q25", "q50", "q75", "q90")


def rows(entity, preds, reals):
    return [
        dict(entity=entity, year=2000 + i, prediction=float(p), realized=float(r))
        for i, (p, r) in enumerate(zip(preds, reals))
    ]


def tagged(weekly, spec, variable="EC", tau="point"):
    """Archive rows of `spec` from week -> rows (for crps: week -> tau -> rows)."""
    out = []
    for v, group in weekly.items():
        by_tau = group if isinstance(group, dict) else {tau: group}
        for t, rs in by_tau.items():
            out += [dict(r, spec=spec, variable=variable, week=v,
                         tau_or_point=str(t)) for r in rs]
    return out


def score(archive, metric, tau=None, relative_to="HistMean"):
    """`score_columns` of archive rows given as dicts."""
    names = ("spec", "variable", "entity", "week", "prediction", "realized")
    columns = {name: [r[name] for r in archive] for name in names}
    columns["target_year"] = [r["year"] for r in archive]
    columns["tau_or_point"] = [level(r["tau_or_point"]) for r in archive]
    return score_columns(columns, metric, tau, relative_to)


def absolute(model, metric="rmsfe", tau=None):
    """The mean over entities of the per-entity scores of `model` (rows, or
    for crps {tau: rows}): the model_aggregate of AR against a HistMean
    benchmark that misses every realized value by 1."""
    by_tau = model if isinstance(model, dict) else {"point" if tau is None else tau: model}
    bench = {t: [dict(r, prediction=r["realized"] + 1.0) for r in rs]
             for t, rs in by_tau.items()}
    variable = "EC" if metric == "rmsfe" else "CO2"
    archive = tagged({1: by_tau}, "AR", variable) + tagged({1: bench}, "HistMean", variable)
    (row,) = score(archive, metric, tau)["AR"]
    return row["model_aggregate"]


class TestRmsfe:
    def test_perfect(self):
        assert absolute(rows("A", [1.0, 2.0], [1.0, 2.0])) == 0.0

    def test_arithmetic(self):
        # errors 3 and 4: sqrt((9+16)/2) = sqrt(12.5)
        out = absolute(rows("A", [3.0, 4.0], [0.0, 0.0]))
        assert out == pytest.approx(np.sqrt(12.5))

    def test_mean_of_roots(self):
        r = rows("A", [1.0, 1.0], [0.0, 0.0]) + rows("B", [3.0, 3.0], [0.0, 0.0])
        assert absolute(r) == pytest.approx(2.0)  # (1 + 3) / 2, not sqrt(5)

    def test_missing_realized_rejected(self):
        with pytest.raises(ScoringGapError, match="missing prediction or realized"):
            absolute(rows("A", [1.0], [float("nan")]))


class TestQuantileScore:
    def test_perfect(self):
        assert absolute(rows("A", [1.0, 2.0], [1.0, 2.0]), "qs", 0.5) == 0.0

    def test_median_is_half_mae(self):
        r = rows("A", [1.0, 1.0], [0.0, 2.0])
        assert absolute(r, "qs", 0.5) == pytest.approx(0.5)

    def test_half_mae_identity_random(self):
        rng = np.random.default_rng(13)
        preds = rng.normal(size=50)
        reals = rng.normal(size=50)
        r = rows("A", preds, reals)
        mae = np.mean(np.abs(reals - preds))
        assert absolute(r, "qs", 0.5) == pytest.approx(0.5 * mae, abs=1e-12)

    def test_pinball_convention(self):
        # single observation, predicted 0.25-quantile of 0 against outcome 1:
        # u = 1, loss = u * tau = 0.25
        assert absolute(rows("A", [0.0], [1.0]), "qs", 0.25) == pytest.approx(0.25)
        assert pinball(1.0, 0.25) == pytest.approx(0.25)
        assert pinball(-1.0, 0.25) == pytest.approx(0.75)
        assert pinball(0.0, 0.7) == 0.0
        u = np.random.default_rng(5).normal(size=100)
        for tau in (0.1, 0.5, 0.9):
            assert np.all(pinball(u, tau) >= 0.0)

    def test_nonnegative(self):
        rng = np.random.default_rng(19)
        r = rows("A", rng.normal(size=30), rng.normal(size=30))
        for tau in (0.1, 0.25, 0.5, 0.9):
            assert absolute(r, "qs", tau) >= 0.0

    @pytest.mark.parametrize("tau", [0.3, float("nan")])
    def test_level_missing_from_archive(self, tau):
        # NaN is no level of the archive, not a level with no rows
        weekly = {1: rows("A", [0.0], [1.0])}
        archive = tagged(weekly, "AR", "CO2", 0.5) + tagged(weekly, "HistMean", "CO2", 0.5)
        with pytest.raises(ScoringGapError, match=rf"tau={tau} not in archive"):
            score(archive, "qs", tau)


class TestCrps:
    def test_mean_of_quantile_scores(self):
        rng = np.random.default_rng(7)
        by_tau = {
            tau: rows("A", rng.normal(size=10), rng.normal(size=10))
            for tau in (0.25, 0.5, 0.75)
        }
        expected = np.mean([absolute(by_tau[t], "qs", t) for t in by_tau])
        assert absolute(by_tau, "crps") == pytest.approx(expected, abs=1e-14)

    def test_known_triple(self):
        # QS values (0.3, 0.2, 0.1) average to 0.2
        by_tau = {
            0.25: rows("A", [0.0], [1.2]),  # 1.2 * 0.25 = 0.3
            0.50: rows("A", [0.0], [0.4]),  # 0.4 * 0.5 = 0.2
            0.75: rows("A", [0.4], [0.0]),  # 0.4 * (1 - 0.75) = 0.1
        }
        assert absolute(by_tau, "crps") == pytest.approx(0.2, abs=1e-12)

    def test_single_level_equals_qs(self):
        r = rows("A", [1.0, 0.0], [0.0, 2.0])
        assert absolute({0.5: r}, "crps") == pytest.approx(absolute(r, "qs", 0.5))

    def test_per_entity_requires_matched_entities(self):
        with pytest.raises(ScoringGapError, match="entity sets differ across quantile levels"):
            absolute({
                0.25: rows("A", [1.0], [0.0]),
                0.75: rows("B", [1.0], [0.0]),
            }, "crps")


def relative(model, bench):
    """The rmsfe table row of AR against HistMean for per-entity scores
    {entity: score}: each entity has one row, missing by its score."""
    def archive(per, spec):
        return tagged({1: [r for e, s in per.items() for r in rows(e, [s], [0.0])]}, spec)

    (row,) = score(archive(model, "AR") + archive(bench, "HistMean"), "rmsfe")["AR"]
    return row


class TestRelativeAndDistribution:
    def test_self_relative_is_one(self):
        per = {"A": 1.3, "B": 0.7, "C": 2.0}
        out = relative(per, dict(per))
        assert out["aggregate"] == pytest.approx(1.0)
        assert all(out[k] == pytest.approx(1.0) for k in QUANTILE_KEYS)

    def test_constant_ratio(self):
        model = {f"S{i}": 0.5 for i in range(11)}
        bench = {f"S{i}": 1.0 for i in range(11)}
        out = relative(model, bench)
        assert all(out[k] == pytest.approx(0.5) for k in QUANTILE_KEYS)
        assert len(QUANTILE_KEYS) == len(DIST_LEVELS)

    def test_aggregates_are_the_means_over_entities(self):
        out = relative({"A": 1.0, "B": 3.0}, {"A": 2.0, "B": 2.0})
        assert out["model_aggregate"] == pytest.approx(2.0)
        assert out["benchmark_aggregate"] == pytest.approx(2.0)
        assert out["aggregate"] == pytest.approx(1.0)
        assert (out["q10"], out["q90"]) == pytest.approx((0.6, 1.4))

    def test_mismatched_entities(self):
        with pytest.raises(ScoringGapError, match="model and benchmark cover different entities"):
            relative({"A": 1.0}, {"B": 1.0})

    def test_zero_benchmark(self):
        with pytest.raises(DomainError):
            relative({"A": 1.0}, {"A": 0.0})

    def test_zero_benchmark_entity_under_a_nonzero_aggregate(self):
        with pytest.raises(DomainError, match="benchmark score for entity 'B' is zero"):
            relative({"A": 1.0, "B": 1.0}, {"A": 2.0, "B": 0.0})


class TestScoreTable:
    def _weekly(self):
        rng = np.random.default_rng(3)
        model, bench = {}, {}
        for v in (1, 5, 9):
            model[v] = (rows("A", rng.normal(size=4), rng.normal(size=4))
                        + rows("B", rng.normal(size=4), rng.normal(size=4)))
            bench[v] = (rows("A", rng.normal(size=4), rng.normal(size=4))
                        + rows("B", rng.normal(size=4), rng.normal(size=4)))
        return model, bench

    def _archive(self):
        model, bench = self._weekly()
        return tagged(model, "AR") + tagged(bench, "HistMean"), model, bench

    def test_rmsfe_table(self):
        archive, model, bench = self._archive()
        table = score(archive, "rmsfe")["AR"]
        assert [r["week"] for r in table] == [1, 5, 9]
        assert table[0]["phase"] == "Backcast"
        assert table[1]["phase"] == "Nowcast"
        # the mean over entities of each entity's root mean squared error
        m, b = (np.mean([np.sqrt(np.mean([(r["prediction"] - r["realized"]) ** 2
                                          for r in rs[1] if r["entity"] == e]))
                         for e in ("A", "B")]) for rs in (model, bench))
        assert table[0]["model_aggregate"] == pytest.approx(m)
        assert table[0]["benchmark_aggregate"] == pytest.approx(b)
        assert table[0]["aggregate"] == pytest.approx(m / b)

    def test_benchmark_against_itself(self):
        archive, _, _ = self._archive()
        for spec in ("AR", "HistMean"):
            table = score(archive, "rmsfe", relative_to=spec)[spec]
            assert len(table) == 3
            for r in table:
                assert r["aggregate"] == pytest.approx(1.0)
                for key in ("q10", "q25", "q50", "q75", "q90"):
                    assert r[key] == pytest.approx(1.0)

    def test_qs_requires_tau(self):
        model, bench = self._weekly()
        archive = (tagged(model, "AR", "CO2", 0.5)
                   + tagged(bench, "HistMean", "CO2", 0.5))
        with pytest.raises(DomainError):
            score(archive, "qs")

    def test_csv_layout(self):
        archive, _, _ = self._archive()
        text = score_table_csv(score(archive, "rmsfe")["AR"])
        lines = text.strip().splitlines()
        assert lines[0] == "phase,week,q10,q25,q50,q75,q90,aggregate"
        assert len(lines) == 4

    def test_crps_table(self):
        rng = np.random.default_rng(4)

        def by_tau():
            return {
                tau: rows("A", rng.normal(size=4), rng.normal(size=4))
                + rows("B", rng.normal(size=4), rng.normal(size=4))
                for tau in (0.25, 0.5, 0.75)
            }

        model = {1: by_tau(), 9: by_tau()}
        bench = {1: by_tau(), 9: by_tau()}
        archive = tagged(model, "AR", "CO2") + tagged(bench, "HistMean", "CO2")
        table = score(archive, "crps")["AR"]
        assert len(table) == 2
        assert all(r["aggregate"] > 0 for r in table)

    def test_benchmark_table_is_one_in_every_cell(self):
        # three specs over 48 weeks, one entity with a year fewer in some
        # weeks; the benchmark against itself is exactly 1
        rng = np.random.default_rng(6)
        archive = []
        for spec in ("AR", "AR-W", "HistMean"):
            weekly = {v: rows("A", rng.normal(size=2), rng.normal(size=2))
                      + rows("B", rng.normal(size=1 + v % 2), rng.normal(size=1 + v % 2))
                      for v in range(1, 49)}
            archive += tagged(weekly, spec)
        tables = score(archive, "rmsfe")
        assert sorted(tables) == ["AR", "AR-W", "HistMean"]
        assert all(len(t) == 48 for t in tables.values())
        for r in tables["HistMean"]:
            assert [r[k] for k in ("q10", "q25", "q50", "q75", "q90", "aggregate")] == [1.0] * 6

    def test_spec_without_rows_of_the_metric_gets_an_empty_table(self):
        archive, model, _ = self._archive()
        archive += tagged(model, "DirectAR-W-M-Q", "CO2", 0.5)
        tables = score(archive, "rmsfe")
        assert tables["DirectAR-W-M-Q"] == []
        assert score_table_csv(tables["DirectAR-W-M-Q"]) == (
            "phase,week,q10,q25,q50,q75,q90,aggregate\n")

    def test_rmsfe_of_an_archive_without_energy_rows_is_empty_per_spec(self):
        model, bench = self._weekly()
        archive = tagged(model, "AR", "CO2", 0.5) + tagged(bench, "HistMean", "CO2", 0.5)
        assert score(archive, "rmsfe") == {"AR": [], "HistMean": []}

    def test_failure_in_the_benchmark_names_the_benchmark(self):
        archive, _, _ = self._archive()
        archive[-1] = dict(archive[-1], realized=float("nan"))
        with pytest.raises(ScoringGapError, match="^spec 'HistMean' against 'HistMean':"):
            score(archive, "rmsfe")


def _reference_tables(rows, metric, tau=None, relative_to="HistMean"):
    """Group by group: one np.mean per (spec, week, entity[, level]) and one
    np.quantile per (spec, week); {spec: [(week, q10..q90, aggregate,
    model_aggregate, benchmark_aggregate)]}."""
    groups: dict = {}
    for r in rows:
        if r["variable"] != ("EC" if metric == "rmsfe" else "CO2"):
            continue
        lv = None if metric == "rmsfe" else float(r["tau_or_point"])
        if metric == "qs" and lv != tau:
            continue
        by_entity = groups.setdefault((r["spec"], r["week"]), {})
        by_entity.setdefault(r["entity"], {}).setdefault(lv, []).append(r)

    def score(by_level):
        per = []
        for lv, rs in sorted(by_level.items()):
            u = np.array([r["realized"] - r["prediction"] for r in rs])
            if metric == "rmsfe":
                per.append(float(np.sqrt(np.mean(u**2))))
            else:
                per.append(float(np.mean(pinball(u, tau if metric == "qs" else lv))))
        return float(np.mean(per))

    scores = {k: {e: score(g[e]) for e in sorted(g)} for k, g in groups.items()}
    tables: dict = {}
    for spec, v in sorted(scores):
        model, bench = scores[spec, v], scores[relative_to, v]
        ratios = [model[e] / bench[e] for e in model]
        m, b = (float(np.mean(list(per.values()))) for per in (model, bench))
        tables.setdefault(spec, []).append(
            (v, *np.quantile(ratios, DIST_LEVELS).tolist(), m / b, m, b))
    return tables


class TestColumnKernel:
    def test_tables_match_a_group_by_group_reference(self):
        # ragged: each entity has its own number of years, some entities miss
        # a spec's week in a year; a benchmark entity always has every year
        rng = np.random.default_rng(8)
        archive = []
        for e in [f"S{i:02d}" for i in range(11)]:
            for year in range(2000, 2000 + int(rng.integers(1, 5))):
                for spec in ("AR", "AR-W", "HistMean"):
                    for v in range(1, 13):
                        if spec != "HistMean" and year > 2000 and rng.random() < 0.3:
                            continue
                        real = float(rng.normal())
                        archive.append(dict(
                            spec=spec, variable="EC", entity=e, year=year, week=v,
                            tau_or_point="point", prediction=float(rng.normal()),
                            realized=real))
                        archive += [dict(spec=spec, variable="CO2", entity=e, year=year,
                                         week=v, tau_or_point=repr(tau),
                                         prediction=float(rng.normal()), realized=real)
                                    for tau in (0.25, 0.5, 0.75)]
        keys = ("week", *QUANTILE_KEYS, "aggregate", "model_aggregate",
                "benchmark_aggregate")
        for metric, tau in (("rmsfe", None), ("qs", 0.25), ("qs", 0.75), ("crps", None)):
            got = score(archive, metric, tau=tau)
            want = _reference_tables(archive, metric, tau=tau)
            assert {s: [tuple(r[k] for k in keys) for r in t]
                    for s, t in got.items()} == want, metric

    def test_stacked_reductions_match_one_call_per_run(self):
        # runs of one length are reduced as one dense block: the floats of a
        # 1-D np.mean or np.quantile call on each run, bit for bit
        rng = np.random.default_rng(11)
        lengths = rng.integers(1, 60, size=400)
        values = rng.lognormal(size=int(lengths.sum()))
        runs = np.split(values, np.cumsum(lengths)[:-1])
        means = evaluation._means(values, lengths)
        quantiles = evaluation._quantiles(values, lengths)
        assert means.tolist() == [float(np.mean(r)) for r in runs]
        assert quantiles.tolist() == [np.quantile(r, DIST_LEVELS).tolist() for r in runs]
