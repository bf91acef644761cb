import numpy as np
import pytest

from co2nowcast.errors import DomainError, ScoringGapError
from co2nowcast.evaluation import (
    DIST_LEVELS,
    crps,
    crps_per_entity,
    pinball,
    quantile_score,
    relative_and_distribution,
    rmsfe,
    rmsfe_per_entity,
    score_table,
    score_table_csv,
)


def rows(entity, preds, reals):
    return [
        dict(entity=entity, year=2000 + i, prediction=float(p), realized=float(r))
        for i, (p, r) in enumerate(zip(preds, reals))
    ]


class TestRmsfe:
    def test_perfect(self):
        assert rmsfe(rows("A", [1.0, 2.0], [1.0, 2.0])) == 0.0

    def test_arithmetic(self):
        # errors 3 and 4: sqrt((9+16)/2) = sqrt(12.5)
        out = rmsfe(rows("A", [3.0, 4.0], [0.0, 0.0]))
        assert out == pytest.approx(np.sqrt(12.5))

    def test_mean_of_roots(self):
        r = rows("A", [1.0, 1.0], [0.0, 0.0]) + rows("B", [3.0, 3.0], [0.0, 0.0])
        assert rmsfe(r) == pytest.approx(2.0)  # (1 + 3) / 2, not sqrt(5)

    def test_missing_realized_rejected(self):
        with pytest.raises(ScoringGapError):
            rmsfe(rows("A", [1.0], [float("nan")]))

    def test_empty_rejected(self):
        with pytest.raises(ScoringGapError):
            rmsfe([])


class TestQuantileScore:
    def test_perfect(self):
        assert quantile_score(rows("A", [1.0, 2.0], [1.0, 2.0]), 0.5) == 0.0

    def test_median_is_half_mae(self):
        r = rows("A", [1.0, 1.0], [0.0, 2.0])
        assert quantile_score(r, 0.5) == pytest.approx(0.5)

    def test_half_mae_identity_random(self):
        rng = np.random.default_rng(13)
        preds = rng.normal(size=50)
        reals = rng.normal(size=50)
        r = rows("A", preds, reals)
        mae = np.mean(np.abs(reals - preds))
        assert quantile_score(r, 0.5) == pytest.approx(0.5 * mae, abs=1e-12)

    def test_pinball_convention(self):
        # single observation, predicted 0.25-quantile of 0 against outcome 1:
        # u = 1, loss = u * tau = 0.25
        assert quantile_score(rows("A", [0.0], [1.0]), 0.25) == pytest.approx(0.25)
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
            assert quantile_score(r, tau) >= 0.0


class TestCrps:
    def test_mean_of_quantile_scores(self):
        rng = np.random.default_rng(7)
        by_tau = {
            tau: rows("A", rng.normal(size=10), rng.normal(size=10))
            for tau in (0.25, 0.5, 0.75)
        }
        expected = np.mean([quantile_score(by_tau[t], t) for t in by_tau])
        assert crps(by_tau) == pytest.approx(expected, abs=1e-14)

    def test_known_triple(self):
        # QS values (0.3, 0.2, 0.1) average to 0.2
        by_tau = {
            0.25: rows("A", [0.0], [1.2]),  # 1.2 * 0.25 = 0.3
            0.50: rows("A", [0.0], [0.4]),  # 0.4 * 0.5 = 0.2
            0.75: rows("A", [0.4], [0.0]),  # 0.4 * (1 - 0.75) = 0.1
        }
        assert crps(by_tau) == pytest.approx(0.2, abs=1e-12)

    def test_single_level_equals_qs(self):
        r = rows("A", [1.0, 0.0], [0.0, 2.0])
        assert crps({0.5: r}) == pytest.approx(quantile_score(r, 0.5))

    def test_per_entity_requires_matched_entities(self):
        with pytest.raises(ScoringGapError):
            crps_per_entity({
                0.25: rows("A", [1.0], [0.0]),
                0.75: rows("B", [1.0], [0.0]),
            })


class TestRelativeAndDistribution:
    def test_self_relative_is_one(self):
        per = {"A": 1.3, "B": 0.7, "C": 2.0}
        out = relative_and_distribution(per, dict(per))
        assert out["aggregate"] == pytest.approx(1.0)
        assert all(q == pytest.approx(1.0) for q in out["distribution"])

    def test_constant_ratio(self):
        model = {f"S{i}": 0.5 for i in range(11)}
        bench = {f"S{i}": 1.0 for i in range(11)}
        out = relative_and_distribution(model, bench)
        assert all(q == pytest.approx(0.5) for q in out["distribution"])
        assert len(out["distribution"]) == len(DIST_LEVELS)

    def test_mismatched_entities(self):
        with pytest.raises(ScoringGapError):
            relative_and_distribution({"A": 1.0}, {"B": 1.0})

    def test_zero_benchmark(self):
        with pytest.raises(DomainError):
            relative_and_distribution({"A": 1.0}, {"A": 0.0})


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

    def test_rmsfe_table(self):
        model, bench = self._weekly()
        table = score_table(model, bench, "rmsfe")
        assert [r["week"] for r in table] == [1, 5, 9]
        assert table[0]["phase"] == "Backcast"
        assert table[1]["phase"] == "Nowcast"
        expected = rmsfe(model[1]) / rmsfe(bench[1])
        assert table[0]["aggregate"] == pytest.approx(expected)

    def test_benchmark_against_itself(self):
        model, _ = self._weekly()
        table = score_table(model, model, "rmsfe")
        for r in table:
            assert r["aggregate"] == pytest.approx(1.0)
            for key in ("q10", "q25", "q50", "q75", "q90"):
                assert r[key] == pytest.approx(1.0)

    def test_qs_requires_tau(self):
        model, bench = self._weekly()
        with pytest.raises(DomainError):
            score_table(model, bench, "qs")

    def test_csv_layout(self):
        model, bench = self._weekly()
        text = score_table_csv(score_table(model, bench, "rmsfe"))
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
        table = score_table(model, bench, "crps")
        assert len(table) == 2
        assert all(r["aggregate"] > 0 for r in table)


def test_rmsfe_per_entity_sorted():
    r = rows("B", [1.0], [0.0]) + rows("A", [2.0], [0.0])
    per = rmsfe_per_entity(r)
    assert list(per) == ["A", "B"]
    assert per["A"] == pytest.approx(2.0)
