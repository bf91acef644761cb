import numpy as np
import pytest

from co2nowcast.errors import CoverageError, DomainError, LengthError
from co2nowcast.panel import (
    Frequency,
    MixedFreqSeries,
    PanelDataset,
    PeriodIndex,
    advance,
    cross_section_mean,
    lag_vector,
    per_capita,
    yoy_log_growth,
)


def annual(entity, year, values):
    return MixedFreqSeries(entity, Frequency.ANNUAL, PeriodIndex(year), values)


class TestPeriodArithmetic:
    def test_advance_wraps_years(self):
        p = advance(Frequency.MONTHLY, PeriodIndex(2020, 11), 3)
        assert p == PeriodIndex(2021, 2)
        assert advance(Frequency.WEEKLY, PeriodIndex(2021, 1), -1) == PeriodIndex(2020, 52)

    def test_ordering_is_strict(self):
        assert PeriodIndex(2020, 4) < PeriodIndex(2021, 1)
        assert PeriodIndex(2020, 4) < PeriodIndex(2020, 5)

    def test_sub_bounds(self):
        with pytest.raises(DomainError):
            MixedFreqSeries("A", Frequency.QUARTERLY, PeriodIndex(2020, 5), [1.0])


class TestSeriesConstruction:
    def test_interior_nan_rejected(self):
        with pytest.raises(DomainError, match="interior missing"):
            MixedFreqSeries("A", Frequency.ANNUAL, PeriodIndex(2000),
                            [1.0, np.nan, 3.0])

    def test_trailing_nan_trimmed(self):
        s = annual("A", 2000, [1.0, 2.0, np.nan])
        assert len(s) == 2
        assert s.last_period == PeriodIndex(2001)

    def test_truncated_leaves_original(self):
        s = annual("A", 2000, [1.0, 2.0, 3.0])
        cut = s.truncated(PeriodIndex(2001))
        assert len(cut) == 2 and len(s) == 3


class TestYoyLogGrowth:
    def test_constant_series_gives_zeros(self):
        s = MixedFreqSeries("A", Frequency.MONTHLY, PeriodIndex(2000, 1), [5.0] * 24)
        g = yoy_log_growth(s)
        assert len(g) == 12
        assert np.allclose(g.values, 0.0)
        assert g.start == PeriodIndex(2001, 1)

    def test_annual_direct_formula(self):
        g = yoy_log_growth(annual("A", 2000, [100.0, 110.0]))
        assert g.values[0] == pytest.approx(np.log(1.1), abs=1e-12)

    def test_weekly_exponential_closed_form(self):
        # x_p = exp(0.01 p): log-difference over 52 periods is 0.52 everywhere
        vals = np.exp(0.01 * np.arange(104))
        s = MixedFreqSeries("A", Frequency.WEEKLY, PeriodIndex(2000, 1), vals)
        g = yoy_log_growth(s)
        assert len(g) == 52
        assert np.allclose(g.values, 0.52, atol=1e-12)

    def test_nonpositive_value_names_entity_and_period(self):
        with pytest.raises(DomainError, match=r"'OH'.*2001"):
            yoy_log_growth(annual("OH", 2000, [1.0, -2.0, 3.0]))

    def test_too_short(self):
        with pytest.raises(LengthError):
            yoy_log_growth(annual("A", 2000, [1.0]))

    def test_roundtrip_through_levels(self):
        # rebuild levels from growths, re-difference, recover growths
        rng = np.random.default_rng(7)
        growths = rng.normal(0, 0.1, 30)
        levels = np.exp(np.concatenate([[0.0], np.cumsum(growths)]))
        s = annual("A", 1990, levels)
        again = yoy_log_growth(s)
        assert np.allclose(again.values, growths, atol=1e-12)


class TestPerCapita:
    def test_annual_division(self):
        out = per_capita(annual("A", 2000, [10.0, 20.0]), annual("A", 2000, [2.0, 4.0]))
        assert np.allclose(out.values, [5.0, 5.0])

    def test_monthly_broadcast(self):
        vals = MixedFreqSeries("A", Frequency.MONTHLY, PeriodIndex(2000, 1), [12.0] * 12)
        out = per_capita(vals, annual("A", 2000, [3.0]))
        assert np.allclose(out.values, 4.0)

    def test_single_value(self):
        out = per_capita(annual("A", 2000, [9.0]), annual("A", 2000, [3.0]))
        assert out.values[0] == 3.0

    def test_missing_population_year(self):
        with pytest.raises(CoverageError):
            per_capita(annual("A", 2000, [1.0, 2.0]), annual("A", 2000, [3.0]))


class TestLagVector:
    def test_newest_first(self):
        s = MixedFreqSeries("A", Frequency.QUARTERLY, PeriodIndex(2000, 1),
                            [1.0, 2.0, 3.0, 4.0])
        assert lag_vector(s, PeriodIndex(2000, 4), 4).tolist() == [4.0, 3.0, 2.0, 1.0]

    def test_count_one(self):
        s = MixedFreqSeries("A", Frequency.QUARTERLY, PeriodIndex(2000, 1),
                            [1.0, 2.0, 3.0, 4.0])
        assert lag_vector(s, PeriodIndex(2000, 3), 1).tolist() == [3.0]

    def test_window_before_start(self):
        s = MixedFreqSeries("A", Frequency.QUARTERLY, PeriodIndex(2000, 1),
                            [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(CoverageError):
            lag_vector(s, PeriodIndex(2000, 2), 4)

    def test_length_property(self):
        s = MixedFreqSeries("A", Frequency.MONTHLY, PeriodIndex(2000, 1),
                            np.arange(24.0))
        for k in (1, 5, 12):
            v = lag_vector(s, PeriodIndex(2001, 12), k)
            assert len(v) == k
        assert lag_vector(s, PeriodIndex(2001, 12), 1)[0] == s.value_at(
            PeriodIndex(2001, 12))


class TestCrossSectionMean:
    def _dataset(self, values):
        ds = PanelDataset()
        for e, v in values.items():
            ds.add("X", annual(e, 2000, [v]))
        return ds

    def test_two_entities(self):
        assert cross_section_mean(self._dataset({"A": 1.0, "B": 3.0}),
                                  "X", PeriodIndex(2000)) == 2.0

    def test_single_entity(self):
        assert cross_section_mean(self._dataset({"A": 7.0}),
                                  "X", PeriodIndex(2000)) == 7.0

    def test_three_entities(self):
        assert cross_section_mean(self._dataset({"A": 1.0, "B": 2.0, "C": 6.0}),
                                  "X", PeriodIndex(2000)) == 3.0

    def test_count_reported(self):
        # the mean counts only the entities that report at the period
        ds = self._dataset({"A": 1.0, "B": 3.0})
        ds.add("X", annual("C", 2001, [100.0]))
        assert cross_section_mean(ds, "X", PeriodIndex(2000)) == 2.0

    def test_no_coverage(self):
        with pytest.raises(CoverageError):
            cross_section_mean(self._dataset({"A": 1.0}), "X", PeriodIndex(1999))

    def test_order_invariance(self):
        vals = {"B": 2.0, "A": 1.0, "C": 6.0}
        m1 = cross_section_mean(self._dataset(vals), "X", PeriodIndex(2000))
        m2 = cross_section_mean(self._dataset(dict(reversed(vals.items()))),
                                "X", PeriodIndex(2000))
        assert m1 == m2


class TestPanelDataset:
    def test_mixed_frequency_rejected(self):
        ds = PanelDataset()
        ds.add("X", annual("A", 2000, [1.0]))
        with pytest.raises(DomainError):
            ds.add("X", MixedFreqSeries("B", Frequency.MONTHLY,
                                        PeriodIndex(2000, 1), [1.0]))

    def test_duplicate_rejected(self):
        ds = PanelDataset()
        ds.add("X", annual("A", 2000, [1.0]))
        with pytest.raises(DomainError):
            ds.add("X", annual("A", 2001, [1.0]))
