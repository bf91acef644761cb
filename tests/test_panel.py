import numpy as np
import pytest

from co2nowcast.errors import CoverageError, DomainError, LengthError
from co2nowcast.panel import (
    Frequency,
    MixedFreqSeries,
    PanelDataset,
    PeriodIndex,
    advance,
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
        assert list(s.values) == [1.0, 2.0]


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
