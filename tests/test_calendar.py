import numpy as np
import pytest

from co2nowcast.errors import DomainError, UnknownVariableError
from co2nowcast.panel import Frequency, MixedFreqSeries, PanelDataset, PeriodIndex
from co2nowcast.release_calendar import (
    BACKCAST_LAST_WEEK,
    N_WEEKS,
    calendar_rows,
    information_set,
    table2_rules,
)
from co2nowcast.pipeline import PanelArrays

# Published weekly availability pattern for prediction year 2021, hardcoded
# row by row as the golden reference. Columns: CO2, EC, PI, ELEC, WECI.
GOLDEN_2021 = """\
Backcast,1,2021:W1,2017,2018,2020:Q3,2020:M11,2020:W49
Backcast,2,2021:W2,2017,2018,2020:Q3,2020:M11,2020:W50
Backcast,3,2021:W3,2017,2018,2020:Q3,2020:M11,2020:W51
Backcast,4,2021:W4,2017,2018,2020:Q3,2020:M11,2020:W52
Nowcast,5,2021:W5,2017,2018,2020:Q3,2020:M12,2021:W1
Nowcast,6,2021:W6,2017,2018,2020:Q3,2020:M12,2021:W2
Nowcast,7,2021:W7,2017,2018,2020:Q3,2020:M12,2021:W3
Nowcast,8,2021:W8,2017,2018,2020:Q3,2020:M12,2021:W4
Nowcast,9,2021:W9,2018,2018,2020:Q4,2021:M1,2021:W5
Nowcast,10,2021:W10,2018,2018,2020:Q4,2021:M1,2021:W6
Nowcast,11,2021:W11,2018,2018,2020:Q4,2021:M1,2021:W7
Nowcast,12,2021:W12,2018,2018,2020:Q4,2021:M1,2021:W8
Nowcast,13,2021:W13,2018,2018,2020:Q4,2021:M2,2021:W9
Nowcast,14,2021:W14,2018,2018,2020:Q4,2021:M2,2021:W10
Nowcast,15,2021:W15,2018,2018,2020:Q4,2021:M2,2021:W11
Nowcast,16,2021:W16,2018,2018,2020:Q4,2021:M2,2021:W12
Nowcast,17,2021:W17,2018,2018,2020:Q4,2021:M3,2021:W13
Nowcast,18,2021:W18,2018,2018,2020:Q4,2021:M3,2021:W14
Nowcast,19,2021:W19,2018,2018,2020:Q4,2021:M3,2021:W15
Nowcast,20,2021:W20,2018,2018,2020:Q4,2021:M3,2021:W16
Nowcast,21,2021:W21,2018,2019,2021:Q1,2021:M4,2021:W17
Nowcast,22,2021:W22,2018,2019,2021:Q1,2021:M4,2021:W18
Nowcast,23,2021:W23,2018,2019,2021:Q1,2021:M4,2021:W19
Nowcast,24,2021:W24,2018,2019,2021:Q1,2021:M4,2021:W20
Nowcast,25,2021:W25,2018,2019,2021:Q1,2021:M5,2021:W21
Nowcast,26,2021:W26,2018,2019,2021:Q1,2021:M5,2021:W22
Nowcast,27,2021:W27,2018,2019,2021:Q1,2021:M5,2021:W23
Nowcast,28,2021:W28,2018,2019,2021:Q1,2021:M5,2021:W24
Nowcast,29,2021:W29,2018,2019,2021:Q1,2021:M6,2021:W25
Nowcast,30,2021:W30,2018,2019,2021:Q1,2021:M6,2021:W26
Nowcast,31,2021:W31,2018,2019,2021:Q1,2021:M6,2021:W27
Nowcast,32,2021:W32,2018,2019,2021:Q1,2021:M6,2021:W28
Nowcast,33,2021:W33,2018,2019,2021:Q2,2021:M7,2021:W29
Nowcast,34,2021:W34,2018,2019,2021:Q2,2021:M7,2021:W30
Nowcast,35,2021:W35,2018,2019,2021:Q2,2021:M7,2021:W31
Nowcast,36,2021:W36,2018,2019,2021:Q2,2021:M7,2021:W32
Nowcast,37,2021:W37,2018,2019,2021:Q2,2021:M8,2021:W33
Nowcast,38,2021:W38,2018,2019,2021:Q2,2021:M8,2021:W34
Nowcast,39,2021:W39,2018,2019,2021:Q2,2021:M8,2021:W35
Nowcast,40,2021:W40,2018,2019,2021:Q2,2021:M8,2021:W36
Nowcast,41,2021:W41,2018,2019,2021:Q2,2021:M9,2021:W37
Nowcast,42,2021:W42,2018,2019,2021:Q2,2021:M9,2021:W38
Nowcast,43,2021:W43,2018,2019,2021:Q2,2021:M9,2021:W39
Nowcast,44,2021:W44,2018,2019,2021:Q2,2021:M9,2021:W40
Nowcast,45,2021:W45,2018,2019,2021:Q3,2021:M10,2021:W41
Nowcast,46,2021:W46,2018,2019,2021:Q3,2021:M10,2021:W42
Nowcast,47,2021:W47,2018,2019,2021:Q3,2021:M10,2021:W43
Nowcast,48,2021:W48,2018,2019,2021:Q3,2021:M10,2021:W44
"""


def test_golden_calendar_2021():
    rows = calendar_rows(table2_rules(), 2021)
    rendered = [
        f"{phase},{v},{label},{','.join(cells)}" for phase, v, label, cells in rows
    ]
    assert rendered == GOLDEN_2021.strip().splitlines()


def test_phase_split():
    rules = table2_rules()
    for v in range(1, N_WEEKS + 1):
        info = information_set(rules, 2021, v)
        expected = "Backcast" if v <= BACKCAST_LAST_WEEK else "Nowcast"
        assert info.phase == expected
    assert BACKCAST_LAST_WEEK == 4


def test_rules_shift_to_other_years():
    info = information_set(table2_rules(), 2009, 9)
    assert info["CO2"] == PeriodIndex(2006)
    assert info["EC"] == PeriodIndex(2006)
    assert info["PI"] == PeriodIndex(2008, 4)


def test_monotone_in_week():
    from co2nowcast.panel import ordinal

    rules = table2_rules()
    by_var = {r.variable: r.frequency for r in rules}
    prev = None
    for v in range(1, N_WEEKS + 1):
        info = information_set(rules, 2021, v)
        if prev is not None:
            for var, freq in by_var.items():
                assert ordinal(freq, info[var]) >= ordinal(freq, prev[var])
        prev = info


def test_no_data_loss_across_year_boundary():
    from co2nowcast.panel import ordinal

    rules = table2_rules()
    end = information_set(rules, 2020, N_WEEKS)
    start = information_set(rules, 2021, 1)
    for rule in rules:
        freq = rule.frequency
        assert ordinal(freq, start[rule.variable]) >= ordinal(
            freq, end[rule.variable]
        )


def test_week_out_of_range():
    with pytest.raises(DomainError):
        information_set(table2_rules(), 2021, 0)
    with pytest.raises(DomainError):
        information_set(table2_rules(), 2021, 49)


def _toy_dataset():
    ds = PanelDataset()
    ds.add("EC", MixedFreqSeries("A", Frequency.ANNUAL, PeriodIndex(2000),
                                 list(range(1, 22))))  # 2000..2020
    ds.add("CO2", MixedFreqSeries("A", Frequency.ANNUAL, PeriodIndex(2000),
                                  list(range(1, 22))))
    ds.add("PI", MixedFreqSeries("A", Frequency.QUARTERLY, PeriodIndex(2000, 1),
                                 list(range(4 * 22))))
    ds.add("ELEC", MixedFreqSeries("A", Frequency.MONTHLY, PeriodIndex(2000, 1),
                                   list(range(12 * 22))))
    ds.add("WECI", MixedFreqSeries("A", Frequency.WEEKLY, PeriodIndex(2000, 1),
                                   list(range(52 * 22))))
    return ds


class TestTruncate:
    """A week's truncation as `PanelArrays` shows it: every read through the
    week's information set ends at the set's latest period of the variable."""

    @staticmethod
    def _shown(panel, info, var):
        return list(dict(panel.visible(info, var))["A"])

    def test_cuts_at_latest(self):
        ds = _toy_dataset()
        info = information_set(table2_rules(), 2021, 20)
        panel = PanelArrays(ds)
        assert self._shown(panel, info, "EC") == list(range(1, 20))  # to 2018
        assert self._shown(panel, info, "PI") == list(range(4 * 21))  # to 2020:Q4
        # a design read of 2021:Q1 and 2020:Q4 sees only 2020:Q4
        lags = panel.read(info, "PI", PeriodIndex(2021, 1), np.array([0]), 2)
        assert np.isnan(lags[0, 0, 0]) and lags[0, 0, 1] == 4 * 21 - 1

    def test_input_untouched(self):
        ds = _toy_dataset()
        before = {var: list(ds.get(var, "A").values) for var in ds.variables}
        panel = PanelArrays(ds)
        info = information_set(table2_rules(), 2021, 9)
        for var in ds.variables:
            assert len(self._shown(panel, info, var)) < len(before[var])
        for var in ds.variables:
            assert list(ds.get(var, "A").values) == before[var]

    def test_w1_then_w48_differ_only_by_appended_periods(self):
        ds = _toy_dataset()
        rules = table2_rules()
        panel = PanelArrays(ds)
        w1, w48 = information_set(rules, 2020, 1), information_set(rules, 2020, 48)
        for var in ds.variables:
            a, b = self._shown(panel, w1, var), self._shown(panel, w48, var)
            assert len(b) >= len(a)
            assert b[: len(a)] == a

    def test_unknown_variable_rejected(self):
        ds = _toy_dataset()
        ds.add("EXTRA", MixedFreqSeries("A", Frequency.ANNUAL,
                                        PeriodIndex(2000), [1.0, 2.0]))
        info = information_set(table2_rules(), 2021, 9)
        with pytest.raises(UnknownVariableError, match="'EXTRA' has no release rule"):
            PanelArrays(ds).check(info)
