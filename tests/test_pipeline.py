import csv
import dataclasses
import io
import math
import os
from collections import Counter

import numpy as np
import pytest

from co2nowcast import panel_ls, panel_qr, pipeline, skew_t
from co2nowcast.errors import (
    ConfigError,
    CoverageError,
    DataError,
    DomainError,
    SingularDesignError,
)
from co2nowcast.panel import (
    Frequency,
    MixedFreqSeries,
    PanelDataset,
    PeriodIndex,
    advance,
    ordinal,
)
from co2nowcast.panel_ls import design
from co2nowcast.panel_qr import QuantileSpec, fit_quantile
from co2nowcast.pipeline import (
    ALMON_MAP,
    BRIDGE_LABELS,
    MODEL_KINDS,
    ModelSpec,
    PanelArrays,
    RunConfig,
    Week,
    assemble_energy_design,
    bridge_design,
    co2_benchmark_quantiles,
    direct_design,
    energy_hist_mean,
    nowcast_co2_density,
    nowcast_energy,
    _drop_thin_entities,
    _run_year,
    run_out_of_sample,
)
from co2nowcast.release_calendar import information_set, table2_rules

from _dgp import make_dataset
from test_golden_archive import REL, _late_starter
from test_panel_qr import lp_oracle


def _rows(text):
    """The rows of an archive file's text as dicts keyed by its header."""
    return list(csv.DictReader(io.StringIO(text)))


class TestModelSpec:
    def test_blocks(self):
        for kind in ("HistMean", "AR"):
            assert ModelSpec(kind).hf == ()
        spec = ModelSpec("AR-W-M-Q")
        assert [b[:4] for b in spec.hf] == [("Q", "PI", 4, "q"), ("M", "ELEC", 12, "m"),
                                            ("W", "WECI", 52, "w")]
        assert spec.hf[2][4] is ALMON_MAP and not spec.is_direct
        direct = ModelSpec("DirectAR-W-M-Q")
        assert direct.is_direct and direct.hf == spec.hf

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            ModelSpec("AR-X")


class TestRunConfig:
    def test_defaults(self):
        config = RunConfig()
        assert list(config.eval_years) == list(range(2009, 2019))
        assert config.specs == MODEL_KINDS

    def test_validation(self):
        with pytest.raises(ConfigError):
            RunConfig(eval_start=2010, eval_end=2009)
        with pytest.raises(ConfigError):
            RunConfig(estimation_start=2010, eval_start=2009)
        with pytest.raises(ConfigError):
            RunConfig(taus=(0.5, 0.25, 0.75))

    def test_specs_must_be_nonempty_and_distinct(self):
        with pytest.raises(ConfigError, match="at least one model"):
            RunConfig(specs=())
        with pytest.raises(ConfigError, match=r"more than once: \['AR'\]"):
            RunConfig(specs=("AR", "HistMean", "AR"))

    def test_unknown_spec_is_rejected_when_built(self):
        with pytest.raises(ConfigError, match="unknown model 'ARX'"):
            RunConfig(specs=("ARX",))

    @pytest.mark.parametrize("taus", [(0.5,), (0.25, 0.75), (0.1, 0.25, 0.75, 0.9)])
    def test_density_needs_three_taus(self, taus):
        with pytest.raises(ConfigError, match="three taus"):
            RunConfig(taus=taus)
        assert RunConfig(taus=taus, fit_density=False).taus == taus


def _week(ds, t, v, estimation_start=1990):
    """The `Week` of (t, v) on the panel's arrays, and its information set."""
    info = information_set(table2_rules(), t, v)
    return Week(PanelArrays(ds), info, estimation_start), info


def _coded_dataset():
    """Deterministic coding: every subperiod value is year*100 + sub, so a
    design row reveals exactly which periods it read."""
    ds = PanelDataset()
    for entity in ("A", "B"):
        years = range(1985, 2013)
        ds.add("EC", MixedFreqSeries(entity, Frequency.ANNUAL, PeriodIndex(1985),
                                     [y * 100.0 + 1 for y in years]))
        ds.add("CO2", MixedFreqSeries(entity, Frequency.ANNUAL, PeriodIndex(1985),
                                      [y * 100.0 + 1 for y in years]))
        ds.add("PI", MixedFreqSeries(entity, Frequency.QUARTERLY, PeriodIndex(1985, 1),
                                     [y * 100.0 + q for y in years for q in range(1, 5)]))
        ds.add("ELEC", MixedFreqSeries(entity, Frequency.MONTHLY, PeriodIndex(1985, 1),
                                       [y * 100.0 + m for y in years for m in range(1, 13)]))
        ds.add("WECI", MixedFreqSeries(entity, Frequency.WEEKLY, PeriodIndex(1985, 1),
                                       [y * 100.0 + w for y in years for w in range(1, 53)]))
    return ds


ENERGY_KINDS = [k for k in MODEL_KINDS if k != "HistMean" and not k.startswith("Direct")]


def _releases(variables, t=2012):
    """The weeks of year t whose latest period of any of `variables` differs
    from the week before's: week 1 and each week with a release."""
    infos = [information_set(table2_rules(), t, v) for v in range(1, 49)]
    return [v for v in range(1, 49)
            if v == 1 or any(infos[v - 1][x] != infos[v - 2][x] for x in variables)]


class TestEnergyDesign:
    @pytest.mark.parametrize("kind", ENERGY_KINDS)
    def test_regressor_count_and_labels(self, kind):
        ds, _ = make_dataset(n_entities=3, seed=1)
        week, _ = _week(ds, 2011, 24)
        spec = ModelSpec(kind)
        rows, pred, labels = assemble_energy_design(week, spec)
        blocks = kind.split("-")
        width = 1 + 4 * ("Q" in blocks) + 12 * ("M" in blocks) + 2 * ("W" in blocks)
        assert len(labels) == width
        assert labels[0] == "ar_c"
        if "Q" in blocks:
            assert labels[1] == "q1"
        if "W" in blocks:
            assert labels[-1] == "w2"
        assert len(rows) and all(len(r.x) == width for r in rows)
        assert len(pred) == 3
        assert all(len(x) == width for _, x in pred)

    def test_entity_without_prediction_row_is_a_gap(self):
        # S01's weekly series ends 60 weeks early: it keeps its training rows
        # but has no prediction row at (2012, 40), which must be reported
        base, _ = make_dataset(n_entities=3, seed=4)
        ds = PanelDataset()
        for var in base.variables:
            for e, s in base.series_of(var):
                if e == "S01" and var == "WECI":
                    s = MixedFreqSeries(e, Frequency.WEEKLY, s.start, s.values[:-60])
                ds.add(var, s)
        out, gaps = nowcast_energy(*_week(ds, 2012, 40), ModelSpec("AR-W"))
        assert [e for e, _ in out] == ["S00", "S02"]
        assert "S01" in gaps

    def test_entity_without_any_row_is_a_gap(self):
        # S01's weekly series keeps only its first 60 weeks: it yields neither
        # a training row nor a prediction row at (2012, 40)
        base, _ = make_dataset(n_entities=3, seed=4)
        ds = PanelDataset()
        for var in base.variables:
            for e, s in base.series_of(var):
                if e == "S01" and var == "WECI":
                    s = MixedFreqSeries(e, Frequency.WEEKLY, s.start, s.values[:60])
                ds.add(var, s)
        out, gaps = nowcast_energy(*_week(ds, 2012, 40), ModelSpec("AR-W"))
        assert [e for e, _ in out] == ["S00", "S02"]
        assert gaps == ("S01",)

    def test_alignment_is_a_pure_function_of_week(self):
        # training year s reads the same within-year offsets as target year t
        ds = _coded_dataset()
        t, v = 2011, 24
        week, info = _week(ds, t, v, 2005)
        rows, pred, labels = assemble_energy_design(week, ModelSpec("AR-M"))
        m1 = labels.index("m1")
        # at week 24 the latest monthly period is (t, M4)
        assert info["ELEC"] == PeriodIndex(t, 4)
        for r in rows:
            assert r.x[m1] == r.year * 100.0 + 4
        (_, xp) = pred[0]
        assert xp[m1] == t * 100.0 + 4
        # AR lag anchored at s - d_v with d_v = t - latest EC year
        d_v = t - info["EC"].year
        for r in rows:
            assert r.x[0] == (r.year - d_v) * 100.0 + 1

    def test_expanding_window(self):
        ds, _ = make_dataset(n_entities=3, seed=2)
        spec = ModelSpec("AR-Q")
        v = 30
        designs = {}
        for t in (2010, 2011):
            rows, _, _ = assemble_energy_design(_week(ds, t, v)[0], spec)
            designs[t] = {(r.entity, r.year): r for r in rows}
        assert set(designs[2010]) < set(designs[2011])
        for key, row in designs[2010].items():
            assert np.array_equal(row.x, designs[2011][key].x)
            assert row.y == designs[2011][key].y


class TestNowcastEnergy:
    def test_hist_mean(self):
        ds = PanelDataset()
        ds.add("EC", MixedFreqSeries("A", Frequency.ANNUAL, PeriodIndex(2000),
                                     [0.1, -0.1]))
        ds.add("CO2", MixedFreqSeries("A", Frequency.ANNUAL, PeriodIndex(2000),
                                      [0.0, 0.0]))
        ds.add("PI", MixedFreqSeries("A", Frequency.QUARTERLY, PeriodIndex(2000, 1),
                                     [0.0] * 8))
        ds.add("ELEC", MixedFreqSeries("A", Frequency.MONTHLY, PeriodIndex(2000, 1),
                                       [0.0] * 24))
        ds.add("WECI", MixedFreqSeries("A", Frequency.WEEKLY, PeriodIndex(2000, 1),
                                       [0.0] * 104))
        out, gaps = nowcast_energy(*_week(ds, 2005, 10), ModelSpec("HistMean"))
        assert gaps == ()
        assert out[0][1] == pytest.approx(0.0)

    def test_direct_spec_rejected(self):
        ds, _ = make_dataset(n_entities=2, seed=3)
        with pytest.raises(DomainError):
            nowcast_energy(*_week(ds, 2011, 48), ModelSpec("DirectAR-W-M-Q"))

    def test_noise_free_recovery_at_full_information(self):
        # at week 48 the information set reaches the generating anchors, so a
        # noise-free panel is fit exactly and the nowcast equals the outcome
        ds, truth = make_dataset(n_entities=4, seed=4, noise_c=0.0, noise_e=0.0)
        out, gaps = nowcast_energy(*_week(ds, 2011, 48), ModelSpec("AR-W-M-Q"))
        assert gaps == ()
        assert len(out) == 4
        for e, value in out:
            realized = ds.get("EC", e).value_at(PeriodIndex(2011))
            assert value == pytest.approx(realized, abs=1e-6)

    def test_ar_spec_matches_reduced_regression(self):
        ds, _ = make_dataset(n_entities=3, seed=5)
        t, v = 2011, 10
        week, info = _week(ds, t, v)
        out, _ = nowcast_energy(week, info, ModelSpec("AR"))
        # oracle: plain within regression of c_s on c_{s-d_v}, which reads
        # nothing after the latest EC year of the information set
        from co2nowcast.panel_ls import fit_within, predict

        d_v = t - info["EC"].year
        rows = []
        for e in ds.entities:
            s_ec = ds.get("EC", e)
            for s in range(1990, info["EC"].year + 1):
                rows.append((e, s, s_ec.value_at(PeriodIndex(s)),
                             [s_ec.value_at(PeriodIndex(s - d_v))]))
        model = fit_within(design(*zip(*rows)))
        for e, value in out:
            x = np.array([ds.get("EC", e).value_at(PeriodIndex(t - d_v))])
            assert value == pytest.approx(predict(model, e, x), abs=1e-10)


class TestBridgeDesign:
    def test_lag_offset_and_factors(self):
        ds = _coded_dataset()
        t, v = 2021 - 10, 9  # use 2011 to stay inside the coded span
        week, info = _week(ds, t, v, 2000)
        assert t - info["CO2"].year == 3  # annual emissions lag at week 9
        energy = {e: 123.0 for e in ds.entities}
        rows, pred, labels = bridge_design(week, energy)
        assert labels == BRIDGE_LABELS
        for r in rows:
            assert r.x[0] == (r.year - 3) * 100.0 + 1  # AR lag of emissions
            assert r.x[1] == r.year * 100.0 + 1  # realized energy in training
            # both entities are coded alike, so each factor is their common value
            assert r.x[2] == (r.year - 3) * 100.0 + 1
            assert r.x[3] == (r.year - 3) * 100.0 + 1
        for _, xp in pred:
            assert xp[1] == 123.0  # first-stage nowcast in prediction

    def test_identity_target_reproduces_first_stage(self):
        # when emissions growth equals energy growth, the median bridge
        # prediction collapses onto the first-stage nowcast
        base, _ = make_dataset(n_entities=3, seed=6, noise_c=0.02)
        ds = PanelDataset()
        for var in ("WECI", "ELEC", "PI", "EC"):
            for e, s in base.series_of(var):
                ds.add(var, s)
        for e, s in base.series_of("EC"):
            ds.add("CO2", MixedFreqSeries(e, Frequency.ANNUAL, s.start, s.values))
        config = RunConfig(estimation_start=1990, eval_start=2011, eval_end=2011,
                           fit_density=False)
        spec = ModelSpec("AR-W-M-Q")
        week, info = _week(ds, 2011, 48)
        chat = dict(nowcast_energy(week, info, spec)[0])
        out, _ = nowcast_co2_density(week, info, spec, config)
        for e, quantiles, _ in out:
            assert quantiles[1] == pytest.approx(chat[e], abs=1e-4)


class TestDirectDesign:
    def test_shares_energy_blocks_and_reads_emissions_factor(self):
        ds, _ = make_dataset(n_entities=3, seed=7)
        t, v = 2011, 24
        week, info = _week(ds, t, v)
        e_rows, e_pred, _ = assemble_energy_design(week, ModelSpec("AR-W-M-Q"))
        d_rows, d_pred, _ = direct_design(week, ModelSpec("DirectAR-W-M-Q"))
        energy_x = {(r.entity, r.year): r.x for r in e_rows}
        energy_x.update({(e, t): x for e, x in e_pred})
        direct_x = {(r.entity, r.year): r.x for r in d_rows}
        direct_x.update({(e, t): x for e, x in d_pred})
        shared = set(energy_x) & set(direct_x)
        assert len(shared) > 3 and {(e, t) for e in ds.entities} <= shared
        g_v = t - info["CO2"].year
        for (entity, year) in shared:
            assert np.array_equal(energy_x[entity, year][1:], direct_x[entity, year][1:-1])
            co2 = [ds.get("CO2", e).value_at(PeriodIndex(year - g_v))
                   for e in ds.entities]
            assert direct_x[entity, year][-1] == math.fsum(co2) / len(co2)

    def test_labels_and_counts(self):
        ds, _ = make_dataset(n_entities=3, seed=7)
        week, _ = _week(ds, 2011, 24)
        rows, pred, labels = direct_design(week, ModelSpec("DirectAR-W-M-Q"))
        assert labels[0] == "ar_e" and labels[-1] == "f_e"
        assert len(labels) == 1 + 4 + 12 + 2 + 1
        assert all(len(r.x) == len(labels) for r in rows)
        assert len(pred) == 3


def _reference_panel():
    """S01's annual series start eight years late and its high-frequency
    series fourteen, S02's emissions end five years and its weekly series 70
    weeks early, S03 has energy but no emissions, and every energy series
    starts two years after emissions, so the energy factor of the first
    training years has no entity with data."""
    base, _ = make_dataset(n_entities=4, first_year=1986, last_year=2012, seed=3)
    ds = PanelDataset()
    for var in base.variables:
        for e, s in base.series_of(var):
            late = (8 if s.frequency is Frequency.ANNUAL else 14) * (e == "S01")
            skip = (late + 2 * (var == "EC")) * s.frequency.per_year
            values = s.values[skip:]
            if e == "S02":
                values = values[:{"CO2": -5, "WECI": -70}.get(var)]
            if not (e == "S03" and var == "CO2"):
                ds.add(var, MixedFreqSeries(e, s.frequency,
                                            advance(s.frequency, s.start, skip), values))
    return ds


def _emissions_only_panel():
    """The reference panel plus S04, with S00's emissions and high-frequency
    series but no energy series: the converse of S03."""
    ds = _reference_panel()
    for var in ds.variables:
        if var != "EC":
            s = ds.get(var, "S00")
            ds.add(var, MixedFreqSeries("S04", s.frequency, s.start, s.values))
    return ds


def _truncated(ds, info):
    """Every series of `ds` cut at the latest period of its variable in
    `info`: the reference's own truncation, independent of `PanelArrays`."""
    out = PanelDataset()
    for var in ds.variables:
        freq = ds.frequency(var)
        for entity, series in ds.series_of(var):
            keep = ordinal(freq, info[var]) - ordinal(freq, series.start) + 1
            out.add(var, MixedFreqSeries(entity, freq, series.start,
                                         series.values[:keep]))
    return out


def _ref_value(ds, var, entity, period):
    try:
        return ds.get(var, entity).value_at(period)
    except CoverageError:
        return None


def _ref_lags(ds, var, entity, anchor, n):
    """[v(anchor), ..., v(anchor - n + 1)], newest first, or None where the
    window leaves the series."""
    try:
        series = ds.get(var, entity)
    except CoverageError:
        return None
    k = ordinal(series.frequency, anchor) - ordinal(series.frequency, series.start)
    if k >= len(series) or k - n + 1 < 0:
        return None
    return series.values[k - n + 1 : k + 1][::-1].copy()


def _ref_mean(ds, var, year):
    """Mean over the entities with a value at `year`; None if none has."""
    values = [v for e, _ in ds.series_of(var)
              if (v := _ref_value(ds, var, e, PeriodIndex(year))) is not None]
    return math.fsum(values) / len(values) if values else None


def _ref_design(ds, info, t, start, spec=None, energy=None):
    """The per-row design: one value or lag window at a time, a row skipped
    where any of them is missing. The bridge design when `spec` is None."""
    y_var = "CO2" if spec is None or spec.is_direct else "EC"
    lag = t - info[y_var].year

    def x_of(entity, s):
        parts = [_ref_value(ds, y_var, entity, PeriodIndex(s - lag))]
        if spec is None:
            parts.append(_ref_value(ds, "EC", entity, PeriodIndex(s)) if s < t
                         else energy.get(entity))
            parts += [_ref_mean(ds, "CO2", s - lag), _ref_mean(ds, "EC", s - lag)]
        else:
            blocks = spec.kind.removeprefix("Direct").split("-")
            for letter, var, n in (("Q", "PI", 4), ("M", "ELEC", 12), ("W", "WECI", 52)):
                if letter in blocks:
                    anchor = PeriodIndex(info[var].year + s - t, info[var].sub)
                    lags = _ref_lags(ds, var, entity, anchor, n)
                    parts.append(ALMON_MAP.Q @ lags if var == "WECI" and lags is not None
                                 else lags)
            if spec.is_direct:
                parts.append(_ref_mean(ds, "CO2", s - lag))
        if any(p is None for p in parts):
            return None
        return np.concatenate([np.atleast_1d(p) for p in parts])

    rows, pred = [], []
    for entity, _ in ds.series_of(y_var):
        for s in range(start, info[y_var].year + 1):
            y, x = _ref_value(ds, y_var, entity, PeriodIndex(s)), x_of(entity, s)
            if y is not None and x is not None:
                rows.append((entity, s, y, x))
        x = x_of(entity, t)
        if x is not None:
            pred.append((entity, x))
    return design(*zip(*rows)), pred


class TestDesignEqualsReference:
    @pytest.mark.parametrize("make, built_rows, skipped_rows, gapped", [
        pytest.param(_reference_panel, {("AR", "S03", 2000)},
                     {("DirectAR-W-M-Q", "S01", 1998), ("bridge", "S00", 1990)},
                     {"S00", "S02"}, id="reference"),
        # S04 has direct rows, but no energy row, no bridge row and no nowcast
        pytest.param(_emissions_only_panel, {("DirectAR-W-M-Q", "S04", 2000)},
                     {("bridge", "S04", 2000)}, {"S04"}, id="emissions_only"),
    ])
    def test_every_design_of_two_years(self, make, built_rows, skipped_rows, gapped):
        ds = make()
        taus = (0.25, 0.5, 0.75)
        built = set()  # (design, entity, year) of every training row
        skipped = set()  # (design, entity, year) with y and its AR lag present

        def check(name, build, min_rows, spec=None, energy=None):
            rows, pred, _ = build()
            ref_rows, ref_pred = _ref_design(cut, info, t, 1990, spec, energy)
            assert [(r.entity, r.year, r.y, r.x.tobytes()) for r in rows] == [
                (r.entity, r.year, r.y, r.x.tobytes()) for r in ref_rows]
            assert rows.y.dtype == float and rows.year.dtype == np.int64
            assert [(e, x.tobytes()) for e, x in pred] == [
                (e, x.tobytes()) for e, x in ref_pred]
            y_var = "CO2" if spec is None or spec.is_direct else "EC"
            entities = [e for e, _ in cut.series_of(y_var)]
            gaps = _drop_thin_entities(rows, pred, entities, min_rows)[2]
            assert gaps == _drop_thin_entities(ref_rows, ref_pred, entities, min_rows)[2]
            lag = t - info[y_var].year
            kept = {(r.entity, r.year) for r in rows}
            built.update((name, e, s) for e, s in kept)
            skipped.update(
                (name, e, s) for e in entities for s in range(1990, info[y_var].year + 1)
                if (e, s) not in kept
                and _ref_value(cut, y_var, e, PeriodIndex(s)) is not None
                and _ref_value(cut, y_var, e, PeriodIndex(s - lag)) is not None)
            return gaps

        gaps = set()
        for t in (2011, 2012):
            for v in range(1, 49):
                week, info = _week(ds, t, v)
                cut = _truncated(ds, info)
                # the benchmarks are those of the cut series, bit for bit
                assert energy_hist_mean(week.panel, info) == {
                    e: float(np.mean(s.values)) for e, s in cut.series_of("EC")}
                assert co2_benchmark_quantiles(week.panel, info, taus) == {
                    e: tuple(float(q) for q in np.quantile(s.values, taus))
                    for e, s in cut.series_of("CO2")}
                # S00 has no first-stage nowcast: it keeps its training rows only
                energy = {"S01": 0.5, "S02": -0.25, "S03": 1.0}
                gaps.update(check("bridge", lambda: bridge_design(week, energy), 1,
                                  energy=energy))
                for kind in MODEL_KINDS[1:]:
                    spec = ModelSpec(kind)
                    if spec.is_direct:
                        build, min_rows = lambda: direct_design(week, spec), 1
                    else:
                        build, min_rows = lambda: assemble_energy_design(week, spec), 2
                    gaps.update(check(kind, build, min_rows, spec))
        # each panel reaches its cases: S03 and S04 each lack one regressand;
        # the reference panel also has a missing nowcast, a weekly series cut
        # short, a lag window before the series start, and a factor year
        # that no entity covers
        assert gapped <= gaps
        assert built_rows <= built
        assert skipped_rows <= skipped

    def test_empty_design_raises(self):
        ds = _reference_panel()
        week, info = _week(ds, 2011, 30, 2012)
        with pytest.raises(CoverageError, match="empty energy design"):
            assemble_energy_design(week, ModelSpec("AR"))
        # a panel without weekly data has no row for a weekly block
        no_weci = PanelDataset()
        for var in ("CO2", "EC"):
            for _, series in ds.series_of(var):
                no_weci.add(var, series)
        with pytest.raises(CoverageError, match="empty energy design"):
            assemble_energy_design(Week(PanelArrays(no_weci), info, 1990),
                                   ModelSpec("AR-W"))


class TestDesignRecords:
    def test_records_match_the_columns(self):
        # a design is read both ways: the fits take its y and x columns whole,
        # and per-record readers take len(rows) and each record's fields
        week, _ = _week(_reference_panel(), 2012, 30)
        designs = [bridge_design(week, {"S01": 0.5}),
                   direct_design(week, ModelSpec("DirectAR-W-M-Q"))]
        designs += [assemble_energy_design(week, ModelSpec(kind))
                    for kind in MODEL_KINDS[1:-1]]
        for rows, _, labels in designs:
            y, X = rows.y, rows.x
            assert len(rows) == len(y) == len(X) > 0
            assert X.shape == (len(rows), len(labels))
            for i, r in enumerate(rows):
                assert isinstance(r.entity, str) and r.entity == rows.entity[i]
                assert isinstance(r.year, (int, np.integer)) and r.year == rows.year[i]
                assert f"{r.entity}|{r.year}|" == f"{rows.entity[i]}|{int(rows.year[i])}|"
                assert r.y == y[i] and r.x.shape == (len(labels),)
                assert np.asarray(r.x, dtype=float).tobytes() == X[i].tobytes()


class TestDensityNowcast:
    def test_benchmark_quantiles(self):
        ds = PanelDataset()
        ds.add("CO2", MixedFreqSeries("A", Frequency.ANNUAL, PeriodIndex(2000),
                                      [-2.0, -1.0, 0.0, 1.0, 2.0]))
        week, info = _week(ds, 2010, 9)  # emissions known through 2007
        assert co2_benchmark_quantiles(week.panel, info, (0.25, 0.5, 0.75)) == {
            "A": (-1.0, 0.0, 1.0)}

    def test_hist_mean_returns_benchmark(self):
        ds, _ = make_dataset(n_entities=2, seed=8)
        config = RunConfig(estimation_start=1990, eval_start=2011, eval_end=2011,
                           fit_density=False)
        week, info = _week(ds, 2011, 20)
        out, gaps = nowcast_co2_density(week, info, ModelSpec("HistMean"), config)
        assert gaps == ()
        for e, quantiles, _ in out:
            assert quantiles == week.co2_benchmarks(config.taus)[e]
            assert quantiles[0] <= quantiles[1] <= quantiles[2]

    def test_bridge_quantiles_ascending_with_density(self):
        ds, _ = make_dataset(n_entities=3, seed=9)
        config = RunConfig(estimation_start=1990, eval_start=2011, eval_end=2011,
                           fit_density=True)
        week, info = _week(ds, 2011, 30)
        out, _ = nowcast_co2_density(week, info, ModelSpec("AR-W"), config)
        assert len(out) == 3
        for _, quantiles, params in out:
            assert quantiles[0] <= quantiles[1] <= quantiles[2]
            assert params is not None
            assert params.sigma > 0


class TestRunOutOfSample:
    def test_density_fit_error_becomes_diagnostic(self, monkeypatch):
        import co2nowcast.pipeline as pipeline

        def failing_fit(levels, values):
            raise DomainError("skew-t fit failed")

        monkeypatch.setattr(pipeline, "fit_from_quantiles", failing_fit)
        ds, _ = make_dataset(n_entities=2, seed=13)
        config = RunConfig(estimation_start=1990, eval_start=2012, eval_end=2012,
                           specs=("HistMean", "AR"), fit_density=True)
        archive = run_out_of_sample(ds, config)
        assert archive.density == []
        co2 = [d for d in _rows(archive.diagnostics_csv()) if d["stage"] == "co2"]
        assert len(co2) == 2 * 48
        assert all(d["detail"] == "skew-t fit failed" for d in co2)

    @staticmethod
    def _run(seed=10):
        ds, _ = make_dataset(n_entities=3, seed=seed)
        config = RunConfig(estimation_start=1990, eval_start=2011, eval_end=2012,
                           specs=("HistMean", "AR"), fit_density=False)
        return ds, config, run_out_of_sample(ds, config)

    def test_cardinality(self):
        _, config, archive = self._run()
        n_years, n_weeks, n_specs, n_ent = 2, 48, 2, 3
        assert len(archive.energy) == n_years * n_weeks * n_specs * n_ent
        assert len(archive.co2) == n_years * n_weeks * n_specs * n_ent * 3
        assert archive.diagnostics == []

    def test_determinism(self):
        _, _, a = self._run()
        _, _, b = self._run()
        assert a.to_csv() == b.to_csv()

    def test_realized_values_joined(self):
        ds, _, archive = self._run()
        for r in _rows(archive.to_csv())[:20]:
            year = PeriodIndex(int(r["target_year"]))
            expected = ds.get("EC", r["entity"]).value_at(year)
            assert float(r["realized"]) == expected

    def test_one_panel_arrays_per_run_and_one_energy_fit_per_release(self, monkeypatch):
        import co2nowcast.pipeline as pipeline

        built, fits = [], []

        class CountingArrays(PanelArrays):
            def __init__(self, dataset):
                built.append(dataset)
                super().__init__(dataset)

        def counting_fit_within(rows, **kwargs):
            fits.append(len(rows))
            return pipeline_fit_within(rows, **kwargs)

        pipeline_fit_within = pipeline.fit_within
        # in-process, so that the counting functions see every call
        monkeypatch.setattr(pipeline, "_worker_count", lambda n_years: 1)
        monkeypatch.setattr(pipeline, "PanelArrays", CountingArrays)
        monkeypatch.setattr(pipeline, "fit_within", counting_fit_within)
        ds, _ = make_dataset(n_entities=2, seed=12)
        specs = ("HistMean", "AR", "AR-W-M-Q", "DirectAR-W-M-Q")
        config = RunConfig(estimation_start=1990, eval_start=2011, eval_end=2012,
                           taus=(0.5,), specs=specs, fit_density=False)
        archive = run_out_of_sample(ds, config)
        assert archive.diagnostics == []
        assert built == [ds]
        # only AR and AR-W-M-Q fit a within-LS energy stage: AR when EC is
        # released (weeks 1 and 21), AR-W-M-Q every week (WECI)
        assert len(fits) == 2 * (2 + 48)

    def test_co2_benchmark_quantiles_once_per_co2_release(self, monkeypatch):
        weeks = []

        def counting(panel, info, taus):
            weeks.append((info.year, info.week))
            return benchmarks(panel, info, taus)

        benchmarks = pipeline.co2_benchmark_quantiles
        monkeypatch.setattr(pipeline, "_worker_count", lambda n_years: 1)
        monkeypatch.setattr(pipeline, "co2_benchmark_quantiles", counting)
        ds, _ = make_dataset(n_entities=2, seed=12)
        config = RunConfig(estimation_start=1990, eval_start=2011, eval_end=2012,
                           specs=("HistMean", "AR", "DirectAR-W-M-Q"),
                           fit_density=False)
        archive = run_out_of_sample(ds, config)
        assert archive.diagnostics == []
        assert weeks == [(t, v) for t in (2011, 2012) for v in (1, 9)]

    def test_energy_hist_mean_once_per_ec_release(self, monkeypatch):
        # the archive's energy benchmark and the HistMean spec's nowcasts
        # are the same per-entity means
        weeks = []

        def counting(panel, info):
            weeks.append((info.year, info.week))
            return hist_mean(panel, info)

        hist_mean = pipeline.energy_hist_mean
        monkeypatch.setattr(pipeline, "_worker_count", lambda n_years: 1)
        monkeypatch.setattr(pipeline, "energy_hist_mean", counting)
        ds, _ = make_dataset(n_entities=2, seed=12)
        config = RunConfig(estimation_start=1990, eval_start=2011, eval_end=2012,
                           specs=("HistMean", "AR", "DirectAR-W-M-Q"),
                           fit_density=False)
        archive = run_out_of_sample(ds, config)
        assert archive.diagnostics == []
        assert weeks == [(t, v) for t in (2011, 2012) for v in (1, 21)]
        hist = [r for r in _rows(archive.to_csv())
                if r["spec"] == "HistMean" and r["variable"] == "EC"]
        assert len(hist) == 2 * 2 * 48
        assert all(float(r["prediction"]) == float(r["benchmark"]) for r in hist)

    def test_week_before_an_entity_starts_is_a_benchmark_diagnostic(self):
        # every series starts in 2006, and until week 9 the latest CO2 year
        # of 2009 is 2005: those weeks fail as a whole, the rest have no
        # training row for the AR lag
        ds, _ = make_dataset(n_entities=2, first_year=2006, last_year=2012, seed=11)
        config = RunConfig(estimation_start=2006, eval_start=2009, eval_end=2009,
                           specs=("HistMean", "AR"), fit_density=False)
        archive = run_out_of_sample(ds, config)
        expected = ["spec,target_year,week,stage,detail"]
        expected += [f"*,2009,{v},benchmark,truncation at 2005 precedes the start "
                     f"of entity 'S00'" for v in range(1, 9)]
        expected += [f'AR,2009,{v},{stage},"empty energy design at (2009, week {v})"'
                     for v in range(9, 49) for stage in ("energy", "co2")]
        assert archive.diagnostics_csv() == "\n".join(expected) + "\n"

    def test_failures_become_diagnostics(self):
        # too little history: the annual lags predate the panel, so every
        # week's design is empty or too thin for a fixed effect
        ds, _ = make_dataset(n_entities=3, first_year=2005, last_year=2012, seed=11)
        config = RunConfig(estimation_start=2005, eval_start=2009, eval_end=2009,
                           specs=("AR",), fit_density=False)
        archive = run_out_of_sample(ds, config)
        assert archive.energy == []
        assert len(archive.diagnostics) > 0
        for d in _rows(archive.diagnostics_csv()):
            assert d["stage"] in ("energy", "co2", "benchmark")


class TestYearsInParallel:
    @staticmethod
    def _run(monkeypatch, n_workers, ds, config):
        monkeypatch.setattr(pipeline, "_worker_count", lambda n_years: n_workers)
        return run_out_of_sample(ds, config)

    def test_one_and_two_workers_give_the_same_files(self, monkeypatch):
        ds = _late_starter()
        config = RunConfig(estimation_start=1990, eval_start=2010, eval_end=2012,
                           specs=("HistMean", "AR", "DirectAR-W-M-Q"))
        files = []
        for n_workers in (1, 2):
            archive = self._run(monkeypatch, n_workers, ds, config)
            files.append((archive.to_csv(), archive.density_csv(),
                          archive.diagnostics_csv()))
            years = {int(d["target_year"]) for d in _rows(archive.diagnostics_csv())}
            assert years == {2010, 2011, 2012}
            assert archive.density
        assert files[0] == files[1]

    def test_every_archived_row_is_one_line(self, monkeypatch):
        # a line that lost its newline would merge two rows of its file
        ds = _late_starter()
        config = RunConfig(estimation_start=1990, eval_start=2010, eval_end=2012,
                           specs=("HistMean", "AR", "DirectAR-W-M-Q"))
        for n_workers in (1, 2):
            archive = self._run(monkeypatch, n_workers, ds, config)
            tables = ((archive.energy + archive.co2, archive.to_csv()),
                      (archive.density, archive.density_csv()))
            for lines, text in tables:
                width = text.split("\n", 1)[0].count(",") + 1
                assert lines
                for line in lines:
                    assert isinstance(line, str) and line.endswith("\n")
                    assert line.count("\n") == 1 and line.count(",") + 1 == width
            assert archive.diagnostics
            for line in archive.diagnostics:
                assert isinstance(line, str) and line.endswith("\n")
                assert [len(row) for row in csv.reader(io.StringIO(line))] == [5]

    @staticmethod
    def _fail_in_2012(monkeypatch, error):
        """Stage two of spec AR raises error(year) in 2012."""
        density = pipeline.nowcast_co2_density

        def failing(week, info, spec, config):
            if info.year == 2012 and spec.kind == "AR":
                raise error(info.year)
            return density(week, info, spec, config)

        monkeypatch.setattr(pipeline, "nowcast_co2_density", failing)

    def test_error_in_a_worker_reaches_the_caller(self, monkeypatch):
        self._fail_in_2012(
            monkeypatch, lambda t: RuntimeError(f"no fit in {t} (pid {os.getpid()})"))
        monkeypatch.setattr(pipeline, "_worker_count", lambda n_years: 2)
        ds, _ = make_dataset(n_entities=2, seed=12)
        config = RunConfig(estimation_start=1990, eval_start=2011, eval_end=2012,
                           specs=("AR",), fit_density=False)
        with pytest.raises(RuntimeError, match=r"^no fit in 2012 \(pid \d+\)$") as err:
            run_out_of_sample(ds, config)
        # raised in a worker process, not in this one
        assert f"(pid {os.getpid()})" not in str(err.value)

    def test_data_error_in_a_worker_is_that_years_diagnostics(self, monkeypatch):
        self._fail_in_2012(monkeypatch, lambda t: DomainError(f"no density in {t}"))
        ds, _ = make_dataset(n_entities=2, seed=12)
        config = RunConfig(estimation_start=1990, eval_start=2011, eval_end=2012,
                           specs=("HistMean", "AR"), fit_density=False)
        archive = self._run(monkeypatch, 2, ds, config)
        notes = [(d["spec"], int(d["target_year"]), d["stage"], d["detail"])
                 for d in _rows(archive.diagnostics_csv())]
        assert notes == [("AR", 2012, "co2", "no density in 2012")] * 48
        # HistMean in both years and AR in 2011: 48 weeks, 2 entities, 3 taus
        co2 = [r for r in _rows(archive.to_csv()) if r["variable"] == "CO2"]
        assert {int(r["target_year"]) for r in co2 if r["spec"] == "AR"} == {2011}
        assert len(co2) == 3 * 48 * 2 * 3


class TestDistinctDesignsFitOnce:
    def test_one_lp_per_tau_for_one_bridge_week(self, monkeypatch):
        taus = []
        fit_lp = panel_qr._fit_lp

        def counting_fit_lp(y, X, idx, n_ent, tau, lam, basis=None):
            taus.append(tau)
            return fit_lp(y, X, idx, n_ent, tau, lam, basis)

        monkeypatch.setattr(panel_qr, "_fit_lp", counting_fit_lp)
        ds, _ = make_dataset(n_entities=3, seed=9)
        panel, kept = PanelArrays(ds), {}  # the weeks of one year share kept
        config = RunConfig(estimation_start=1990, eval_start=2011, eval_end=2011,
                           fit_density=False)

        def bridge_week(v):
            info = information_set(table2_rules(), 2011, v)
            week = Week(panel, info, config.estimation_start, kept)
            for kind in ENERGY_KINDS:
                spec = ModelSpec(kind)
                nowcast_energy(week, info, spec)
                out, _ = nowcast_co2_density(week, info, spec, config)
                assert len(out) == 3

        bridge_week(5)
        assert taus == list(config.taus)
        bridge_week(8)  # the same annual information set: nothing to solve
        assert len(taus) == 3
        bridge_week(9)  # the CO2 release adds a training year
        assert taus == 2 * list(config.taus)

    def test_warm_cache_equals_cold_cache(self, monkeypatch):
        # nothing outlives its year: a second run in the same process solves
        # every LP, within-LS fit and skew-t root again, and gives the same
        # files, also after a run on other data
        solves = Counter()

        def counting(module, name):
            solve = getattr(module, name)

            def counted(*args, **kwargs):
                solves[name] += 1
                return solve(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        def outputs(seed):
            ds, _ = make_dataset(n_entities=3, seed=seed)
            config = RunConfig(estimation_start=1990, eval_start=2012, eval_end=2012,
                               specs=("HistMean", "AR", "AR-W-M-Q"))
            archive = run_out_of_sample(ds, config)
            return archive.to_csv(), archive.density_csv(), archive.diagnostics_csv()

        for module, name in ((panel_qr, "_fit_lp"), (panel_ls, "_solve_pivoted"),
                             (skew_t, "_solve_alpha")):
            counting(module, name)
        cold = outputs(14)
        n_solves = Counter(solves)
        warm = outputs(14)
        assert set(n_solves) == {"_fit_lp", "_solve_pivoted", "_solve_alpha"}
        assert solves == n_solves + n_solves
        outputs(15)
        interleaved = outputs(14)
        assert cold == warm == interleaved

    def test_a_year_is_the_same_after_another_year(self, monkeypatch):
        # each year makes its own LP state: a year run after another in the
        # same process equals the same year run alone, and starts each of
        # its chains of LPs cold
        cold = []
        fit_lp = panel_qr._fit_lp

        def counting_fit_lp(*args):
            cold.append(args[6] is None)
            return fit_lp(*args)

        monkeypatch.setattr(panel_qr, "_fit_lp", counting_fit_lp)
        ds, _ = make_dataset(n_entities=3, seed=18)
        config = RunConfig(estimation_start=1990, eval_start=2011, eval_end=2012,
                           specs=("HistMean", "AR-W-M-Q", "DirectAR-W-M-Q"))

        def year_2012(panel):
            del cold[:]
            archive = _run_year(panel, config, 2012)
            return archive.to_csv(), archive.density_csv(), archive.diagnostics_csv(), cold[:]

        alone = year_2012(PanelArrays(ds))
        panel = PanelArrays(ds)
        _run_year(panel, config, 2011)
        assert year_2012(panel) == alone
        assert alone[0] and 0 < sum(alone[3]) < len(alone[3])


class TestPaperShapeFace:
    def test_flat_face_reaches_the_lp_optimum(self, monkeypatch):
        # the 51-entity direct design of 2012, week 21 fits tau = 0.25 on a
        # flat face; solved without presolve to HiGHS's default feasibility
        # tolerance, its face LP ended 3e-8 above the optimum
        faces = []
        highs = panel_qr._highs

        def counting_highs(*args, **kwargs):
            faces.append("what" in kwargs)
            return highs(*args, **kwargs)

        monkeypatch.setattr(panel_qr, "_highs", counting_highs)
        ds, _ = make_dataset(n_entities=51, first_year=1985, last_year=2018, seed=1)
        week, _ = _week(ds, 2012, 21)
        rows, _, labels = direct_design(week, ModelSpec("DirectAR-W-M-Q"))
        model = fit_quantile(rows, QuantileSpec(tau=0.25, lam=1.0), labels=labels)
        assert faces == [False, True]
        assert model.objective <= lp_oracle(rows, 0.25, 1.0) * (1 + 1e-12)


def _design_bytes(rows, pred, labels):
    """A design's rows, prediction rows and labels as comparable bytes."""
    return ([(r.entity, r.year, r.y, r.x.tobytes()) for r in rows],
            [(e, x.tobytes()) for e, x in pred], labels)


class TestWeekSharesBlocks:
    @pytest.mark.parametrize("make", [
        lambda: make_dataset(n_entities=3, seed=16)[0], _late_starter, _reference_panel])
    def test_shared_week_equals_designs_built_alone(self, make):
        ds = make()
        panel = PanelArrays(ds)
        config = RunConfig(estimation_start=1990, eval_start=2011, eval_end=2012,
                           fit_density=False)
        for t in (2011, 2012):
            for v in range(1, 49):
                info = information_set(table2_rules(), t, v)
                # in run order, each spec's design read through one `Week`
                # must equal the same design built alone, from a fresh `Week`
                week = Week(panel, info, config.estimation_start)
                for kind in MODEL_KINDS[1:]:
                    spec = ModelSpec(kind)
                    design = direct_design if spec.is_direct else assemble_energy_design
                    shared, alone = (
                        _design_bytes(*design(w, spec))
                        for w in (week, Week(panel, info, config.estimation_start)))
                    assert shared == alone
                    if spec.is_direct:
                        continue
                    # the bridge rows with this spec's own nowcasts as c_hat
                    energy = dict(nowcast_energy(week, info, spec)[0])
                    shared, alone = (
                        _design_bytes(*bridge_design(w, energy))
                        for w in (week, Week(panel, info, config.estimation_start)))
                    assert shared == alone

    def test_one_bridge_training_set_and_one_energy_block_per_release(self, monkeypatch):
        designs, fits, reads = [], [], Counter()

        class CountingArrays(PanelArrays):
            def read(self, info, var, *args):
                reads[info.week, var] += 1
                return super().read(info, var, *args)

        def counting_design(self, y_var, blocks, name):
            designs.append(name)
            return week_design(self, y_var, blocks, name)

        def counting_fit_quantile(rows, spec, labels=None, lp=None):
            fits.append(labels)
            return pipeline_fit_quantile(rows, spec, labels=labels, lp=lp)

        week_design, pipeline_fit_quantile = pipeline.Week.design, pipeline.fit_quantile
        monkeypatch.setattr(pipeline, "_worker_count", lambda n_years: 1)
        monkeypatch.setattr(pipeline, "PanelArrays", CountingArrays)
        monkeypatch.setattr(pipeline.Week, "design", counting_design)
        monkeypatch.setattr(pipeline, "fit_quantile", counting_fit_quantile)
        ds, _ = make_dataset(n_entities=2, seed=12)
        config = RunConfig(estimation_start=1990, eval_start=2012, eval_end=2012,
                           fit_density=False)
        archive = run_out_of_sample(ds, config)
        assert archive.diagnostics == []
        n_taus, annual = len(config.taus), _releases(("CO2", "EC"))
        assert annual == [1, 9, 21]
        # a design, like each item a week keeps, is rebuilt when a period it
        # reads is released: the bridge's at the CO2 and EC releases, each
        # energy design at the releases of EC and of its spec's blocks (EC
        # comes out in weeks 1 and 21, with an ELEC and a PI release)
        assert designs.count("bridge") == 3
        energy = {"AR": 2, "AR-M": 12, "AR-Q": 5, "AR-W": 48, "AR-W-M": 48, "AR-W-M-Q": 48}
        assert list(energy) == ENERGY_KINDS
        assert designs.count("energy") == sum(energy.values())
        assert designs.count("direct") == 48
        # one fit per level for the six bridge specs, one for the direct spec
        assert fits.count(BRIDGE_LABELS) == n_taus * 3
        assert len(fits) == n_taus * (3 + 48)
        # one read per distinct (variable, anchor variable, lags) and
        # release of either variable, shared by the energy and direct
        # designs: each high-frequency block once per release of its
        # variable; CO2 as y and at its latest lag (which the CO2 factor
        # shares), once per CO2 release; EC as y (and the bridge's realized
        # energy) and at its latest lag, once per EC release; and EC at the
        # latest CO2 lag, for its factor, once per release of either
        for var in ("PI", "ELEC", "WECI"):
            assert [reads[v, var] for v in range(1, 49)] == [
                v in _releases((var,)) for v in range(1, 49)]
        assert len(_releases(("PI",))) == 5 and len(_releases(("ELEC",))) == 12
        assert [reads[v, "CO2"] for v in range(1, 49)] == [
            2 * (v in (1, 9)) for v in range(1, 49)]
        assert [reads[v, "EC"] for v in range(1, 49)] == [
            {1: 3, 9: 1, 21: 3}.get(v, 0) for v in range(1, 49)]


class TestReuseRule:
    """The weeks of a year share one store: an item is rebuilt exactly when
    a period it reads is released, and never kept when its build raises."""

    @staticmethod
    def _solves_per_week(monkeypatch, specs, fit_density=True):
        """The LP, within-LS and skew-t root solves of each week of 2012,
        run through `_run_year`, as a Counter of (week, solver)."""
        weeks, solves = [], Counter()
        info_of = pipeline.information_set

        def counting_info(rules, t, v):
            weeks.append(v)
            return info_of(rules, t, v)

        def counting(module, name):
            solve = getattr(module, name)

            def counted(*args, **kwargs):
                solves[weeks[-1], name] += 1
                return solve(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        monkeypatch.setattr(pipeline, "information_set", counting_info)
        for module, name in ((panel_qr, "_fit_lp"), (panel_ls, "_solve_pivoted"),
                             (skew_t, "_solve_alpha")):
            counting(module, name)
        ds, _ = make_dataset(n_entities=3, seed=12)
        config = RunConfig(estimation_start=1990, eval_start=2012, eval_end=2012,
                           specs=specs, fit_density=fit_density)
        archive = _run_year(PanelArrays(ds), config, 2012)
        assert archive.diagnostics == []
        return solves

    def test_a_week_without_a_release_solves_nothing(self, monkeypatch):
        specs = ("HistMean", "AR", "AR-M", "AR-Q")
        solves = self._solves_per_week(monkeypatch, specs)
        changed = _releases(("CO2", "EC", "PI", "ELEC"))
        assert len(changed) == 12
        busy = sorted({v for v, _ in solves})
        assert busy == changed
        assert {name for _, name in solves} == {"_fit_lp", "_solve_pivoted",
                                                 "_solve_alpha"}

    def test_co2_and_ec_releases_rebuild_the_fits(self, monkeypatch):
        solves = self._solves_per_week(monkeypatch, ("AR",), fit_density=False)
        # week 8 -> 9 releases CO2: the bridge's three LPs are solved anew,
        # but not the AR energy fit, which reads no CO2; week 20 -> 21
        # releases EC: the energy fit and the bridge's LPs are rebuilt
        assert solves == Counter({(v, name): n for v, name, n in (
            (1, "_fit_lp", 3), (9, "_fit_lp", 3), (21, "_fit_lp", 3),
            (1, "_solve_pivoted", 1), (21, "_solve_pivoted", 1))})

    def test_a_failed_build_is_not_kept(self, monkeypatch):
        calls = []

        def failing_fit_within(rows, labels=None):
            calls.append(len(rows))
            raise SingularDesignError("forced")

        monkeypatch.setattr(pipeline, "fit_within", failing_fit_within)
        ds, _ = make_dataset(n_entities=2, seed=12)
        config = RunConfig(estimation_start=1990, eval_start=2012, eval_end=2012,
                           specs=("AR",), fit_density=False)
        archive = _run_year(PanelArrays(ds), config, 2012)
        # the stamp of AR changes in three weeks, but a week whose build
        # raised kept nothing, so every week builds and raises again
        assert len(calls) == 48
        notes = [(int(d["week"]), d["stage"], d["detail"])
                 for d in _rows(archive.diagnostics_csv())]
        assert notes == [(v, stage, "forced") for v in range(1, 49)
                         for stage in ("energy", "co2")]

    @staticmethod
    def _stamp(week, key):
        return dict(week._kept[key][0])

    def test_a_nested_build_takes_the_stamp_of_the_items_it_uses(self):
        week, info = _week(make_dataset(n_entities=2, seed=12)[0], 2012, 30)

        def outer(key, var):
            return week._keep(key, lambda: (
                week.info[var], week._keep("inner", lambda: week.info["PI"])))

        outer("built", "ELEC")  # builds the inner item
        outer("found", "WECI")  # finds it in the store
        assert self._stamp(week, "inner") == {"PI": info["PI"]}
        assert self._stamp(week, "built") == {"PI": info["PI"], "ELEC": info["ELEC"]}
        assert self._stamp(week, "found") == {"PI": info["PI"], "WECI": info["WECI"]}

    def test_a_build_that_raises_leaves_no_open_stamp(self):
        week, info = _week(make_dataset(n_entities=2, seed=12)[0], 2012, 30)

        def failing():
            week.info["PI"]
            raise DataError("forced")

        def outer():
            week.info["ELEC"]
            with pytest.raises(DataError):
                week._keep("inner", failing)
            week.info["WECI"]

        with pytest.raises(DataError):
            week._keep("failed", failing)
        week._keep("next", lambda: week.info["CO2"])
        # an outer build that catches the failure still read what it looked up
        week._keep("outer", outer)
        assert "failed" not in week._kept and "inner" not in week._kept
        assert self._stamp(week, "next") == {"CO2": info["CO2"]}
        assert self._stamp(week, "outer") == {v: info[v] for v in ("PI", "ELEC", "WECI")}
        assert week.info.latest.open == []

    def test_each_stage_is_rebuilt_only_at_the_releases_it_reads(self, monkeypatch):
        builds = []

        def counting(name):
            stage = getattr(pipeline, name)

            def counted(week, spec, *args):
                builds.append((name, spec.kind, week.info.week))
                return stage(week, spec, *args)

            monkeypatch.setattr(pipeline, name, counted)

        counting("_energy")
        counting("_co2")
        solves = self._solves_per_week(monkeypatch, ("HistMean", "AR"), fit_density=False)

        def weeks(name, kind):
            return [v for n, k, v in builds if (n, k) == (name, kind)]

        # HistMean's energy stage reads EC alone and its CO2 cells CO2
        # alone; AR's energy stage reads no CO2, and its bridge cells both
        assert weeks("_energy", "HistMean") == [1, 21]
        assert weeks("_co2", "HistMean") == [1, 9]
        assert weeks("_energy", "AR") == [1, 21]
        assert weeks("_co2", "AR") == [1, 9, 21]
        assert {v: n for (v, name), n in solves.items()
                if name == "_solve_pivoted"} == {1: 1, 21: 1}

    @pytest.mark.parametrize("make", [
        lambda: make_dataset(n_entities=3, seed=16)[0], _late_starter])
    def test_shared_store_equals_fresh_weeks(self, make):
        # staleness check: each week built through the year's store equals,
        # within the golden tolerance, the same week built in a fresh `Week`
        panel = PanelArrays(make())
        config = RunConfig(estimation_start=1990, eval_start=2012, eval_end=2012)

        def outcome(week, info, spec):
            try:
                energy = None if spec.is_direct else nowcast_energy(week, info, spec)
                return energy, nowcast_co2_density(week, info, spec, config)
            except DataError as exc:
                return type(exc), str(exc)

        def close(a, b):
            if isinstance(a, (list, tuple)):
                return len(a) == len(b) and all(map(close, a, b))
            if isinstance(a, float):
                return a == pytest.approx(b, rel=REL)
            if hasattr(a, "__dataclass_fields__"):
                return type(a) is type(b) and close(
                    [getattr(a, f) for f in a.__dataclass_fields__],
                    [getattr(b, f) for f in b.__dataclass_fields__])
            return a == b

        kept = {}
        for v in range(1, 49):
            info = information_set(table2_rules(), 2012, v)
            shared = Week(panel, info, config.estimation_start, kept)
            fresh = Week(panel, info, config.estimation_start)
            for kind in MODEL_KINDS:
                spec = ModelSpec(kind)
                got, want = outcome(shared, info, spec), outcome(fresh, info, spec)
                assert close(got, want), (v, kind)
            # the store holds this week's items and nothing else
            assert kept.keys() == fresh._kept.keys(), v

    def test_every_value_a_week_reads_is_read_inside_a_kept_build(self, monkeypatch):
        # so each value is in the stamp of an item; the coverage check reads
        # none, and `factor` reads through `Week.read`
        inside, outside = [], []
        read = PanelArrays._read

        def counting_read(self, info, var, rows, k):
            open_builds = getattr(info.latest, "open", [])
            (inside if open_builds else outside).append((info.week, var))
            return read(self, info, var, rows, k)

        monkeypatch.setattr(PanelArrays, "_read", counting_read)
        ds, _ = make_dataset(n_entities=3, seed=12)
        config = RunConfig(estimation_start=1990, eval_start=2012, eval_end=2012)
        archive = _run_year(PanelArrays(ds), config, 2012)
        assert archive.diagnostics == []
        assert outside == []
        assert inside

    def test_no_kept_key_holds_a_period(self, monkeypatch):
        # a key holding a period would keep an item past a release of the
        # period's variable unless its stamp named that variable
        keys = []
        keep = Week._keep

        def recording_keep(self, key, build):
            keys.append(key)
            return keep(self, key, build)

        monkeypatch.setattr(Week, "_keep", recording_keep)
        ds, _ = make_dataset(n_entities=3, seed=12)
        config = RunConfig(estimation_start=1990, eval_start=2012, eval_end=2012)
        _run_year(PanelArrays(ds), config, 2012)
        elements = [e for k in keys for e in (k if isinstance(k, tuple) else (k,))]
        assert {"read", "factor"} <= set(elements)
        assert not [e for e in elements if isinstance(e, PeriodIndex)]

    def test_a_stage_result_is_the_kept_one(self):
        # each wrapper returns the week's kept result itself, which no caller
        # can change: tuples all the way down, no list, dict or writable array
        def frozen(x):
            if isinstance(x, np.ndarray):
                return not x.flags.writeable
            if isinstance(x, (list, dict)):
                return False
            if isinstance(x, tuple):
                return all(map(frozen, x))
            if dataclasses.is_dataclass(x):
                return all(frozen(getattr(x, f.name)) for f in dataclasses.fields(x))
            return True

        ds, _ = make_dataset(n_entities=3, seed=9)
        config = RunConfig(estimation_start=1990, eval_start=2011, eval_end=2011)
        week, info = _week(ds, 2011, 30)
        for kind in MODEL_KINDS:
            spec = ModelSpec(kind)
            stages = [lambda: nowcast_co2_density(week, info, spec, config)]
            if not spec.is_direct:
                stages.append(lambda: nowcast_energy(week, info, spec))
            for stage in stages:
                result = stage()
                assert stage() is result, kind
                assert frozen(result), kind
                assert result[0], kind

    def test_kept_designs_are_read_only(self):
        # the bridge's training rows serve every bridge spec of every week
        # until a release
        ds, _ = make_dataset(n_entities=3, seed=9)
        week, _ = _week(ds, 2011, 30)
        rows, last = week.bridge()
        with pytest.raises(ValueError):
            rows.y[0] = 0.0
        with pytest.raises(ValueError):
            last[0, 0] = 0.0
