import math
import os

import numpy as np
import pytest

from co2nowcast import panel_ls, panel_qr, pipeline, skew_t
from co2nowcast.errors import ConfigError, CoverageError, DomainError
from co2nowcast.panel import (
    Frequency,
    MixedFreqSeries,
    PanelDataset,
    PeriodIndex,
    advance,
    ordinal,
)
from co2nowcast.panel_ls import DesignRow
from co2nowcast.pipeline import (
    ALMON_MAP,
    BRIDGE_LABELS,
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
    _drop_thin_entities,
    run_out_of_sample,
)
from co2nowcast.release_calendar import information_set, table2_rules

from _dgp import make_dataset
from test_golden_archive import _late_starter


class TestModelSpec:
    def test_blocks(self):
        assert not ModelSpec("HistMean").has_m
        assert not ModelSpec("AR").has_w
        spec = ModelSpec("AR-W-M-Q")
        assert spec.has_w and spec.has_m and spec.has_q and not spec.is_direct
        direct = ModelSpec("DirectAR-W-M-Q")
        assert direct.is_direct and direct.has_w

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

    @pytest.mark.parametrize("taus", [(0.5,), (0.25, 0.75), (0.1, 0.25, 0.75, 0.9)])
    def test_density_needs_three_taus(self, taus):
        with pytest.raises(ConfigError, match="three taus"):
            RunConfig(taus=taus)
        assert RunConfig(taus=taus, fit_density=False).taus == taus


def _week(ds, t, v):
    """The panel's arrays and the information set of (t, v)."""
    return PanelArrays(ds), information_set(table2_rules(), t, v)


def _benchmarks(panel, info, config):
    return co2_benchmark_quantiles(panel, info, config.taus)


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


class TestEnergyDesign:
    @pytest.mark.parametrize("kind", ENERGY_KINDS)
    def test_regressor_count_and_labels(self, kind):
        ds, _ = make_dataset(n_entities=3, seed=1)
        panel, info = _week(ds, 2011, 24)
        spec = ModelSpec(kind)
        rows, pred, labels = assemble_energy_design(panel, info, spec, 2011, 1990)
        width = 1 + 4 * spec.has_q + 12 * spec.has_m + 2 * spec.has_w
        assert len(labels) == width
        assert labels[0] == "ar_c"
        if spec.has_q:
            assert labels[1] == "q1"
        if spec.has_w:
            assert labels[-1] == "w2"
        assert rows and all(len(r.x) == width for r in rows)
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
        config = RunConfig(estimation_start=1990, eval_start=2012, eval_end=2012)
        out, gaps = nowcast_energy(*_week(ds, 2012, 40), ModelSpec("AR-W"), config)
        assert [n.entity for n in out] == ["S00", "S02"]
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
        config = RunConfig(estimation_start=1990, eval_start=2012, eval_end=2012)
        out, gaps = nowcast_energy(*_week(ds, 2012, 40), ModelSpec("AR-W"), config)
        assert [n.entity for n in out] == ["S00", "S02"]
        assert gaps == ["S01"]

    def test_alignment_is_a_pure_function_of_week(self):
        # training year s reads the same within-year offsets as target year t
        ds = _coded_dataset()
        t, v = 2011, 24
        panel, info = _week(ds, t, v)
        rows, pred, labels = assemble_energy_design(
            panel, info, ModelSpec("AR-M"), t, 2005
        )
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
        rules = table2_rules()
        spec = ModelSpec("AR-Q")
        v = 30
        designs = {}
        for t in (2010, 2011):
            info = information_set(rules, t, v)
            rows, _, _ = assemble_energy_design(
                PanelArrays(ds), info, spec, t, 1990
            )
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
        out, gaps = nowcast_energy(*_week(ds, 2005, 10), ModelSpec("HistMean"),
                                   RunConfig(estimation_start=1990,
                                             eval_start=2005, eval_end=2005))
        assert gaps == []
        assert out[0].value == pytest.approx(0.0)

    def test_direct_spec_rejected(self):
        ds, _ = make_dataset(n_entities=2, seed=3)
        with pytest.raises(DomainError):
            nowcast_energy(*_week(ds, 2011, 48), ModelSpec("DirectAR-W-M-Q"),
                           RunConfig(eval_start=2011, eval_end=2011))

    def test_noise_free_recovery_at_full_information(self):
        # at week 48 the information set reaches the generating anchors, so a
        # noise-free panel is fit exactly and the nowcast equals the outcome
        ds, truth = make_dataset(n_entities=4, seed=4, noise_c=0.0, noise_e=0.0)
        config = RunConfig(estimation_start=1990, eval_start=2011, eval_end=2011)
        out, gaps = nowcast_energy(*_week(ds, 2011, 48), ModelSpec("AR-W-M-Q"),
                                   config)
        assert gaps == []
        assert len(out) == 4
        for n in out:
            realized = ds.get("EC", n.entity).value_at(PeriodIndex(2011))
            assert n.value == pytest.approx(realized, abs=1e-6)

    def test_ar_spec_matches_reduced_regression(self):
        ds, _ = make_dataset(n_entities=3, seed=5)
        rules = table2_rules()
        t, v = 2011, 10
        config = RunConfig(estimation_start=1990, eval_start=2011, eval_end=2011)
        info = information_set(rules, t, v)
        out, _ = nowcast_energy(PanelArrays(ds), info, ModelSpec("AR"), config)
        # oracle: plain within regression of c_s on c_{s-d_v}, which reads
        # nothing after the latest EC year of the information set
        from co2nowcast.panel_ls import DesignRow, fit_within, predict

        d_v = t - info["EC"].year
        rows = []
        for e in ds.entities:
            s_ec = ds.get("EC", e)
            for s in range(1990, info["EC"].year + 1):
                rows.append(DesignRow(
                    entity=e, year=s, y=s_ec.value_at(PeriodIndex(s)),
                    x=np.array([s_ec.value_at(PeriodIndex(s - d_v))]),
                ))
        model = fit_within(rows)
        for n in out:
            x = np.array([ds.get("EC", n.entity).value_at(PeriodIndex(t - d_v))])
            assert n.value == pytest.approx(predict(model, n.entity, x), abs=1e-10)


class TestBridgeDesign:
    def test_lag_offset_and_factors(self):
        ds = _coded_dataset()
        t, v = 2021 - 10, 9  # use 2011 to stay inside the coded span
        panel, info = _week(ds, t, v)
        assert t - info["CO2"].year == 3  # annual emissions lag at week 9
        energy = {e: 123.0 for e in ds.entities}
        rows, pred, labels = bridge_design(panel, info, energy, t, 2000)
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
        panel, info = _week(ds, 2011, 48)
        energy = nowcast_energy(panel, info, spec, config)
        chat = {n.entity: n.value for n in energy[0]}
        out, _ = nowcast_co2_density(panel, info, spec, config, energy,
                                     _benchmarks(panel, info, config))
        for n in out:
            assert n.quantiles[1] == pytest.approx(chat[n.entity], abs=1e-4)


class TestDirectDesign:
    def test_shares_energy_blocks_and_reads_emissions_factor(self):
        ds, _ = make_dataset(n_entities=3, seed=7)
        t, v = 2011, 24
        panel, info = _week(ds, t, v)
        e_rows, e_pred, _ = assemble_energy_design(
            panel, info, ModelSpec("AR-W-M-Q"), t, 1990)
        d_rows, d_pred, _ = direct_design(
            panel, info, ModelSpec("DirectAR-W-M-Q"), t, 1990)
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
        panel, info = _week(ds, 2011, 24)
        rows, pred, labels = direct_design(panel, info, ModelSpec("DirectAR-W-M-Q"),
                                           2011, 1990)
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
            for has, var, n in ((spec.has_q, "PI", 4), (spec.has_m, "ELEC", 12),
                                (spec.has_w, "WECI", 52)):
                if has:
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
                rows.append(DesignRow(entity=entity, year=s, y=y, x=x))
        x = x_of(entity, t)
        if x is not None:
            pred.append((entity, x))
    return rows, pred


class TestDesignEqualsReference:
    def test_every_design_of_two_years(self):
        ds = _reference_panel()
        taus = (0.25, 0.5, 0.75)
        skipped = set()  # (design, entity, year) with y and its AR lag present

        def check(name, build, min_rows, spec=None, energy=None):
            rows, pred, _ = build()
            ref_rows, ref_pred = _ref_design(cut, info, t, 1990, spec, energy)
            assert [(r.entity, r.year, r.y, r.x.tobytes()) for r in rows] == [
                (r.entity, r.year, r.y, r.x.tobytes()) for r in ref_rows]
            assert all(type(r.y) is float and type(r.year) is int for r in rows)
            assert [(e, x.tobytes()) for e, x in pred] == [
                (e, x.tobytes()) for e, x in ref_pred]
            y_var = "CO2" if spec is None or spec.is_direct else "EC"
            entities = [e for e, _ in cut.series_of(y_var)]
            gaps = _drop_thin_entities(rows, pred, entities, min_rows)[2]
            assert gaps == _drop_thin_entities(ref_rows, ref_pred, entities, min_rows)[2]
            lag = t - info[y_var].year
            kept = {(r.entity, r.year) for r in rows}
            skipped.update(
                (name, e, s) for e in entities for s in range(1990, info[y_var].year + 1)
                if (e, s) not in kept
                and _ref_value(cut, y_var, e, PeriodIndex(s)) is not None
                and _ref_value(cut, y_var, e, PeriodIndex(s - lag)) is not None)
            return gaps

        gaps = set()
        for t in (2011, 2012):
            for v in range(1, 49):
                panel, info = _week(ds, t, v)
                cut = _truncated(ds, info)
                # the benchmarks are those of the cut series, bit for bit
                assert energy_hist_mean(panel, info) == {
                    e: float(np.mean(s.values)) for e, s in cut.series_of("EC")}
                assert co2_benchmark_quantiles(panel, info, taus) == {
                    e: tuple(float(q) for q in np.quantile(s.values, taus))
                    for e, s in cut.series_of("CO2")}
                # S00 has no first-stage nowcast: it keeps its training rows only
                energy = {"S01": 0.5, "S02": -0.25, "S03": 1.0}
                gaps.update(check("bridge", lambda: bridge_design(
                    panel, info, energy, t, 1990), 1, energy=energy))
                for kind in MODEL_KINDS[1:]:
                    spec = ModelSpec(kind)
                    if spec.is_direct:
                        build, min_rows = lambda: direct_design(
                            panel, info, spec, t, 1990), 1
                    else:
                        build, min_rows = lambda: assemble_energy_design(
                            panel, info, spec, t, 1990), 2
                    gaps.update(check(kind, build, min_rows, spec))
        # the panel reaches every case: a missing nowcast, a weekly series cut
        # short, a lag window before the series start, and a factor year
        # that no entity covers
        assert {"S00", "S02"} <= gaps
        assert ("DirectAR-W-M-Q", "S01", 1998) in skipped
        assert ("bridge", "S00", 1990) in skipped

    def test_empty_design_raises(self):
        ds = _reference_panel()
        panel, info = _week(ds, 2011, 30)
        with pytest.raises(CoverageError, match="empty energy design"):
            assemble_energy_design(panel, info, ModelSpec("AR"), 2011, 2012)
        # a panel without weekly data has no row for a weekly block
        no_weci = PanelDataset()
        for var in ("CO2", "EC"):
            for _, series in ds.series_of(var):
                no_weci.add(var, series)
        with pytest.raises(CoverageError, match="empty energy design"):
            assemble_energy_design(PanelArrays(no_weci), info, ModelSpec("AR-W"),
                                   2011, 1990)


class TestDensityNowcast:
    def test_benchmark_quantiles(self):
        ds = PanelDataset()
        ds.add("CO2", MixedFreqSeries("A", Frequency.ANNUAL, PeriodIndex(2000),
                                      [-2.0, -1.0, 0.0, 1.0, 2.0]))
        panel, info = _week(ds, 2010, 9)  # emissions known through 2007
        assert co2_benchmark_quantiles(panel, info, (0.25, 0.5, 0.75)) == {
            "A": (-1.0, 0.0, 1.0)}

    def test_hist_mean_returns_benchmark(self):
        ds, _ = make_dataset(n_entities=2, seed=8)
        config = RunConfig(estimation_start=1990, eval_start=2011, eval_end=2011,
                           fit_density=False)
        panel, info = _week(ds, 2011, 20)
        out, gaps = nowcast_co2_density(panel, info, ModelSpec("HistMean"), config,
                                        None, _benchmarks(panel, info, config))
        assert gaps == []
        for n in out:
            assert n.quantiles == n.benchmark
            assert n.quantiles[0] <= n.quantiles[1] <= n.quantiles[2]

    def test_bridge_quantiles_ascending_with_density(self):
        ds, _ = make_dataset(n_entities=3, seed=9)
        config = RunConfig(estimation_start=1990, eval_start=2011, eval_end=2011,
                           fit_density=True)
        panel, info = _week(ds, 2011, 30)
        spec = ModelSpec("AR-W")
        energy = nowcast_energy(panel, info, spec, config)
        out, _ = nowcast_co2_density(panel, info, spec, config, energy,
                                     _benchmarks(panel, info, config))
        assert len(out) == 3
        for n in out:
            assert n.quantiles[0] <= n.quantiles[1] <= n.quantiles[2]
            assert n.params is not None
            assert n.params.sigma > 0


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
        assert archive.density_rows == []
        co2 = [d for d in archive.diagnostics if d["stage"] == "co2"]
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
        assert len(archive.energy_rows) == n_years * n_weeks * n_specs * n_ent
        assert len(archive.co2_rows) == n_years * n_weeks * n_specs * n_ent * 3
        assert archive.diagnostics == []

    def test_determinism(self):
        _, _, a = self._run()
        _, _, b = self._run()
        assert a.to_csv() == b.to_csv()

    def test_realized_values_joined(self):
        ds, _, archive = self._run()
        for r in archive.energy_rows[:20]:
            expected = ds.get("EC", r["entity"]).value_at(PeriodIndex(r["year"]))
            assert r["realized"] == expected

    def test_one_panel_arrays_per_run_and_one_energy_fit_per_week(self, monkeypatch):
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
        n_weeks = 2 * 48
        # only AR and AR-W-M-Q fit a within-LS energy stage
        assert len(fits) == 2 * n_weeks

    def test_co2_benchmark_quantiles_once_per_week(self, monkeypatch):
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
        assert weeks == [(t, v) for t in (2011, 2012) for v in range(1, 49)]

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
        assert archive.energy_rows == []
        assert len(archive.diagnostics) > 0
        for d in archive.diagnostics:
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
            assert {d["year"] for d in archive.diagnostics} == {2010, 2011, 2012}
            assert archive.density_rows
        assert files[0] == files[1]

    @staticmethod
    def _fail_in_2012(monkeypatch, error):
        """Stage two of spec AR raises error(year) in 2012."""
        density = pipeline.nowcast_co2_density

        def failing(panel, info, spec, config, energy, benchmarks):
            if info.year == 2012 and spec.kind == "AR":
                raise error(info.year)
            return density(panel, info, spec, config, energy, benchmarks)

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
        notes = [(d["spec"], d["year"], d["stage"], d["detail"])
                 for d in archive.diagnostics]
        assert notes == [("AR", 2012, "co2", "no density in 2012")] * 48
        # HistMean in both years and AR in 2011: 48 weeks, 2 entities, 3 taus
        assert {r["year"] for r in archive.co2_rows if r["spec"] == "AR"} == {2011}
        assert len(archive.co2_rows) == 3 * 48 * 2 * 3


class TestDistinctDesignsFitOnce:
    def test_one_lp_per_tau_for_one_bridge_week(self, monkeypatch):
        panel_qr._solve.cache_clear()
        taus = []
        fit_lp = panel_qr._fit_lp

        def counting_fit_lp(y, X, idx, n_ent, tau, lam):
            taus.append(tau)
            return fit_lp(y, X, idx, n_ent, tau, lam)

        monkeypatch.setattr(panel_qr, "_fit_lp", counting_fit_lp)
        ds, _ = make_dataset(n_entities=3, seed=9)
        config = RunConfig(estimation_start=1990, eval_start=2011, eval_end=2011,
                           fit_density=False)

        def bridge_week(v):
            panel, info = _week(ds, 2011, v)
            for kind in ENERGY_KINDS:
                spec = ModelSpec(kind)
                energy = nowcast_energy(panel, info, spec, config)
                out, _ = nowcast_co2_density(panel, info, spec, config, energy,
                                             _benchmarks(panel, info, config))
                assert len(out) == 3

        bridge_week(5)
        assert taus == list(config.taus)
        bridge_week(8)  # the same annual information set: nothing to solve
        assert len(taus) == 3
        bridge_week(9)  # the CO2 release adds a training year
        assert taus == 2 * list(config.taus)

    def test_warm_cache_equals_cold_cache(self):
        def outputs(seed):
            ds, _ = make_dataset(n_entities=3, seed=seed)
            config = RunConfig(estimation_start=1990, eval_start=2012, eval_end=2012,
                               specs=("HistMean", "AR", "AR-W-M-Q"))
            archive = run_out_of_sample(ds, config)
            return archive.to_csv(), archive.density_csv(), archive.diagnostics_csv()

        caches = (panel_qr._solve, panel_ls._fit, skew_t._fit)
        for cache in caches:
            cache.cache_clear()
        cold = outputs(14)
        hits = [cache.cache_info().hits for cache in caches]
        warm = outputs(14)
        assert all(cache.cache_info().hits > h for cache, h in zip(caches, hits))
        outputs(15)
        interleaved = outputs(14)
        assert cold == warm == interleaved
