import numpy as np
import pytest

from co2nowcast import panel_ls, panel_qr, skew_t
from co2nowcast.errors import ConfigError, DomainError
from co2nowcast.panel import (
    Frequency,
    MixedFreqSeries,
    PanelDataset,
    PeriodIndex,
    cross_section_mean,
)
from co2nowcast.pipeline import (
    BRIDGE_LABELS,
    MODEL_KINDS,
    ModelSpec,
    RunConfig,
    assemble_energy_design,
    bridge_design,
    co2_benchmark_quantiles,
    direct_design,
    nowcast_co2_density,
    nowcast_energy,
    run_out_of_sample,
)
from co2nowcast.release_calendar import information_set, table2_rules, truncate

from _dgp import make_dataset


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
        with pytest.raises(ConfigError):
            RunConfig(weci_transform="log")

    @pytest.mark.parametrize("taus", [(0.5,), (0.25, 0.75), (0.1, 0.25, 0.75, 0.9)])
    def test_density_needs_three_taus(self, taus):
        with pytest.raises(ConfigError, match="three taus"):
            RunConfig(taus=taus)
        assert RunConfig(taus=taus, fit_density=False).taus == taus


def _week(ds, t, v):
    """The panel truncated by the information set of (t, v), and that set."""
    info = information_set(table2_rules(), t, v)
    return truncate(ds, info), info


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
        info = information_set(table2_rules(), 2011, 24)
        cut = truncate(ds, info)
        spec = ModelSpec(kind)
        rows, pred, labels = assemble_energy_design(cut, info, spec, 2011, 1990)
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
        info = information_set(table2_rules(), t, v)
        cut = truncate(ds, info)
        rows, pred, labels = assemble_energy_design(
            cut, info, ModelSpec("AR-M"), t, 2005
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
                truncate(ds, info), info, spec, t, 1990
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
        cut = truncate(ds, info)
        out, _ = nowcast_energy(cut, info, ModelSpec("AR"), config)
        # oracle: plain within regression of c_s on c_{s-d_v}
        from co2nowcast.panel_ls import DesignRow, fit_within, predict

        d_v = t - info["EC"].year
        rows = []
        for e in cut.entities:
            s_ec = cut.get("EC", e)
            for s in range(1990, info["EC"].year + 1):
                rows.append(DesignRow(
                    entity=e, year=s, y=s_ec.value_at(PeriodIndex(s)),
                    x=np.array([s_ec.value_at(PeriodIndex(s - d_v))]),
                ))
        model = fit_within(rows)
        for n in out:
            x = np.array([cut.get("EC", n.entity).value_at(PeriodIndex(t - d_v))])
            assert n.value == pytest.approx(predict(model, n.entity, x), abs=1e-10)


class TestBridgeDesign:
    def test_lag_offset_and_factors(self):
        ds = _coded_dataset()
        t, v = 2021 - 10, 9  # use 2011 to stay inside the coded span
        info = information_set(table2_rules(), t, v)
        assert t - info["CO2"].year == 3  # annual emissions lag at week 9
        cut = truncate(ds, info)
        energy = {e: 123.0 for e in cut.entities}
        rows, pred, labels = bridge_design(cut, info, energy, t, 2000)
        assert labels == BRIDGE_LABELS
        for r in rows:
            assert r.x[0] == (r.year - 3) * 100.0 + 1  # AR lag of emissions
            assert r.x[1] == r.year * 100.0 + 1  # realized energy in training
            assert r.x[2] == cross_section_mean(cut, "CO2", PeriodIndex(r.year - 3))
            assert r.x[3] == cross_section_mean(cut, "EC", PeriodIndex(r.year - 3))
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
        cut, info = _week(ds, 2011, 48)
        energy = nowcast_energy(cut, info, spec, config)
        chat = {n.entity: n.value for n in energy[0]}
        out, _ = nowcast_co2_density(cut, info, spec, config, energy)
        for n in out:
            assert n.quantiles[1] == pytest.approx(chat[n.entity], abs=1e-4)


class TestDirectDesign:
    def test_shares_energy_blocks_and_reads_emissions_factor(self):
        ds, _ = make_dataset(n_entities=3, seed=7)
        t, v = 2011, 24
        info = information_set(table2_rules(), t, v)
        cut = truncate(ds, info)
        e_rows, e_pred, _ = assemble_energy_design(
            cut, info, ModelSpec("AR-W-M-Q"), t, 1990)
        d_rows, d_pred, _ = direct_design(
            cut, info, ModelSpec("DirectAR-W-M-Q"), t, 1990)
        energy_x = {(r.entity, r.year): r.x for r in e_rows}
        energy_x.update({(e, t): x for e, x in e_pred})
        direct_x = {(r.entity, r.year): r.x for r in d_rows}
        direct_x.update({(e, t): x for e, x in d_pred})
        shared = set(energy_x) & set(direct_x)
        assert len(shared) > 3 and {(e, t) for e in cut.entities} <= shared
        g_v = t - info["CO2"].year
        for (entity, year) in shared:
            assert np.array_equal(energy_x[entity, year][1:], direct_x[entity, year][1:-1])
            assert direct_x[entity, year][-1] == cross_section_mean(
                cut, "CO2", PeriodIndex(year - g_v))

    def test_labels_and_counts(self):
        ds, _ = make_dataset(n_entities=3, seed=7)
        info = information_set(table2_rules(), 2011, 24)
        cut = truncate(ds, info)
        rows, pred, labels = direct_design(cut, info, ModelSpec("DirectAR-W-M-Q"),
                                           2011, 1990)
        assert labels[0] == "ar_e" and labels[-1] == "f_e"
        assert len(labels) == 1 + 4 + 12 + 2 + 1
        assert all(len(r.x) == len(labels) for r in rows)
        assert len(pred) == 3


class TestDensityNowcast:
    def test_benchmark_quantiles(self):
        ds = PanelDataset()
        ds.add("CO2", MixedFreqSeries("A", Frequency.ANNUAL, PeriodIndex(2000),
                                      [-2.0, -1.0, 0.0, 1.0, 2.0]))
        assert co2_benchmark_quantiles(ds, "A", (0.25, 0.5, 0.75)) == (-1.0, 0.0, 1.0)

    def test_hist_mean_returns_benchmark(self):
        ds, _ = make_dataset(n_entities=2, seed=8)
        config = RunConfig(estimation_start=1990, eval_start=2011, eval_end=2011,
                           fit_density=False)
        out, gaps = nowcast_co2_density(*_week(ds, 2011, 20), ModelSpec("HistMean"),
                                        config, None)
        assert gaps == []
        for n in out:
            assert n.quantiles == n.benchmark
            assert n.quantiles[0] <= n.quantiles[1] <= n.quantiles[2]

    def test_bridge_quantiles_ascending_with_density(self):
        ds, _ = make_dataset(n_entities=3, seed=9)
        config = RunConfig(estimation_start=1990, eval_start=2011, eval_end=2011,
                           fit_density=True)
        cut, info = _week(ds, 2011, 30)
        spec = ModelSpec("AR-W")
        energy = nowcast_energy(cut, info, spec, config)
        out, _ = nowcast_co2_density(cut, info, spec, config, energy)
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

    def test_one_truncation_and_one_energy_fit_per_week(self, monkeypatch):
        import co2nowcast.pipeline as pipeline

        weeks, fits = [], []

        def counting_truncate(dataset, info):
            weeks.append((info.year, info.week))
            return truncate(dataset, info)

        def counting_fit_within(rows, **kwargs):
            fits.append(len(rows))
            return pipeline_fit_within(rows, **kwargs)

        pipeline_fit_within = pipeline.fit_within
        monkeypatch.setattr(pipeline, "truncate", counting_truncate)
        monkeypatch.setattr(pipeline, "fit_within", counting_fit_within)
        ds, _ = make_dataset(n_entities=2, seed=12)
        specs = ("HistMean", "AR", "AR-W-M-Q", "DirectAR-W-M-Q")
        config = RunConfig(estimation_start=1990, eval_start=2011, eval_end=2012,
                           taus=(0.5,), specs=specs, fit_density=False)
        archive = run_out_of_sample(ds, config)
        assert archive.diagnostics == []
        n_weeks = 2 * 48
        assert len(weeks) == len(set(weeks)) == n_weeks
        # only AR and AR-W-M-Q fit a within-LS energy stage
        assert len(fits) == 2 * n_weeks

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
            cut, info = _week(ds, 2011, v)
            for kind in ENERGY_KINDS:
                spec = ModelSpec(kind)
                energy = nowcast_energy(cut, info, spec, config)
                out, _ = nowcast_co2_density(cut, info, spec, config, energy)
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
