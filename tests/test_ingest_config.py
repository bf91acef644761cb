import dataclasses
import math
import os
import re

import pytest

from co2nowcast.config import KNOWN_KEYS, SETTINGS, parse_config_text
from co2nowcast.errors import ConfigError, IngestError
from co2nowcast.ingest import (
    STORE_MANIFEST,
    build_dataset,
    load_store,
    read_manifest,
    read_variable_csv,
    write_store,
)
from co2nowcast.panel import Frequency, PeriodIndex
from co2nowcast.pipeline import RunConfig


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestReadVariableCsv:
    def test_annual_without_sub_column(self, tmp_path):
        path = _write(tmp_path, "y.csv", "entity,year,value\nA,2000,1.5\nA,2001,2.5\n")
        out = read_variable_csv(path, Frequency.ANNUAL)
        series = out["A"]
        assert series.start == PeriodIndex(2000, 1)
        assert series.values.tolist() == [1.5, 2.5]

    def test_weekly_with_sub(self, tmp_path):
        path = _write(
            tmp_path, "w.csv",
            "entity,year,sub,value\nA,2000,51,1.0\nA,2000,52,2.0\nA,2001,1,3.0\n",
        )
        out = read_variable_csv(path, Frequency.WEEKLY)
        assert out["A"].values.tolist() == [1.0, 2.0, 3.0]

    def test_unsorted_rows_are_ordered(self, tmp_path):
        path = _write(
            tmp_path, "q.csv",
            "entity,year,sub,value\nA,2000,3,3.0\nA,2000,1,1.0\nA,2000,2,2.0\n",
        )
        out = read_variable_csv(path, Frequency.QUARTERLY)
        assert out["A"].values.tolist() == [1.0, 2.0, 3.0]

    def test_bad_header(self, tmp_path):
        path = _write(tmp_path, "y.csv", "state,year,value\nA,2000,1.0\n")
        with pytest.raises(IngestError, match="header"):
            read_variable_csv(path, Frequency.ANNUAL)

    def test_duplicate_key_names_line(self, tmp_path):
        path = _write(
            tmp_path, "y.csv",
            "entity,year,sub,value\nA,2000,1,1.0\nA,2000,1,2.0\n",
        )
        with pytest.raises(IngestError, match=r"\.csv:3.*duplicate"):
            read_variable_csv(path, Frequency.ANNUAL)

    def test_interior_gap(self, tmp_path):
        path = _write(
            tmp_path, "m.csv",
            "entity,year,sub,value\nA,2000,1,1.0\nA,2000,3,3.0\n",
        )
        with pytest.raises(IngestError, match="missing interior period"):
            read_variable_csv(path, Frequency.MONTHLY)

    def test_invalid_subperiod(self, tmp_path):
        path = _write(tmp_path, "q.csv", "entity,year,sub,value\nA,2000,5,1.0\n")
        with pytest.raises(IngestError, match="subperiod 5 invalid"):
            read_variable_csv(path, Frequency.QUARTERLY)

    def test_malformed_value_names_line(self, tmp_path):
        path = _write(tmp_path, "y.csv", "entity,year,sub,value\nA,2000,1,abc\n")
        with pytest.raises(IngestError, match=r"\.csv:2"):
            read_variable_csv(path, Frequency.ANNUAL)

    def test_empty_file(self, tmp_path):
        path = _write(tmp_path, "y.csv", "")
        with pytest.raises(IngestError, match="empty"):
            read_variable_csv(path, Frequency.ANNUAL)

    @pytest.mark.parametrize("name", ['"A,B"', '"A""B"', '"A\nB"', '"A\rB"'],
                             ids=["comma", "quote", "newline", "return"])
    def test_entity_name_the_store_cannot_hold(self, tmp_path, name):
        # the store and the archive write entity names unquoted
        path = tmp_path / "y.csv"
        path.write_bytes(f"entity,year,value\nA,2000,1.0\n{name},2000,1.0\n".encode())
        with pytest.raises(IngestError, match=r"y\.csv:3: entity name"):
            read_variable_csv(str(path), Frequency.ANNUAL)


    @pytest.mark.parametrize("freq, row, what", [
        (Frequency.QUARTERLY, "A,2000,,1.0", "empty sub field"),
        (Frequency.MONTHLY, "A,2000, ,1.0", "empty sub field"),
        (Frequency.WEEKLY, "A,2000,,1.0", "empty sub field"),
        (Frequency.QUARTERLY, ",2000,1,1.0", "empty entity name"),
        (Frequency.ANNUAL, " ,2000,1,1.0", "empty entity name"),
    ], ids=["quarterly_sub", "monthly_blank_sub", "weekly_sub", "entity", "blank_entity"])
    def test_empty_sub_or_entity_names_line(self, tmp_path, freq, row, what):
        # only an annual file may leave `sub` empty (it reads as 1)
        path = _write(tmp_path, "v.csv", f"entity,year,sub,value\nA,1999,1,0.5\n{row}\n")
        with pytest.raises(IngestError, match=rf"v\.csv:3: {what}"):
            read_variable_csv(path, freq)
        annual = _write(tmp_path, "y.csv", "entity,year,sub,value\nA,1999,,0.5\nA,2000,,1.0\n")
        assert read_variable_csv(annual, Frequency.ANNUAL)["A"].values.tolist() == [0.5, 1.0]


MANIFEST_HEADER = "variable,file,frequency,transform,population_file\n"


class TestManifest:
    def test_parse(self, tmp_path):
        path = _write(
            tmp_path, "manifest.csv",
            MANIFEST_HEADER
            + "EC,ec.csv,annual,per_capita_yoy_log,pop.csv\n"
            + "WECI,weci.csv,weekly,none,\n",
        )
        entries = read_manifest(path)
        assert entries[0]["frequency"] is Frequency.ANNUAL
        assert entries[0]["population_file"] == "pop.csv"
        assert entries[1]["population_file"] is None

    def test_bad_header(self, tmp_path):
        path = _write(tmp_path, "manifest.csv", "var,file\nx,y\n")
        with pytest.raises(ConfigError, match="manifest header"):
            read_manifest(path)

    def test_unknown_frequency(self, tmp_path):
        path = _write(
            tmp_path, "manifest.csv", MANIFEST_HEADER + "EC,ec.csv,daily,none,\n"
        )
        with pytest.raises(ConfigError, match="frequency 'daily'"):
            read_manifest(path)

    def test_unknown_transform(self, tmp_path):
        path = _write(
            tmp_path, "manifest.csv", MANIFEST_HEADER + "EC,ec.csv,annual,log,\n"
        )
        with pytest.raises(ConfigError, match="transform 'log'"):
            read_manifest(path)

    def test_per_capita_needs_population(self, tmp_path):
        path = _write(
            tmp_path, "manifest.csv", MANIFEST_HEADER + "EC,ec.csv,annual,per_capita,\n"
        )
        with pytest.raises(ConfigError, match="population"):
            read_manifest(path)

    @pytest.mark.parametrize("name", [
        '""', '"E,C"', '"E""C"', '"E\nC"', '"E\rC"', "a/EC", "a\\EC", "..", ".EC"],
        ids=["empty", "comma", "quote", "newline", "return", "slash", "backslash",
             "parent", "dot"])
    def test_variable_name_the_store_cannot_hold(self, tmp_path, name):
        # the store writes each variable unquoted, as the name of its file
        path = tmp_path / "manifest.csv"
        path.write_bytes(
            f"{MANIFEST_HEADER}CO2,co2.csv,annual,none,\n{name},ec.csv,annual,none,\n"
            .encode())
        with pytest.raises(ConfigError, match=r"manifest\.csv:3: variable name"):
            read_manifest(str(path))

    def test_repeated_variable(self, tmp_path):
        path = _write(tmp_path, "manifest.csv", MANIFEST_HEADER
                      + "EC,ec.csv,annual,none,\nCO2,co2.csv,annual,none,\n"
                      + "EC,ec2.csv,annual,none,\n")
        with pytest.raises(ConfigError, match=r"manifest\.csv:4: variable 'EC' given twice"):
            read_manifest(path)

    @pytest.mark.parametrize("text", [MANIFEST_HEADER, ""],
                             ids=["header-only", "no-header"])
    def test_empty_manifest(self, tmp_path, text):
        path = _write(tmp_path, "manifest.csv", text)
        with pytest.raises(ConfigError, match=r"manifest\.csv: empty manifest"):
            read_manifest(path)


class TestBuildDataset:
    def _data_dir(self, tmp_path):
        _write(tmp_path, "ec.csv",
               "entity,year,value\nA,2000,100.0\nA,2001,121.0\nA,2002,133.1\n")
        _write(tmp_path, "pop.csv",
               "entity,year,value\nA,2000,10.0\nA,2001,11.0\nA,2002,11.0\n")
        _write(tmp_path, "manifest.csv",
               MANIFEST_HEADER + "EC,ec.csv,annual,per_capita_yoy_log,pop.csv\n")
        return str(tmp_path)

    def test_per_capita_yoy_log(self, tmp_path):
        data_dir = self._data_dir(tmp_path)
        ds = build_dataset(data_dir, read_manifest(os.path.join(data_dir, "manifest.csv")))
        series = dict(ds.series_of("EC"))["A"]
        # per-capita levels 10, 11, 12.1 -> log growth ln(1.1) twice
        assert series.start == PeriodIndex(2001, 1)
        assert series.values == pytest.approx([math.log(1.1)] * 2)

    def test_missing_population_entity(self, tmp_path):
        data_dir = self._data_dir(tmp_path)
        _write(tmp_path, "pop.csv", "entity,year,value\nB,2000,10.0\n")
        with pytest.raises(IngestError, match="no population series"):
            build_dataset(data_dir, read_manifest(os.path.join(data_dir, "manifest.csv")))

    def test_yoy_log_only(self, tmp_path):
        _write(tmp_path, "w.csv",
               "entity,year,sub,value\n"
               + "".join(f"A,2000,{v},{2.0}\n" for v in range(1, 53))
               + "".join(f"A,2001,{v},{4.0}\n" for v in range(1, 53)))
        _write(tmp_path, "manifest.csv",
               MANIFEST_HEADER + "WECI,w.csv,weekly,yoy_log,\n")
        ds = build_dataset(str(tmp_path), read_manifest(str(tmp_path / "manifest.csv")))
        series = dict(ds.series_of("WECI"))["A"]
        assert series.values == pytest.approx([math.log(2.0)] * 52)


class TestStoreRoundTrip:
    def _dataset(self, tmp_path):
        _write(tmp_path, "ec.csv",
               "entity,year,value\nA,2000,1.25\nA,2001,2.5\nB,2000,3.0\nB,2001,4.0\n")
        _write(tmp_path, "q.csv",
               "entity,year,sub,value\nA,2000,1,0.1\nA,2000,2,0.2\nA,2000,3,0.3\n")
        _write(tmp_path, "manifest.csv",
               MANIFEST_HEADER + "EC,ec.csv,annual,none,\nPI,q.csv,quarterly,none,\n")
        return build_dataset(str(tmp_path), read_manifest(str(tmp_path / "manifest.csv")))

    def test_round_trip(self, tmp_path):
        ds = self._dataset(tmp_path)
        store = tmp_path / "store"
        write_store(ds, str(store))
        loaded = load_store(str(store))
        assert loaded.variables == ds.variables
        for var in ds.variables:
            for (e1, s1), (e2, s2) in zip(ds.series_of(var), loaded.series_of(var)):
                assert e1 == e2
                assert s1.start == s2.start
                assert s1.values.tolist() == s2.values.tolist()

    def test_checksum_corruption(self, tmp_path):
        ds = self._dataset(tmp_path)
        store = tmp_path / "store"
        write_store(ds, str(store))
        path = store / "EC.csv"
        path.write_text(path.read_text().replace("1.25", "1.26"))
        with pytest.raises(IngestError, match="checksum"):
            load_store(str(store))

    @pytest.mark.parametrize("corrupt, message", [
        (lambda line: line.rsplit(",", 1)[0], ":2: 3 fields, expected 4"),
        (lambda line: line.replace(".csv", "_gone.csv"), ":2: cannot read .*_gone.csv"),
        (lambda line: line.replace(",annual,", ",daily,"), ":2: unknown frequency 'daily'"),
    ], ids=["three_fields", "missing_file", "unknown_frequency"])
    def test_malformed_store_manifest(self, tmp_path, corrupt, message):
        store = tmp_path / "store"
        write_store(self._dataset(tmp_path), str(store))
        manifest = store / STORE_MANIFEST
        lines = manifest.read_text().splitlines()
        assert lines[1].startswith("EC,annual,EC.csv,")
        lines[1] = corrupt(lines[1])
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(IngestError, match=f"^{re.escape(str(manifest))}{message}"):
            load_store(str(store))

    def test_empty_store_manifest(self, tmp_path):
        (tmp_path / STORE_MANIFEST).write_text("")
        with pytest.raises(IngestError, match="empty store manifest"):
            load_store(str(tmp_path))

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(IngestError, match="store manifest"):
            load_store(str(tmp_path))

    def test_store_values_exact(self, tmp_path):
        # repr-based serialization keeps doubles bit-exact through the store
        ds = self._dataset(tmp_path)
        store = tmp_path / "store"
        write_store(ds, str(store))
        assert (store / STORE_MANIFEST).exists()
        loaded = load_store(str(store))
        a = dict(ds.series_of("PI"))["A"].values
        b = dict(loaded.series_of("PI"))["A"].values
        assert all(x == y for x, y in zip(a, b))


class TestConfig:
    def test_defaults(self):
        cfg, data_dir = parse_config_text("")
        assert cfg.estimation_start == 1990
        assert cfg.eval_start == 2009
        assert cfg.eval_end == 2018
        assert cfg.taus == (0.25, 0.5, 0.75)
        assert cfg.lam == 1.0
        assert data_dir is None

    def test_full_parse(self):
        text = (
            "# run settings\n"
            "data_dir = /data\n"
            "estimation_start = 1995\n"
            "eval_start = 2010\n"
            "eval_end = 2012\n"
            "taus = 0.1,0.5,0.9\n"
            "lambda = 2.5\n"
            "specs = HistMean,AR-W\n"
            "fit_density = false\n"
        )
        cfg, data_dir = parse_config_text(text)
        assert data_dir == "/data"
        assert cfg.taus == (0.1, 0.5, 0.9)
        assert cfg.lam == 2.5
        assert cfg.specs == ("HistMean", "AR-W")
        assert cfg.fit_density is False

    def test_settings_set_every_run_config_field_once(self):
        fields = [name for name, _, _ in SETTINGS.values()]
        assert len(fields) == len(set(fields))
        assert set(fields) == {f.name for f in dataclasses.fields(RunConfig)}
        assert KNOWN_KEYS == ("data_dir", *SETTINGS)

    def test_first_bad_value_in_parse_order_is_reported(self):
        bad = ["fit_density = maybe", "lambda = abc", "taus = x", "eval_end = soon"]
        for key, message in [("eval_end", "expected integer"),
                             ("taus", "expected comma-separated floats"),
                             ("lambda", "expected a float"),
                             ("fit_density", "expected true/false")]:
            with pytest.raises(ConfigError, match=f"^config key '{key}': {message}$"):
                parse_config_text("\n".join(bad) + "\n")
            bad.pop()

    def test_weci_transform_key_is_unknown(self):
        # the WECI transform is set per file in the ingest manifest
        with pytest.raises(ConfigError, match="line 1: unknown key 'weci_transform'"):
            parse_config_text("weci_transform = yoy_log\n")

    def test_unknown_key_names_key(self):
        with pytest.raises(ConfigError, match="'lamda'"):
            parse_config_text("lamda = 1.0\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate key 'eval_start'"):
            parse_config_text("eval_start = 2009\neval_start = 2010\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key=value"):
            parse_config_text("eval_start 2009\n")

    def test_bad_integer(self):
        with pytest.raises(ConfigError, match="integer"):
            parse_config_text("eval_start = soon\n")

    def test_bad_taus(self):
        with pytest.raises(ConfigError, match="taus"):
            parse_config_text("taus = 0.25;0.5\n")

    @pytest.mark.parametrize("text, message", [
        ("taus = 0,0.5,1.5", r"taus must lie inside \(0, 1\), got \(0.0, 0.5, 1.5\)"),
        ("taus = 0.25,0.5,nan", r"taus must lie inside \(0, 1\)"),
        ("taus = 0.25,0.5,inf", r"taus must lie inside \(0, 1\)"),
        ("lambda = -1", r"lambda must be finite and >= 0, got -1.0"),
        ("lambda = nan", r"lambda must be finite and >= 0, got nan"),
        ("lambda = inf", r"lambda must be finite and >= 0, got inf"),
    ])
    def test_taus_and_lambda_the_fits_cannot_use(self, text, message):
        with pytest.raises(ConfigError, match=message):
            parse_config_text(text + "\n")

    @pytest.mark.parametrize("kwargs", [
        dict(taus=(0.0, 0.5, 0.75)), dict(taus=(0.25, 0.5, 1.0)),
        dict(taus=(0.25, 0.5, math.nan)), dict(taus=(math.nan, 0.5, 0.75)),
        dict(lam=-1.0), dict(lam=math.nan), dict(lam=math.inf),
    ])
    def test_run_config_rejects_what_the_fits_cannot_use(self, kwargs):
        with pytest.raises(ConfigError, match="taus must lie inside|lambda must be"):
            RunConfig(**kwargs)
        assert RunConfig(taus=(0.01, 0.5, 0.99), lam=0.0).lam == 0.0

    def test_density_needs_three_taus(self):
        with pytest.raises(ConfigError, match="fit_density needs exactly three taus"):
            parse_config_text("taus = 0.5\n")
        cfg, _ = parse_config_text("taus = 0.5\nfit_density = false\n")
        assert cfg.taus == (0.5,)

    def test_unknown_spec(self):
        with pytest.raises(ConfigError, match="unknown model 'ARX'"):
            parse_config_text("specs = ARX\n")

    @pytest.mark.parametrize("value", ["", ",", " , "])
    def test_empty_specs(self, value):
        with pytest.raises(ConfigError, match="at least one model"):
            parse_config_text(f"specs = {value}\n")

    def test_repeated_spec(self):
        with pytest.raises(ConfigError, match="more than once"):
            parse_config_text("specs = AR,AR\n")

    def test_bad_fit_density(self):
        with pytest.raises(ConfigError, match="fit_density"):
            parse_config_text("fit_density = maybe\n")

    def test_eval_window_checked(self):
        with pytest.raises(ConfigError, match="eval_start"):
            parse_config_text("eval_start = 2012\neval_end = 2010\n")

    def test_unordered_taus(self):
        with pytest.raises(ConfigError, match="ascending"):
            parse_config_text("taus = 0.75,0.25\n")
