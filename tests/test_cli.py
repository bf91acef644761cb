"""End-to-end command-line tests: ingest -> run -> evaluate -> density."""

import csv
import os

import numpy as np
import pytest

from co2nowcast import pipeline
from co2nowcast.cli import EXIT_FATAL, EXIT_OK, EXIT_PARTIAL, main
from co2nowcast.panel import from_ordinal, ordinal

from _dgp import make_dataset

CONFIG_TEXT = """\
# toy end-to-end run
data_dir = {store}
estimation_start = 1999
eval_start = 2009
eval_end = 2009
specs = HistMean,AR-W
fit_density = true
"""


def _dump_raw_csvs(dataset, data_dir):
    os.makedirs(data_dir, exist_ok=True)
    manifest = ["variable,file,frequency,transform,population_file"]
    for var in dataset.variables:
        freq = dataset.frequency(var)
        lines = ["entity,year,sub,value"]
        for entity, series in dataset.series_of(var):
            for k, value in enumerate(series.values):
                p = from_ordinal(freq, ordinal(freq, series.start) + k)
                lines.append(f"{entity},{p.year},{p.sub},{float(value)!r}")
        with open(os.path.join(data_dir, f"{var}.csv"), "w") as fh:
            fh.write("\n".join(lines) + "\n")
        manifest.append(f"{var},{var}.csv,{freq.value},none,")
    path = os.path.join(data_dir, "manifest.csv")
    with open(path, "w") as fh:
        fh.write("\n".join(manifest) + "\n")
    return path


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    dataset, _ = make_dataset(n_entities=2, first_year=1998, last_year=2009, seed=1)
    data_dir = str(root / "data")
    manifest = _dump_raw_csvs(dataset, data_dir)
    store = str(root / "store")
    assert main(["ingest", "--data-dir", data_dir, "--manifest", manifest,
                 "--out", store]) == EXIT_OK
    config = root / "run.cfg"
    config.write_text(CONFIG_TEXT.format(store=store))
    out = str(root / "out")
    assert main(["run", "--config", str(config), "--out", out]) == EXIT_OK
    return dict(root=root, store=store, config=str(config), out=out)


def _body(path):
    with open(path) as fh:
        return [ln for ln in fh if not ln.startswith("#")]


class TestIngestAndRun:
    def test_store_written(self, workspace):
        assert os.path.exists(os.path.join(workspace["store"], "store_manifest.csv"))
        assert os.path.exists(os.path.join(workspace["store"], "EC.csv"))

    def test_artifacts_written_with_headers(self, workspace):
        for name in ("archive.csv", "density_params.csv", "diagnostics.csv"):
            path = os.path.join(workspace["out"], name)
            with open(path) as fh:
                first = fh.readline()
            assert first.startswith("# config_hash=")
            assert "version=" in first

    def test_archive_layout(self, workspace):
        lines = _body(os.path.join(workspace["out"], "archive.csv"))
        assert lines[0].strip() == ("spec,variable,entity,target_year,week,"
                                    "tau_or_point,prediction,benchmark,realized")
        rows = list(csv.DictReader(lines))
        # 2 specs x 48 weeks x 2 entities: point rows plus 3 quantile rows each
        assert sum(r["variable"] == "EC" for r in rows) == 2 * 48 * 2
        assert sum(r["variable"] == "CO2" for r in rows) == 2 * 48 * 2 * 3
        for r in rows:
            float(r["prediction"]), float(r["realized"])  # parseable floats

    def test_density_params_cover_all_fits(self, workspace):
        lines = _body(os.path.join(workspace["out"], "density_params.csv"))
        assert lines[0].strip() == "spec,entity,target_year,week,mu,sigma,alpha,nu"
        rows = list(csv.DictReader(lines))
        assert len(rows) == 2 * 48 * 2
        assert all(float(r["sigma"]) > 0 for r in rows)

    def test_no_diagnostics_on_clean_run(self, workspace):
        assert _body(os.path.join(workspace["out"], "diagnostics.csv"))[1:] == []

    def test_specs_flag_overrides_config(self, workspace, tmp_path):
        cfg = tmp_path / "specs.cfg"
        cfg.write_text(f"data_dir = {workspace['store']}\nestimation_start = 1999\n"
                       "eval_start = 2009\neval_end = 2009\n"
                       "specs = HistMean,AR-W\nfit_density = false\n")
        out = str(tmp_path / "out")
        assert main(["run", "--config", str(cfg), "--specs", "AR",
                     "--out", out]) == EXIT_OK
        rows = list(csv.DictReader(_body(os.path.join(out, "archive.csv"))))
        assert rows and {r["spec"] for r in rows} == {"AR"}

    def test_rerun_is_byte_identical(self, workspace):
        out2 = str(workspace["root"] / "out2")
        assert main(["run", "--config", workspace["config"], "--out", out2]) == EXIT_OK
        for name in ("archive.csv", "density_params.csv"):
            with open(os.path.join(workspace["out"], name), "rb") as fa, \
                    open(os.path.join(out2, name), "rb") as fb:
                assert fa.read() == fb.read()

    def test_workers_do_not_change_the_outputs(self, workspace, tmp_path, monkeypatch):
        cfg = tmp_path / "years.cfg"
        cfg.write_text(f"data_dir = {workspace['store']}\nestimation_start = 1999\n"
                       "eval_start = 2008\neval_end = 2009\nspecs = HistMean,AR-W\n")

        def run(name, n_workers):
            monkeypatch.setattr(pipeline, "_worker_count", lambda n_years: n_workers)
            out = tmp_path / name
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
            return [(out / f).read_bytes() for f in
                    ("archive.csv", "density_params.csv", "diagnostics.csv")]

        serial = run("serial", 1)
        assert run("pooled", 2) == run("pooled_again", 2) == serial

    def test_specs_flag_changes_config_hash(self, workspace, tmp_path):
        out = str(tmp_path / "out")
        assert main(["run", "--config", workspace["config"], "--specs", "HistMean",
                     "--out", out]) == EXIT_OK
        with open(os.path.join(workspace["out"], "archive.csv")) as fh:
            full = fh.readline()
        with open(os.path.join(out, "archive.csv")) as fh:
            narrowed = fh.readline()
        assert full.startswith("# config_hash=") and narrowed.startswith("# config_hash=")
        assert full != narrowed


class TestEvaluate:
    def test_rmsfe_tables(self, workspace):
        out = str(workspace["root"] / "eval_rmsfe")
        archive = os.path.join(workspace["out"], "archive.csv")
        assert main(["evaluate", "--archive", archive, "--metric", "rmsfe",
                     "--out", out]) == EXIT_OK
        path = os.path.join(out, "scores_rmsfe_HistMean.csv")
        lines = _body(path)
        assert lines[0].strip() == "phase,week,q10,q25,q50,q75,q90,aggregate"
        rows = list(csv.DictReader(lines))
        assert len(rows) == 48
        # the benchmark scored against itself is exactly 1 everywhere
        assert all(float(r["aggregate"]) == pytest.approx(1.0) for r in rows)
        assert os.path.exists(os.path.join(out, "scores_rmsfe_AR-W.csv"))

    def test_qs_and_crps_tables(self, workspace):
        archive = os.path.join(workspace["out"], "archive.csv")
        for metric, name in (("qs", "scores_qs_tau0.5_AR-W.csv"),
                             ("crps", "scores_crps_AR-W.csv")):
            out = str(workspace["root"] / f"eval_{metric}")
            assert main(["evaluate", "--archive", archive, "--metric", metric,
                         "--out", out]) == EXIT_OK
            rows = list(csv.DictReader(_body(os.path.join(out, name))))
            assert len(rows) == 48
            assert all(float(r["aggregate"]) > 0 for r in rows)

    def test_unknown_benchmark_spec(self, workspace, capsys):
        archive = os.path.join(workspace["out"], "archive.csv")
        rc = main(["evaluate", "--archive", archive, "--metric", "rmsfe",
                   "--relative-to", "AR-M", "--out", str(workspace["root"] / "x")])
        assert rc == EXIT_FATAL
        assert "AR-M" in capsys.readouterr().err

    def test_qs_tau_missing_from_archive(self, tmp_path, capsys):
        path = tmp_path / "median_only.csv"
        path.write_text(
            "spec,variable,entity,target_year,week,tau_or_point,"
            "prediction,benchmark,realized\n"
            "HistMean,CO2,A,2009,1,0.5,0.1,0.1,0.2\n"
        )
        out = tmp_path / "out"
        rc = main(["evaluate", "--archive", str(path), "--metric", "qs",
                   "--tau", "0.3", "--out", str(out)])
        assert rc == EXIT_FATAL
        assert "tau=0.3" in capsys.readouterr().err
        assert not out.exists()

    def test_benchmark_missing_a_week(self, tmp_path, capsys):
        # the benchmark spec has no row at week 1, which AR has
        path = tmp_path / "gappy.csv"
        path.write_text(
            "spec,variable,entity,target_year,week,tau_or_point,"
            "prediction,benchmark,realized\n"
            "AR,EC,A,2009,1,point,0.1,0.1,0.2\n"
            "AR,EC,A,2009,2,point,0.1,0.1,0.2\n"
            "AR-W,EC,A,2009,2,point,0.3,0.1,0.2\n"
        )
        rc = main(["evaluate", "--archive", str(path), "--metric", "rmsfe",
                   "--relative-to", "AR-W", "--out", str(tmp_path / "out")])
        assert rc == EXIT_FATAL
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "'AR'" in err and "AR-W" in err and "[1]" in err

    def test_scoring_error_writes_no_table(self, tmp_path, capsys):
        # HistMean lacks week 2, which only AR-W has; AR sorts before AR-W
        path = tmp_path / "gappy.csv"
        path.write_text(
            "spec,variable,entity,target_year,week,tau_or_point,"
            "prediction,benchmark,realized\n"
            "AR,EC,A,2009,1,point,0.1,0.1,0.2\n"
            "AR-W,EC,A,2009,1,point,0.3,0.1,0.2\n"
            "AR-W,EC,A,2009,2,point,0.3,0.1,0.2\n"
            "HistMean,EC,A,2009,1,point,0.1,0.1,0.2\n"
        )
        out = tmp_path / "out"
        rc = main(["evaluate", "--archive", str(path), "--metric", "rmsfe",
                   "--out", str(out)])
        assert rc == EXIT_FATAL
        err = capsys.readouterr().err
        assert err.startswith("error: spec 'AR-W' against 'HistMean':")
        assert "[2]" in err
        assert not out.exists()

    def test_spec_without_energy_rows_gets_header_only_table(self, tmp_path):
        # DirectAR-W-M-Q archives CO2 quantiles only, no EC point rows
        path = tmp_path / "direct.csv"
        path.write_text(
            "spec,variable,entity,target_year,week,tau_or_point,"
            "prediction,benchmark,realized\n"
            "HistMean,EC,A,2009,1,point,0.1,0.1,0.2\n"
            "HistMean,EC,B,2009,1,point,0.2,0.1,0.4\n"
            "HistMean,CO2,A,2009,1,0.5,0.1,0.1,0.2\n"
            "DirectAR-W-M-Q,CO2,A,2009,1,0.5,0.3,0.1,0.2\n"
        )
        out = tmp_path / "out"
        assert main(["evaluate", "--archive", str(path), "--metric", "rmsfe",
                     "--out", str(out)]) == EXIT_OK
        assert sorted(p.name for p in out.iterdir()) == [
            "scores_rmsfe_DirectAR-W-M-Q.csv", "scores_rmsfe_HistMean.csv"]
        assert _body(out / "scores_rmsfe_DirectAR-W-M-Q.csv") == [
            "phase,week,q10,q25,q50,q75,q90,aggregate\n"]
        assert len(_body(out / "scores_rmsfe_HistMean.csv")) == 2

    def test_crps_needs_quantile_rows(self, tmp_path, capsys):
        path = tmp_path / "points_only.csv"
        path.write_text(
            "spec,variable,entity,target_year,week,tau_or_point,"
            "prediction,benchmark,realized\n"
            "HistMean,EC,A,2009,1,point,0.1,0.1,0.2\n"
        )
        rc = main(["evaluate", "--archive", str(path), "--metric", "crps",
                   "--out", str(tmp_path / "out")])
        assert rc == EXIT_FATAL
        assert "point" in capsys.readouterr().err


class TestDensityCommand:
    def test_grids_written_and_normalized(self, workspace):
        out = str(workspace["root"] / "density")
        assert main(["density", "--archive-dir", workspace["out"],
                     "--entity", "S00", "--year", "2009", "--weeks", "9,24,48",
                     "--spec", "AR-W", "--out", out]) == EXIT_OK
        for week in (9, 24, 48):
            path = os.path.join(out, f"density_AR-W_S00_2009_W{week}.csv")
            rows = list(csv.DictReader(_body(path)))
            x = np.array([float(r["x"]) for r in rows])
            fx = np.array([float(r["pdf"]) for r in rows])
            assert np.all(fx >= 0)
            # extreme-skew low-nu fits keep a little over 1% of their mass
            # beyond the exported 5-IQR window, hence the looser bound here
            assert np.trapezoid(fx, x) == pytest.approx(1.0, abs=3e-2)
            # realized value joined from the archive
            assert np.isfinite(float(rows[0]["realized"]))

    def test_spec_required_when_ambiguous(self, workspace, capsys):
        rc = main(["density", "--archive-dir", workspace["out"],
                   "--entity", "S00", "--year", "2009", "--weeks", "9",
                   "--out", str(workspace["root"] / "d2")])
        assert rc == EXIT_FATAL
        assert "--spec" in capsys.readouterr().err

    def test_unknown_entity(self, workspace, capsys):
        rc = main(["density", "--archive-dir", workspace["out"],
                   "--entity", "S99", "--year", "2009", "--weeks", "9",
                   "--spec", "AR-W", "--out", str(workspace["root"] / "d3")])
        assert rc == EXIT_FATAL
        assert "no density" in capsys.readouterr().err


    def test_bad_week_token(self, workspace, capsys):
        rc = main(["density", "--archive-dir", workspace["out"],
                   "--entity", "S00", "--year", "2009", "--weeks", "9,x",
                   "--spec", "AR-W", "--out", str(workspace["root"] / "d4")])
        assert rc == EXIT_FATAL
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'x'" in err


class TestCalendarCommand:
    def test_print(self, capsys):
        assert main(["calendar", "print", "--year", "2021"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "phase,week,date,CO2,EC,PI,ELEC,WECI"
        assert len(lines) == 49
        assert lines[1].startswith("Backcast,1,2021:W1,")
        assert lines[5].startswith("Nowcast,5,2021:W5,")

    def test_write_to_file(self, tmp_path):
        path = tmp_path / "cal.csv"
        assert main(["calendar", "print", "--year", "2021",
                     "--out", str(path)]) == EXIT_OK
        text = path.read_text()
        assert text.startswith("# config_hash=")
        assert "phase,week,date,CO2,EC,PI,ELEC,WECI" in text


class TestErrorPaths:
    def test_bad_config_key(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"data_dir = {workspace['store']}\nlamda = 1.0\n")
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == EXIT_FATAL
        assert "lamda" in capsys.readouterr().err

    def test_missing_data_dir(self, tmp_path, capsys):
        cfg = tmp_path / "nodata.cfg"
        cfg.write_text("eval_start = 2009\neval_end = 2009\n")
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == EXIT_FATAL
        assert "data_dir" in capsys.readouterr().err

    def test_bad_manifest_is_fatal(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("variable,file\nEC,ec.csv\n")
        rc = main(["ingest", "--data-dir", str(tmp_path),
                   "--manifest", str(manifest), "--out", str(tmp_path / "store")])
        assert rc == EXIT_FATAL
        assert "header" in capsys.readouterr().err

    def test_short_sample_run_is_partial(self, tmp_path):
        dataset, _ = make_dataset(n_entities=2, first_year=2005, last_year=2009,
                                  seed=2)
        data_dir = str(tmp_path / "data")
        manifest = _dump_raw_csvs(dataset, data_dir)
        store = str(tmp_path / "store")
        assert main(["ingest", "--data-dir", data_dir, "--manifest", manifest,
                     "--out", store]) == EXIT_OK
        cfg = tmp_path / "short.cfg"
        cfg.write_text(
            f"data_dir = {store}\nestimation_start = 2005\n"
            "eval_start = 2009\neval_end = 2009\n"
            "specs = AR-W\nfit_density = false\n"
        )
        out = str(tmp_path / "out")
        assert main(["run", "--config", str(cfg), "--out", out]) == EXIT_PARTIAL
        diags = _body(os.path.join(out, "diagnostics.csv"))
        assert len(diags) > 1
        # details such as "empty energy design at (2009, week 3)" hold commas
        rows = list(csv.reader(diags))
        assert len(rows) == len(diags)
        assert all(len(r) == 5 for r in rows)
        assert any("," in r[4] for r in rows[1:])
