"""End-to-end tests of the command-line pipeline."""

import hashlib
import json
import logging
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import marketpanel
from marketpanel.cli import main


def run_cli(*argv, capsys=None):
    """Invoke the CLI and return (exit code, last stdout line)."""
    if capsys:
        capsys.readouterr()  # drop output from earlier calls in this test
    code = main(list(argv))
    out = ""
    if capsys:
        lines = capsys.readouterr().out.strip().splitlines()
        out = lines[-1] if lines else ""
    return code, out


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("data")
    assert main(["synth", "--seed", "7", "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, data_dir):
    out = tmp_path_factory.mktemp("out")
    assert main(["run", "--data", str(data_dir), "--out", str(out)]) == 0
    (run_id,) = os.listdir(out)
    return out / run_id


class TestSynthCommand:
    def test_writes_three_csvs_and_truth(self, data_dir):
        names = sorted(os.listdir(data_dir))
        assert names == ["fundamentals.csv", "prices.csv", "riskfree.csv",
                         "truth.json"]

    def test_missing_out_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["synth", "--seed", "1"])
        assert err.value.code == 2

    def test_same_seed_identical_files(self, data_dir, tmp_path):
        other = tmp_path / "data2"
        assert main(["synth", "--seed", "7", "--out", str(other)]) == 0
        for name in os.listdir(data_dir):
            assert (other / name).read_bytes() == (data_dir / name).read_bytes()

    def test_infeasible_config_exit_2(self, tmp_path):
        assert main(["synth", "--seed", "1", "--n-firms", "1",
                     "--out", str(tmp_path / "x")]) == 2


class TestIngestCheck:
    def test_clean_data_passes(self, data_dir, capsys):
        code, out = run_cli("ingest-check", "--data", str(data_dir), capsys=capsys)
        assert code == 0
        summary = json.loads(out)
        assert summary["rows_accepted"] == 200
        assert summary["rows_rejected"] == 0

    def test_dirty_row_reported(self, data_dir, tmp_path, capsys):
        dirty = tmp_path / "dirty"
        dirty.mkdir()
        for name in ("prices.csv", "riskfree.csv"):
            (dirty / name).write_text((data_dir / name).read_text())
        lines = (data_dir / "fundamentals.csv").read_text().splitlines()
        cells = lines[1].split(",")
        cells[8] = "0.0"  # sales
        lines.insert(1, ",".join(cells).replace(cells[0], "FX1", 1))
        (dirty / "fundamentals.csv").write_text("\n".join(lines) + "\n")
        code, out = run_cli("ingest-check", "--data", str(dirty), capsys=capsys)
        assert code == 1
        summary = json.loads(out)
        assert summary["rows_rejected"] == 1
        assert "sales must be positive" in summary["rejections"][0][1]

    def test_missing_dir_exit_2(self, tmp_path):
        assert main(["ingest-check", "--data", str(tmp_path / "nope")]) == 2

    def test_every_rejection_reason_golden(self, tmp_path, capsys):
        """One line per rejection reason, blank lines between: the exact summary."""
        good = "F1,M1,2015,2.0,1.5,0.2,12.0,2.0,40.0,100.0,55.0,2000,0.3;0.1,"
        lines = [
            "firm_id,market_id,year,price,book_value,eps,sga,rd,sales,total_assets,"
            "total_equity,establishment_year,stakes,book_value_2009",
            good,                                                               # 2
            "",
            "F2,M1,2015,2.0,1.5,0.2,12.0,2.0,40.0,100.0,55.0,2000",             # 4 fields
            "F3,M1,2015.0,2.0,1.5,0.2,12.0,2.0,40.0,100.0,55.0,2000,0.3,",      # year
            'F4,M1,2015,2.0,1.5,0.2,12.0,2.0,40.0,"1,000.0",55.0,2000,0.3,',    # thousands
            " ,M1,2015,2.0,1.5,0.2,12.0,2.0,40.0,100.0,55.0,2000,0.3,",         # firm_id
            "  ",
            "F6,M1,2015,2.0,1.5,0.2,12.0,2.0,0.0,100.0,55.0,2000,0.3,",         # sales
            "F7,M1,2015,2.0,1.5,0.2,5.0,6.0,40.0,100.0,55.0,2000,0.3,",         # R&D
            "F8,M1,2015,2.0,1.5,0.2,12.0,2.0,40.0,50.0,60.0,2000,0.3,",         # equity
            "F9,M1,2015,2.0,1.5,0.2,12.0,2.0,40.0,100.0,55.0,2000,1.2,",        # stake
            "FA,M1,2015,2.0,1.5,0.2,12.0,2.0,40.0,100.0,55.0,2000,0.6;0.6,",    # stake sum
            "FB,M1,2015,2.0,1.5,0.2,12.0,2.0,40.0,100.0,55.0,2016,0.3,",        # founded
            "FC,M1,2015,2.0,1.5,0.2,12.0,2.0,40.0,100.0,55.0,2000,0.3,-1.0",    # 2009 book
            "F1,M1,2016,2.1,1.6,0.2,12.0,2.0,40.0,100.0,55.0,2000,0.3;0.1,",    # 16
        ]
        data = tmp_path / "golden"
        data.mkdir()
        (data / "fundamentals.csv").write_text("\n".join(lines) + "\n")
        (data / "prices.csv").write_text("series_id,year,month,close\n"
                                         "F1,2015,1,10.0\nM1,2015,1,100.0\n")
        (data / "riskfree.csv").write_text("market_id,year,rate\nM1,2015,0.03\n"
                                           "M1,2016,0.031\n")
        capsys.readouterr()
        code = main(["ingest-check", "--data", str(data)])
        assert code == 1
        assert capsys.readouterr().out == (
            '{"command": "ingest-check", "price_series": 2, "rejections": ['
            '[4, "expected 14 fields, got 12"], '
            '[5, "year: not an integer"], '
            '[6, "total_assets: thousands separators not accepted"], '
            '[7, "firm_id and market_id must be non-empty"], '
            '[9, "sales must be positive"], '
            '[10, "SG&A minus R&D negative"], '
            '[11, "total equity exceeds total assets"], '
            '[12, "stake 1.2 outside (0, 1]"], '
            '[13, "stakes sum exceeds 1"], '
            '[14, "establishment year after observation year"], '
            '[15, "lagged book value must be positive"]], '
            '"riskfree_series": 1, "rows_accepted": 2, "rows_rejected": 11}\n')


class TestRunCommand:
    def test_emits_full_table_tree(self, run_dir):
        names = set(os.listdir(run_dir))
        stems = ("descriptives", "correlations", "stationarity", "value_direct",
                 "value_moderated", "risk_direct", "risk_moderated",
                 "robustness_value_assets", "robustness_value_log",
                 "robustness_risk_assets", "robustness_risk_log")
        for stem in stems:
            for ext in ("json", "csv", "md"):
                assert f"{stem}.{ext}" in names
        assert "manifest.json" in names
        assert len(names) == 3 * len(stems) + 1

    def test_manifest_records_effective_config(self, run_dir):
        manifest = json.loads((run_dir / "manifest.json").read_text())
        cfg = manifest["effective_config"]
        assert cfg["marin_variant"] == "sales_ratio"
        assert cfg["beta_window"] == 60
        assert cfg["beta_min"] == 48
        assert manifest["n_observations"] == 200
        assert manifest["baseline_nobs"]["value_moderated"] == 200
        assert manifest["timestamp"] is None

    def test_byte_identical_reruns(self, data_dir, run_dir, tmp_path):
        """Identical config and seed produce an identical output tree."""
        out2 = tmp_path / "out2"
        assert main(["run", "--data", str(data_dir), "--out", str(out2)]) == 0
        other = out2 / run_dir.name
        names_a = sorted(os.listdir(run_dir))
        assert names_a == sorted(os.listdir(other))
        for name in names_a:
            assert (run_dir / name).read_bytes() == (other / name).read_bytes(), name

    def test_synth_mode(self, tmp_path, capsys):
        code, out = run_cli("run", "--synth", "--seed", "3", "--out",
                            str(tmp_path / "o"), capsys=capsys)
        assert code == 0
        assert json.loads(out)["n_derived_rows"] == 200

    def test_log_variant_nobs_recorded(self, data_dir, tmp_path):
        out = tmp_path / "logout"
        assert main(["run", "--data", str(data_dir), "--out", str(out),
                     "--marin-variant", "log"]) == 0
        (run_id,) = os.listdir(out)
        manifest = json.loads((out / run_id / "manifest.json").read_text())
        nobs = manifest["baseline_nobs"]
        assert nobs["value_moderated"] <= 200
        assert manifest["effective_config"]["marin_variant"] == "log_level"

    def test_config_file_with_flag_override(self, data_dir, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"data = {data_dir}\nseed = 7\nmarin_variant = assets\n"
                       "# comment line\ncenter = true\n")
        out = tmp_path / "cfgout"
        code, text = run_cli("run", "--config", str(cfg), "--out", str(out),
                             "--marin-variant", "sales", capsys=capsys)
        assert code == 0
        (run_id,) = os.listdir(out)
        manifest = json.loads((out / run_id / "manifest.json").read_text())
        assert manifest["effective_config"]["marin_variant"] == "sales_ratio"
        assert manifest["effective_config"]["center"] is True

    @pytest.mark.parametrize("line", ["seed = abc", "beta_window = 6.5", "n_firms ="])
    def test_config_file_non_integer_exit_2(self, data_dir, tmp_path, caplog, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"data = {data_dir}\n\n{line}\n")
        with caplog.at_level(logging.ERROR, logger="marketpanel"):
            assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert caplog.records[-1].getMessage() == f"{cfg}:3: integer expected"
        assert not (tmp_path / "o").exists()

    def test_data_and_synth_conflict(self, data_dir, tmp_path):
        assert main(["run", "--data", str(data_dir), "--synth",
                     "--out", str(tmp_path / "c")]) == 2

    def test_missing_inputs_exit_2(self, tmp_path):
        assert main(["run", "--data", str(tmp_path / "missing"),
                     "--out", str(tmp_path / "o2")]) == 2

    def test_bad_beta_window_exit_2(self, data_dir, tmp_path):
        assert main(["run", "--data", str(data_dir), "--out", str(tmp_path / "o3"),
                     "--beta-window", "24", "--beta-min", "48"]) == 2


class TestInputErrors:
    """Malformed numbers in prices.csv and riskfree.csv are input errors (exit 2)."""

    @staticmethod
    def _edited(data_dir, tmp_path, name, line, old, new):
        edited = tmp_path / "edited"
        shutil.copytree(data_dir, edited)
        lines = (edited / name).read_text().splitlines()
        assert old in lines[line - 1]
        lines[line - 1] = lines[line - 1].replace(old, new, 1)
        (edited / name).write_text("\n".join(lines) + "\n")
        return edited

    def test_malformed_month_in_prices(self, data_dir, tmp_path, caplog):
        cells = (data_dir / "prices.csv").read_text().splitlines()[2].split(",")
        edited = self._edited(data_dir, tmp_path, "prices.csv", 3,
                              ",".join(cells[:3]), ",".join(cells[:2] + ["x"]))
        with caplog.at_level(logging.ERROR, logger="marketpanel"):
            assert main(["run", "--data", str(edited), "--out", str(tmp_path / "o")]) == 2
            assert main(["ingest-check", "--data", str(edited)]) == 2
        assert [r.getMessage()[:13] for r in caplog.records] == ["prices line 3"] * 2
        assert not (tmp_path / "o").exists()

    def test_overflowing_close_ratio_in_prices(self, data_dir, tmp_path, caplog):
        edited = tmp_path / "edited"
        shutil.copytree(data_dir, edited)
        lines = (edited / "prices.csv").read_text().splitlines()
        for line, close in zip((1, 2, 3), ("1", "1e-300", "1e300")):
            series, year, month, _ = lines[line].split(",")
            lines[line] = ",".join((series, year, month, close))
        assert [row.split(",")[0] for row in lines[1:4]] == [series] * 3
        (edited / "prices.csv").write_text("\n".join(lines) + "\n")
        with caplog.at_level(logging.ERROR, logger="marketpanel"):
            assert main(["run", "--data", str(edited), "--out", str(tmp_path / "o")]) == 2
            assert main(["ingest-check", "--data", str(edited)]) == 2
        year, month = lines[3].split(",")[1:3]
        assert [r.getMessage() for r in caplog.records] == [
            f"prices: the return of {series} in {year}-{int(month):02d} is not finite "
            "(the close ratio overflows)"] * 2
        assert not (tmp_path / "o").exists()

    def test_malformed_rate_in_riskfree(self, data_dir, tmp_path, caplog):
        rate = (data_dir / "riskfree.csv").read_text().splitlines()[1].split(",")[2]
        edited = self._edited(data_dir, tmp_path, "riskfree.csv", 2, rate, "abc" + rate)
        with caplog.at_level(logging.ERROR, logger="marketpanel"):
            assert main(["run", "--data", str(edited), "--out", str(tmp_path / "o")]) == 2
        assert "riskfree line 2" in caplog.records[-1].getMessage()


class TestEmptyDesign:
    def test_no_usable_firm_year_is_a_typed_error(self, data_dir, tmp_path):
        """Two months of prices give no firm-year a beta: exit 1 on one ERROR line."""
        edited = tmp_path / "edited"
        shutil.copytree(data_dir, edited)
        header, *lines = (edited / "prices.csv").read_text().splitlines()
        first = lines[0].split(",")[1]
        kept = [line for line in lines if line.split(",")[1:3] in ([first, "1"], [first, "2"])]
        (edited / "prices.csv").write_text("\n".join([header] + kept) + "\n")
        src = str(Path(marketpanel.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        proc = subprocess.run(
            [sys.executable, "-m", "marketpanel.cli", "run", "--data", str(edited),
             "--out", str(tmp_path / "o")], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        errors = [line for line in proc.stderr.splitlines() if line.startswith("ERROR")]
        assert errors == ["ERROR value_direct: no complete rows in the design "
                          "(0 of 0 panel rows incomplete)"]
        assert not (tmp_path / "o").exists()


class TestRunId:
    """The run id hashes the effective configuration and the input contents."""

    def test_same_inputs_in_another_directory_give_the_same_run(self, data_dir, run_dir,
                                                                 tmp_path):
        copy = tmp_path / "elsewhere" / "data"
        shutil.copytree(data_dir, copy)
        out = tmp_path / "out"
        assert main(["run", "--data", str(copy), "--out", str(out)]) == 0
        assert os.listdir(out) == [run_dir.name]
        for name in os.listdir(run_dir):
            assert (out / run_dir.name / name).read_bytes() == (run_dir / name).read_bytes()

    def test_manifest_records_input_digests(self, data_dir, run_dir):
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert "data" not in manifest["effective_config"]
        assert manifest["inputs"] == {
            name: hashlib.sha256((data_dir / name).read_bytes()).hexdigest()
            for name in ("fundamentals.csv", "prices.csv", "riskfree.csv")}
        assert manifest["run_id"] == "run-" + manifest["config_hash"][:12]

    def test_one_byte_edit_gives_a_new_run(self, data_dir, run_dir, tmp_path):
        edited = tmp_path / "edited"
        shutil.copytree(data_dir, edited)
        with open(edited / "prices.csv", "a", encoding="utf-8") as handle:
            handle.write("\n")   # one more blank line: same panel, other contents
        out = tmp_path / "out"
        assert main(["run", "--data", str(edited), "--out", str(out)]) == 0
        (run_id,) = os.listdir(out)
        assert run_id != run_dir.name
        for name in os.listdir(run_dir):
            if name != "manifest.json":
                assert (out / run_id / name).read_bytes() == (run_dir / name).read_bytes()


class TestVerifyCommand:
    def test_clean_run_verifies(self, data_dir, run_dir, capsys):
        code, out = run_cli("verify", "--data", str(data_dir), "--run",
                            str(run_dir), capsys=capsys)
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_missing_truth_exit_2(self, run_dir, tmp_path):
        empty = tmp_path / "notruth"
        empty.mkdir()
        assert main(["verify", "--data", str(empty), "--run", str(run_dir)]) == 2

    def test_tampered_coefficient_detected(self, data_dir, run_dir, tmp_path, capsys):
        import shutil
        tampered = tmp_path / "tampered"
        shutil.copytree(run_dir, tampered)
        path = tampered / "value_moderated.json"
        payload = json.loads(path.read_text())
        row = payload["rows"][2]
        row["coefficient"] = 99.0
        path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")
        code, out = run_cli("verify", "--data", str(data_dir), "--run",
                            str(tampered), capsys=capsys)
        assert code == 1
        summary = json.loads(out)
        assert any("value_moderated" in f and row["variable"] in f
                   for f in summary["failures"])


    def test_recomputes_only_the_base_estimates(self, data_dir, run_dir, capsys,
                                                 monkeypatch):
        from marketpanel import diagnostics, ingest, models, variables

        def unchecked(*args, **kwargs):
            raise AssertionError("verify recomputed a table it does not check")

        for module, name in ((diagnostics, "panel_stationarity"),
                             (diagnostics, "descriptives"),
                             (diagnostics, "correlation_matrix"),
                             (models, "robustness_suite")):
            monkeypatch.setattr(module, name, unchecked)
        calls = {"parse_fundamentals": 0, "parse_riskfree": 0, "estimate": 0}
        for module, name in ((ingest, "parse_fundamentals"), (ingest, "parse_riskfree"),
                             (models, "estimate")):
            def counted(*args, _real=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        code, out = run_cli("verify", "--data", str(data_dir), "--run",
                            str(run_dir), capsys=capsys)
        assert code == 0 and json.loads(out)["passed"] is True
        # one parse of each input; four base estimates and two truth checks
        assert calls == {"parse_fundamentals": 1, "parse_riskfree": 1, "estimate": 6}


class TestReportDiff:
    def test_identical_trees_pass(self, data_dir, run_dir, tmp_path, capsys):
        out2 = tmp_path / "dup"
        assert main(["run", "--data", str(data_dir), "--out", str(out2)]) == 0
        other = out2 / run_dir.name
        code, out = run_cli("report-diff", str(run_dir), str(other),
                            "--rel-tol", "0", capsys=capsys)
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_diff_detected(self, run_dir, tmp_path, capsys):
        import shutil
        other = tmp_path / "mutated"
        shutil.copytree(run_dir, other)
        path = other / "descriptives.json"
        payload = json.loads(path.read_text())
        payload["rows"][0]["mean"] = 123.456
        path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")
        code, out = run_cli("report-diff", str(run_dir), str(other), capsys=capsys)
        assert code == 1
        assert any("descriptives" in line
                   for line in json.loads(out)["differences"])
