"""End-to-end tests of the command-line pipeline."""

import gc
import glob
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
from marketpanel import errors, models, report
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


def src_env():
    """The environment with this checkout's package first on the import path."""
    src = str(Path(marketpanel.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


def without_scipy(*commands):
    """Run CLI commands in one subprocess that cannot import scipy; it exits
    with the status of the first command that fails."""
    code = ("import sys; sys.modules['scipy'] = None\n"
            "from marketpanel.cli import main\n"
            f"for argv in {list(commands)!r}:\n"
            "    status = main(argv)\n"
            "    if status:\n"
            "        sys.exit(status)")
    return subprocess.run([sys.executable, "-c", code], env=src_env(),
                          capture_output=True, text=True, timeout=300)


# SHA-256 of the files `synth` writes. No BLAS kernel or SIMD loop reaches them:
# the generator's sums are numpy's plain reductions, and its exp, normal cdf and
# quantile are the C library's and the standard library's. A change to the
# generator that moves them on purpose updates them
SYNTH_DIGESTS = {
    ("7", "20", "10"): {
        "fundamentals.csv": "e0faa1187f2987c48946ebef9f2c5892be20120c2296d332a928bd750c8becc2",
        "prices.csv": "2958fdcebe553efd011061757df6ba4968cd33fc40bc581bcfdf2e489d4978ce",
        "riskfree.csv": "55f43529016c7871928ce61689aba812a79639cbc81dad6fc3f168a24c89d493",
        "truth.json": "5b5404d9f4356eb21dc308a027b4215ee576b307b3822615adf3a336dc0dcea2"},
    ("9", "20", "10"): {
        "fundamentals.csv": "f7d6db550d6336f2e6e45f20fb159a8fc4e4aa3f0840bb18ec077ce46d8ff62c",
        "prices.csv": "97afc782f24e101fb9c4d8adc372e9cb9142a5d6b9d4d921b0fbff8b17ba2d61",
        "riskfree.csv": "a4a8ff6f9ed6bfe79c4a36163cbc742d8f21a38b317bc311d7e205f17e252948",
        "truth.json": "9cbe09c42d1e1268b8d0407bb210f332427228ee505185bd8e195444d631a72e"},
    ("11", "20", "10"): {
        "fundamentals.csv": "ecabfbc31b3de71b09fb0952e153b2054ec8f945035006e757a156e17ec17f0e",
        "prices.csv": "9e339325317fe0a7f67fd42426be6f833d1c8cdf3590ddc6f699833bd6ad37a7",
        "riskfree.csv": "47080683fe5cd85fa62e8f895643c8d91322554e0f983afca01d70f5769563a3",
        "truth.json": "b4e3ce015a0ce8ab449c2e19f8ff5f6133777fd67d2cb9597026d33017a19f2d"},
    ("9", "100", "30"): {
        "fundamentals.csv": "6ce6d4ef45db22664f669be76ecd204927f9ef3b27c566d92891fcc8fbf551a4",
        "prices.csv": "0785622c167e470684540304e45406395ac66da4946c2015b90ff7227edc29bb",
        "riskfree.csv": "641f61fc1cb8e5fc69daf335d9aee788f52b84f65b98e8946c479fded8c17a2f",
        "truth.json": "9f199da97034c096e933fcf03ce5ebc743d67e9d859092a7629938f558db7bf5"},
    ("9", "1000", "10"): {
        "fundamentals.csv": "5e143f38e3e83f0f72736168ff61dc87ced25cbb659912641a159fbb13ebcb14",
        "prices.csv": "b805c604c1e622810d9d0cabaae141fca073377ec6ae9a747924f3e34ee8535e",
        "riskfree.csv": "a4a8ff6f9ed6bfe79c4a36163cbc742d8f21a38b317bc311d7e205f17e252948",
        "truth.json": "34a0b9286c1f661beb6c0cb8b62c9962d125ce5cbf17fc6497c813820bd70e57"},
}


# the settings that move BLAS or SIMD arithmetic: two other OpenBLAS kernels, and numpy
# without its AVX-512 loops, each set in a child process's environment only
OTHER_KERNELS = {
    "haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "sandybridge": {"OPENBLAS_CORETYPE": "Sandybridge"},
    "no-avx512": {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
}


def file_digests(directory):
    """SHA-256 of each file in ``directory``, by name."""
    return {name: hashlib.sha256((directory / name).read_bytes()).hexdigest()
            for name in sorted(os.listdir(directory))}


def write_late_listing(data_dir, out):
    """The synth data of ``data_dir`` with F001 listed in 2013, written to ``out``:
    its 2010-2012 fundamentals rows go, the 2012 book value becomes the 2013 row's
    lagged book value, and its closes before 2012 go."""
    out.mkdir()
    header, *lines = (data_dir / "fundamentals.csv").read_text().splitlines()
    year, book, lag = map(header.split(",").index, ("year", "book_value", "book_value_2009"))
    rows = [line.split(",") for line in lines]
    f001 = {int(row[year]): row for row in rows if row[0] == "F001"}
    f001[2013][lag] = f001[2012][book]
    rows = [row for row in rows if row[0] != "F001" or int(row[year]) >= 2013]
    (out / "fundamentals.csv").write_text("\n".join([header, *map(",".join, rows)]) + "\n")
    header, *lines = (data_dir / "prices.csv").read_text().splitlines()
    lines = [line for line in lines
             if not (line.startswith("F001,") and int(line.split(",")[1]) < 2012)]
    (out / "prices.csv").write_text("\n".join([header, *lines]) + "\n")
    shutil.copy(data_dir / "riskfree.csv", out / "riskfree.csv")


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

    def test_negative_seed_exit_2(self, tmp_path):
        proc = subprocess.run([sys.executable, "-m", "marketpanel.cli", "synth", "--seed",
                               "-1", "--out", str(tmp_path / "x")], env=src_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        assert "ERROR seed must be a non-negative integer" in proc.stderr.splitlines()
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "x").exists()

    def test_files_keep_their_digests(self, tmp_path):
        """The generator's bytes are pinned, with scipy unimportable."""
        outs = {spec: tmp_path / "-".join(spec) for spec in SYNTH_DIGESTS}
        proc = without_scipy(*(["synth", "--seed", seed, "--n-firms", firms, "--n-years",
                                years, "--out", str(out)]
                               for (seed, firms, years), out in outs.items()))
        assert proc.returncode == 0, proc.stderr
        for spec, digests in SYNTH_DIGESTS.items():
            assert file_digests(outs[spec]) == digests, spec

    @pytest.fixture(scope="class", params=OTHER_KERNELS.values(), ids=OTHER_KERNELS)
    def synth_under_another_kernel(self, request, tmp_path_factory):
        """Each pinned spec's synth directory, written by one child process whose
        environment alone carries another OpenBLAS kernel or numpy without its
        AVX-512 loops."""
        root = tmp_path_factory.mktemp("kernel")
        outs = {spec: root / "-".join(spec) for spec in SYNTH_DIGESTS}
        commands = [["synth", "--seed", seed, "--n-firms", firms, "--n-years", years,
                     "--out", str(out)] for (seed, firms, years), out in outs.items()]
        proc = subprocess.run([sys.executable, "-c", cli_code(commands)],
                              env=src_env() | request.param, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return outs

    @pytest.mark.parametrize("spec", SYNTH_DIGESTS, ids="-".join)
    def test_files_keep_their_digests_under_another_kernel(self, synth_under_another_kernel,
                                                          spec):
        """Another kernel or SIMD path writes the same bytes for every pinned spec."""
        assert file_digests(synth_under_another_kernel[spec]) == SYNTH_DIGESTS[spec]


def run_under(data_dir, out, setting):
    """The run tree of ``data_dir`` written by one child process whose environment
    carries ``setting`` and none of the caller's kernel or SIMD choices."""
    env = {name: value for name, value in src_env().items()
           if name not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
    proc = subprocess.run([sys.executable, "-c", cli_code([["run", "--data", str(data_dir),
                                                            "--out", str(out)]])],
                          env=env | setting, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    (run_id,) = os.listdir(out)
    return out / run_id


class TestTablesNoKernelMoves:
    """The descriptive, correlation and unit-root tables are sums that numpy adds
    without BLAS, so no OpenBLAS kernel or SIMD path moves a byte of them."""

    TABLES = [f"{table}.{ext}" for table in ("descriptives", "correlations", "stationarity")
              for ext in ("json", "csv", "md")]

    @pytest.fixture(scope="class")
    def default_run(self, data_dir, tmp_path_factory):
        return run_under(data_dir, tmp_path_factory.mktemp("default-kernel"), {})

    @pytest.mark.parametrize("setting", OTHER_KERNELS.values(), ids=OTHER_KERNELS)
    def test_tables_keep_their_bytes(self, data_dir, default_run, tmp_path, setting):
        other = run_under(data_dir, tmp_path, setting)
        for name in self.TABLES:
            assert (other / name).read_bytes() == (default_run / name).read_bytes(), name


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
        # M9 has rates but no firms: it is a risk-free series all the same
        (data / "riskfree.csv").write_text("market_id,year,rate\nM9,2016,0.02\n"
                                           "M1,2015,0.03\nM1,2016,0.031\n")
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
            '"riskfree_series": 2, "rows_accepted": 2, "rows_rejected": 11}\n')


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

    def test_each_estimate_is_written_under_its_table_name(self, run_dir):
        """Each estimation table's json names its file and its markdown title is the
        publication title of that name; the manifest's nobs are keyed by the same names."""
        manifest = json.loads((run_dir / "manifest.json").read_text())
        base, refits = manifest["baseline_nobs"], manifest["robustness_nobs"]
        stems = {path.stem for path in run_dir.glob("*.json")} - {
            "manifest", "descriptives", "correlations", "stationarity"}
        assert sorted(base) == sorted(models.MODEL_IDS)
        assert sorted(refits) == sorted(s for s in stems if s.startswith("robustness_"))
        assert len(refits) == 4 and set(base) | set(refits) == stems
        titles = {entry.table: entry.title for entry in models.RUN_PLAN}
        for stem in stems:
            assert json.loads((run_dir / f"{stem}.json").read_text())["table"] == stem
            title = (run_dir / f"{stem}.md").read_text().split("\n", 1)[0]
            assert title == f"# {titles[stem]}", stem

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
        cfg.write_text(f"data = {data_dir}\nmarin_variant = assets\n"
                       "# comment line\ncenter = true\n")
        out = tmp_path / "cfgout"
        code, text = run_cli("run", "--config", str(cfg), "--out", str(out),
                             "--marin-variant", "sales", capsys=capsys)
        assert code == 0
        (run_id,) = os.listdir(out)
        manifest = json.loads((out / run_id / "manifest.json").read_text())
        assert manifest["effective_config"]["marin_variant"] == "sales_ratio"
        assert manifest["effective_config"]["center"] is True

    @pytest.mark.parametrize("line", ["beta_min = abc", "beta_window = 6.5", "beta_min ="])
    def test_config_file_non_integer_exit_2(self, data_dir, tmp_path, caplog, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"data = {data_dir}\n\n{line}\n")
        with caplog.at_level(logging.ERROR, logger="marketpanel"):
            assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert caplog.records[-1].getMessage() == f"{cfg}:3: integer expected"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("line, message", [("beta_min 48", "expected key = value"),
                                               ("center = maybe", "boolean expected")])
    def test_config_file_malformed_line_exit_2(self, data_dir, tmp_path, caplog, line,
                                               message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"data = {data_dir}\n{line}\n")
        with caplog.at_level(logging.ERROR, logger="marketpanel"):
            assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert caplog.records[-1].getMessage() == f"{cfg}:2: {message}"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key", ["synth", "seed", "n_firms", "n_years"])
    def test_config_file_unknown_key_exit_2(self, data_dir, tmp_path, caplog, key):
        """A key that is not a ``RunConfig`` field is a config error."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"data = {data_dir}\n{key} = 9\n")
        with caplog.at_level(logging.ERROR, logger="marketpanel"):
            assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert caplog.records[-1].getMessage() == f"{cfg}:2: unknown key {key!r}"
        assert not (tmp_path / "o").exists()

    def test_config_file_repeated_key_exit_2(self, data_dir, tmp_path, caplog):
        """A key set twice is refused, naming both lines, not read as the later value."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"data = {data_dir}\nbeta_window = 60\n# again\nbeta_window = 72\n")
        with caplog.at_level(logging.ERROR, logger="marketpanel"):
            assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert caplog.records[-1].getMessage() == \
            f"{cfg}:4: key 'beta_window' already set on line 2"
        assert not (tmp_path / "o").exists()

    def test_config_file_unknown_marin_variant_exit_2(self, data_dir, tmp_path):
        """The run configuration is the one place an unknown marketing variant is refused."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"data = {data_dir}\nmarin_variant = percent\n")
        proc = subprocess.run([sys.executable, "-m", "marketpanel.cli", "run", "--config",
                               str(cfg), "--out", str(tmp_path / "o")], env=src_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        assert "ERROR unknown marin variant 'percent'" in proc.stderr.splitlines()
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("config", [None, "center = true\n", "data =\n"])
    def test_no_input_directory_exit_2(self, tmp_path, caplog, config):
        argv = ["run", "--out", str(tmp_path / "o")]
        if config is not None:
            (tmp_path / "run.cfg").write_text(config)
            argv += ["--config", str(tmp_path / "run.cfg")]
        with caplog.at_level(logging.ERROR, logger="marketpanel"):
            assert main(argv) == 2
        assert caplog.records[-1].getMessage() == (
            "no input directory: give --data or data = in --config")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flags", [["--synth"], ["--seed", "5"]])
    def test_removed_flags_are_usage_errors(self, data_dir, tmp_path, flags):
        with pytest.raises(SystemExit) as err:
            main(["run", "--data", str(data_dir), "--out", str(tmp_path / "o"), *flags])
        assert err.value.code == 2

    def test_missing_inputs_exit_2(self, tmp_path):
        assert main(["run", "--data", str(tmp_path / "missing"),
                     "--out", str(tmp_path / "o2")]) == 2

    def test_bad_beta_window_exit_2(self, data_dir, tmp_path):
        assert main(["run", "--data", str(data_dir), "--out", str(tmp_path / "o3"),
                     "--beta-window", "24", "--beta-min", "48"]) == 2

    def test_config_errors_are_config_errors(self):
        from marketpanel.cli import RunConfig
        for cfg in (RunConfig(), RunConfig(data="d", marin_variant="x"),
                    RunConfig(data="d", beta_window=24, beta_min=48)):
            with pytest.raises(errors.ConfigError):
                cfg.validate()

    def test_beta_min_reaches_the_beta_exclusions(self, tmp_path):
        """One firm listed a year late: --beta-min 60 drops its first firm-year's
        beta, which --beta-min 48 keeps (48 months of history)."""
        data = tmp_path / "data"
        assert main(["synth", "--seed", "9", "--out", str(data)]) == 0
        header, *lines = (data / "prices.csv").read_text().splitlines()
        late = [line for line in lines if line.startswith("F001,")][:12]
        kept = [line for line in lines if line not in set(late)]
        (data / "prices.csv").write_text("\n".join([header] + kept) + "\n")
        trees = {}
        for beta_min in ("60", "48"):
            out = tmp_path / f"min{beta_min}"
            assert main(["run", "--data", str(data), "--out", str(out),
                         "--beta-min", beta_min]) == 0
            (run_id,) = os.listdir(out)
            trees[beta_min] = {p.name: p.read_bytes() for p in (out / run_id).iterdir()}
        manifest = json.loads(trees["60"]["manifest.json"])
        assert manifest["beta_exclusions"] > 0
        assert json.loads(trees["48"]["manifest.json"])["beta_exclusions"] == 0
        changed = [name for name in trees["60"] if name != "manifest.json"
                   and trees["60"][name] != trees["48"][name]]
        assert changed, "no table depends on --beta-min"


    def test_a_late_listing_is_estimated_in_its_own_years(self, data_dir, tmp_path, caplog):
        """F001 listed in 2013, its closes from 2012 on: the windows ending 2013-2015
        hold fewer than 48 months. Those three firm-years are the only beta
        exclusions and the only derive exclusions; no year before the listing is
        estimated, excluded or logged."""
        write_late_listing(data_dir, tmp_path / "late")
        caplog.set_level(logging.WARNING, logger="marketpanel")
        out = tmp_path / "out"
        assert main(["run", "--data", str(tmp_path / "late"), "--out", str(out)]) == 0
        (run_id,) = os.listdir(out)
        manifest = json.loads((out / run_id / "manifest.json").read_text())
        assert (manifest["n_observations"], manifest["n_derived_rows"]) == (197, 194)
        assert manifest["beta_exclusions"] == manifest["derive_exclusions"] == 3
        reason = "insufficient return history"
        assert [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING] == [
            f"beta excluded for (F001, {year}): {reason}" for year in (2013, 2014, 2015)] + [
            f"row excluded (F001, {year}): {reason}" for year in (2013, 2014, 2015)]


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

    def test_empty_series_id_in_prices(self, data_dir, tmp_path, caplog):
        series = (data_dir / "prices.csv").read_text().splitlines()[2].split(",")[0]
        edited = self._edited(data_dir, tmp_path, "prices.csv", 3, series + ",", ",")
        with caplog.at_level(logging.ERROR, logger="marketpanel"):
            assert main(["run", "--data", str(edited), "--out", str(tmp_path / "o")]) == 2
            assert main(["ingest-check", "--data", str(edited)]) == 2
        assert [r.getMessage() for r in caplog.records] == [
            "prices line 3: empty series_id"] * 2
        assert not (tmp_path / "o").exists()

    def test_empty_market_id_in_riskfree(self, data_dir, tmp_path, caplog):
        edited = tmp_path / "edited"
        shutil.copytree(data_dir, edited)
        with open(edited / "riskfree.csv", "a", encoding="utf-8") as handle:
            handle.write(",2015,0.03\n")
        line = len((edited / "riskfree.csv").read_text().splitlines())
        with caplog.at_level(logging.ERROR, logger="marketpanel"):
            assert main(["run", "--data", str(edited), "--out", str(tmp_path / "o")]) == 2
            assert main(["ingest-check", "--data", str(edited)]) == 2
        assert [r.getMessage() for r in caplog.records] == [
            f"riskfree line {line}: empty market_id"] * 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name", ["fundamentals", "prices", "riskfree"])
    def test_empty_input_file(self, data_dir, tmp_path, caplog, name):
        edited = tmp_path / "edited"
        shutil.copytree(data_dir, edited)
        (edited / f"{name}.csv").write_text("")
        with caplog.at_level(logging.ERROR, logger="marketpanel"):
            assert main(["run", "--data", str(edited), "--out", str(tmp_path / "o")]) == 2
            assert main(["ingest-check", "--data", str(edited)]) == 2
        assert [r.getMessage() for r in caplog.records] == [f"{name}: empty file"] * 2
        assert not (tmp_path / "o").exists()

    def test_malformed_rate_in_riskfree(self, data_dir, tmp_path, caplog):
        rate = (data_dir / "riskfree.csv").read_text().splitlines()[1].split(",")[2]
        edited = self._edited(data_dir, tmp_path, "riskfree.csv", 2, rate, "abc" + rate)
        with caplog.at_level(logging.ERROR, logger="marketpanel"):
            assert main(["run", "--data", str(edited), "--out", str(tmp_path / "o")]) == 2
        assert "riskfree line 2" in caplog.records[-1].getMessage()


class TestExitCodes:
    """Exit 2 for exactly the input errors, 1 for every other package error."""

    INPUT_ERRORS = {"SchemaMismatch", "IoFailure", "InfeasibleTargets", "ConfigError",
                    "EmptyInput", "DuplicateKey", "MissingRiskFree", "RateOutOfRange",
                    "NonPositivePrice", "DuplicateMonth", "UnknownMarket"}

    def test_the_eleven_input_errors_are_input_errors(self):
        subclasses = {name for name, obj in vars(errors).items()
                      if isinstance(obj, type) and issubclass(obj, errors.MarketPanelError)}
        assert {name for name in subclasses if issubclass(getattr(errors, name),
                                                          errors.InputError)
                } == self.INPUT_ERRORS | {"InputError"}

    @pytest.mark.parametrize("error, code", [
        (errors.SchemaMismatch("bad header"), 2),
        (errors.ConfigError("unknown marin variant 'x'"), 2),
        (errors.MissingRiskFree("no risk-free rate for market M1, year 2015 (firm F1)"), 2),
        (errors.RankDeficient(["B"]), 1),
        (errors.TooFewObservations("no rows"), 1),
    ])
    def test_main_exit_code_by_error_type(self, monkeypatch, caplog, error, code):
        def failing(*args, **kwargs):
            raise error

        monkeypatch.setattr(report, "golden_compare", failing)
        with caplog.at_level(logging.ERROR, logger="marketpanel"):
            assert main(["report-diff", "a", "b"]) == code
        assert caplog.records[-1].getMessage() == str(error)


class TestUnwritableOut:
    @pytest.mark.parametrize("command", ["run", "synth"])
    def test_out_a_regular_file_is_an_input_error(self, command, data_dir, run_dir, tmp_path):
        """The one file writer, under the run tree or the synth files, fails with
        exit 2 on one ERROR line that names the directory it could not make."""
        regular = tmp_path / "regular"
        regular.write_text("not a directory\n")
        args, message = {
            "run": (["--data", str(data_dir)], f"report files under {regular / run_dir.name}"),
            "synth": (["--seed", "7"], f"synth files under {regular}"),
        }[command]
        proc = subprocess.run(
            [sys.executable, "-m", "marketpanel.cli", command, *args, "--out", str(regular)],
            env=src_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        errors = [line for line in proc.stderr.splitlines() if line.startswith("ERROR")]
        assert len(errors) == 1
        assert errors[0].startswith(f"ERROR cannot write {message}: ")
        assert regular.read_text() == "not a directory\n"


class TestEmptyDesign:
    def test_no_usable_firm_year_is_a_typed_error(self, data_dir, tmp_path):
        """Two months of prices give no firm-year a beta: exit 1 on one ERROR line."""
        edited = tmp_path / "edited"
        shutil.copytree(data_dir, edited)
        header, *lines = (edited / "prices.csv").read_text().splitlines()
        first = lines[0].split(",")[1]
        kept = [line for line in lines if line.split(",")[1:3] in ([first, "1"], [first, "2"])]
        (edited / "prices.csv").write_text("\n".join([header] + kept) + "\n")
        proc = subprocess.run(
            [sys.executable, "-m", "marketpanel.cli", "run", "--data", str(edited),
             "--out", str(tmp_path / "o")], env=src_env(), capture_output=True, text=True,
            timeout=120)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        errors = [line for line in proc.stderr.splitlines() if line.startswith("ERROR")]
        assert errors == ["ERROR value_direct: no complete rows in the design "
                          "(0 of 0 panel rows incomplete)"]
        assert not (tmp_path / "o").exists()


class TestOneFirm:
    def test_hausman_is_unavailable_and_the_run_goes_on(self, tmp_path):
        """Seed 9 cut down to firm F001: one group leaves the Hausman comparison's
        between regression no degrees of freedom, so every estimation table
        records it as unavailable instead of comparing the within fit with itself,
        and its markdown ends with the table's notes."""
        data, one = tmp_path / "data", tmp_path / "one"
        assert main(["synth", "--seed", "9", "--out", str(data)]) == 0
        one.mkdir()
        for name, kept in (("fundamentals.csv", ("F001,M1,",)),
                           ("prices.csv", ("F001,", "M1,")),
                           ("riskfree.csv", ("",))):
            header, *lines = (data / name).read_text().splitlines()
            lines = [line for line in lines if line.startswith(kept)]
            assert lines
            (one / name).write_text("\n".join([header] + lines) + "\n")
        assert main(["run", "--data", str(one), "--out", str(tmp_path / "out")]) == 0
        (run_id,) = os.listdir(tmp_path / "out")
        tables = [json.loads(path.read_text())
                  for path in sorted((tmp_path / "out" / run_id).glob("*.json"))]
        estimates = [t for t in tables if "hausman_decision" in t]
        assert len(estimates) == 8
        for table in estimates:
            assert table["hausman_decision"] == "unavailable", table["table"]
            assert "hausman" not in table["diagnostics"]
            assert any(note.startswith("hausman unavailable: groups=1, k=")
                       for note in table["notes"]), table["notes"]
            md = (tmp_path / "out" / run_id / f"{table['table']}.md").read_text()
            assert md.splitlines()[-len(table["notes"]):] == table["notes"], md


class TestErrorsNameTheirTable:
    """An estimate that cannot run aborts the run with exit 1 and one ERROR line
    that names its table, without a traceback or any table written."""

    @staticmethod
    def _errors(data_dir, tmp_path, edit, env=None):
        """The ERROR lines of a run on ``data_dir`` with ``edit`` applied to each
        fundamentals row, a dict from column name to cell, in a child process whose
        environment also carries ``env``."""
        edited = tmp_path / "edited"
        shutil.copytree(data_dir, edited)
        header, *lines = (edited / "fundamentals.csv").read_text().splitlines()
        rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
        for row in rows:
            edit(row)
        (edited / "fundamentals.csv").write_text(
            "\n".join([header] + [",".join(row.values()) for row in rows]) + "\n")
        proc = subprocess.run(
            [sys.executable, "-m", "marketpanel.cli", "run", "--data", str(edited),
             "--out", str(tmp_path / "o")], env=src_env() | (env or {}), capture_output=True,
            text=True, timeout=120)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "o").exists()
        return [line for line in proc.stderr.splitlines() if line.startswith("ERROR")]

    def test_a_robustness_refit_without_complete_rows(self, data_dir, tmp_path):
        """SG&A equal to R&D on every row leaves no marketing spend, whose log is
        undefined: the value model's refit on the log measure has no complete row."""
        sga_is_rd = self._errors(data_dir, tmp_path, lambda row: row.update(sga=row["rd"]))
        assert sga_is_rd == ["ERROR robustness_value_log: no complete rows in the design "
                             "(200 of 200 panel rows incomplete)"]

    def test_a_rank_deficient_base_estimate(self, data_dir, tmp_path):
        """One stake of 1 on every row: OW has no within variation and is dropped,
        and OW*Marin equals Marin."""
        ow_is_1 = self._errors(data_dir, tmp_path, lambda row: row.update(stakes="1.0"))
        assert ow_is_1 == ["ERROR value_moderated: rank deficient design; "
                           "dependent columns: ['OW*Marin']"]

    def test_a_rank_deficient_base_estimate_under_the_sandybridge_kernel(self, data_dir,
                                                                         tmp_path):
        """The exact tie of OW*Marin and Marin is decided before the QR, whose last
        bits this OpenBLAS kernel moves: the error names the same column."""
        ow_is_1 = self._errors(data_dir, tmp_path, lambda row: row.update(stakes="1.0"),
                               {"OPENBLAS_CORETYPE": "Sandybridge"})
        assert ow_is_1 == ["ERROR value_moderated: rank deficient design; "
                           "dependent columns: ['OW*Marin']"]


class TestGcFreeze:
    """Only a process the CLI owns freezes the objects its imports left."""

    def test_in_process_main_does_not_freeze(self, run_dir):
        before = gc.get_freeze_count()
        assert main(["report-diff", str(run_dir), str(run_dir)]) == 0
        assert gc.get_freeze_count() == before

    @pytest.mark.parametrize("entry", [
        "import runpy; runpy.run_module('marketpanel.cli', run_name='__main__')",  # -m
        "from marketpanel.cli import main; sys.exit(main())",   # main() without arguments
        "from marketpanel.__main__ import main; sys.exit(main())",   # the console script
    ])
    def test_program_entry_freezes(self, run_dir, entry):
        code = ("import atexit, gc, sys; "
                "atexit.register(lambda: print('frozen', gc.get_freeze_count())); "
                f"sys.argv = ['marketpanel', 'report-diff', {str(run_dir)!r}, "
                f"{str(run_dir)!r}]; {entry}")
        proc = subprocess.run([sys.executable, "-c", code], env=src_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[0])["passed"] is True
        label, count = proc.stdout.splitlines()[-1].split()
        assert label == "frozen" and int(count) > 0


# the variables OpenBLAS reads its thread count from
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


class TestBlasThreads:
    """A process the CLI owns has numpy's OpenBLAS start one thread unless the
    caller chose a count; importing the CLI keeps numpy's default."""

    ENTRIES = {
        "module": ["-m", "marketpanel.cli", "--help"],
        "script": ["-c", "import sys; from marketpanel.__main__ import main; sys.exit(main())",
                   "--help"],
    }

    @pytest.fixture(scope="class")
    def threads(self, tmp_path_factory):
        """Runs Python with the given arguments, none of the three variables set
        unless given, and returns OpenBLAS's thread count at exit, read through
        ctypes from numpy's bundled library by a sitecustomize hook."""
        import numpy
        libs = glob.glob(str(Path(numpy.__file__).resolve().parents[1] / "numpy.libs"
                             / "libscipy_openblas64_*.so"))
        if len(libs) != 1:
            pytest.skip("not exercised: numpy's bundled OpenBLAS is absent")
        probe = tmp_path_factory.mktemp("blas-probe")
        # the library is opened at exit: opened at start-up, it would read the
        # thread count before the entry point could set it
        (probe / "sitecustomize.py").write_text(
            "import atexit, ctypes\n"
            "def report():\n"
            f"    get = ctypes.CDLL({libs[0]!r}).scipy_openblas_get_num_threads64_\n"
            "    get.argtypes, get.restype = [], ctypes.c_int\n"
            "    print('threads', get())\n"
            "atexit.register(report)\n")
        env = {k: v for k, v in src_env().items() if k not in BLAS_THREAD_VARIABLES}
        env["PYTHONPATH"] = os.pathsep.join([str(probe), env["PYTHONPATH"]])

        def count(args, **caller):
            proc = subprocess.run([sys.executable, *args], env={**env, **caller},
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            label, value = proc.stdout.splitlines()[-1].split()
            assert label == "threads"
            return int(value)

        if count(["-c", "import numpy"]) < 2:
            pytest.skip("not exercised: OpenBLAS starts one thread on this host")
        return count

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    @pytest.mark.parametrize("caller, expected", [
        ({}, 1), ({"OPENBLAS_NUM_THREADS": "2"}, 2), ({"OMP_NUM_THREADS": "2"}, 2),
    ], ids=["unset", "OPENBLAS_NUM_THREADS=2", "OMP_NUM_THREADS=2"])
    def test_program_entry(self, threads, entry, caller, expected):
        assert threads(self.ENTRIES[entry], **caller) == expected

    def test_import_keeps_numpys_default_and_the_environment(self, threads):
        code = ("import os; environ = dict(os.environ); import marketpanel, marketpanel.cli; "
                "assert dict(os.environ) == environ")
        assert threads(["-c", code]) == threads(["-c", "import numpy"])

    def test_a_callers_variable_is_kept(self, monkeypatch):
        """OpenBLAS reads OPENBLAS_NUM_THREADS first: a default of 1 set beside
        a caller's GOTO_NUM_THREADS or OMP_NUM_THREADS would override it."""
        for name in BLAS_THREAD_VARIABLES:
            monkeypatch.delenv(name, raising=False)
        marketpanel.one_blas_thread_unless_chosen()
        assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
        for name in BLAS_THREAD_VARIABLES:
            for other in BLAS_THREAD_VARIABLES:
                monkeypatch.delenv(other, raising=False)
            monkeypatch.setenv(name, "3")
            marketpanel.one_blas_thread_unless_chosen()
            assert {k: os.environ.get(k) for k in BLAS_THREAD_VARIABLES} == {
                k: "3" if k == name else None for k in BLAS_THREAD_VARIABLES}


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

    def test_byte_order_marks_read_as_nothing(self, data_dir, run_dir, tmp_path, capsys):
        """Inputs that start with a UTF-8 byte-order mark, as Excel's "CSV UTF-8"
        export writes them, give the run of the same files without it."""
        marked = tmp_path / "marked"
        marked.mkdir()
        for name in ("fundamentals.csv", "prices.csv", "riskfree.csv"):
            (marked / name).write_bytes(b"\xef\xbb\xbf" + (data_dir / name).read_bytes())
        assert main(["ingest-check", "--data", str(marked)]) == 0
        out = tmp_path / "out"
        assert main(["run", "--data", str(marked), "--out", str(out)]) == 0
        assert os.listdir(out) == [run_dir.name]
        code, diff = run_cli("report-diff", str(run_dir), str(out / run_dir.name),
                             "--rel-tol", "0", capsys=capsys)
        assert (code, json.loads(diff)["differences"]) == (0, [])

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("run_id", ["../x", "a/b", "absolute", ".", ".."])
    def test_run_id_must_be_one_path_component(self, data_dir, tmp_path, caplog, run_id, via):
        """The tree goes to --out joined with the id: an id of more than one
        path component could put it anywhere. Exit 2, nothing written."""
        if run_id == "absolute":
            run_id = str(tmp_path / "abs")
        argv = ["run", "--data", str(data_dir), "--out", str(tmp_path / "o" / "out")]
        if via == "flag":
            argv += ["--run-id", run_id]
        else:
            (tmp_path / "run.cfg").write_text(f"run_id = {run_id}\n")
            argv += ["--config", str(tmp_path / "run.cfg")]
        with caplog.at_level(logging.ERROR, logger="marketpanel"):
            assert main(argv) == 2
        assert caplog.records[-1].getMessage() == (
            f"run id {run_id!r} must be a single path component")
        assert [p.name for p in tmp_path.iterdir()] == (["run.cfg"] if via == "config" else [])


class TestWithoutScipy:
    """No command imports scipy: importing the CLI loads neither scipy nor the
    generator, and ``synth``, ``run`` and ``verify`` write the same bytes when
    scipy cannot be imported."""

    def test_importing_the_cli_imports_neither_synth_nor_scipy(self):
        code = ("import sys, marketpanel.cli; "
                "print(sorted({'marketpanel.synth', 'scipy', 'dataclasses'} & set(sys.modules)))")
        proc = subprocess.run([sys.executable, "-c", code], env=src_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_synth_with_scipy_unimportable(self, data_dir, tmp_path):
        out = tmp_path / "data"
        proc = without_scipy(["synth", "--seed", "7", "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        assert sorted(os.listdir(out)) == sorted(os.listdir(data_dir))
        for name in os.listdir(data_dir):
            assert (out / name).read_bytes() == (data_dir / name).read_bytes(), name

    def test_run_and_verify_with_scipy_unimportable(self, data_dir, run_dir, tmp_path):
        out = tmp_path / "out"
        proc = without_scipy(["run", "--data", str(data_dir), "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        run_id = json.loads(proc.stdout)["run_id"]
        assert run_id == run_dir.name
        assert sorted(os.listdir(out / run_id)) == sorted(os.listdir(run_dir))
        for name in os.listdir(run_dir):
            assert (out / run_id / name).read_bytes() == (run_dir / name).read_bytes(), name
        proc = without_scipy(["verify", "--data", str(data_dir), "--run", str(out / run_id)])
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["passed"] is True


def loaded_after(code, modules):
    """Which of ``modules`` a fresh process has loaded once it has run ``code``."""
    proc = subprocess.run([sys.executable, "-c", f"import sys\n{code}\n"
                           f"print(sorted({set(modules)!r} & set(sys.modules)))"],
                          env=src_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def cli_code(commands):
    """Python that runs each CLI command in turn and requires exit 0."""
    return ("from marketpanel.cli import main\n"
            f"for argv in {commands!r}:\n"
            "    assert main(argv) == 0, argv")


def test_synth_run_and_verify_leave_numpy_ma_unloaded(tmp_path):
    """A plain ``np.unique(a)`` imports numpy.ma (about 10 ms and 1 MiB a
    process), and the package's records are NamedTuples, which need no
    dataclasses; no command imports either beyond what numpy does."""
    modules = ("numpy.ma", "dataclasses")
    by_numpy = loaded_after("import numpy", modules)
    if "numpy.ma" in by_numpy:
        pytest.skip("importing numpy loads numpy.ma (numpy < 2)")
    data, out = str(tmp_path / "data"), str(tmp_path / "out")
    commands = [["synth", "--seed", "7", "--n-firms", "20", "--n-years", "10", "--out", data],
                ["run", "--data", data, "--out", out, "--run-id", "r"],
                ["verify", "--data", data, "--run", os.path.join(out, "r")]]
    assert loaded_after(cli_code(commands), modules) == by_numpy


def test_run_and_verify_leave_statistics_unloaded(data_dir, tmp_path):
    """synth's normal quantile imports statistics where it draws, so run and
    verify, which import synth, never load it."""
    out = str(tmp_path / "out")
    commands = [["run", "--data", str(data_dir), "--out", out, "--run-id", "r"],
                ["verify", "--data", str(data_dir), "--run", os.path.join(out, "r")]]
    assert loaded_after(cli_code(commands), ["statistics"]) == "[]"


class TestVerifyCommand:
    def test_clean_run_verifies(self, data_dir, run_dir, capsys):
        code, out = run_cli("verify", "--data", str(data_dir), "--run",
                            str(run_dir), capsys=capsys)
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_manifest_with_removed_config_keys_verifies(self, data_dir, run_dir,
                                                        tmp_path, capsys):
        """An older tree whose manifest records keys that are not ``RunConfig``
        fields still verifies."""
        old = tmp_path / "old"
        shutil.copytree(run_dir, old)
        path = old / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["effective_config"].update(synth=False, seed=7, n_firms=20, n_years=10)
        path.write_text(json.dumps(manifest, sort_keys=True, indent=1) + "\n")
        code, out = run_cli("verify", "--data", str(data_dir), "--run", str(old),
                            capsys=capsys)
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_missing_truth_exit_2(self, run_dir, tmp_path):
        empty = tmp_path / "notruth"
        empty.mkdir()
        assert main(["verify", "--data", str(empty), "--run", str(run_dir)]) == 2

    @pytest.mark.parametrize("name, text, reason", [
        ("truth.json", "{}\n", "KeyError('betas_true')"),
        ("truth.json", "[]\n", "TypeError("),
        ("truth.json", "not json\n", "JSONDecodeError("),
        ("manifest.json", "[]\n", "no effective_config object"),
        ("manifest.json", "not json\n", "is not JSON: "),
    ])
    def test_malformed_json_file_exit_2(self, data_dir, run_dir, tmp_path, caplog,
                                        name, text, reason):
        data, run = tmp_path / "data", tmp_path / "run"
        shutil.copytree(data_dir, data)
        shutil.copytree(run_dir, run)
        path = (data if name == "truth.json" else run) / name
        path.write_text(text)
        with caplog.at_level(logging.ERROR, logger="marketpanel"):
            assert main(["verify", "--data", str(data), "--run", str(run)]) == 2
        message = caplog.records[-1].getMessage()
        assert message.startswith(str(path)) and reason in message, message

    @pytest.mark.parametrize("key, value", [("beta_min", "x"), ("beta_min", None),
                                            ("center", "false"), ("beta_min", 48.9)])
    def test_recorded_config_of_another_type_exit_2(self, data_dir, run_dir, tmp_path,
                                                    caplog, key, value):
        """A recorded value is read only with its field's JSON type: "false" is
        not read as true, nor 48.9 as 48."""
        run = tmp_path / "run"
        shutil.copytree(run_dir, run)
        path = run / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["effective_config"][key] = value
        path.write_text(json.dumps(manifest, sort_keys=True, indent=1) + "\n")
        with caplog.at_level(logging.ERROR, logger="marketpanel"):
            assert main(["verify", "--data", str(data_dir), "--run", str(run)]) == 2
        assert caplog.records[-1].getMessage() == (
            f"{path}: effective_config {key!r} must be a JSON "
            f"{'bool' if key == 'center' else 'int'}, got {json.dumps(value)}")

    @pytest.mark.parametrize("field, key, value", [
        ("betas_true", ("F001", "2015"), "x"), ("value_coefficients", "Marin", "x"),
        ("risk_coefficients", "Marin", None), ("betas_true", ("F001", "2015"), None),
        ("betas_true", ("F001", "2015"), True), ("value_coefficients", "Marin", True),
        ("value_coefficients", None, [1.0]),
    ])
    def test_truth_value_of_another_type_exit_2(self, data_dir, run_dir, tmp_path, caplog,
                                                field, key, value):
        """A planted coefficient or true beta is read only as a finite JSON number:
        null is not read as NaN, nor true as 1.0."""
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        path = data / "truth.json"
        truth = json.loads(path.read_text())
        if key is None:
            truth[field] = value
        elif field == "betas_true":
            truth[field][key[0]][key[1]] = value
        else:
            truth[field][key] = value
        path.write_text(json.dumps(truth, sort_keys=True, indent=1) + "\n")
        with caplog.at_level(logging.ERROR, logger="marketpanel"):
            assert main(["verify", "--data", str(data), "--run", str(run_dir)]) == 2
        message = caplog.records[-1].getMessage()
        reason = ("is not a JSON object" if key is None else
                  f"{json.dumps(value)} is not a finite number")
        assert message.startswith(f"{path} is not a truth record: ValueError(") \
            and field in message and reason in message, message

    def test_a_planted_slope_100_ses_away_is_the_one_failure(self, data_dir, run_dir,
                                                             tmp_path, capsys):
        """OW's planted value moved by 100 of its SEs: verify exits 1 with that slope's
        line as its one failure and still lists every planted slope of both models."""
        code, out = run_cli("verify", "--data", str(data_dir), "--run", str(run_dir),
                            capsys=capsys)
        assert code == 0
        checks = json.loads(out)["truth_checks"]
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        path = data / "truth.json"
        truth = json.loads(path.read_text())
        ow = next(c for c in checks["value_moderated"] if c["variable"] == "OW")
        truth["value_coefficients"]["OW"] += 100 * ow["std_error"]
        path.write_text(json.dumps(truth, sort_keys=True, indent=1) + "\n")
        ow.update(truth=truth["value_coefficients"]["OW"], passed=False)
        code, out = run_cli("verify", "--data", str(data), "--run", str(run_dir),
                            capsys=capsys)
        assert code == 1
        summary = json.loads(out)
        assert summary["failures"] == [
            f"value_moderated/OW: estimate {ow['estimate']:.6g} vs truth {ow['truth']:.6g} "
            f"(se {ow['std_error']:.3g})"]
        assert summary["truth_checks"] == checks
        for model_id, planted in (("value_moderated", "value_coefficients"),
                                  ("risk_moderated", "risk_coefficients")):
            # every planted slope; the planted intercept C is not compared
            assert sorted(c["variable"] for c in checks[model_id]) == \
                sorted(set(truth[planted]) - {"C"})

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


    @staticmethod
    def _md_digit(text):
        """One digit of the first table row changed."""
        row = text.index("| C |")
        at = next(i for i in range(row, len(text)) if text[i].isdigit())
        return text[:at] + str((int(text[at]) + 1) % 10) + text[at + 1:]

    @staticmethod
    def _csv_prob(text):
        lines = text.split("\n")
        cells = lines[2].split(",")
        cells[3] = repr(float(cells[3]) * 1.5)
        lines[2] = ",".join(cells)
        return "\n".join(lines)

    @staticmethod
    def _hausman_statistic(text):
        table = json.loads(text)
        table["diagnostics"]["hausman"]["statistic"] *= 1.01
        return json.dumps(table, sort_keys=True, indent=1) + "\n"

    @staticmethod
    def _truncated(text):
        return text[:len(text) // 2]

    @staticmethod
    def _json_list(text):
        return "[]\n"

    @pytest.mark.parametrize("name, edit", [("value_moderated.md", "_md_digit"),
                                            ("risk_direct.csv", "_csv_prob"),
                                            ("risk_moderated.json", "_hausman_statistic"),
                                            ("value_direct.json", "_truncated"),
                                            ("risk_direct.json", "_json_list")])
    def test_tampering_outside_the_json_rows_detected(self, data_dir, run_dir, tmp_path,
                                                      capsys, name, edit):
        tampered = tmp_path / "tampered"
        shutil.copytree(run_dir, tampered)
        path = tampered / name
        path.write_text(getattr(self, edit)(path.read_text()))
        code, out = run_cli("verify", "--data", str(data_dir), "--run",
                            str(tampered), capsys=capsys)
        assert code == 1
        failures = json.loads(out)["failures"]
        assert len(failures) == 1 and failures[0].startswith(f"{name}:"), failures

    def test_recomputes_every_table_once(self, data_dir, run_dir, capsys, monkeypatch):
        from marketpanel import diagnostics, ingest, models

        calls = {}
        for module, name in ((ingest, "parse_fundamentals"), (ingest, "parse_prices"),
                             (ingest, "parse_riskfree"), (diagnostics, "descriptives"),
                             (diagnostics, "correlation_matrix"),
                             (diagnostics, "panel_stationarity"), (models, "estimate")):
            calls[name] = 0
            def counted(*args, _real=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        code, out = run_cli("verify", "--data", str(data_dir), "--run",
                            str(run_dir), capsys=capsys)
        assert code == 0 and json.loads(out)["passed"] is True
        # one parse of each input and one of each diagnostic table; the eight
        # estimates of the run plan and two truth checks
        assert calls == {"parse_fundamentals": 1, "parse_prices": 1, "parse_riskfree": 1,
                         "descriptives": 1, "correlation_matrix": 1,
                         "panel_stationarity": 1, "estimate": 10}


# the table files besides the four base estimates' 12
NON_BASE_FILES = [f"{stem}.{ext}" for stem in (
    "descriptives", "correlations", "stationarity", "robustness_value_assets",
    "robustness_value_log", "robustness_risk_assets", "robustness_risk_log")
    for ext in ("json", "csv", "md")]


@pytest.fixture(scope="module")
def shared_tree(tmp_path_factory, run_dir):
    """A copy of the run tree that each test of TestVerifyReadsTheWholeTree edits
    in place and restores."""
    tree = tmp_path_factory.mktemp("shared") / run_dir.name
    shutil.copytree(run_dir, tree)
    return tree


class TestVerifyReadsTheWholeTree:
    """Every table file and the manifest's input digests and config hash are
    recomputed: an edit to any of them, a missing table file or an extra file of any
    name exits 1 with a failure line that starts with the file's name."""

    @staticmethod
    def _verify_with(data_dir, tree, name, text, capsys):
        """verify's exit code and failures with ``tree``'s file ``name`` holding
        ``text`` (removed when None); the file is restored afterwards."""
        path = tree / name
        original = path.read_bytes() if path.exists() else None
        try:
            if text is None:
                path.unlink()
            else:
                path.write_text(text)
            code, out = run_cli("verify", "--data", str(data_dir), "--run", str(tree),
                                capsys=capsys)
        finally:
            if original is None:
                path.unlink(missing_ok=True)
            else:
                path.write_bytes(original)
        return code, json.loads(out)["failures"]

    @pytest.mark.parametrize("name", NON_BASE_FILES)
    def test_one_digit_edited_after_the_first_line(self, data_dir, shared_tree, capsys, name):
        text = (shared_tree / name).read_text()
        at = next(i for i in range(text.index("\n"), len(text)) if text[i].isdigit())
        edited = text[:at] + str((int(text[at]) + 1) % 10) + text[at + 1:]
        code, failures = self._verify_with(data_dir, shared_tree, name, edited, capsys)
        assert code == 1
        assert any(f.startswith(f"{name}:") for f in failures), failures

    @pytest.mark.parametrize("field", ["inputs/prices.csv", "config_hash"])
    def test_an_edited_manifest_digest(self, data_dir, shared_tree, capsys, field):
        manifest = json.loads((shared_tree / "manifest.json").read_text())
        *outer, key = field.split("/")
        holder = manifest[outer[0]] if outer else manifest
        digest = holder[key]
        holder[key] = ("1" if digest[0] == "0" else "0") + digest[1:]
        code, failures = self._verify_with(
            data_dir, shared_tree, "manifest.json",
            json.dumps(manifest, sort_keys=True, indent=1) + "\n", capsys)
        assert code == 1
        assert failures == [f"manifest.json:/{field}: {holder[key]!r} vs {digest!r}"]

    @pytest.mark.parametrize("name, text", [("stationarity.csv", None),
                                            ("old_table.md", "# Old table\n"),
                                            ("notes.txt", "stray\n")])
    def test_a_missing_or_extra_table_file(self, data_dir, shared_tree, capsys, name, text):
        code, failures = self._verify_with(data_dir, shared_tree, name, text, capsys)
        assert code == 1
        assert failures == [f"{name}: present on one side only"]

    def test_a_subdirectory_is_an_input_error(self, data_dir, run_dir, tmp_path, caplog):
        """A directory in the tree cannot be read as a table file: exit 2, naming it."""
        tree = tmp_path / run_dir.name
        shutil.copytree(run_dir, tree)
        (tree / "sub").mkdir()
        for argv in (["verify", "--data", str(data_dir), "--run", str(tree)],
                     ["report-diff", str(run_dir), str(tree)]):
            caplog.clear()
            assert main(argv) == 2
            assert f"cannot read {tree / 'sub'}: " in caplog.text


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

    def test_a_stray_file_of_any_name_is_listed(self, run_dir, tmp_path, capsys):
        other = tmp_path / "stray"
        shutil.copytree(run_dir, other)
        (other / "notes.txt").write_text("stray\n")
        code, out = run_cli("report-diff", str(run_dir), str(other), capsys=capsys)
        assert code == 1
        assert json.loads(out)["differences"] == ["notes.txt: present on one side only"]

    @pytest.mark.parametrize("rel_tol", ["-1", "nan"])
    def test_tolerance_must_be_a_number_at_least_0(self, run_dir, tmp_path, capsys, rel_tol):
        """A negative or NaN tolerance is refused (exit 2), not read as 0; inf passes all cells."""
        other = tmp_path / "mutated"
        shutil.copytree(run_dir, other)
        path = other / "descriptives.json"
        payload = json.loads(path.read_text())
        payload["rows"][0]["mean"] = 123.456
        path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")
        with pytest.raises(SystemExit) as err:
            main(["report-diff", str(run_dir), str(other), "--rel-tol", rel_tol])
        assert err.value.code == 2
        assert f"--rel-tol: must be a number >= 0, got {rel_tol!r}" in capsys.readouterr().err
        assert main(["report-diff", str(run_dir), str(other), "--rel-tol", "inf"]) == 0


class TestUndecodableFiles:
    """A file that is not UTF-8 is an input error naming the file and the byte (exit 2)."""

    @staticmethod
    def _cli(*argv, env=None):
        proc = subprocess.run([sys.executable, "-m", "marketpanel.cli", *argv],
                              env=env or src_env(), capture_output=True, text=True,
                              timeout=120)
        assert "Traceback" not in proc.stderr
        return proc

    @staticmethod
    def _with_ff(path, offset):
        data = path.read_bytes()
        path.write_bytes(data[:offset] + b"\xff" + data[offset:])

    @pytest.mark.parametrize("command", ["run", "ingest-check"])
    def test_input_csv(self, command, data_dir, tmp_path):
        bad = tmp_path / "bad"
        shutil.copytree(data_dir, bad)
        self._with_ff(bad / "riskfree.csv", 30)
        argv = [command, "--data", str(bad)]
        proc = self._cli(*argv, *(["--out", str(tmp_path / "o")] if command == "run" else []))
        assert proc.returncode == 2
        assert f"{bad / 'riskfree.csv'} is not UTF-8 text: byte 0xff at offset 30" in proc.stderr
        assert not (tmp_path / "o").exists()

    def test_config_file(self, data_dir, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_bytes(b"beta_min = 12\n# \xff\n")
        proc = self._cli("run", "--config", str(config), "--data", str(data_dir),
                         "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert f"{config} is not UTF-8 text: byte 0xff at offset 16" in proc.stderr

    def test_verify_truth(self, data_dir, run_dir, tmp_path):
        bad = tmp_path / "bad"
        shutil.copytree(data_dir, bad)
        self._with_ff(bad / "truth.json", 0)
        proc = self._cli("verify", "--data", str(bad), "--run", str(run_dir))
        assert proc.returncode == 2
        assert "truth.json is not UTF-8 text: byte 0xff at offset 0" in proc.stderr

    def test_verify_table(self, data_dir, run_dir, tmp_path):
        bad = tmp_path / "bad"
        shutil.copytree(run_dir, bad)
        self._with_ff(bad / "stationarity.md", 5)
        proc = self._cli("verify", "--data", str(data_dir), "--run", str(bad))
        assert proc.returncode == 2
        assert "stationarity.md is not UTF-8 text: byte 0xff at offset 5" in proc.stderr

    def test_report_diff(self, run_dir, tmp_path):
        other = tmp_path / "other"
        shutil.copytree(run_dir, other)
        self._with_ff(other / "descriptives.md", 5)
        proc = self._cli("report-diff", str(run_dir), str(other))
        assert proc.returncode == 2
        assert "descriptives.md is not UTF-8 text: byte 0xff at offset 5" in proc.stderr


class TestSourceDateEpoch:
    def test_recorded_in_the_manifest(self, data_dir, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "86400")
        code, out = run_cli("run", "--data", str(data_dir), "--out", str(tmp_path),
                            capsys=capsys)
        assert code == 0
        manifest = json.loads((Path(json.loads(out)["out_dir"]) / "manifest.json").read_text())
        assert manifest["timestamp"] == "1970-01-02T00:00:00+00:00"

    @pytest.mark.parametrize("epoch", ["abc", "1.5", "", "9" * 30])
    def test_malformed_fails_before_any_input_is_read(self, epoch, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "marketpanel.cli", "run", "--data", str(tmp_path / "none"),
             "--out", str(tmp_path / "o")], env=dict(src_env(), SOURCE_DATE_EPOCH=epoch),
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        errors = [line for line in proc.stderr.splitlines() if line.startswith("ERROR")]
        assert len(errors) == 1 and errors[0].startswith(
            f"ERROR SOURCE_DATE_EPOCH must be whole seconds since 1970, got {epoch!r}")
