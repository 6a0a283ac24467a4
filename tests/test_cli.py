"""End-to-end tests of the command-line interface.

Each test drives ``main`` with real files in a temp directory and checks
exit codes, outputs on disk, and the promise that failing runs leave
nothing behind.
"""

import importlib.util
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from flexls.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_OK,
    _JOB_KEYS,
    ConfigError,
    build_job,
    main,
    parse_config_text,
)
import flexls
import flexls.cli as cli_module
from flexls import __version__
from flexls.eigentrack import EigenTracker
import flexls.estimator as estimator_module
from flexls.estimator import KERNEL_BACKEND, _kf_step, _kf_step_impl
from flexls.ingest import write_csv
from flexls.synth import Fig2Config, MarketConfig, gen_market
from flexls.util import fmt_g17

from .test_strategy import SPECIAL_FLOATS


@pytest.fixture
def market_csv(tmp_path):
    table, _ = gen_market(MarketConfig(seed=0, steps=160))
    f = tmp_path / "prices.csv"
    write_csv(table, f)
    return f


def write_config(tmp_path, body, name="job.conf"):
    f = tmp_path / name
    f.write_text(body)
    return f


def base_config(market_csv, out_dir, extra=""):
    return (
        f"data = {market_csv}\n"
        f"target = INDEX\n"
        f"delta = 0.5\n"
        f"warmup = 40\n"
        f"out_dir = {out_dir}\n" + extra
    )


class TestConfigParsing:
    def test_key_value_lines_with_comments(self):
        cfg = parse_config_text("a = 1\n# note\nb = two  # trailing\n\n")
        assert cfg == {"a": "1", "b": "two"}

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config_text("a = 1\na = 2\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="expected 'key = value'"):
            parse_config_text("just some text\n")

    def test_unknown_key_rejected(self):
        class Args:
            delta = None
            features = None
            out_dir = None

        with pytest.raises(ConfigError, match="frobnicate: unknown key"):
            build_job({"frobnicate": "1"}, Args(), need_grid=False)


class TestReadme:
    def test_config_table_lists_exactly_the_accepted_keys(self):
        # The README's config table is the documentation of every key: a
        # key the config accepts must have a row, and a removed key must not.
        readme = Path(__file__).resolve().parent.parent / "README.md"
        text = readme.read_text(encoding="utf-8")
        table = text.split("| key | default | meaning |\n", 1)[1].split("\n\n", 1)[0]
        documented = set()
        for row in table.splitlines()[1:]:
            key_cell = row.split("|")[1]
            documented.update(re.findall(r"`([a-z_]+)`", key_cell))
        assert documented == _JOB_KEYS


class TestVersion:
    def test_prints_version_and_kernel(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == EXIT_OK
        expected = "python" if _kf_step is _kf_step_impl else "numba"
        assert KERNEL_BACKEND == expected
        assert capsys.readouterr().out == (
            f"flexls {__version__} (kernel: {expected})\n"
        )


class TestBacktestCommand:
    def test_writes_ledger_coefficients_report_and_config(
        self, tmp_path, market_csv, capsys
    ):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, base_config(market_csv, out))
        assert main(["backtest", "--config", str(cfg)]) == EXIT_OK
        assert (out / "ledger_0.5.csv").exists()
        assert (out / "coefficients_0.5.csv").exists()
        assert (out / "report.csv").exists()
        assert (out / "effective_config.txt").exists()
        table = capsys.readouterr().out
        assert "sharpe" in table and "0.5" in table
        # kalman engine exports diagnostics columns
        head = (out / "coefficients_0.5.csv").read_text().splitlines()[0]
        assert head.endswith(",e,Q")

    def test_collapsed_tracker_component_skips_the_row(self, tmp_path):
        # A repeated price row (a forward-filled holiday) is an all-zero
        # return row; under amnesia 2 it meets a component that has
        # absorbed two samples.  A component's first 1 + amnesia samples
        # take the plain average, so the zero row leaves it standing and
        # only the tracker's warm-up rows lack factor scores.
        table, _ = gen_market(MarketConfig(seed=0, n_streams=8, steps=120))
        table.prices[7] = table.prices[6]
        data = tmp_path / "holiday.csv"
        write_csv(table, data)
        out = tmp_path / "run"
        cfg = write_config(
            tmp_path,
            f"data = {data}\ntarget = INDEX\ndelta = 0.9\nwarmup = 40\n"
            f"features = svd:3\namnesia = 2\nout_dir = {out}\n",
        )
        assert main(["backtest", "--config", str(cfg)]) == EXIT_OK
        rows = (out / "coefficients_0.9.csv").read_text().splitlines()[1:]
        values = np.array([row.split(",") for row in rows], dtype=float)
        assert len(values) == 119
        skipped = np.isnan(values[:, 1:]).all(axis=1)
        assert np.flatnonzero(skipped).tolist() == [0, 1]
        assert np.isfinite(values[~skipped]).all()

    def test_reruns_are_byte_identical(self, tmp_path, market_csv):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        cfg1 = write_config(tmp_path, base_config(market_csv, out1), "a.conf")
        cfg2 = write_config(tmp_path, base_config(market_csv, out2), "b.conf")
        assert main(["backtest", "--config", str(cfg1)]) == EXIT_OK
        assert main(["backtest", "--config", str(cfg2)]) == EXIT_OK
        for name in ("ledger_0.5.csv", "coefficients_0.5.csv", "report.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_delta_grid_runs_each_value(self, tmp_path, market_csv):
        out = tmp_path / "grid"
        body = (
            f"data = {market_csv}\ntarget = INDEX\n"
            f"delta_grid = 0.2, 0.5, 0.9\nwarmup = 40\nout_dir = {out}\n"
        )
        cfg = write_config(tmp_path, body)
        assert main(["backtest", "--config", str(cfg)]) == EXIT_OK
        for delta in ("0.2", "0.5", "0.9"):
            assert (out / f"ledger_{delta}.csv").exists()
        report = (out / "report.csv").read_text().splitlines()
        assert len(report) == 4

    def test_command_line_delta_overrides_grid(self, tmp_path, market_csv):
        out = tmp_path / "ovr"
        body = (
            f"data = {market_csv}\ntarget = INDEX\n"
            f"delta_grid = 0.2, 0.9\nwarmup = 40\nout_dir = {out}\n"
        )
        cfg = write_config(tmp_path, body)
        assert main(["backtest", "--config", str(cfg), "--delta", "0.5"]) == EXIT_OK
        assert (out / "ledger_0.5.csv").exists()
        assert not (out / "ledger_0.2.csv").exists()

    def test_effective_config_round_trips(self, tmp_path, market_csv):
        # Bare svd takes the default factor count, which is written out.
        out = tmp_path / "rt"
        cfg = write_config(tmp_path, base_config(market_csv, out, "features = svd\n"))
        assert main(["backtest", "--config", str(cfg)]) == EXIT_OK

        class Args:
            delta = None
            features = None
            out_dir = None

        text = (out / "effective_config.txt").read_text()
        assert "\nfeatures = svd:3\namnesia = 0.0\n" in text
        job = build_job(parse_config_text(text), Args(), need_grid=False)
        assert job.features.k == 3
        assert job.effective_text() == text

    def test_raw_mode_keeps_the_amnesia_it_was_given(self, tmp_path, market_csv):
        out = tmp_path / "raw"
        cfg = write_config(
            tmp_path, base_config(market_csv, out, "features = raw\namnesia = 0.5\n")
        )
        assert main(["backtest", "--config", str(cfg)]) == EXIT_OK
        text = (out / "effective_config.txt").read_text(encoding="utf-8")
        assert "\nfeatures = raw\namnesia = 0.5\n" in text

    def test_raw_mode_effective_config_round_trips(self, tmp_path, market_csv):
        out = tmp_path / "raw"
        cfg = write_config(tmp_path, base_config(market_csv, out, "features = raw\n"))
        assert main(["backtest", "--config", str(cfg)]) == EXIT_OK

        class Args:
            delta = None
            features = None
            out_dir = None

        given = build_job(parse_config_text(cfg.read_text()), Args(), need_grid=False)
        text = (out / "effective_config.txt").read_text(encoding="utf-8")
        assert build_job(parse_config_text(text), Args(), need_grid=False) == given
        assert "\nfeatures = raw\n" in text and "\nk = " not in text

    def test_runs_without_the_locale_encoding(self, tmp_path, market_csv):
        # Every file is read and written as UTF-8, so no open() falls back
        # to the locale's encoding, which turns the warning into an error.
        out = tmp_path / "ausgabe-ü"
        cfg = write_config(tmp_path, base_config(market_csv, out))
        src = Path(flexls.__file__).resolve().parents[1]
        proc = subprocess.run(
            [
                sys.executable, "-X", "warn_default_encoding",
                "-W", "error::EncodingWarning",
                "-m", "flexls.cli", "backtest", "--config", str(cfg),
            ],
            capture_output=True,
            text=True,
            encoding="utf-8",
            env={**os.environ, "PYTHONPATH": str(src)},
            timeout=120,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stderr == ""
        assert (out / "ledger_0.5.csv").is_file()

    def test_svd_features_from_command_line(self, tmp_path, market_csv):
        out = tmp_path / "svd"
        cfg = write_config(tmp_path, base_config(market_csv, out))
        code = main(
            ["backtest", "--config", str(cfg), "--features", "svd:3"]
        )
        assert code == EXIT_OK
        head = (out / "coefficients_0.5.csv").read_text().splitlines()[0]
        assert head.startswith("t,beta_1,beta_2,beta_3,")

    def test_duplicate_grid_value_warns_and_dedupes(
        self, tmp_path, market_csv, capsys
    ):
        out = tmp_path / "dup"
        body = (
            f"data = {market_csv}\ntarget = INDEX\n"
            f"delta_grid = 0.5, 0.5\nwarmup = 40\nout_dir = {out}\n"
        )
        cfg = write_config(tmp_path, body)
        assert main(["backtest", "--config", str(cfg)]) == EXIT_OK
        assert "duplicate delta" in capsys.readouterr().err
        report = (out / "report.csv").read_text().splitlines()
        assert len(report) == 2


class TestGridRunner:
    def test_svd_sweep_tracks_each_return_row_once(
        self, tmp_path, market_csv, monkeypatch
    ):
        calls = []
        update = EigenTracker.update

        def counted(self, r):
            calls.append(1)
            return update(self, r)

        monkeypatch.setattr(EigenTracker, "update", counted)
        out = tmp_path / "sweep"
        body = (
            f"data = {market_csv}\ntarget = INDEX\nfeatures = svd:3\n"
            f"delta_grid = 0.2, 0.5, 0.9\nwarmup = 40\nout_dir = {out}\n"
        )
        cfg = write_config(tmp_path, body)
        assert main(["sweep-sharpe", "--config", str(cfg)]) == EXIT_OK
        return_rows = len(market_csv.read_text().splitlines()) - 2
        assert len(calls) == return_rows

    @pytest.mark.parametrize("features", ["raw", "svd:3"])
    def test_grid_outputs_match_single_delta_runs(
        self, tmp_path, market_csv, features
    ):
        grid = tmp_path / "grid"
        body = (
            f"data = {market_csv}\ntarget = INDEX\n"
            f"delta_grid = 0.2, 0.5, 0.9\nwarmup = 40\nout_dir = {grid}\n"
        )
        cfg = write_config(tmp_path, body)
        argv = ["backtest", "--config", str(cfg), "--features", features]
        assert main(argv) == EXIT_OK
        for delta in ("0.2", "0.5", "0.9"):
            single = tmp_path / f"single_{delta}"
            assert main(argv + ["--delta", delta, "--out-dir", str(single)]) == EXIT_OK
            for name in (f"ledger_{delta}.csv", f"coefficients_{delta}.csv"):
                assert (grid / name).read_bytes() == (single / name).read_bytes()


class TestBacktestErrors:
    def run_expecting(self, code, argv, capsys, needle):
        assert main(argv) == code
        err = capsys.readouterr().err
        assert needle in err
        return err

    def test_unknown_key_is_config_error(self, tmp_path, market_csv, capsys):
        cfg = write_config(
            tmp_path, base_config(market_csv, tmp_path / "o", "bogus = 1\n")
        )
        self.run_expecting(
            EXIT_CONFIG,
            ["backtest", "--config", str(cfg)],
            capsys,
            "config error: bogus: unknown key",
        )

    def test_bad_delta_is_config_error(self, tmp_path, market_csv, capsys):
        body = base_config(market_csv, tmp_path / "o").replace(
            "delta = 0.5", "delta = 1.5"
        )
        cfg = write_config(tmp_path, body)
        self.run_expecting(
            EXIT_CONFIG, ["backtest", "--config", str(cfg)], capsys, "config error"
        )

    def test_both_delta_forms_rejected(self, tmp_path, market_csv, capsys):
        cfg = write_config(
            tmp_path,
            base_config(market_csv, tmp_path / "o", "delta_grid = 0.2\n"),
        )
        self.run_expecting(
            EXIT_CONFIG,
            ["backtest", "--config", str(cfg)],
            capsys,
            "either delta or delta_grid",
        )

    def test_missing_data_file_is_data_error(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "data = /nonexistent/prices.csv\ntarget = INDEX\n"
            "delta = 0.5\nwarmup = 40\n",
        )
        self.run_expecting(
            EXIT_DATA, ["backtest", "--config", str(cfg)], capsys, "data error"
        )

    def test_malformed_data_is_data_error_and_leaves_no_outputs(
        self, tmp_path, capsys
    ):
        bad = tmp_path / "bad.csv"
        bad.write_text("date,INDEX\n2001-01-01,100\n2001-01-01,101\n")
        out = tmp_path / "never"
        cfg = write_config(tmp_path, base_config(bad, out))
        self.run_expecting(
            EXIT_DATA, ["backtest", "--config", str(cfg)], capsys, "duplicate date"
        )
        assert not out.exists()

    def test_warmup_beyond_sample_is_data_error(self, tmp_path, market_csv, capsys):
        body = base_config(market_csv, tmp_path / "o").replace(
            "warmup = 40", "warmup = 100000"
        )
        cfg = write_config(tmp_path, body)
        self.run_expecting(
            EXIT_DATA,
            ["backtest", "--config", str(cfg)],
            capsys,
            "must leave both training and evaluation",
        )

    @pytest.mark.parametrize("command", ["backtest", "sweep-sharpe"])
    def test_unrepresentable_order_is_data_error_and_leaves_no_outputs(
        self, tmp_path, capsys, command
    ):
        # 1e8 / (250 * 1e-15) = 4e20 contracts, past the int64 range.
        rng = np.random.default_rng(0)
        lines = ["date,INDEX,A,B"]
        for i in range(12):
            index = 1e-15 if i == 8 else 100.0 + i
            a, b = 50.0 + rng.normal(), 70.0 + rng.normal()
            lines.append(f"2001-01-{i + 1:02d},{index!r},{a!r},{b!r}")
        prices = tmp_path / "tiny.csv"
        prices.write_text("\n".join(lines) + "\n")
        out = tmp_path / "never"
        cfg = write_config(
            tmp_path,
            f"data = {prices}\ntarget = INDEX\ndelta_grid = 0.5, 0.9\n"
            f"warmup = 2\nrule = buy-hold\nout_dir = {out}\n",
        )
        self.run_expecting(
            EXIT_DATA,
            [command, "--config", str(cfg)],
            capsys,
            "data error: index price 1e-15 on 2001-01-09",
        )
        assert not out.exists()

    @pytest.mark.parametrize("prior_scale", ["1e20", "1e150"])
    def test_filter_rejection_is_data_error_and_leaves_no_outputs(
        self, tmp_path, capsys, prior_scale
    ):
        # A prior this wide drives the forecast variance below zero within
        # the first rows; the config check cannot know that before the data.
        table, _ = gen_market(MarketConfig(seed=0, steps=300))
        prices = tmp_path / "prices.csv"
        write_csv(table, prices)
        out = tmp_path / "never"
        cfg = write_config(
            tmp_path,
            base_config(prices, out, f"prior_scale = {prior_scale}\n").replace(
                "warmup = 40", "warmup = 50"
            ),
        )
        err = self.run_expecting(
            EXIT_DATA,
            ["backtest", "--config", str(cfg)],
            capsys,
            "forecast variance must stay positive",
        )
        assert re.match(r"data error: regression update on \d{4}-\d\d-\d\d rejected", err)
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, out_dir",
        [
            pytest.param(command, out_dir, id=prefix + out_dir)
            for command, prefix in (("backtest", ""), ("sim-fig2", "sim-fig2-"))
            for out_dir in ("o#1/run", "o\nx", "o\rx", " o", "o ", "o\t")
        ],
    )
    def test_out_dir_that_cannot_be_recorded_is_config_error(
        self, tmp_path, market_csv, capsys, monkeypatch, command, out_dir
    ):
        # Rerunning from effective_config.txt would write somewhere else.
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, base_config(market_csv, tmp_path / "o"))
        before = sorted(tmp_path.iterdir())
        argv = [command, "--out-dir", out_dir]
        if command == "backtest":
            argv += ["--config", str(cfg)]
        self.run_expecting(EXIT_CONFIG, argv, capsys, "config error: --out-dir: ")
        assert sorted(tmp_path.iterdir()) == before

    def test_too_many_factor_scores_is_config_error(
        self, tmp_path, market_csv, capsys
    ):
        out = tmp_path / "o"
        cfg = write_config(
            tmp_path, base_config(market_csv, out, "features = svd:99\n")
        )
        self.run_expecting(
            EXIT_CONFIG,
            ["backtest", "--config", str(cfg)],
            capsys,
            "config error: features: k=99 factor scores from 8 streams",
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra",
        [
            pytest.param("prior_scale = inf\n", id="prior_scale=inf"),
            pytest.param("prior_scale = 1e400\n", id="prior_scale=1e400"),
            pytest.param("endowment = inf\n", id="endowment=inf"),
            pytest.param("features = svd\namnesia = inf\n", id="svd-amnesia=inf"),
            pytest.param("features = svd\namnesia = -1\n", id="svd-amnesia=-1"),
            pytest.param("multiplier = inf\n", id="multiplier=inf"),
            pytest.param("cost_per_contract = nan\n", id="cost_per_contract=nan"),
            pytest.param("cost_per_contract = inf\n", id="cost_per_contract=inf"),
        ],
    )
    def test_non_finite_setting_is_config_error_and_leaves_no_outputs(
        self, tmp_path, market_csv, capsys, extra
    ):
        out = tmp_path / "never"
        cfg = write_config(tmp_path, base_config(market_csv, out, extra))
        key = extra.splitlines()[-1].split("=")[0].strip()
        err = self.run_expecting(
            EXIT_CONFIG, ["backtest", "--config", str(cfg)], capsys, "config error: "
        )
        assert f"{key} must be finite" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra, message",
        [
            pytest.param(
                "features = raw\namnesia = -1\n",
                "features: amnesia must be finite and >= 0",
                id="amnesia=-1",
            ),
            pytest.param(
                "features = svd:0\n", "features: k must be >= 1", id="k=0"
            ),
        ],
    )
    def test_bad_svd_setting_in_raw_mode_is_config_error(
        self, tmp_path, market_csv, capsys, extra, message
    ):
        # Raw features do not use amnesia, but a value no mode accepts is
        # rejected as it would be in svd mode, not dropped.  A factor count
        # is spelled only inside svd:<k>, where zero is rejected likewise.
        out = tmp_path / "never"
        cfg = write_config(tmp_path, base_config(market_csv, out, extra))
        self.run_expecting(
            EXIT_CONFIG,
            ["backtest", "--config", str(cfg)],
            capsys,
            f"config error: {message}",
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "line",
        [
            pytest.param("engine = fls", id="fls"),
            pytest.param("engine = kalman", id="kalman"),
            pytest.param("veps = 1", id="veps"),
            pytest.param("k = 3", id="k"),
        ],
    )
    def test_engine_setting_is_unknown_key(
        self, tmp_path, market_csv, capsys, line
    ):
        # Configs and effective_config.txt files of earlier versions name an
        # engine, the filter's observation noise or the factor count.  The
        # filter is now the only engine, its noise is fixed at 1 and the
        # count is spelled svd:<k>, so such a config fails before any output.
        out = tmp_path / "never"
        cfg = write_config(tmp_path, base_config(market_csv, out, line + "\n"))
        key = line.split("=")[0].strip()
        self.run_expecting(
            EXIT_CONFIG,
            ["backtest", "--config", str(cfg)],
            capsys,
            f"config error: {key}: unknown key",
        )
        assert not out.exists()

    def test_unreadable_config_is_config_error(self, tmp_path, capsys):
        self.run_expecting(
            EXIT_CONFIG,
            ["backtest", "--config", str(tmp_path / "missing.conf")],
            capsys,
            "cannot read",
        )

    def test_non_utf8_config_is_config_error(self, tmp_path, market_csv, capsys):
        cfg = tmp_path / "latin1.conf"
        cfg.write_bytes(
            (base_config(market_csv, tmp_path / "o") + "# caf\xe9\n").encode("latin-1")
        )
        self.run_expecting(
            EXIT_CONFIG, ["backtest", "--config", str(cfg)], capsys, "cannot read"
        )

    def test_config_with_byte_order_mark_runs(self, tmp_path, market_csv):
        out = tmp_path / "bom"
        cfg = tmp_path / "bom.conf"
        cfg.write_bytes(b"\xef\xbb\xbf" + base_config(market_csv, out).encode("utf-8"))
        assert main(["backtest", "--config", str(cfg)]) == EXIT_OK
        assert (out / "ledger_0.5.csv").is_file()

    def test_warmup_date_form(self, tmp_path, market_csv):
        out = tmp_path / "bydate"
        body = base_config(market_csv, out).replace(
            "warmup = 40", "warmup_end = 2001-02-10"
        )
        cfg = write_config(tmp_path, body)
        assert main(["backtest", "--config", str(cfg)]) == EXIT_OK
        ledger = (out / "ledger_0.5.csv").read_text().splitlines()[1:]
        # rows before the boundary date hold no position
        flat = [row for row in ledger if row.split(",")[0] < "2001-02-10"]
        assert flat and all(row.split(",")[2] == "0" for row in flat)


class TestSweepCommand:
    def test_writes_sharpe_curve(self, tmp_path, market_csv):
        out = tmp_path / "sweep"
        body = (
            f"data = {market_csv}\ntarget = INDEX\n"
            f"delta_grid = 0.2, 0.5, 0.9\nwarmup = 40\nout_dir = {out}\n"
        )
        cfg = write_config(tmp_path, body)
        assert main(["sweep-sharpe", "--config", str(cfg)]) == EXIT_OK
        lines = (out / "sweep_sharpe.csv").read_text().splitlines()
        assert lines[0] == "delta,sharpe"
        assert len(lines) == 4
        assert [float(l.split(",")[0]) for l in lines[1:]] == [0.2, 0.5, 0.9]
        for line in lines[1:]:
            float(line.split(",")[1])   # parses, possibly nan

    def test_sweep_requires_grid(self, tmp_path, market_csv, capsys):
        cfg = write_config(tmp_path, base_config(market_csv, tmp_path / "o"))
        assert main(["sweep-sharpe", "--config", str(cfg)]) == EXIT_CONFIG
        assert "delta_grid: required for a sweep" in capsys.readouterr().err

    def test_special_values_match_the_per_cell_formatter(
        self, tmp_path, market_csv, monkeypatch
    ):
        deltas = list(np.roll(SPECIAL_FLOATS, 1)) + [0.5]
        sharpes = SPECIAL_FLOATS + [None]
        monkeypatch.setattr(cli_module, "_run_grid", lambda job: (
            (d, None, None, SimpleNamespace(sharpe=s)) for d, s in zip(deltas, sharpes)
        ))
        out = tmp_path / "sweep"
        body = (
            f"data = {market_csv}\ntarget = INDEX\n"
            f"delta_grid = 0.5\nwarmup = 40\nout_dir = {out}\n"
        )
        cfg = write_config(tmp_path, body)
        assert main(["sweep-sharpe", "--config", str(cfg)]) == EXIT_OK
        expected = "delta,sharpe\n" + "".join(
            f"{fmt_g17(d)},{fmt_g17(math.nan if s is None else s)}\n"
            for d, s in zip(deltas, sharpes)
        )
        assert (out / "sweep_sharpe.csv").read_bytes() == expected.encode()

    def test_sweep_reruns_identical(self, tmp_path, market_csv):
        outs = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            body = (
                f"data = {market_csv}\ntarget = INDEX\n"
                f"delta_grid = 0.3, 0.7\nwarmup = 40\nout_dir = {out}\n"
            )
            cfg = write_config(tmp_path, body, f"{name}.conf")
            assert main(["sweep-sharpe", "--config", str(cfg)]) == EXIT_OK
            outs.append((out / "sweep_sharpe.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_peak_memory_near_one_price_table(self, tmp_path):
        # 432 streams x 2,500 days: the price table is the largest array of
        # the run, and the returns are taken in the array it was parsed into.
        # Stream volatilities are scaled down so the 432-stream target keeps
        # a tradeable price.
        calm = 8 / 432
        base = MarketConfig()
        cfg = MarketConfig(
            n_streams=432, n_factors=3, steps=2500, seed=1,
            factor_vol=base.factor_vol * calm, idio_vol=base.idio_vol * calm,
        )
        table, _ = gen_market(cfg)
        nbytes = table.prices.nbytes
        data = tmp_path / "wide.csv"
        write_csv(table, data)
        del table
        out = tmp_path / "o"
        conf = write_config(
            tmp_path,
            f"data = {data}\ntarget = INDEX\nfeatures = svd:3\n"
            f"delta_grid = 0.9\nwarmup = 500\nout_dir = {out}\n",
        )
        tracemalloc.start()
        try:
            code = main(["sweep-sharpe", "--config", str(conf)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert peak < 1.35 * nbytes


class TestSimFig2Command:
    def test_writes_paths_and_summary(self, tmp_path):
        out = tmp_path / "fig2"
        code = main(
            ["sim-fig2", "--seed", "1", "--delta", "0.98", "--out-dir", str(out)]
        )
        assert code == EXIT_OK
        paths = (out / "fig2_paths.csv").read_text().splitlines()
        assert paths[0] == "t,x,y,beta_true,beta_online,beta_offline"
        assert len(paths) == 301
        summary = (out / "fig2_summary.csv").read_text().splitlines()
        assert summary[0] == "mode,segment,t_start,t_end,mse"
        modes = {line.split(",")[0] for line in summary[1:]}
        assert modes == {"online", "offline"}
        segs = [line.split(",")[1] for line in summary[1:] if line.startswith("online")]
        assert segs == ["walk", "drift", "sine", "all"]

    def test_special_values_match_the_per_cell_formatter(self, tmp_path, monkeypatch):
        T = Fig2Config().steps
        x = np.resize(SPECIAL_FLOATS, T)
        y = np.roll(x, 1)
        beta = np.zeros(T)
        smooth = np.zeros(T)
        smooth[10:20] = SPECIAL_FLOATS          # walk: a NaN MSE
        smooth[150] = 1e-160                    # drift: a subnormal MSE
        smooth[250] = 1.7976931348623157e308    # sine: an infinite MSE
        monkeypatch.setattr(cli_module, "gen_fig2", lambda cfg: (x, y, beta))
        monkeypatch.setattr(
            cli_module, "fls_smooth_batch", lambda xs, ys, smoothing: smooth[:, None]
        )
        out = tmp_path / "fig2"
        with np.errstate(all="ignore"):     # the MSE of inf and nan
            code = main(["sim-fig2", "--mode", "offline", "--out-dir", str(out)])
        assert code == EXIT_OK

        lines = ["t,x,y,beta_true,beta_offline"] + [
            ",".join([str(t + 1), *(fmt_g17(col[t]) for col in (x, y, beta, smooth))])
            for t in range(T)
        ]
        assert (out / "fig2_paths.csv").read_bytes() == ("\n".join(lines) + "\n").encode()
        summary = (out / "fig2_summary.csv").read_bytes().decode().split("\n")
        assert summary[0] == "mode,segment,t_start,t_end,mse"
        assert summary[-1] == ""
        cells = [line.split(",") for line in summary[1:-1]]
        for _, _, lo, hi, mse in cells:
            with np.errstate(all="ignore"):
                err = smooth[int(lo) - 1 : int(hi)] - beta[int(lo) - 1 : int(hi)]
                assert mse == fmt_g17(np.mean(err**2))
        mses = [float(c[4]) for c in cells]
        assert np.isnan(mses).any() and np.isinf(mses).any()
        assert any(0.0 < m < 2.2250738585072014e-308 for m in mses)   # subnormal

    def test_online_mode_only(self, tmp_path):
        out = tmp_path / "only"
        code = main(["sim-fig2", "--mode", "online", "--out-dir", str(out)])
        assert code == EXIT_OK
        head = (out / "fig2_paths.csv").read_text().splitlines()[0]
        assert head == "t,x,y,beta_true,beta_online"

    def test_smoothed_fits_no_worse_than_online_overall(self, tmp_path):
        out = tmp_path / "cmp"
        assert main(["sim-fig2", "--seed", "3", "--out-dir", str(out)]) == EXIT_OK
        rows = (out / "fig2_summary.csv").read_text().splitlines()[1:]
        mse = {
            (r.split(",")[0], r.split(",")[1]): float(r.split(",")[4]) for r in rows
        }
        assert mse[("offline", "all")] <= mse[("online", "all")]

    def test_reruns_identical(self, tmp_path):
        a, b = tmp_path / "r1", tmp_path / "r2"
        assert main(["sim-fig2", "--seed", "5", "--out-dir", str(a)]) == EXIT_OK
        assert main(["sim-fig2", "--seed", "5", "--out-dir", str(b)]) == EXIT_OK
        assert (a / "fig2_paths.csv").read_bytes() == (b / "fig2_paths.csv").read_bytes()
        assert (
            a / "fig2_summary.csv"
        ).read_bytes() == (b / "fig2_summary.csv").read_bytes()

    def test_bad_delta_is_config_error(self, tmp_path, capsys):
        code = main(["sim-fig2", "--delta", "2.0", "--out-dir", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "config error: --delta" in capsys.readouterr().err

    def test_negative_seed_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "neg"
        code = main(["sim-fig2", "--seed", "-1", "--out-dir", str(out)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == "config error: --seed: seed must be >= 0, got -1\n"
        assert not out.exists()

    def test_effective_config_written(self, tmp_path):
        out = tmp_path / "eff"
        assert main(["sim-fig2", "--seed", "7", "--out-dir", str(out)]) == EXIT_OK
        text = (out / "effective_config.txt").read_text()
        assert "seed = 7" in text and "delta = 0.98" in text


class TestImportSurface:
    """scipy and the CSV writer's tables wait for the step that needs them."""

    RUN = (
        "import sys\n"
        "from flexls.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(code, 'scipy' in sys.modules)\n"
    )

    def run_fresh(self, *argv):
        src = Path(flexls.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", self.RUN, *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        code, loaded = proc.stdout.split()[-2:]
        assert int(code) == EXIT_OK, proc.stderr
        return loaded == "True"

    def test_narrow_sweep_never_loads_scipy(self, tmp_path, market_csv):
        out = tmp_path / "sweep"
        cfg = write_config(
            tmp_path,
            f"data = {market_csv}\ntarget = INDEX\ndelta_grid = 0.5, 0.9\n"
            f"warmup = 40\nfeatures = svd:2\nout_dir = {out}\n",
        )
        assert not self.run_fresh("sweep-sharpe", "--config", str(cfg))
        assert (out / "sweep_sharpe.csv").is_file()

    def test_import_builds_no_formatter_tables(self, tmp_path):
        # The CSV writer's lookup tables cost milliseconds to build: a fresh
        # import leaves them unbuilt, and the first write builds them.
        probe = (
            "import sys\n"
            "import flexls.cli\n"
            "import flexls.util as util\n"
            "before = util._tables.cache_info().currsize\n"
            "util.write_table(sys.argv[1], ['x'], [[1.5]])\n"
            "print(before, util._tables.cache_info().currsize)\n"
        )
        src = Path(flexls.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", probe, str(tmp_path / "x.csv")],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "1"]

    def test_wide_raw_run_loads_scipy(self, tmp_path):
        p = estimator_module._DGER_MIN_P
        table, _ = gen_market(MarketConfig(seed=0, n_streams=p, steps=80))
        data = tmp_path / "wide.csv"
        write_csv(table, data)
        out = tmp_path / "raw"
        cfg = write_config(
            tmp_path,
            f"data = {data}\ntarget = INDEX\ndelta = 0.9\nwarmup = 20\n"
            f"out_dir = {out}\n",
        )
        assert self.run_fresh("backtest", "--config", str(cfg))
        head = (out / "coefficients_0.9.csv").read_text().splitlines()[0]
        assert head.count(",beta_") == p


class TestBenchmarkTraceTargets:
    """Every name the benchmark's tracer wraps must still exist.

    A name that lookup cannot find makes the tracer drop the per-layer
    metrics built from it without failing the run, so a rename or move in
    the package would go unnoticed there.
    """

    SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

    def load_spans(self, monkeypatch):
        monkeypatch.setattr(sys, "dont_write_bytecode", True)   # read-only
        spec = importlib.util.spec_from_file_location("perfbench_spans", self.SPANS)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        return spans

    def test_every_target_resolves(self, monkeypatch):
        spans = self.load_spans(monkeypatch)
        assert spans.TARGETS
        for target in spans.TARGETS:
            owner = importlib.import_module(target.module)
            if target.cls is not None:
                owner = getattr(owner, target.cls)
            assert callable(getattr(owner, target.attr, None)), target
