"""End-to-end tests of the command-line interface.

Each test drives ``main`` with real files in a temp directory and checks
exit codes, outputs on disk, and the promise that failing runs leave
nothing behind.
"""

import numpy as np
import pytest

from flexls.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_OK,
    ConfigError,
    build_job,
    main,
    parse_config_text,
)
from flexls.eigentrack import EigenTracker
from flexls.ingest import write_csv
from flexls.synth import MarketConfig, gen_market


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
        out = tmp_path / "rt"
        cfg = write_config(
            tmp_path, base_config(market_csv, out, "features = svd\nk = 3\n")
        )
        assert main(["backtest", "--config", str(cfg)]) == EXIT_OK

        class Args:
            delta = None
            features = None
            out_dir = None

        text = (out / "effective_config.txt").read_text()
        job = build_job(parse_config_text(text), Args(), need_grid=False)
        assert job.effective_text() == text

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

    def test_too_many_factor_scores_is_config_error(
        self, tmp_path, market_csv, capsys
    ):
        out = tmp_path / "o"
        cfg = write_config(
            tmp_path, base_config(market_csv, out, "features = svd\nk = 99\n")
        )
        self.run_expecting(
            EXIT_CONFIG,
            ["backtest", "--config", str(cfg)],
            capsys,
            "k=99 factor scores from 8 explanatory streams",
        )
        assert not out.exists()

    def test_unreadable_config_is_config_error(self, tmp_path, capsys):
        self.run_expecting(
            EXIT_CONFIG,
            ["backtest", "--config", str(tmp_path / "missing.conf")],
            capsys,
            "cannot read",
        )

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

    def test_effective_config_written(self, tmp_path):
        out = tmp_path / "eff"
        assert main(["sim-fig2", "--seed", "7", "--out-dir", str(out)]) == EXIT_OK
        text = (out / "effective_config.txt").read_text()
        assert "seed = 7" in text and "delta = 0.98" in text
