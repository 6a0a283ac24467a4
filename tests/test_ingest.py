"""Tests for CSV ingestion, hole repair and return computation."""

import datetime as dt
import re

import numpy as np
import pytest

from flexls import ingest
from flexls.ingest import (
    DataError,
    PriceTable,
    apply_split_factors,
    forward_fill,
    load_csv,
    load_split_file,
    to_log_returns,
    write_csv,
)


def write(tmp_path, text, name="prices.csv"):
    f = tmp_path / name
    f.write_text(text)
    return f


BASIC = """date,SPX,AAA,BBB
2001-01-01,1400,100,50
2001-01-02,1410,101,51
2001-01-03,1405,99,52
"""


class TestLoadCsv:
    def test_loads_and_reorders_target_first(self, tmp_path):
        table = load_csv(write(tmp_path, BASIC), target="SPX")
        assert table.labels == ["SPX", "AAA", "BBB"]
        assert table.n_streams == 2
        assert table.dates[0] == dt.date(2001, 1, 1)
        np.testing.assert_array_equal(table.prices[0], [1400.0, 100.0, 50.0])

    def test_target_in_middle_moves_to_front(self, tmp_path):
        table = load_csv(write(tmp_path, BASIC), target="AAA")
        assert table.labels == ["AAA", "SPX", "BBB"]
        np.testing.assert_array_equal(table.prices[1], [101.0, 1410.0, 51.0])

    def test_unsorted_rows_are_sorted_by_date(self, tmp_path):
        text = (
            "date,SPX,AAA\n"
            "2001-01-03,1405,99\n"
            "2001-01-01,1400,100\n"
            "2001-01-02,1410,101\n"
        )
        table = load_csv(write(tmp_path, text), target="SPX")
        assert [d.day for d in table.dates] == [1, 2, 3]
        assert table.prices[0, 0] == 1400.0

    def test_empty_cells_become_holes(self, tmp_path):
        text = "date,SPX,AAA\n2001-01-01,1400,100\n2001-01-02,,101\n"
        table = load_csv(write(tmp_path, text), target="SPX", max_missing_frac=0.5)
        assert table.has_holes()
        assert np.isnan(table.prices[1, 0])

    def test_blank_lines_skipped(self, tmp_path):
        text = "date,SPX,AAA\n2001-01-01,1400,100\n\n2001-01-02,1410,101\n"
        table = load_csv(write(tmp_path, text), target="SPX")
        assert len(table.dates) == 2

    def test_duplicate_date_rejected_with_line_info(self, tmp_path):
        text = "date,SPX\n2001-01-01,1400\n2001-01-01,1401\n"
        with pytest.raises(DataError, match="duplicate date 2001-01-01"):
            load_csv(write(tmp_path, text), target="SPX")

    def test_bad_price_names_line_and_stream(self, tmp_path):
        text = "date,SPX,AAA\n2001-01-01,1400,abc\n"
        with pytest.raises(DataError, match=r"line 2: bad price 'abc' for AAA"):
            load_csv(write(tmp_path, text), target="SPX")

    def test_bad_date_names_line(self, tmp_path):
        text = "date,SPX\n01/02/2001,1400\n"
        with pytest.raises(DataError, match="line 2: bad date"):
            load_csv(write(tmp_path, text), target="SPX")

    def test_ragged_row_rejected(self, tmp_path):
        text = "date,SPX,AAA\n2001-01-01,1400\n"
        with pytest.raises(DataError, match="expected 3 fields, got 2"):
            load_csv(write(tmp_path, text), target="SPX")

    def test_missing_target_rejected(self, tmp_path):
        with pytest.raises(DataError, match="target column 'NOPE'"):
            load_csv(write(tmp_path, BASIC), target="NOPE")

    def test_bad_header_rejected(self, tmp_path):
        with pytest.raises(DataError, match="header"):
            load_csv(write(tmp_path, "time,SPX\n2001-01-01,1\n"), target="SPX")

    def test_duplicate_labels_rejected(self, tmp_path):
        with pytest.raises(DataError, match="duplicate stream labels"):
            load_csv(write(tmp_path, "date,SPX,SPX\n2001-01-01,1,2\n"), target="SPX")

    def test_empty_and_headers_only_rejected(self, tmp_path):
        with pytest.raises(DataError, match="empty file"):
            load_csv(write(tmp_path, ""), target="SPX")
        with pytest.raises(DataError, match="no data rows"):
            load_csv(write(tmp_path, "date,SPX\n"), target="SPX")
        with pytest.raises(DataError, match="no data rows"):
            load_csv(write(tmp_path, "date,SPX\n\n  \n"), target="SPX")

    def test_infinite_price_rejected(self, tmp_path):
        text = "date,SPX\n2001-01-01,inf\n"
        with pytest.raises(DataError, match="non-finite price"):
            load_csv(write(tmp_path, text), target="SPX")

    def test_hole_fraction_limit(self, tmp_path):
        text = (
            "date,SPX,AAA\n"
            "2001-01-01,1400,100\n"
            "2001-01-02,1410,\n"
            "2001-01-03,1405,\n"
            "2001-01-04,1402,\n"
        )
        f = write(tmp_path, text)
        with pytest.raises(DataError, match="AAA is 75.0% holes"):
            load_csv(f, target="SPX")
        table = load_csv(f, target="SPX", max_missing_frac=0.8)
        assert table.has_holes()


def count_loop_calls(monkeypatch):
    """Wrap the cell-by-cell parser; the list grows by one per call."""
    calls = []
    loop = ingest._parse_rows

    def counted(*args):
        calls.append(args)
        return loop(*args)

    monkeypatch.setattr(ingest, "_parse_rows", counted)
    return calls


class TestCleanFilesParseInC:
    """Clean files skip the cell loop and parse to exactly its values."""

    def test_clean_file_is_not_parsed_cell_by_cell(self, tmp_path, monkeypatch):
        def loop(*args):
            raise AssertionError("cell-by-cell parser ran on a clean file")

        monkeypatch.setattr(ingest, "_parse_rows", loop)
        table = load_csv(write(tmp_path, BASIC), target="AAA")
        assert table.labels == ["AAA", "SPX", "BBB"]
        assert [d.day for d in table.dates] == [1, 2, 3]
        np.testing.assert_array_equal(
            table.prices, [[100, 1400, 50], [101, 1410, 51], [99, 1405, 52]]
        )

    def test_one_blank_cell_leaves_every_other_cell_bitwise_equal(
        self, tmp_path, monkeypatch
    ):
        # Decimal strings of 17 to 25 significant digits: each one needs
        # correct rounding to land on the double float() gives.
        rng = np.random.default_rng(42)
        T, n = 40, 4
        cells = [
            [
                f"{rng.integers(1, 10**9)}.{rng.integers(0, 10**16):016d}"
                f"e{rng.integers(-12, 12)}"
                for _ in range(n)
            ]
            for _ in range(T)
        ]
        days = [dt.date(2001, 1, 1) + dt.timedelta(days=i) for i in range(T)]
        labels = ["T"] + [f"S{j}" for j in range(1, n)]

        def text(rows):
            body = (",".join([d.isoformat(), *r]) for d, r in zip(days, rows))
            return "\n".join(["date," + ",".join(labels), *body]) + "\n"

        calls = count_loop_calls(monkeypatch)
        clean = load_csv(write(tmp_path, text(cells), "clean.csv"), target="T")
        assert calls == []
        expected = np.array([[float(c) for c in r] for r in cells])
        assert clean.prices.tobytes() == expected.tobytes()

        holed_cells = [list(r) for r in cells]
        holed_cells[17][2] = ""
        holed = load_csv(write(tmp_path, text(holed_cells), "holed.csv"), target="T")
        assert len(calls) == 1
        mask = np.ones((T, n), dtype=bool)
        mask[17, 2] = False
        assert np.isnan(holed.prices[17, 2])
        assert holed.prices[mask].tobytes() == clean.prices[mask].tobytes()

    @pytest.mark.parametrize(
        "cell, via_loop",
        [
            (" 1.5 ", False),
            ("+3", False),
            ("-0.0", False),
            ("1e-320", False),
            ("1.7976931348623157e308", False),
            ("nan", False),
            ("1_0", True),
        ],
    )
    def test_odd_valid_cells_parse_as_float_does(
        self, tmp_path, monkeypatch, cell, via_loop
    ):
        calls = count_loop_calls(monkeypatch)
        text = f"date,SPX,AAA\n2001-01-01,{cell},7\n2001-01-02,1410,8\n"
        table = load_csv(write(tmp_path, text), target="SPX", max_missing_frac=0.5)
        assert len(calls) == int(via_loop)
        got = table.prices[0, 0]
        assert np.float64(got).tobytes() == np.float64(float(cell)).tobytes()

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "date,SPX,AAA\n2001-01-01,1400,100\n2001-01-02,1410,101,7\n",
                "line 3: expected 3 fields, got 4",
            ),
            (
                "date,SPX\n2001-01-01,1400\n2001-01-02\n",
                "line 3: expected 2 fields, got 1",
            ),
            (
                "date,SPX,AAA\n2001-01-01,1400,100\n2001-01-02,1e999,101\n",
                "line 3: non-finite price for SPX",
            ),
            (
                "date,SPX,AAA\n2001-01-01,1400,100\n2001-13-02,1410,101\n",
                "line 3: bad date '2001-13-02'",
            ),
            (
                "date,SPX,AAA\n2001-01-01,1400,100#7\n",
                "line 2: bad price '100#7' for AAA",
            ),
            (
                "date,SPX,AAA\n2001-01-01,inf,100\n2001-01-02,1410,abc\n",
                "line 2: non-finite price for SPX",
            ),
        ],
        ids=[
            "extra-field", "date-only-row", "overflow", "bad-date", "comment-char",
            "first-error",
        ],
    )
    def test_cell_errors_keep_their_messages(self, tmp_path, text, message):
        f = write(tmp_path, text)
        with pytest.raises(DataError, match=re.escape(f"{f}: {message}") + "$"):
            load_csv(f, target="SPX")


class TestPriceTable:
    def test_validation(self):
        dates = [dt.date(2001, 1, 1), dt.date(2001, 1, 2)]
        with pytest.raises(DataError, match="dates not strictly increasing"):
            PriceTable(dates=dates[::-1], prices=np.ones((2, 1)), labels=["A"])
        with pytest.raises(DataError, match="duplicate"):
            PriceTable(dates=dates, prices=np.ones((2, 2)), labels=["A", "A"])
        with pytest.raises(DataError, match="labels"):
            PriceTable(dates=dates, prices=np.ones((2, 2)), labels=["A"])


class TestForwardFill:
    def test_fills_from_last_seen_price(self, tmp_path):
        text = (
            "date,SPX,AAA\n"
            "2001-01-01,1400,100\n"
            "2001-01-02,,101\n"
            "2001-01-03,1405,\n"
        )
        loaded = load_csv(write(tmp_path, text), target="SPX", max_missing_frac=0.5)
        table = forward_fill(loaded)
        np.testing.assert_array_equal(table.prices[1], [1400.0, 101.0])
        np.testing.assert_array_equal(table.prices[2], [1405.0, 101.0])
        assert not table.has_holes()

    def test_consecutive_holes(self, tmp_path):
        text = (
            "date,SPX\n2001-01-01,10\n2001-01-02,\n2001-01-03,\n2001-01-04,11\n"
        )
        loaded = load_csv(write(tmp_path, text), target="SPX", max_missing_frac=0.5)
        table = forward_fill(loaded)
        np.testing.assert_array_equal(table.prices[:, 0], [10.0, 10.0, 10.0, 11.0])

    def test_hole_on_first_row_rejected(self, tmp_path):
        text = "date,SPX,AAA\n2001-01-01,,100\n2001-01-02,1410,101\n"
        table = load_csv(write(tmp_path, text), target="SPX", max_missing_frac=0.5)
        with pytest.raises(DataError, match="SPX has no price on the first row"):
            forward_fill(table)

    def test_idempotent(self, tmp_path):
        table = forward_fill(load_csv(write(tmp_path, BASIC), target="SPX"))
        again = forward_fill(table)
        np.testing.assert_array_equal(table.prices, again.prices)


class TestToLogReturns:
    @pytest.mark.parametrize(
        "text",
        [BASIC, BASIC.replace("2001-01-02,1410,101,51", "2001-01-02,1410,,51")],
        ids=["clean", "holes"],
    )
    def test_regressor_rows_are_contiguous(self, tmp_path, text):
        # The filter reads each features row as its regressor vector; a
        # strided row would be copied on every update and rounds differently.
        loaded = load_csv(write(tmp_path, text), target="AAA", max_missing_frac=0.5)
        returns = to_log_returns(forward_fill(loaded))
        assert returns.features.shape == (2, 2)
        assert returns.features.strides[1] == returns.features.itemsize

    def test_computes_log_price_differences(self, tmp_path):
        table = load_csv(write(tmp_path, BASIC), target="SPX")
        rets = to_log_returns(table)
        assert len(rets) == 2
        assert rets.target_label == "SPX"
        assert rets.feature_labels == ["AAA", "BBB"]
        assert rets.dates == [dt.date(2001, 1, 2), dt.date(2001, 1, 3)]
        assert rets.target[0] == pytest.approx(np.log(1410.0 / 1400.0))
        assert rets.features[1, 1] == pytest.approx(np.log(52.0 / 51.0))

    def test_hole_rejected_with_stream_and_date(self, tmp_path):
        text = "date,SPX,AAA\n2001-01-01,1400,100\n2001-01-02,1410,\n"
        table = load_csv(write(tmp_path, text), target="SPX", max_missing_frac=0.5)
        with pytest.raises(DataError, match="missing price for stream AAA on 2001-01-02"):
            to_log_returns(table)

    def test_nonpositive_price_rejected(self, tmp_path):
        text = "date,SPX,AAA\n2001-01-01,1400,100\n2001-01-02,-3,101\n"
        table = load_csv(write(tmp_path, text), target="SPX")
        with pytest.raises(DataError, match=r"non-positive \(-3\) price for stream SPX"):
            to_log_returns(table)


class TestSplits:
    def test_back_adjusts_rows_before_split_date(self, tmp_path):
        table = load_csv(write(tmp_path, BASIC), target="SPX")
        adjusted = apply_split_factors(table, [(dt.date(2001, 1, 3), "AAA", 0.5)])
        np.testing.assert_array_equal(adjusted.prices[:, 1], [50.0, 50.5, 99.0])
        # other streams untouched
        np.testing.assert_array_equal(adjusted.prices[:, 0], table.prices[:, 0])

    def test_unknown_stream_rejected(self, tmp_path):
        table = load_csv(write(tmp_path, BASIC), target="SPX")
        with pytest.raises(DataError, match="unknown stream 'ZZZ'"):
            apply_split_factors(table, [(dt.date(2001, 1, 2), "ZZZ", 0.5)])

    def test_bad_factor_rejected(self, tmp_path):
        table = load_csv(write(tmp_path, BASIC), target="SPX")
        with pytest.raises(DataError, match="must be positive"):
            apply_split_factors(table, [(dt.date(2001, 1, 2), "AAA", 0.0)])

    def test_split_file_round_trip(self, tmp_path):
        f = write(tmp_path, "date,stream,factor\n2001-01-03,AAA,0.5\n\n", "s.csv")
        assert load_split_file(f) == [(dt.date(2001, 1, 3), "AAA", 0.5)]

    def test_split_file_errors(self, tmp_path):
        with pytest.raises(DataError, match="header"):
            load_split_file(write(tmp_path, "a,b,c\n", "s1.csv"))
        with pytest.raises(DataError, match="line 2: bad factor"):
            load_split_file(
                write(tmp_path, "date,stream,factor\n2001-01-03,AAA,x\n", "s2.csv")
            )
        with pytest.raises(DataError, match="line 2: bad date"):
            load_split_file(
                write(tmp_path, "date,stream,factor\nnope,AAA,0.5\n", "s3.csv")
            )


class TestWriteCsv:
    def test_round_trip_is_lossless(self, tmp_path):
        rng = np.random.default_rng(31)
        dates = [dt.date(2001, 1, 1) + dt.timedelta(days=i) for i in range(5)]
        prices = np.exp(rng.normal(size=(5, 3)))
        prices[2, 1] = np.nan
        table = PriceTable(dates=dates, prices=prices, labels=["T", "A", "B"])
        out = tmp_path / "round.csv"
        write_csv(table, out)
        back = load_csv(out, target="T", max_missing_frac=0.5)
        assert back.labels == table.labels
        assert back.dates == table.dates
        np.testing.assert_array_equal(
            np.isnan(back.prices), np.isnan(table.prices)
        )
        mask = ~np.isnan(prices)
        assert np.array_equal(back.prices[mask], table.prices[mask])
