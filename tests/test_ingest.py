"""Tests for CSV ingestion, hole repair and return computation."""

import datetime as dt
import re
import tracemalloc

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


def write_wide(f, T, n, seed):
    """A clean T x n price file of 17-digit random walks, streams S0..S{n-1}."""
    rng = np.random.default_rng(seed)
    prices = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.01, (T, n)), axis=0))
    days = [dt.date(2001, 1, 1) + dt.timedelta(days=i) for i in range(T)]
    row = "%s" + ",%.17g" * n + "\n"
    with open(f, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(["date"] + [f"S{j}" for j in range(n)]) + "\n")
        for day, vals in zip(days, prices.tolist()):
            fh.write(row % (day.isoformat(), *vals))
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

    def test_rows_are_permuted_in_place_like_fancy_indexing(self):
        rng = np.random.default_rng(4)
        for T in (1, 2, 3, 7, 40):
            for _ in range(20):
                table = rng.normal(size=(T, 3))
                order = rng.permutation(T).tolist()
                want = table[order]
                ingest._permute_rows(table, order)
                assert table.tobytes() == want.tobytes()

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

    def test_matches_a_row_by_row_reference_bitwise(self):
        rng = np.random.default_rng(3)
        days = sorted({int(d) for d in rng.integers(0, 90, 40)})
        start = dt.date(2001, 1, 1)
        table = PriceTable(
            dates=[start + dt.timedelta(days=d) for d in days],
            prices=np.exp(rng.normal(size=(len(days), 3))),
            labels=["T", "A", "B"],
        )
        # Before the first row, on rows, between rows, after the last row.
        split_days = [-1, days[5], days[5] + 1, days[20], days[-1], days[-1] + 3]
        factors = rng.uniform(0.1, 9.0, len(split_days)).tolist()
        adjustments = [
            (start + dt.timedelta(days=d), label, f)
            for d, label, f in zip(split_days, ["T", "A", "B", "A", "T", "B"], factors)
        ]
        want = table.prices.copy()
        for day, label, factor in adjustments:
            j = table.labels.index(label)
            for i, row_date in enumerate(table.dates):
                if row_date >= day:
                    break
                want[i, j] *= factor
        got = apply_split_factors(table, adjustments)
        assert got.prices.tobytes() == want.tobytes()

    def test_unknown_stream_rejected(self, tmp_path):
        table = load_csv(write(tmp_path, BASIC), target="SPX")
        with pytest.raises(DataError, match="unknown stream 'ZZZ'"):
            apply_split_factors(table, [(dt.date(2001, 1, 2), "ZZZ", 0.5)])

    def test_bad_factor_rejected(self, tmp_path):
        table = load_csv(write(tmp_path, BASIC), target="SPX")
        with pytest.raises(DataError, match="must be positive"):
            apply_split_factors(table, [(dt.date(2001, 1, 2), "AAA", 0.0)])

    def test_overflowing_factor_rejected(self, tmp_path):
        # An infinite price would pass the positivity check of the returns
        # and reach the regression as a NaN return.
        table = load_csv(write(tmp_path, BASIC), target="SPX")
        with pytest.raises(DataError, match="overflows its prices"):
            apply_split_factors(table, [(dt.date(2001, 1, 3), "AAA", 1e307)])

    @pytest.mark.parametrize(
        "bad",
        [("ZZZ", 0.5), ("BBB", -1.0), ("AAA", 1e307)],
        ids=["unknown-stream", "bad-factor", "overflow"],
    )
    def test_rejected_list_leaves_the_table_untouched(self, tmp_path, bad):
        # The first adjustment is valid; the list is rejected as a whole.
        table = load_csv(write(tmp_path, BASIC), target="SPX")
        before = table.prices.copy()
        label, factor = bad
        with pytest.raises(DataError):
            apply_split_factors(
                table,
                [(dt.date(2001, 1, 3), "AAA", 0.5), (dt.date(2001, 1, 3), label, factor)],
            )
        assert table.prices.tobytes() == before.tobytes()

    def test_split_file_round_trip(self, tmp_path):
        f = write(tmp_path, "date,stream,factor\n2001-01-03,AAA,0.5\n\n", "s.csv")
        assert load_split_file(f) == [(dt.date(2001, 1, 3), "AAA", 0.5)]

    def test_split_file_with_byte_order_mark(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_bytes(b"\xef\xbb\xbfdate,stream,factor\n2001-01-03,AAA,0.5\n")
        assert load_split_file(f) == [(dt.date(2001, 1, 3), "AAA", 0.5)]

    def test_non_utf8_split_file_is_a_data_error(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_bytes("date,stream,factor\n2001-01-03,AAA\xe9,0.5\n".encode("latin-1"))
        with pytest.raises(DataError, match="not UTF-8 text"):
            load_split_file(f)

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


class TestLoadCsvStreams:
    """The C path reads the open file, holds one table, and copies no more."""

    def test_forward_fill_shares_a_table_without_holes(self, tmp_path):
        table = load_csv(write(tmp_path, BASIC), target="SPX")
        assert forward_fill(table).prices is table.prices

    def test_forward_fill_fills_a_holed_table_in_its_own_array(self, tmp_path):
        text = BASIC.replace("2001-01-02,1410,101,51", "2001-01-02,1410,,51")
        table = load_csv(write(tmp_path, text), target="SPX", max_missing_frac=0.5)
        filled = forward_fill(table)
        assert filled.prices is table.prices
        np.testing.assert_array_equal(filled.prices[:, 1], [100.0, 100.0, 99.0])

    def test_returns_are_views_into_one_array(self, tmp_path):
        table = load_csv(write(tmp_path, BASIC), target="SPX")
        prices = table.prices.copy()     # the call writes the returns over them
        rets = to_log_returns(table)
        assert rets.target.base is rets.features.base
        assert rets.target.base is not None
        # Differencing in place gives what np.diff of the logs gives.
        expected = np.diff(np.log(prices), axis=0)
        assert rets.target.tobytes() == expected[:, 0].tobytes()
        assert rets.features.tobytes() == expected[:, 1:].copy().tobytes()

    @pytest.mark.parametrize("target", ["S0", "S7", "S19"])
    @pytest.mark.parametrize("via_loop", [False, True])
    def test_returns_are_taken_in_the_parse_buffer(
        self, tmp_path, monkeypatch, target, via_loop
    ):
        f = write_wide(tmp_path / "wide.csv", 60, 20, seed=3)
        if via_loop:
            monkeypatch.setattr(ingest, "_parse_clean", lambda *args: None)
        table = load_csv(f, target=target)
        buffer = table.prices.base
        assert buffer is not None and buffer.shape == (60, 21)
        prices = table.prices.copy()
        rets = to_log_returns(table)
        assert rets.target.base is buffer and rets.features.base is buffer
        expected = np.diff(np.log(prices), axis=0)
        assert rets.target.tobytes() == expected[:, 0].tobytes()
        assert rets.features.tobytes() == expected[:, 1:].copy().tobytes()

    def test_spent_table_has_no_rows(self, tmp_path):
        table = load_csv(write(tmp_path, BASIC), target="SPX")
        rets = to_log_returns(table)
        assert table.dates == [] and table.prices.shape == (0, 3)
        assert table.labels == ["SPX", "AAA", "BBB"]
        assert len(rets) == 2

    def test_rejected_table_is_left_whole(self, tmp_path):
        text = "date,SPX,AAA\n2001-01-01,1400,100\n2001-01-02,-3,101\n"
        table = load_csv(write(tmp_path, text), target="SPX")
        prices = table.prices.copy()
        with pytest.raises(DataError):
            to_log_returns(table)
        assert len(table.dates) == 2
        assert table.prices.tobytes() == prices.tobytes()

    @pytest.mark.parametrize(
        "char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    )
    def test_only_cr_and_lf_end_a_line(self, tmp_path, monkeypatch, char):
        # str.splitlines() would end a line at each of these; the line rule
        # does not, so inside a cell they are whitespace to both parsers.
        f = tmp_path / "odd.csv"
        f.write_bytes(
            f"date,SPX,AAA\n2001-01-01,1400{char},100\n2001-01-02,{char}1410,101\n"
            .encode("utf-8")
        )
        calls = count_loop_calls(monkeypatch)
        fast = load_csv(f, target="SPX")
        monkeypatch.setattr(ingest, "_parse_clean", lambda *args: None)
        slow = load_csv(f, target="SPX")
        assert len(calls) == 1
        want = np.array([[1400.0, 100.0], [1410.0, 101.0]])
        assert fast.prices.tobytes() == slow.prices.tobytes() == want.tobytes()
        assert fast.dates == slow.dates

    @pytest.mark.parametrize("brk", ["\r", "\r\n"])
    @pytest.mark.parametrize("via_loop", [False, True])
    def test_cr_file_loads_as_its_lf_twin(self, tmp_path, monkeypatch, brk, via_loop):
        text = BASIC.replace(",101,", ",,") if via_loop else BASIC
        lf = tmp_path / "lf.csv"
        lf.write_bytes(text.encode("utf-8"))
        cr = tmp_path / "cr.csv"
        cr.write_bytes(text.replace("\n", brk).encode("utf-8"))
        calls = count_loop_calls(monkeypatch)
        want = load_csv(lf, target="AAA", max_missing_frac=0.5)
        got = load_csv(cr, target="AAA", max_missing_frac=0.5)
        assert len(calls) == (2 if via_loop else 0)
        assert got.labels == want.labels
        assert got.dates == want.dates
        assert got.prices.tobytes() == want.prices.tobytes()

    def test_non_utf8_file_is_a_data_error(self, tmp_path):
        f = tmp_path / "latin1.csv"
        f.write_bytes("date,SPX\n2001-01-01,1400\xe9\n".encode("latin-1"))
        with pytest.raises(DataError, match="not UTF-8 text"):
            load_csv(f, target="SPX")

    @pytest.mark.parametrize("via_loop", [False, True])
    def test_byte_order_mark_is_skipped(self, tmp_path, monkeypatch, via_loop):
        text = BASIC.replace(",101,", ",,") if via_loop else BASIC
        plain = tmp_path / "plain.csv"
        plain.write_bytes(text.encode("utf-8"))
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        calls = count_loop_calls(monkeypatch)
        want = load_csv(plain, target="AAA", max_missing_frac=0.5)
        got = load_csv(marked, target="AAA", max_missing_frac=0.5)
        assert len(calls) == (2 if via_loop else 0)
        assert got.labels == want.labels == ["AAA", "SPX", "BBB"]
        assert got.dates == want.dates
        assert got.prices.tobytes() == want.prices.tobytes()

    def test_non_ascii_labels_load(self, tmp_path):
        f = tmp_path / "labels.csv"
        f.write_bytes("date,Zürich,Ōsaka\n2001-01-01,1,2\n".encode("utf-8"))
        table = load_csv(f, target="Ōsaka")
        assert table.labels == ["Ōsaka", "Zürich"]

    def test_ingest_peak_memory_near_one_table(self, tmp_path):
        # A clean 2,500 x 433 file of 17-digit prices is about 20 MB of text;
        # the chain holds the array the parser fills and small temporaries,
        # never the text and never a second table, even with the target
        # moved to the front.
        T, n = 2500, 433
        f = write_wide(tmp_path / "wide.csv", T, n, seed=9)
        tracemalloc.start()
        try:
            table = load_csv(f, target="S7")
            nbytes = table.prices.nbytes    # before the returns consume it
            returns = to_log_returns(forward_fill(table))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert returns.features.shape == (T - 1, n - 1)
        assert peak < 1.35 * nbytes

    @pytest.mark.parametrize("repair", ["holes", "split"])
    def test_repairs_and_returns_work_in_the_loaded_table(self, tmp_path, repair):
        # Filling one hole visits its row alone, a split copies the one
        # column it scales, and the returns reuse the array: after the load,
        # the chain adds small temporaries to the table, never a second one.
        T, n = 2500, 433
        f = write_wide(tmp_path / "wide.csv", T, n, seed=9)
        if repair == "holes":
            lines = f.read_text(encoding="utf-8").split("\n")
            cells = lines[T // 2].split(",")
            cells[6] = ""                  # a hole in S5
            lines[T // 2] = ",".join(cells)
            f.write_text("\n".join(lines), encoding="utf-8")
        tracemalloc.start()
        try:
            table = load_csv(f, target="S7")
            nbytes = table.prices.nbytes
            tracemalloc.reset_peak()
            if repair == "split":
                table = apply_split_factors(table, [(table.dates[T // 2], "S5", 0.5)])
            returns = to_log_returns(forward_fill(table))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(returns.features).all()
        assert peak < 1.2 * nbytes

    def test_out_of_order_dates_are_sorted_in_place(self, tmp_path):
        # Two rows swapped: the load moves them within the parse buffer, so
        # the chain stays within the clean file's bound.
        T, n = 2500, 433
        f = write_wide(tmp_path / "wide.csv", T, n, seed=9)
        lines = f.read_text(encoding="utf-8").split("\n")
        lines[1], lines[2] = lines[2], lines[1]
        f.write_text("\n".join(lines), encoding="utf-8")
        tracemalloc.start()
        try:
            table = load_csv(f, target="S7")
            nbytes = table.prices.nbytes
            returns = to_log_returns(forward_fill(table))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert returns.dates == sorted(returns.dates)
        assert peak < 1.35 * nbytes

    def test_cell_by_cell_peak_memory_below_four_tables(self, tmp_path):
        # One empty cell sends the file down the cell-by-cell path, which
        # holds the file's lines once (about 2.3 tables of 17-digit prices,
        # never the whole text as well) but never a Python float per cell.
        rng = np.random.default_rng(11)
        T, n = 500, 433
        prices = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.01, (T, n)), axis=0))
        days = [dt.date(2001, 1, 1) + dt.timedelta(days=i) for i in range(T)]
        f = tmp_path / "holed.csv"
        row = "%s" + ",%.17g" * n + "\n"
        with open(f, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(["date"] + [f"S{j}" for j in range(n)]) + "\n")
            for i, (day, vals) in enumerate(zip(days, prices.tolist())):
                line = row % (day.isoformat(), *vals)
                if i == T // 2:
                    cells = line.split(",")
                    cells[6] = ""                  # a hole in S5
                    line = ",".join(cells)
                fh.write(line)
        tracemalloc.start()
        try:
            table = load_csv(f, target="S7")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isnan(table.prices).sum() == 1
        assert peak < 4.0 * table.prices.nbytes


# The corruption menu of the differential fuzz test: each entry edits the
# rows (lists of cells, first cell the date) of a clean file in place.
def _price_cells(rng, rows):
    """A random row holding at least one price cell, or a throwaway list."""
    full = [r for r in rows if len(r) > 1]
    return full[rng.integers(len(full))] if full else [None, None]


def _hole(rng, rows):
    r = _price_cells(rng, rows)
    r[rng.integers(1, len(r))] = str(rng.choice(["", " ", "\t"]))


def _bad_cell(rng, rows):
    r = _price_cells(rng, rows)
    r[rng.integers(1, len(r))] = str(rng.choice(
        ["inf", "-inf", "1e999", "-1e999", "1_0", "1#2", "#", '"1.5"', "'2'",
         "nan", " 3.5 ", "+4", "0x10", "1e-320", "abc", "1,5", "٣"]
    ))


def _ragged(rng, rows):
    r = _price_cells(rng, rows)
    if rng.random() < 0.5 and len(r) > 1:
        r.pop()
    else:
        r.append(str(rng.choice(["", "7"])))


def _bad_date(rng, rows):
    r = _price_cells(rng, rows)
    r[0] = str(rng.choice(["2001-13-01", "01/02/2001", "", "20010105",
                           " 2001-01-09 ", "2001-02-30", "x"]))


def _duplicate_date(rng, rows):
    if len(rows) > 1:
        i, j = rng.choice(len(rows), size=2, replace=False)
        rows[i][0] = rows[j][0]


def _unsorted(rng, rows):
    order = rng.permutation(len(rows))
    rows[:] = [rows[i] for i in order]


def _blank_or_comment_line(rng, rows):
    rows.insert(int(rng.integers(len(rows) + 1)),
                [str(rng.choice(["", "   ", "\t", "# note", "\x0c", " , "]))])


def _no_rows(rng, rows):
    rows[:] = [[""] for _ in range(rng.integers(3))]


_CORRUPTIONS = (
    _hole, _bad_cell, _ragged, _bad_date, _duplicate_date, _unsorted,
    _blank_or_comment_line, _no_rows,
)
_BREAKS = ("\n", "\r\n", "\r", "\x0c", "\x0b", "\x85", "\u2028")


def fuzz_csv(rng) -> tuple[str, str, float]:
    """A small price CSV, often corrupted: ``(text, target, max_missing)``."""
    n = int(rng.integers(1, 4))
    labels = [f"S{j}" for j in range(n)]
    T = int(rng.integers(1, 6))
    start = dt.date(2001, 1, 1) + dt.timedelta(days=int(rng.integers(0, 40)))
    rows = [
        [(start + dt.timedelta(days=i)).isoformat()]
        + [repr(float(v)) for v in rng.lognormal(3.0, 1.0, size=n)]
        for i in range(T)
    ]
    for _ in range(int(rng.integers(0, 4))):
        _CORRUPTIONS[rng.integers(len(_CORRUPTIONS))](rng, rows)
    lines = [",".join(["date", *labels])] + [",".join(r) for r in rows]
    # Mostly \n; now and then another break, between lines or inside one.
    breaks = ["\n" if rng.random() < 0.8 else str(rng.choice(_BREAKS))
              for _ in lines]
    text = "".join(line + brk for line, brk in zip(lines, breaks))
    if rng.random() < 0.1:
        at = int(rng.integers(len(text) + 1))
        text = text[:at] + str(rng.choice(_BREAKS)) + text[at:]
    if rng.random() < 0.2:
        text = text.rstrip("\n")
    target = labels[rng.integers(n)] if rng.random() < 0.95 else "NOPE"
    return text, target, float(rng.choice([0.0, 0.5, 1.0]))


def load_outcome(path, target, max_missing):
    """What a load gives: the table, bit for bit and stride for stride, or the error."""
    try:
        table = load_csv(path, target=target, max_missing_frac=max_missing)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return type(exc).__name__, str(exc)
    return table.dates, table.labels, table.prices.tobytes(), table.prices.strides


class TestLoadCsvFuzz:
    def test_c_path_matches_cell_by_cell_path(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(20070101)
        cases = [fuzz_csv(rng) for _ in range(2000)]
        f = tmp_path / "fuzz.csv"
        parse_clean = ingest._parse_clean
        clean = []

        def counted(*args):
            parsed = parse_clean(*args)
            clean.append(parsed is not None)
            return parsed

        def fast(text, target, max_missing):
            monkeypatch.setattr(ingest, "_parse_clean", counted)
            f.write_bytes(text.encode("utf-8"))
            return load_outcome(f, target, max_missing)

        def slow(text, target, max_missing):
            monkeypatch.setattr(ingest, "_parse_clean", lambda *args: None)
            f.write_bytes(text.encode("utf-8"))
            return load_outcome(f, target, max_missing)

        for case in cases:
            assert fast(*case) == slow(*case), case
        # Both paths must have run often for the comparison to mean much.
        assert 0.1 < sum(clean) / len(cases) < 0.9
