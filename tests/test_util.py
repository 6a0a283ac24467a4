"""Tests for the package's one home of its text formats."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import flexls
from flexls import util
from flexls.util import BLOCK_CELLS, fmt_g17, write_blocks, write_table

SRC = Path(flexls.__file__).parent


def test_only_util_spells_the_text_formats():
    # The float format and the input encoding live in util.py alone, and no
    # module cuts lines with str.splitlines(), whose breaks differ from the
    # line rule's.
    found = [
        f"{path.name}: {needle}"
        for path in sorted(SRC.glob("*.py"))
        for needle in (".17g", "utf-8-sig", ".splitlines(")
        if (path.name != "util.py" or needle == ".splitlines(")
        and needle in path.read_text(encoding="utf-8")
    ]
    assert found == []


@pytest.mark.parametrize(
    "text",
    [
        "", "a", "a\n", "a\nb", "a\r\nb\r\n", "a\rb\r", "a\r\r\nb", "\n\n\r\n\r",
        "\ufeffa\nb", "a\x0bb\x0cc\x85d\u2028e\n",
        # a \r\n split across two binary reads, and a \r ending the first
        "x" * (util._CHUNK_BYTES - 1) + "\r\nb",
        "x" * (util._CHUNK_BYTES - 1) + "\rb\n",
    ],
    ids=[
        "empty", "no-end", "lf", "lf-no-end", "crlf", "cr", "cr-crlf", "breaks-only",
        "bom", "other-breaks-are-text", "crlf-across-reads", "cr-ends-a-read",
    ],
)
def test_count_lines_counts_the_lines_open_text_reads(tmp_path, text):
    f = tmp_path / "lines.txt"
    f.write_bytes(text.encode("utf-8"))
    with util.open_text(f) as fh:
        want = len(fh.readlines())
    assert util.count_lines(f) == want


class TestWriteTable:
    def test_kinds_and_holes(self, tmp_path):
        out = tmp_path / "t.csv"
        write_table(
            out,
            ["name", "n", "x"],
            [["a", "b"], np.array([3, -(2**62)]), [np.nan, -0.0]],
            blank_nan=True,
        )
        assert out.read_bytes() == b"name,n,x\na,3,\nb,-4611686018427387904,-0\n"

    def test_header_only_table(self, tmp_path):
        out = tmp_path / "t.csv"
        write_table(out, ["a", "b"], [[], []])
        assert out.read_bytes() == b"a,b\n"

    @pytest.mark.parametrize(
        "header, columns, error",
        [
            (["a", "b"], [[1.0]], ValueError),
            (["a", "b"], [[1.0], [1.0, 2.0]], ValueError),
            (["a"], [np.ones((2, 2))], ValueError),
            (["a", "b", "c"], [np.ones((2, 2)), np.ones(3)], ValueError),
            (["a"], [np.ones((2, 1, 1))], ValueError),
            (["a"], [[True, False]], TypeError),
            (["a"], [[1 + 2j]], TypeError),
        ],
        ids=["too-few-columns", "ragged", "2-d", "2-d-ragged", "3-d", "bool", "complex"],
    )
    def test_rejects_what_it_cannot_write(self, tmp_path, header, columns, error):
        out = tmp_path / "t.csv"
        with pytest.raises(error):
            write_table(out, header, columns)
        assert not out.exists()

    @pytest.mark.parametrize(
        "text",
        [
            ["2001-01-02", "", "a b", "x" * 30],
            ["Zürich", "a", "", "日本", "\U0001f600", "naïve"],
        ],
        ids=["ascii", "not-ascii"],
    )
    def test_text_is_written_as_utf8(self, tmp_path, text):
        # ASCII text is cast from its code points, other text encoded; a
        # table whose later block holds the other kind takes both.
        out = tmp_path / "t.csv"
        column = np.array(text * 700)
        header = ["name", "n"]
        write_table(out, header, [column, np.arange(len(column))])
        assert out.read_bytes() == reference(header, [column, np.arange(len(column))])
        mixed = np.concatenate([np.array(["plain"] * BLOCK_CELLS), column])
        write_table(out, header, [mixed, np.arange(len(mixed))])
        assert out.read_bytes() == reference(header, [mixed, np.arange(len(mixed))])

    @pytest.mark.parametrize("cell", ["a\x00b", "Z\u00fc\x00rich", "\x00x"])
    def test_rejects_a_text_cell_holding_nul(self, tmp_path, cell):
        # A zero byte marks a byte the kernel drops, so a NUL would vanish.
        out = tmp_path / "t.csv"
        names = np.array(["a"] * BLOCK_CELLS + [cell])
        with pytest.raises(ValueError, match="U\\+0000"):
            write_table(out, ["name", "n"], [names, np.arange(len(names))])
        assert not out.exists()


class TestWriteBlocks:
    def test_any_split_writes_the_bytes_of_the_whole(self, tmp_path):
        rng = np.random.default_rng(3)
        n = BLOCK_CELLS + 5
        columns = [np.arange(n), rng.normal(size=n), rng.normal(size=n) * 1e300]
        header = ["t", "x", "y"]
        whole = tmp_path / "whole.csv"
        write_table(whole, header, columns)
        cuts = [0, 1, 7, BLOCK_CELLS // 3 + 1, n - 1, n]
        parts = tmp_path / "parts.csv"
        write_blocks(
            parts, header, ([c[a:b] for c in columns] for a, b in zip(cuts, cuts[1:]))
        )
        assert parts.read_bytes() == whole.read_bytes() == reference(header, columns)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_a_2d_run_writes_the_bytes_of_its_columns(self, tmp_path, offset):
        # A (rows, k) array is k neighbouring columns, however the rows are
        # cut into blocks: a table a row short of, on, and a row past a
        # block edge, NaN rows as a coefficient path's warm-up writes them,
        # and each NaN written as nan and as an empty cell.
        k = 7
        rows = 2 * util.block_rows(k + 3) + offset
        rng = np.random.default_rng(rows)
        run = rng.normal(size=(rows, k)) * 10.0 ** rng.integers(-9, 20, size=k)
        run[::5] = np.nan
        t, tail = np.arange(1, rows + 1), rng.normal(size=(2, rows))
        header = ["t", *(f"b{j}" for j in range(k)), "e", "Q"]
        by_column = [t, *run.T, *tail]
        cuts = [0, 1, util.block_rows(k + 3) + 1, rows]
        for blank_nan in (False, True):
            expected = reference(header, by_column, blank_nan)
            one, two = tmp_path / "one.csv", tmp_path / "two.csv"
            write_table(one, header, by_column, blank_nan=blank_nan)
            write_table(two, header, [t, run, *tail], blank_nan=blank_nan)
            assert one.read_bytes() == two.read_bytes() == expected
            write_blocks(
                two, header,
                ([t[a:b], run[a:b], *tail[:, a:b]] for a, b in zip(cuts, cuts[1:])),
                blank_nan=blank_nan,
            )
            assert two.read_bytes() == expected

    def test_a_bad_block_keeps_the_rows_before_it(self, tmp_path):
        out = tmp_path / "t.csv"
        with pytest.raises(ValueError):
            write_blocks(out, ["a", "b"], [[[1.5], [2.0]], [[3.0], [4.0, 5.0]]])
        assert out.read_bytes() == b"a,b\n1.5,2\n"

    def test_a_block_holding_nul_text_keeps_the_rows_before_it(self, tmp_path):
        out = tmp_path / "t.csv"
        blocks = [[["a", "b"], [1, 2]], [["c", "d\x00e"], [3, 4]], [["f"], [5]]]
        with pytest.raises(ValueError, match="U\\+0000"):
            write_blocks(out, ["name", "n"], blocks)
        assert out.read_bytes() == b"name,n\na,1\nb,2\n"


def test_one_block_holds_little_besides_its_byte_matrix():
    # One block of a p=432 coefficient path: 18 rows of an int and 434
    # floats, whose byte matrix takes 18 x 20,856 bytes.  The rest of the
    # scratch is the float arithmetic's six cell-sized arrays (together
    # one more matrix), and later the compress's condition and index: the
    # peak measured 2.13 matrices, bounded here at 2.4.  With a keep-mask
    # beside the matrix and fresh arithmetic temporaries it was 4.3.
    rows = BLOCK_CELLS // 435
    rng = np.random.default_rng(4)
    # As the coefficient writer hands it over: t, the betas, e and Q.
    t, betas = np.arange(1, rows + 1), rng.normal(size=(rows, 432))
    tail = rng.normal(size=(2, rows))
    header = [str(j) for j in range(435)]
    _, runs = util._checked(header, [t, betas, *tail])
    text = b"".join(util._format_block(runs, False))      # builds the tables
    assert text == reference(header, [t, *betas.T, *tail]).split(b"\n", 1)[1]
    matrix = rows * (24 + 434 * 48)
    tracemalloc.start()
    try:
        for part in util._format_block(runs, False):
            del part
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.4 * matrix


def reference(header, columns, blank_nan=False) -> bytes:
    """The table as a per-cell loop writes it: floats by fmt_g17, the rest by str."""
    cells = [
        ["" if blank_nan and v != v else fmt_g17(v) for v in col.tolist()]
        if col.dtype.kind == "f"
        else [str(v) for v in col.tolist()]
        for col in map(np.asarray, columns)
    ]
    lines = [",".join(header)] + [",".join(row) for row in zip(*cells)]
    return ("\n".join(lines) + "\n").encode("utf-8")


def near_ties() -> list[float]:
    """Doubles x whose x * 10**k has 17 integer digits and a fraction within
    2**-40 of one half, for k = 17..29: exact ties while 10**k is a double,
    then ties and near ties whose digits the kernel cannot settle."""
    found = []
    for k in range(17, 30):
        for q in range(k + 2, 130):
            # x = M / 2**q, so x * 10**k = M * 5**k / 2**s.
            s = q - k
            inverse = pow(5**k, -1, 2**s)
            for d in range(-3, 4):
                m = ((2 ** (s - 1) + d) * inverse) % 2**s
                m += -(-max(0, 2**52 - m) // 2**s) * 2**s
                if 2**52 <= m < 2**53 and 10**16 * 2**s <= m * 5**k < 10**17 * 2**s:
                    found.append(m / 2**q)
    return found


def adversarial_doubles(rng) -> np.ndarray:
    """Over a million doubles, heavy in the cases a 17-digit kernel can miss."""
    decades = np.array([float(f"1e{k}") for k in range(-323, 309)])
    edges = np.concatenate([decades, [1e280, 1e-280, 2.0**-1022, 2.0**-1074]])
    # A few ulps either side of each power of ten and each range edge.
    near = np.concatenate(
        [edges + 0.0, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)]
        + [np.nextafter(np.nextafter(edges, 0.0), 0.0)]
    )
    # Spellings that round up into the next decade at 17 digits.
    carries = np.array(
        [float(f"9.99999999999999{d}e{k}") for d in range(90, 100) for k in range(-300, 300)]
    )
    # Halves, quarters and eighths of integers around 2**53..2**57: true
    # 17-digit ties among them, which round to even.
    ties = rng.integers(10**15, 10**17, 200_000) + rng.choice(
        [0.0, 0.125, 0.25, 0.5, 0.75], 200_000
    )
    return np.concatenate(
        [
            rng.integers(0, 2**64, 400_000, dtype=np.uint64).view(np.float64),
            rng.uniform(1.0, 10.0, 300_000) * 10.0 ** rng.integers(-300, 300, 300_000),
            rng.normal(size=100_000) * 10.0 ** rng.integers(-6, 18, 100_000),
            near,
            carries,
            ties,
            near_ties(),
            [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324],
            [np.finfo(float).max, -np.finfo(float).max],
            [1234567890123456.75, 9.9999999999999999e-5, 0.1, 1e16, 1e17, 123456789.0],
        ]
    )


class TestBlockFormatter:
    """The byte-matrix kernel against the per-cell loop it replaced."""

    def test_every_float_matches_fmt_g17(self, tmp_path):
        rng = np.random.default_rng(15)
        x = adversarial_doubles(rng)
        assert len(x) > 1_000_000
        # Side by side in runs of float, int and text columns, so blocks hold
        # every kind and a float run starts mid-row.
        x = np.concatenate([x, np.zeros(-len(x) % 6)]).reshape(-1, 6)
        rows = len(x)
        ints = rng.integers(-(2**63), 2**63 - 1, rows, endpoint=True)
        ints[:4] = [2**63 - 1, -(2**63) + 1, -(2**63), 0]
        text = np.array(["", "a", "Zürich", "2001-01-02", "x y"])[np.arange(rows) % 5]
        header = ["t", "a", "b", "c", "n", "d", "e", "name", "f"]
        columns = [np.arange(rows), *x[:, :3].T, ints, *x[:, 3:5].T, text, x[:, 5]]
        out = tmp_path / "t.csv"
        write_table(out, header, columns)
        assert out.read_bytes() == reference(header, columns)
        # Holes: NaN as an empty cell, on a smaller sample.
        write_table(out, header, [c[:50_000] for c in columns], blank_nan=True)
        assert out.read_bytes() == reference(
            header, [c[:50_000] for c in columns], blank_nan=True
        )

    @pytest.mark.parametrize(
        "dtype, values",
        [
            (np.int64, [-(2**63), -(2**53) - 1, -(2**53), -1, 0, 1]
             + [2**53, 2**53 + 1, 2**63 - 1]),
            (np.uint64, [0, 1, 9, 10, 2**53, 2**53 + 1, 2**63, 2**64 - 1, 10**19]),
        ],
        ids=["int64", "uint64"],
    )
    def test_unsigned_ints_are_exact(self, tmp_path, dtype, values):
        # Either side of 2**53, the last int every double holds exactly.
        values = np.array(values, dtype=dtype)
        out = tmp_path / "u.csv"
        write_table(out, ["u"], [values])
        assert out.read_bytes() == reference(["u"], [values])

    def test_big_and_exact_ints_beside_a_float_column(self, tmp_path):
        # Ints beyond 2**53, which str spells, among ones a double holds,
        # in runs either side of a float run, whole and cut across a block.
        step = util.block_rows(3)
        rows = 2 * step + 5
        rng = np.random.default_rng(53)
        signed = rng.integers(-(2**54), 2**54, rows)
        signed[::3] = rng.integers(-(2**63), 2**63, len(signed[::3]), dtype=np.int64)
        signed[:6] = [-(2**63), -(2**53) - 1, -(2**53), 2**53, 2**53 + 1, 2**63 - 1]
        unsigned = rng.integers(0, 2**54, rows).astype(np.uint64)
        unsigned[1::3] = rng.integers(0, 2**64, len(unsigned[1::3]), dtype=np.uint64)
        unsigned[-3:] = [2**53, 2**53 + 1, 2**64 - 1]
        header = ["i", "x", "u"]
        columns = [signed, rng.normal(size=rows) * 1e17, unsigned]
        expected = reference(header, columns)
        out = tmp_path / "t.csv"
        write_table(out, header, columns)
        assert out.read_bytes() == expected
        cuts = [0, 7, step + 3, rows]
        write_blocks(
            out, header, ([c[a:b] for c in columns] for a, b in zip(cuts, cuts[1:]))
        )
        assert out.read_bytes() == expected

    @pytest.mark.parametrize("n_columns", [1, 3])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_block_boundaries(self, tmp_path, n_columns, offset):
        # Tables that end a row short of, on, and a row past a block edge.
        rows = BLOCK_CELLS // n_columns + offset
        rng = np.random.default_rng(rows)
        columns = list(rng.normal(size=(n_columns, rows)) * 10.0 ** rng.integers(-9, 20))
        columns[0][::7] = np.nan
        header = [f"c{j}" for j in range(n_columns)]
        for blank_nan in (False, True):
            out = tmp_path / "t.csv"
            write_table(out, header, columns, blank_nan=blank_nan)
            assert out.read_bytes() == reference(header, columns, blank_nan)
