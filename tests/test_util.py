"""Tests for the package's one home of its text formats."""

from pathlib import Path

import numpy as np
import pytest

import flexls
from flexls.util import BLOCK_CELLS, fmt_g17, write_table

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
            (["a"], [[True, False]], TypeError),
            (["a"], [[1 + 2j]], TypeError),
        ],
        ids=["too-few-columns", "ragged", "2-d", "bool", "complex"],
    )
    def test_rejects_what_it_cannot_write(self, tmp_path, header, columns, error):
        out = tmp_path / "t.csv"
        with pytest.raises(error):
            write_table(out, header, columns)
        assert not out.exists()


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

    def test_unsigned_ints_are_exact(self, tmp_path):
        values = np.array([0, 1, 9, 10, 2**63, 2**64 - 1, 10**19], dtype=np.uint64)
        out = tmp_path / "u.csv"
        write_table(out, ["u"], [values])
        assert out.read_bytes() == reference(["u"], [values])

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
