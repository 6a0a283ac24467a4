"""Tests for the package's one home of its text formats."""

from pathlib import Path

import numpy as np
import pytest

import flexls
from flexls.util import write_table

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
