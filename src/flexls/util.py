"""The package's text formats: one line rule in, one table writer out.

:func:`open_text` opens every file flexls reads: UTF-8, a leading
byte-order mark skipped, and a line ends at ``\\n``, ``\\r`` or ``\\r\\n``
(universal newlines), which all reach the reader as ``\\n``.
:func:`write_table` writes every CSV: UTF-8, ``\\n`` line ends, a header
row, and floats with 17 significant digits, which round-trip any double,
so reruns are byte-identical and a re-read is lossless.
"""

from __future__ import annotations

import numpy as np

# Rows turned into Python objects and text at a time: at 435 columns (a
# p=432 coefficient path) one block holds under 1 MB of them.
BLOCK_ROWS = 64

# Cell template per numpy dtype kind: int, unsigned int, float, text.
_CELLS = {"i": "%d", "u": "%d", "f": "%.17g", "U": "%s"}


def open_text(path):
    """Open ``path`` for reading under the line rule above."""
    return open(path, encoding="utf-8-sig")


def fmt_g17(value: float) -> str:
    """One float as :func:`write_table` writes it."""
    return format(float(value), ".17g")


def write_table(path, header: list[str], columns, blank_nan: bool = False) -> None:
    """Write ``columns``, one per ``header`` cell and all of one length.

    A column's numpy dtype says how its cells are written: ints in decimal,
    floats by :func:`fmt_g17` (NaN as ``nan``, or with ``blank_nan`` as an
    empty cell, the hole of a price file), text as given and unquoted.
    Rows are formatted ``BLOCK_ROWS`` at a time, so the Python objects
    held at once stay few however long the table is.
    """
    columns = [np.asarray(col) for col in columns]
    n = len(columns[0]) if columns else 0
    if len(columns) != len(header) or any(c.ndim != 1 or len(c) != n for c in columns):
        raise ValueError(f"need {len(header)} 1-d columns of one length")
    kinds = [c.dtype.kind for c in columns]
    if not set(kinds) <= set(_CELLS):
        raise TypeError(f"columns must hold ints, floats or text, got kinds {kinds}")
    blanks = [j for j, kind in enumerate(kinds) if blank_nan and kind == "f"]
    cells = ["%s" if j in blanks else _CELLS[kind] for j, kind in enumerate(kinds)]
    row_fmt = ",".join(cells) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, n, BLOCK_ROWS):
            block = [col[start : start + BLOCK_ROWS].tolist() for col in columns]
            for j in blanks:
                block[j] = ["" if v != v else fmt_g17(v) for v in block[j]]
            fh.writelines(row_fmt % row for row in zip(*block))
