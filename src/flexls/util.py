"""Small shared helpers for text output."""

from __future__ import annotations


def fmt_g17(value: float) -> str:
    """Format a float with 17 significant digits.

    17 digits round-trip any IEEE double, so files written with this
    formatter are byte-stable across runs and lossless to re-read.
    """
    return format(float(value), ".17g")


def write_rows(path, header: list[str], rows) -> None:
    """Write a comma-separated table with a fixed newline convention.

    ``rows`` yields sequences of already-formatted strings.  No quoting is
    performed; callers must not emit fields containing commas.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")
