"""Price-table ingestion and conversion to log returns.

The on-disk format is one CSV per dataset: a ``date`` column (ISO format,
strictly increasing after load) followed by one price column per stream.
Empty cells are holes; ``forward_fill`` repairs them from the last seen
price.  ``to_log_returns`` turns a clean table into the regression inputs:
the target stream's log returns and a feature matrix of the others.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.typing import NDArray

from .util import fmt_g17, write_rows


class DataError(ValueError):
    """Malformed or inconsistent input data."""


@dataclass
class PriceTable:
    """Aligned daily prices, target stream first.

    ``prices`` is (T, 1 + n_streams); column 0 is the target.  NaN entries
    mark holes.  Dates are strictly increasing and labels are unique, with
    ``labels[0]`` naming the target.
    """

    dates: list[dt.date]
    prices: NDArray[np.float64]
    labels: list[str]

    def __post_init__(self) -> None:
        self.prices = np.asarray(self.prices, dtype=float)
        if self.prices.ndim != 2:
            raise DataError("prices must be a 2-d array")
        if len(self.dates) != self.prices.shape[0]:
            raise DataError(
                f"{len(self.dates)} dates but {self.prices.shape[0]} price rows"
            )
        if len(self.labels) != self.prices.shape[1]:
            raise DataError(
                f"{len(self.labels)} labels but {self.prices.shape[1]} price columns"
            )
        if len(set(self.labels)) != len(self.labels):
            raise DataError("duplicate stream labels")
        for a, b in zip(self.dates, self.dates[1:]):
            if a >= b:
                raise DataError(f"dates not strictly increasing at {b}")

    @property
    def n_streams(self) -> int:
        return self.prices.shape[1] - 1

    def has_holes(self) -> bool:
        return bool(np.isnan(self.prices).any())


@dataclass
class ReturnMatrix:
    """Daily log returns: the target vector and the feature matrix.

    Row ``i`` covers the move into ``dates[i]``; ``features`` is
    (T-1, n_streams) aligned with ``target``.
    """

    dates: list[dt.date]
    target: NDArray[np.float64]
    features: NDArray[np.float64]
    target_label: str
    feature_labels: list[str]

    def __post_init__(self) -> None:
        self.target = np.asarray(self.target, dtype=float)
        self.features = np.asarray(self.features, dtype=float)
        n = len(self.dates)
        if self.target.shape != (n,) or self.features.shape[0] != n:
            raise DataError("return rows misaligned with dates")

    def __len__(self) -> int:
        return len(self.dates)


def load_csv(path, target: str, max_missing_frac: float = 0.1) -> PriceTable:
    """Load a price CSV and put ``target`` in column 0.

    The header must start with ``date``; every other header cell names a
    stream.  Rows are sorted by date.  Cells may be empty (holes), but a
    stream whose hole fraction exceeds ``max_missing_frac`` is rejected:
    forward-filling that much data would manufacture prices.

    A file without holes or bad cells is parsed in C by ``np.loadtxt``;
    any other is parsed cell by cell, which gives the same values and
    names the first bad line.
    """
    if not (0.0 <= max_missing_frac <= 1.0):
        raise ValueError(
            f"max_missing_frac must lie in [0, 1], got {max_missing_frac}"
        )
    path = Path(path)
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise DataError(f"{path}: empty file")
    header = [cell.strip() for cell in lines[0].split(",")]
    if len(header) < 2 or header[0].lower() != "date":
        raise DataError(
            f"{path}: header must be 'date,<stream>,...', got {lines[0]!r}"
        )
    labels = header[1:]
    if len(set(labels)) != len(labels):
        raise DataError(f"{path}: duplicate stream labels in header")
    if target not in labels:
        raise DataError(f"{path}: target column {target!r} not in header")

    parsed = _parse_clean(lines[1:], len(labels))
    if parsed is None:
        parsed = _parse_rows(path, lines[1:], labels)
    dates, prices = parsed

    if not dates:
        raise DataError(f"{path}: no data rows")
    seen: set[dt.date] = set()
    for day in dates:
        if day in seen:
            raise DataError(f"{path}: duplicate date {day.isoformat()}")
        seen.add(day)
    by_date = sorted(range(len(dates)), key=dates.__getitem__)
    dates = [dates[i] for i in by_date]
    prices = prices[by_date]

    # Put the target first, keep the remaining streams in header order.
    # ``np.take`` makes its one copy in C order (``prices[:, order]`` would
    # leave it in Fortran order), so every row the filter, the tracker and
    # the spread read as a regressor is contiguous.
    ti = labels.index(target)
    order = [ti] + [i for i in range(len(labels)) if i != ti]
    prices = np.take(prices, order, axis=1)
    labels = [labels[i] for i in order]

    hole_frac = np.isnan(prices).mean(axis=0)
    for j, frac in enumerate(hole_frac):
        if frac > max_missing_frac:
            raise DataError(
                f"{path}: stream {labels[j]} is {frac:.1%} holes, "
                f"above the {max_missing_frac:.1%} limit"
            )
    return PriceTable(dates=dates, prices=prices, labels=labels)


def _parse_clean(
    lines: list[str], n_streams: int
) -> tuple[list[dt.date], NDArray[np.float64]] | None:
    """Parse data lines that hold no hole and no bad cell, in C.

    Returns ``(dates, prices)`` in file order, or None when any line might
    need :func:`_parse_rows`: an empty cell, a wrong field count, or a cell
    that ``np.loadtxt`` rejects or reads as infinite.  ``loadtxt`` and
    ``float()`` share CPython's correctly rounded string-to-double, so the
    values are the ones ``_parse_rows`` would give; the few spellings only
    ``float()`` accepts (``1_0``, non-ASCII digits) fall back to it.
    """
    body = [line for line in lines if line.strip()]
    # usecols would drop a surplus field without a word, so count fields;
    # an empty cell is a hole, which only _parse_rows accepts.
    if not body or not all(
        line.count(",") == n_streams and ",," not in line and line[-1] != ","
        for line in body
    ):
        return None
    try:
        # comments=None: the default "#" would cut a row short.
        prices = np.loadtxt(
            body,
            delimiter=",",
            usecols=range(1, n_streams + 1),
            comments=None,
            dtype=float,
            ndmin=2,
        )
        dates = [
            dt.date.fromisoformat(line[: line.index(",")].strip()) for line in body
        ]
    except ValueError:
        return None
    # loadtxt skips lines it takes for empty, and reads "inf" and "1e999" as
    # infinite: both are for _parse_rows to report.
    if prices.shape != (len(body), n_streams) or np.isinf(prices).any():
        return None
    return dates, prices


def _parse_rows(
    path: Path, lines: list[str], labels: list[str]
) -> tuple[list[dt.date], NDArray[np.float64]]:
    """Parse data lines cell by cell: the only parser that accepts holes.

    Every cell error is raised here, naming the first bad line in file
    order.  ``lines`` starts at file line 2.
    """
    n_cols = len(labels) + 1
    rows: list[tuple[dt.date, list[float]]] = []
    for lineno, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != n_cols:
            raise DataError(
                f"{path}: line {lineno}: expected {n_cols} fields, got {len(cells)}"
            )
        try:
            day = dt.date.fromisoformat(cells[0].strip())
        except ValueError as exc:
            raise DataError(f"{path}: line {lineno}: bad date {cells[0]!r}") from exc
        values = []
        for label, cell in zip(labels, cells[1:]):
            cell = cell.strip()
            if cell == "":
                values.append(math.nan)
                continue
            try:
                value = float(cell)
            except ValueError as exc:
                raise DataError(
                    f"{path}: line {lineno}: bad price {cell!r} for {label}"
                ) from exc
            if math.isinf(value):
                raise DataError(
                    f"{path}: line {lineno}: non-finite price for {label}"
                )
            values.append(value)
        rows.append((day, values))
    prices = np.array([vals for _, vals in rows], dtype=float)
    return [day for day, _ in rows], prices.reshape(len(rows), len(labels))


def forward_fill(table: PriceTable) -> PriceTable:
    """Fill holes with the most recent earlier price.  Idempotent.

    The first row must be complete: there is nothing to fill it from.
    """
    prices = table.prices
    first_holes = np.isnan(prices[0])
    if first_holes.any():
        j = int(np.argmax(first_holes))
        raise DataError(
            f"stream {table.labels[j]} has no price on the first row "
            f"({table.dates[0].isoformat()}); nothing to fill from"
        )
    mask = ~np.isnan(prices)
    idx = np.where(mask, np.arange(len(table.dates))[:, None], 0)
    np.maximum.accumulate(idx, axis=0, out=idx)
    filled = prices[idx, np.arange(prices.shape[1])]
    return PriceTable(dates=list(table.dates), prices=filled, labels=list(table.labels))


def to_log_returns(table: PriceTable) -> ReturnMatrix:
    """Convert a complete price table to daily log returns.

    Every price must be present and positive; the error names the first
    offending stream and date.
    """
    prices = table.prices
    bad = ~(prices > 0.0)    # catches NaN and non-positive in one test
    if bad.any():
        flat = int(np.argmax(bad.any(axis=1)))
        j = int(np.argmax(bad[flat]))
        value = prices[flat, j]
        what = "missing" if math.isnan(value) else f"non-positive ({fmt_g17(value)})"
        raise DataError(
            f"{what} price for stream {table.labels[j]} "
            f"on {table.dates[flat].isoformat()}"
        )
    logs = np.log(prices)
    rets = np.diff(logs, axis=0)
    return ReturnMatrix(
        dates=list(table.dates[1:]),
        target=rets[:, 0],
        features=rets[:, 1:],
        target_label=table.labels[0],
        feature_labels=list(table.labels[1:]),
    )


def apply_split_factors(
    table: PriceTable, adjustments: list[tuple[dt.date, str, float]]
) -> PriceTable:
    """Back-adjust prices for splits.

    Each adjustment ``(date, stream, factor)`` multiplies that stream's
    prices on rows strictly before ``date`` by ``factor``, so the series is
    continuous in post-split units.  Unknown streams and non-positive
    factors are rejected.
    """
    prices = table.prices.copy()
    for day, label, factor in adjustments:
        if label not in table.labels:
            raise DataError(f"split adjustment names unknown stream {label!r}")
        if not (factor > 0.0 and math.isfinite(factor)):
            raise DataError(f"split factor for {label} must be positive, got {factor}")
        j = table.labels.index(label)
        for i, row_date in enumerate(table.dates):
            if row_date >= day:
                break
            prices[i, j] *= factor
    return PriceTable(dates=list(table.dates), prices=prices, labels=list(table.labels))


def load_split_file(path) -> list[tuple[dt.date, str, float]]:
    """Read split adjustments from a ``date,stream,factor`` CSV."""
    path = Path(path)
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    if not lines or [c.strip().lower() for c in lines[0].split(",")] != [
        "date",
        "stream",
        "factor",
    ]:
        raise DataError(f"{path}: header must be 'date,stream,factor'")
    out: list[tuple[dt.date, str, float]] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != 3:
            raise DataError(f"{path}: line {lineno}: expected 3 fields")
        try:
            day = dt.date.fromisoformat(cells[0])
        except ValueError as exc:
            raise DataError(f"{path}: line {lineno}: bad date {cells[0]!r}") from exc
        try:
            factor = float(cells[2])
        except ValueError as exc:
            raise DataError(f"{path}: line {lineno}: bad factor {cells[2]!r}") from exc
        out.append((day, cells[1], factor))
    return out


def write_csv(table: PriceTable, path) -> None:
    """Write a price table back to CSV.  Holes become empty cells.

    Floats carry 17 significant digits; a load of the written file
    reproduces the table exactly.
    """
    header = ["date"] + list(table.labels)

    def rows():
        for day, row in zip(table.dates, table.prices):
            yield [day.isoformat()] + [
                "" if math.isnan(v) else fmt_g17(v) for v in row
            ]

    write_rows(path, header, rows())
