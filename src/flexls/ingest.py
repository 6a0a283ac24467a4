"""Price-table ingestion and conversion to log returns.

The on-disk format is one CSV per dataset: a ``date`` column (ISO format,
strictly increasing after load) followed by one price column per stream.
Empty cells are holes; ``forward_fill`` repairs them from the last seen
price.  ``to_log_returns`` turns a clean table into the regression inputs,
in the table's own array: the target stream's log returns and a feature
matrix of the others.
"""

from __future__ import annotations

import bisect
import datetime as dt
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.typing import NDArray

from .util import open_text, write_table


class DataError(ValueError):
    """Malformed or inconsistent input data."""


@dataclass
class PriceTable:
    """Aligned daily prices, target stream first.

    ``prices`` is (T, 1 + n_streams); column 0 is the target.  NaN entries
    mark holes.  Dates are strictly increasing and labels are unique, with
    ``labels[0]`` naming the target.  ``prices`` need not be C-ordered:
    from :func:`load_csv` it is a view of the parse buffer, each row
    contiguous.  :func:`to_log_returns` consumes a table: it writes the
    returns over ``prices`` and leaves the table with zero rows, so take
    what is needed of the prices before that call.
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

    The file is read by :func:`flexls.util.open_text`: UTF-8, a leading
    byte-order mark skipped, lines ended by ``\n``, ``\r`` or ``\r\n``.
    The header must start with ``date``; every other header cell names a
    stream.  Rows are sorted by date.  Cells may be empty (holes), but a
    stream whose hole fraction exceeds ``max_missing_frac`` is rejected:
    forward-filling that much data would manufacture prices.

    A file without holes or bad cells is parsed in C by one ``np.loadtxt``
    call that reads the open file, so the text is never held whole.  The
    array it parses into is the only one of table size: the target column
    is rotated into place in row blocks, and ``prices`` is a view of that
    array (``table[:, 1:]``; column 0 holds the dates' ordinals), each row
    contiguous.  Out-of-order dates are sorted in that array, in place.
    Any other file is read again, one line at a time, and parsed cell by
    cell into the same layout, which gives the same values and names the
    first bad line.
    """
    if not (0.0 <= max_missing_frac <= 1.0):
        raise ValueError(
            f"max_missing_frac must lie in [0, 1], got {max_missing_frac}"
        )
    path = Path(path)
    try:
        with open_text(path) as fh:
            labels = _parse_header(path, fh.readline())
            if target not in labels:
                raise DataError(f"{path}: target column {target!r} not in header")
            ti = labels.index(target)
            parsed = _parse_clean(fh, len(labels), ti)
        if parsed is None:
            with open_text(path) as fh:
                parsed = _parse_rows(path, fh.readlines()[1:], labels, ti)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    dates, table = parsed

    if not dates:
        raise DataError(f"{path}: no data rows")
    seen: set[dt.date] = set()
    for day in dates:
        if day in seen:
            raise DataError(f"{path}: duplicate date {day.isoformat()}")
        seen.add(day)
    by_date = sorted(range(len(dates)), key=dates.__getitem__)
    if by_date != list(range(len(dates))):
        dates = [dates[i] for i in by_date]
        _permute_rows(table, by_date)

    # Both parsers put the dates' ordinals in column 0, then the target,
    # then the remaining streams in header order.
    prices = table[:, 1:]
    labels = [labels[ti]] + labels[:ti] + labels[ti + 1 :]

    hole_frac = np.isnan(prices).mean(axis=0)
    for j, frac in enumerate(hole_frac):
        if frac > max_missing_frac:
            raise DataError(
                f"{path}: stream {labels[j]} is {frac:.1%} holes, "
                f"above the {max_missing_frac:.1%} limit"
            )
    return PriceTable(dates=dates, prices=prices, labels=labels)


def _permute_rows(table: NDArray[np.float64], order: list[int]) -> None:
    """Reorder ``table``'s rows in place: row ``i`` becomes old row ``order[i]``.

    Follows each cycle of the permutation with one row of scratch, so the
    rows are moved without a second table.
    """
    scratch = np.empty(table.shape[1])
    done = [False] * len(order)
    for start in range(len(order)):
        if done[start] or order[start] == start:
            continue
        scratch[:] = table[start]
        i = start
        while order[i] != start:
            table[i] = table[order[i]]
            done[i] = True
            i = order[i]
        table[i] = scratch
        done[i] = True


def _parse_header(path: Path, line: str) -> list[str]:
    """Stream labels from the header line ("" for an empty file)."""
    if not line:
        raise DataError(f"{path}: empty file")
    line = line.removesuffix("\n")
    header = [cell.strip() for cell in line.split(",")]
    if len(header) < 2 or header[0].lower() != "date":
        raise DataError(
            f"{path}: header must be 'date,<stream>,...', got {line!r}"
        )
    labels = header[1:]
    if len(set(labels)) != len(labels):
        raise DataError(f"{path}: duplicate stream labels in header")
    return labels


def _date_ordinal(cell: str) -> int:
    return dt.date.fromisoformat(cell.strip()).toordinal()


def _parse_clean(
    fh, n_streams: int, target: int
) -> tuple[list[dt.date], NDArray[np.float64]] | None:
    """Parse the rest of an open file in C, if it holds no hole and no bad cell.

    Returns ``(dates, table)`` with rows in file order, ``table`` being the
    (T, 1 + n_streams) array ``np.loadtxt`` parsed into: the dates'
    ordinals in column 0, then stream ``target`` (an index into the
    header's streams), then the other streams in header order.  The target
    is moved there in place (``usecols`` would reorder in the parse, but it
    lets a row with an extra field through).  Returns None when any
    line might need :func:`_parse_rows`: an empty cell, a wrong field count,
    a whitespace-only line, a cell ``np.loadtxt`` rejects or reads as
    infinite, or no data at all.  ``loadtxt`` and ``float()`` share CPython's
    correctly rounded string-to-double, so the values are the ones
    ``_parse_rows`` would give; the few spellings only ``float()`` accepts
    (``1_0``, non-ASCII digits) fall back to it.
    """
    try:
        with warnings.catch_warnings():
            # loadtxt warns, rather than raises, on input with no data rows.
            warnings.simplefilter("error")
            # comments=None: the default "#" would cut a row short.  Without
            # usecols, loadtxt rejects a row whose field count differs from
            # the first row's; an empty cell fails to convert.
            table = np.loadtxt(
                fh,
                delimiter=",",
                comments=None,
                converters={0: _date_ordinal},
                dtype=float,
                ndmin=2,
            )
    except (ValueError, Warning):
        return None
    # "inf" and "1e999" load as infinite: for _parse_rows to report.
    if table.shape[1] != 1 + n_streams or np.isinf(table).any():
        return None
    dates = list(map(dt.date.fromordinal, table[:, 0].astype(np.int64).tolist()))
    _rotate_right(table[:, 1 : target + 2])
    return dates, table


_BLOCK_CELLS = 1 << 15


def _rotate_right(cols: NDArray[np.float64]) -> None:
    """Move the last column of ``cols`` to the front, in place.

    Works through the rows in blocks of about ``_BLOCK_CELLS`` cells, so
    the temporary stays small however long the table is.
    """
    step = max(1, _BLOCK_CELLS // cols.shape[1])
    for lo in range(0, len(cols), step):
        block = cols[lo : lo + step]
        block[:] = np.roll(block, 1, axis=1)


def _parse_rows(
    path: Path, lines: list[str], labels: list[str], target: int
) -> tuple[list[dt.date], NDArray[np.float64]]:
    """Parse data lines cell by cell: the only parser that accepts holes.

    Every cell error is raised here, naming the first bad line, and in it
    the first bad cell, in file order.  ``lines`` starts at file line 2; a
    line may keep its ``\n``.  Returns ``(dates, table)`` laid out as
    :func:`_parse_clean` lays it out: the dates' ordinals in column 0, then
    stream ``target`` (an index into ``labels``), then the rest in header
    order.  Each row's floats go straight into one array sized for every
    line, so no more than one row of them is held as Python floats.
    """
    n_cols = len(labels) + 1
    dates: list[dt.date] = []
    table = np.empty((len(lines), n_cols))
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
        row = [day.toordinal()]
        for label, cell in zip(labels, cells[1:]):
            cell = cell.strip()
            if cell == "":
                row.append(math.nan)
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
            row.append(value)
        row.insert(1, row.pop(1 + target))
        table[len(dates)] = row
        dates.append(day)
    return dates, table[: len(dates)]


def forward_fill(table: PriceTable) -> PriceTable:
    """Fill holes with the most recent earlier price, in place.  Idempotent.

    The first row must be complete: there is nothing to fill it from.  The
    table is consumed, as :func:`to_log_returns` consumes one: its holes
    are filled in its own price array, which the returned table shares, so
    no copy of the table is made.  Only the rows that hold a hole are
    visited, in date order, each filled from the row above it.
    """
    prices = table.prices
    first_holes = np.isnan(prices[0])
    if first_holes.any():
        j = int(np.argmax(first_holes))
        raise DataError(
            f"stream {table.labels[j]} has no price on the first row "
            f"({table.dates[0].isoformat()}); nothing to fill from"
        )
    for i in np.flatnonzero(np.isnan(prices).any(axis=1)).tolist():
        row = prices[i]
        holes = np.isnan(row)
        row[holes] = prices[i - 1][holes]
    return PriceTable(dates=list(table.dates), prices=prices, labels=list(table.labels))


def to_log_returns(table: PriceTable) -> ReturnMatrix:
    """Convert a complete price table to daily log returns, in place.

    Every price must be present and positive; the error names the first
    offending stream and date, and leaves the table as it was.  Otherwise
    the table is consumed: the logs are taken into ``table.prices`` itself
    and differenced there from the last row up, which gives bit for bit
    what ``np.diff`` of the logs gives, and ``target`` and ``features`` are
    views into that array (its first row unused).  The table is left with
    zero rows, so a late read of its prices fails rather than returning
    returns; any other table sharing the array (such as :func:`forward_fill`'s
    input) holds returns from then on.
    """
    prices = table.prices
    if not (prices > 0.0).all():    # catches NaN and non-positive in one test
        bad = ~(prices > 0.0)
        flat = int(np.argmax(bad.any(axis=1)))
        j = int(np.argmax(bad[flat]))
        value = prices[flat, j]
        what = "missing" if math.isnan(value) else f"non-positive ({value:g})"
        raise DataError(
            f"{what} price for stream {table.labels[j]} "
            f"on {table.dates[flat].isoformat()}"
        )
    np.log(prices, out=prices)
    for i in range(len(prices) - 1, 0, -1):
        prices[i] -= prices[i - 1]
    rets = prices[1:]
    dates = table.dates[1:]
    table.dates, table.prices = [], prices[:0]
    return ReturnMatrix(
        dates=dates,
        target=rets[:, 0],
        features=rets[:, 1:],
        target_label=table.labels[0],
        feature_labels=list(table.labels[1:]),
    )


def apply_split_factors(
    table: PriceTable, adjustments: list[tuple[dt.date, str, float]]
) -> PriceTable:
    """Back-adjust prices for splits, in place.

    Each adjustment ``(date, stream, factor)`` multiplies that stream's
    prices on rows strictly before ``date`` by ``factor``, so the series is
    continuous in post-split units.  Unknown streams, non-positive
    factors and factors that overflow a price are rejected.  Every
    adjustment is checked on copies of the columns it names before any is
    written back, so a rejected list leaves the table as it was.  Otherwise
    the table is consumed: the adjusted columns are written into its own
    price array, which the returned table shares.
    """
    prices = table.prices
    adjusted: dict[int, NDArray[np.float64]] = {}
    for day, label, factor in adjustments:
        if label not in table.labels:
            raise DataError(f"split adjustment names unknown stream {label!r}")
        if not (factor > 0.0 and math.isfinite(factor)):
            raise DataError(f"split factor for {label} must be positive, got {factor}")
        j = table.labels.index(label)
        if j not in adjusted:
            adjusted[j] = prices[:, j].copy()
        column = adjusted[j]
        with np.errstate(over="ignore"):    # reported below, as data
            column[: bisect.bisect_left(table.dates, day)] *= factor
        if np.isinf(column).any():
            raise DataError(f"split factor {factor} for {label} overflows its prices")
    for j, column in adjusted.items():
        prices[:, j] = column
    return PriceTable(dates=list(table.dates), prices=prices, labels=list(table.labels))


def load_split_file(path) -> list[tuple[dt.date, str, float]]:
    """Read split adjustments from a ``date,stream,factor`` CSV."""
    path = Path(path)
    try:
        with open_text(path) as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
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
    write_table(
        path,
        ["date"] + list(table.labels),
        [[day.isoformat() for day in table.dates], *table.prices.T],
        blank_nan=True,
    )
