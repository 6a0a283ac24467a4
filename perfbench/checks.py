"""Output checks for the benchmark, written without the flexls package.

Every check raises :class:`CheckError` with a one-line reason.  Nothing here
imports flexls, so a check that passes is evidence about the package rather
than a restatement of it.

Tolerances, stated once:

* ``REFERENCE_REL_TOL``: recorded reference values (``reference.json``) may
  move by this share of their magnitude, so a change that only moves
  last-bit rounding still passes while a changed Sharpe ratio does not.
* ``LEDGER_REL_TOL``: ledger identities hold to this share of the magnitude
  of the terms involved.
* ``STATIONARY_REL_TOL``: the smoothed path's gradient of the penalized
  objective, per row, relative to the size of the terms that make it up.
  The package's smoother reads about 1e-16; shifting one row by one
  millionth of the path's scale reads about 1e-6.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

REFERENCE_REL_TOL = 1e-7
LEDGER_REL_TOL = 1e-9
STATIONARY_REL_TOL = 1e-10

# The smoother's default prior curvature on the first coefficient row is
# I / 1e6 with a zero linear term (documented in ``fls_smooth_batch``).
SMOOTH_PRIOR_CURVATURE = 1e-6


class CheckError(Exception):
    """An output failed a benchmark check."""


def digest_dir(out_dir) -> dict[str, str]:
    """SHA-256 of every file in ``out_dir``, keyed by file name."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(Path(out_dir).iterdir())
        if path.is_file()
    }


def digest_array(values) -> str:
    arr = np.ascontiguousarray(values, dtype=np.float64)
    head = f"{arr.shape}".encode()
    return hashlib.sha256(head + arr.tobytes()).hexdigest()


def read_table(path) -> tuple[list[str], list[list[str]]]:
    """Header and string cells of a plain comma-separated file."""
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise CheckError(f"cannot read {Path(path).name}: {exc}") from None
    if not lines:
        raise CheckError(f"{Path(path).name} is empty")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _floats(cells, where: str) -> list[float]:
    try:
        return [float(cell) for cell in cells]
    except ValueError:
        raise CheckError(f"{where}: non-numeric cell in {cells!r}") from None


def _close(a: float, b: float, rel: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _check_delta_column(rows, deltas, name: str) -> None:
    got = [_floats(row[:1], name)[0] for row in rows]
    if got != [float(d) for d in deltas]:
        raise CheckError(f"{name}: delta column {got} != grid {list(deltas)}")


def compare_reference(path, reference: dict) -> None:
    """Compare a numeric table with recorded ``{"header", "rows"}`` values."""
    header, rows = read_table(path)
    name = Path(path).name
    if header != reference["header"]:
        raise CheckError(f"{name}: header {header} != reference {reference['header']}")
    if len(rows) != len(reference["rows"]):
        raise CheckError(f"{name}: {len(rows)} rows, reference has {len(reference['rows'])}")
    for i, (row, ref) in enumerate(zip(rows, reference["rows"])):
        values = _floats(row, f"{name} row {i + 1}")
        for col, got, want in zip(header, values, ref):
            if not _close(got, float(want), REFERENCE_REL_TOL):
                raise CheckError(
                    f"{name} row {i + 1} {col}: {got!r} differs from reference "
                    f"{want!r} by more than {REFERENCE_REL_TOL:g} relative"
                )


def check_sweep(out_dir, deltas, reference: dict | None = None) -> None:
    """``sweep_sharpe.csv``: one finite Sharpe ratio per delta, in grid order."""
    path = Path(out_dir) / "sweep_sharpe.csv"
    header, rows = read_table(path)
    if header != ["delta", "sharpe"]:
        raise CheckError(f"sweep_sharpe.csv: unexpected header {header}")
    _check_delta_column(rows, deltas, "sweep_sharpe.csv")
    for row in rows:
        if len(row) != 2:
            raise CheckError(f"sweep_sharpe.csv: row {row} has {len(row)} cells")
        sharpe = _floats(row[1:], "sweep_sharpe.csv")[0]
        if not math.isfinite(sharpe):
            raise CheckError(f"sweep_sharpe.csv: Sharpe {sharpe} for delta {row[0]}")
    if reference is not None:
        compare_reference(path, reference["sweep_sharpe.csv"])


def check_ledger(path, multiplier: float) -> None:
    """Ledger identities of a frictionless account.

    ``cum_pnl`` is the running sum of ``pnl``, and each day's ``pnl`` is
    ``multiplier * (price[t] - price[t-1]) * position[t-1]`` (flat before
    the first row).
    """
    name = Path(path).name
    header, rows = read_table(path)
    try:
        cols = {key: header.index(key) for key in ("pnl", "cum_pnl", "position", "index_price")}
    except ValueError as exc:
        raise CheckError(f"{name}: missing column ({exc})") from None
    if not rows or any(len(row) != len(header) for row in rows):
        raise CheckError(f"{name}: no rows, or a row of the wrong width")
    data = np.array(
        [_floats([row[j] for j in cols.values()], name) for row in rows]
    )
    pnl, cum, pos, price = (data[:, i] for i in range(4))

    running = np.cumsum(pnl)
    scale = np.cumsum(np.abs(pnl))
    bad = np.abs(cum - running) > LEDGER_REL_TOL * scale
    if bad.any():
        t = int(np.argmax(bad))
        raise CheckError(f"{name} row {t + 1}: cum_pnl {cum[t]!r} != running sum {running[t]!r}")

    if pnl[0] != 0.0:
        raise CheckError(f"{name} row 1: pnl {pnl[0]!r} with no position held before it")
    want = multiplier * (price[1:] - price[:-1]) * pos[:-1]
    scale = multiplier * np.maximum(np.abs(price[1:]), np.abs(price[:-1])) * np.abs(pos[:-1])
    bad = np.abs(pnl[1:] - want) > LEDGER_REL_TOL * scale
    if bad.any():
        t = int(np.argmax(bad)) + 1
        raise CheckError(
            f"{name} row {t + 1}: pnl {pnl[t]!r} != multiplier * price move * "
            f"previous position = {want[t - 1]!r}"
        )


def check_backtest(out_dir, deltas, multiplier: float, reference: dict | None = None) -> None:
    """``report.csv`` rows per delta, plus ledger identities for each delta."""
    out = Path(out_dir)
    header, rows = read_table(out / "report.csv")
    if not header or header[0] != "delta" or "sharpe" not in header:
        raise CheckError(f"report.csv: unexpected header {header}")
    _check_delta_column(rows, deltas, "report.csv")
    for delta in deltas:
        if not (out / f"coefficients_{delta!r}.csv").is_file():
            raise CheckError(f"coefficients_{delta!r}.csv not written")
        check_ledger(out / f"ledger_{delta!r}.csv", multiplier)
    if reference is not None:
        compare_reference(out / "report.csv", reference["report.csv"])


def stationarity_residual(xs, ys, mu: float, path, s0: float = SMOOTH_PRIOR_CURVATURE) -> float:
    """Largest per-row relative gradient of the penalized objective at ``path``.

    The objective (halved) over rows b_0..b_{T-1} is

        s0/2 |b_0|^2 + 1/2 sum_t (y_t - x_t.b_t)^2 + mu/2 sum_t |b_{t+1} - b_t|^2

    and its gradient at row t is

        -x_t (y_t - x_t.b_t) + mu (b_t - b_{t-1}) - mu (b_{t+1} - b_t) + [t = 0] s0 b_0.

    Each row's gradient norm is divided by the norm of the sum of its terms'
    magnitudes, so the figure reads as relative rounding.  O(T p).
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    b = np.asarray(path, dtype=float)
    if b.shape != xs.shape:
        raise CheckError(f"smoothed path has shape {b.shape}, expected {xs.shape}")
    if not np.all(np.isfinite(b)):
        raise CheckError("smoothed path has non-finite values")
    fit = np.einsum("ti,ti->t", xs, b)
    grad = -xs * (ys - fit)[:, None]
    size = np.abs(xs) * (np.abs(ys) + np.einsum("ti,ti->t", np.abs(xs), np.abs(b)))[:, None]
    step = mu * np.diff(b, axis=0)
    step_size = mu * (np.abs(b[1:]) + np.abs(b[:-1]))
    grad[1:] += step
    grad[:-1] -= step
    size[1:] += step_size
    size[:-1] += step_size
    grad[0] += s0 * b[0]
    size[0] += s0 * np.abs(b[0])
    norms = np.linalg.norm(size, axis=1)
    norms[norms == 0.0] = 1.0
    return float(np.max(np.linalg.norm(grad, axis=1) / norms))


def check_smooth(xs, ys, mu: float, path) -> None:
    """The smoothed path is a stationary point of the penalized objective."""
    residual = stationarity_residual(xs, ys, mu, path)
    if not residual <= STATIONARY_REL_TOL:
        raise CheckError(
            f"smoothed path is not stationary: relative gradient {residual:.3e} "
            f"> {STATIONARY_REL_TOL:g}"
        )
