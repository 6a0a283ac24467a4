"""Time-varying linear regression, estimated recursively.

Two routes to the same coefficient path:

* ``FlsEstimator`` solves a penalized least-squares problem one observation
  at a time.  The running state is a quadratic cost surface; each update
  folds in one observation and one smoothness penalty, and the estimate is
  the minimizer of the updated surface.  Costs two symmetric solves per step.
  It is the reference the filter is checked against.
* ``KalmanEstimator`` is the inversion-free form of the same recursion.
  With state noise ``1/mu`` per coefficient and unit observation noise it
  reproduces the penalized path to rounding error, at O(p^2) per step.  The
  backtest runs it.

``fls_smooth_batch`` runs the filter kernel once forward over a whole
sample and then sweeps backward, re-estimating every coefficient with
hindsight in O(p) per step.  The smoothed path is the global minimizer of
the full objective; the penalized recursion and a dense solve are only the
references it is checked against.

The filter step is chosen by width alone, once per filter
(:func:`_step_for_width`).  From ``_BLAS_MIN_P`` coefficients it is
:func:`_kf_step_impl` on every backend, which keeps the covariance as one
triangle: BLAS's symmetric level-2 routines (Dongarra et al. 1988, ACM
TOMS 14) read it with ``dsymv`` and downdate it with ``dsyr``, and never
touch the other triangle, so the state is symmetric by construction.  A
narrower filter steps with ``_kf_step``: numba's compiled loops when numba
imports, else :func:`_kf_step_impl`, whose narrow step multiplies the
whole matrix.  A bank, always narrow, steps with ``_kf_bank``.  So a wide
filter's outputs are the same with numba or without it.

Importing this module loads numpy alone.  scipy, which takes about twice
as long as numpy to import, is loaded the first time a step needs it: by
the first filter step at ``p >= _BLAS_MIN_P``, by ``fls_smooth_batch``
and by ``FlsEstimator``.  A run that only filters at ``p < _BLAS_MIN_P``
never loads it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np
from numpy.typing import NDArray

from .util import write_blocks

# Outcome of a filter step.  A rejected step writes nothing.
_ACCEPTED, _NONFINITE, _NONPOSITIVE = 0, 1, 2

# Narrowest covariance stepped with BLAS ``dsymv`` and ``dsyr`` on one
# triangle, on every backend.  At p=16 numpy's full-matrix product and
# broadcast downdate cost the same per interpreted update (about 10 us);
# from there they fall behind, 1.15x at 32, 1.5x at 64, 2.4x at 128 and
# 8x at 432, where the one-triangle step takes about 50-60 us against
# 90-105 us for ``dgemv`` and ``dger`` on the whole matrix (best and median
# of 9).  Below this width a step needs no scipy.  numba's compiled loops
# have not been timed against the one-triangle step at any width.
_BLAS_MIN_P = 16

# Widest filter a bank holds (a KalmanEstimator built with a sequence of
# vomega values).  A bank saves numpy's per-call overhead, most of a narrow
# step: one row of a bank cost 17-22 us at p=3-15, against 21-28 us for
# two filters run one per pass and 42-46 us for four (interpreted, best of
# 5).  The limit covers the factor-score regressions of svd mode, a few
# factors wide.  Raw-return regressions, whose width is the market's, take
# one pass per filter from 9 streams on, so that a 12-stream market traces
# like the 432-stream benchmark (perfbench/selftest.py counts its updates).
BANK_MAX_P = 8


def filter_passes(p: int, n: int) -> list[tuple[int, int]]:
    """How ``n`` filters of ``p`` coefficients fed the same rows are run:
    the ``(lo, hi)`` index ranges of the passes over the rows.

    Up to :data:`BANK_MAX_P` coefficients, one pass steps them all as one
    bank; wider, each filter gets a pass of its own.  From ``_BLAS_MIN_P``
    that is also the faster order: two covariances that wide overflow a
    core's L2 cache when stepped in turn.  A filter's path is the same, bit
    for bit, either way.
    """
    if p <= BANK_MAX_P:
        return [(0, n)]
    return [(d, d + 1) for d in range(n)]


@functools.cache
def _blas():
    """``(dsymv, dsyr, dger)``: scipy's BLAS routines, imported on the
    first call."""
    from scipy.linalg.blas import dger, dsymv, dsyr

    return dsymv, dsyr, dger


def _status(e, q, beta_new) -> int:
    """The checks of one filter's step, in order: finite ``e`` and ``q``,
    then ``q > 0``, then a finite ``beta'``."""
    if not (math.isfinite(q) and math.isfinite(e)):
        return _NONFINITE
    if not q > 0.0:
        return _NONPOSITIVE
    if not np.isfinite(beta_new).all():
        return _NONFINITE
    return _ACCEPTED


# Finite inputs can still overflow against a badly scaled state.  Such a
# step is rejected, so numpy need not warn about it.
@np.errstate(all="ignore")
def _kf_step_impl(P, beta, x, y, vomega):
    """One filter update, interpreted: numpy or BLAS for the forecast and
    for P, with unit observation noise.

    Returns ``(status, beta', e, q, K)``.  Only an accepted step (finite
    ``e``, ``q`` and ``beta'``, and ``q > 0``) writes, and it writes only
    ``P``, which must be C-ordered, in its own buffer:
    ``P <- P + vomega I - g g'`` with ``g = (P + vomega I) x / sqrt(q)``.
    A rejected step leaves every input as it was.

    Below ``p = _BLAS_MIN_P`` the forecast multiplies the whole of ``P``
    and the downdate subtracts the broadcast product ``g_i * g_j``, which
    keeps both triangles equal.  From ``_BLAS_MIN_P`` the step reads and
    writes P's lower triangle alone, the upper triangle of the
    Fortran-ordered ``P.T``: ``dsymv`` forms ``P x`` from it and ``dsyr``
    downdates it.  The other triangle is neither read nor written, so it
    may hold anything.
    """
    wide = P.shape[0] >= _BLAS_MIN_P
    if wide:
        dsymv, dsyr, _ = _blas()
        Rx = dsymv(1.0, P.T, x, lower=0) + vomega * x
    else:
        Rx = np.dot(P, x) + vomega * x
    q = np.dot(x, Rx) + 1.0
    e = y - np.dot(x, beta)
    K = Rx / q
    beta_new = beta + e * K
    # A product is finite only if every factor is (inf * 0 is NaN), so an
    # accepted step passes this one test; the checks run one by one only
    # when it fails, which an overflowing product alone can do falsely.
    if not (q > 0.0 and math.isfinite(e * q * np.dot(beta_new, beta_new))):
        status = _status(e, q, beta_new)
        if status != _ACCEPTED:
            return status, beta, e, q, K
    P.ravel()[:: P.shape[0] + 1] += vomega
    g = Rx / math.sqrt(q)
    if wide:
        dsyr(-1.0, g, a=P.T, lower=0, overwrite_a=1)
    else:
        P -= g[:, None] * g
    return _ACCEPTED, beta_new, e, q, K


@np.errstate(all="ignore")
def _kf_bank_step(P, beta, x, y, vomega):
    """One update of a bank of filters, interpreted: each array of
    :func:`_kf_step_impl` gains a leading axis, one entry per filter.

    ``P`` is (D, p, p), ``beta`` (D, p) and ``vomega`` (D,); ``x`` and
    ``y`` are shared.  Returns ``(status, beta', e, q, K)`` with
    ``status`` a list of one code per filter.  If any filter rejects the
    step, none of them is written.

    Every product is per filter: ``P @ x`` on the stack, and
    ``v[:, None] @ x`` for the dot products.  numpy hands each filter's
    product to the same BLAS ``dgemv`` or ``ddot`` call that one filter's
    ``np.dot`` makes, so each filter's results equal, bit for bit, those of
    :func:`_kf_step_impl` run on it alone.  (One ``(D, p) @ x`` product
    would not: its rounding depends on D.)  The downdate subtracts the
    broadcast product, as :func:`_kf_step_impl` does below ``_BLAS_MIN_P``;
    no bank is that wide (:data:`BANK_MAX_P`).
    """
    vomega = vomega[:, None]
    Rx = P @ x
    Rx += vomega * x
    q = Rx[:, None] @ x         # (D, 1), as is e
    q += 1.0
    e = y - beta[:, None] @ x
    K = Rx / q
    beta_new = beta + e * K
    # The one test of _kf_step_impl, with log q, finite only where q > 0.
    test = sum((np.log(q) * e).ravel().tolist()) + np.vdot(beta_new, beta_new)
    if not math.isfinite(test):
        status = [_status(*v) for v in zip(e[:, 0], q[:, 0], beta_new)]
        if any(status):
            return status, beta, e[:, 0], q[:, 0], K
    P.reshape(len(P), -1)[:, :: x.shape[0] + 1] += vomega
    g = Rx / np.sqrt(q)
    P -= g[:, :, None] * g[:, None, :]
    return [_ACCEPTED] * len(P), beta_new, e[:, 0], q[:, 0], K


def _kf_forecast_loops(P, beta, x, y, vomega):
    """The forecast and checks of :func:`_kf_step_impl`, for numba to
    compile; writes nothing.

    Returns ``(status, beta', e, q, K, g)``, ``g`` the downdate's vector.
    """
    Rx = np.dot(P, x) + vomega * x
    q = np.dot(x, Rx) + 1.0
    e = y - np.dot(x, beta)
    if not (math.isfinite(q) and math.isfinite(e)):
        return _NONFINITE, beta, e, q, Rx, Rx
    if not q > 0.0:
        return _NONPOSITIVE, beta, e, q, Rx, Rx
    K = Rx / q
    beta_new = beta + e * K
    for b in beta_new:
        if not math.isfinite(b):
            return _NONFINITE, beta, e, q, K, K
    return _ACCEPTED, beta_new, e, q, K, Rx / math.sqrt(q)


def _kf_downdate_loops(P, g, vomega) -> None:
    """The downdate of :func:`_kf_step_impl`, for numba to compile.

    Nothing is allocated at p x p: the loop walks the upper triangle and
    mirrors each entry, so both triangles hold the downdated covariance.
    """
    p = g.shape[0]
    for i in range(p):
        gi = g[i]
        P[i, i] = (P[i, i] + vomega) - gi * gi
        for j in range(i + 1, p):
            v = P[i, j] - gi * g[j]
            P[i, j] = v
            P[j, i] = v


def _kf_step_loops(P, beta, x, y, vomega):
    """The update of :func:`_kf_step_impl` as loops: same contract and
    checks."""
    status, beta_new, e, q, K, g = _kf_forecast_loops(P, beta, x, y, vomega)
    if status == _ACCEPTED:
        _kf_downdate_loops(P, g, vomega)
    return status, beta_new, e, q, K


def _filter_by_filter(forecast, downdate, P, beta, x, y, vomega):
    """The update of :func:`_kf_bank_step`, one filter at a time.

    ``forecast`` and ``downdate`` are the two halves of one filter's step,
    as :func:`_kf_forecast_loops` and :func:`_kf_downdate_loops`.  Every
    filter passes its checks before any is downdated, so a step that one
    filter rejects writes none of them.
    """
    steps = [forecast(P[d], beta[d], x, y, vomega[d]) for d in range(len(P))]
    status = [step[0] for step in steps]
    if not any(status):
        for d, step in enumerate(steps):
            downdate(P[d], step[5], vomega[d])
        beta = np.array([step[1] for step in steps])
    e, q, K = (np.array([step[k] for step in steps]) for k in (2, 3, 4))
    return status, beta, e, q, K


_kf_bank_loops = functools.partial(
    _filter_by_filter, _kf_forecast_loops, _kf_downdate_loops
)

try:
    from numba import njit

    _kf_forecast_jit = njit(cache=True)(_kf_forecast_loops)
    _kf_downdate_jit = njit(cache=True)(_kf_downdate_loops)

    @njit(cache=True)
    def _kf_step(P, beta, x, y, vomega):
        """:func:`_kf_step_loops`, compiled: one call per filter update."""
        status, beta_new, e, q, K, g = _kf_forecast_jit(P, beta, x, y, vomega)
        if status == _ACCEPTED:
            _kf_downdate_jit(P, g, vomega)
        return status, beta_new, e, q, K

    # A bank loops the compiled halves over its filters.
    _kf_bank = functools.partial(_filter_by_filter, _kf_forecast_jit, _kf_downdate_jit)
    KERNEL_BACKEND = "numba"
except ImportError:   # pragma: no cover - numba is a declared dependency
    # Interpreted, the loops would cost a Python step per entry of P.
    _kf_step = _kf_step_impl
    _kf_bank = _kf_bank_step
    KERNEL_BACKEND = "python"


def _step_for_width(p: int):
    """The step of one filter of ``p`` coefficients: :func:`_kf_step_impl`
    from ``_BLAS_MIN_P``, on every backend, else ``_kf_step``.

    Reads the module's names when called, so a stand-in installed there is
    the one chosen.
    """
    return _kf_step_impl if p >= _BLAS_MIN_P else _kf_step

# Reciprocal-condition floor below which a normal-equations solve is
# treated as underdetermined rather than silently amplified.
_RCOND_FLOOR = 1e-14

# Default diffuse prior: the Kalman route starts at P0 = PRIOR_SCALE * I,
# the penalized route at S0 = I / PRIOR_SCALE.  Large enough that the data
# dominate after a handful of observations, small enough to keep the first
# few solves well conditioned.
DEFAULT_PRIOR_SCALE = 1e6


class UnderdeterminedError(ValueError):
    """Normal equations are singular: not enough informative observations."""


class RejectedStep(ValueError):
    """A filter update was refused and the state left as it was.

    ``filter`` is the index of the first filter that rejected it in a bank,
    ``None`` for a single filter or an observation no filter can take.
    """

    def __init__(self, message: str, filter: int | None = None) -> None:
        super().__init__(message)
        self.filter = filter


@dataclass(frozen=True)
class Smoothing:
    """Smoothness weighting for the time-varying regression.

    ``delta`` in (0, 1) is the user-facing knob: small values give nearly
    constant coefficients, values near 1 let the path follow the data.  The
    penalty weight is ``mu = (1 - delta) / delta``; both forms are kept
    because the estimators consume ``mu`` while reports are keyed by
    ``delta``.
    """

    delta: float
    mu: float = field(init=False)

    def __post_init__(self) -> None:
        if not (0.0 < self.delta < 1.0):
            raise ValueError(
                f"delta must lie strictly inside (0, 1), got {self.delta}"
            )
        object.__setattr__(self, "mu", (1.0 - self.delta) / self.delta)


def _as_vector(x, p: int, name: str) -> NDArray[np.float64]:
    v = np.asarray(x, dtype=float)
    if v.shape != (p,):
        raise ValueError(f"{name} must have shape ({p},), got {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite values")
    return v


def _solve_checked(a: NDArray[np.float64], b: NDArray[np.float64]):
    """Solve a symmetric PSD system, refusing ill-conditioned ones."""
    from scipy.linalg import LinAlgError, cho_factor, cho_solve, lapack

    try:
        cf = cho_factor(a, lower=True, check_finite=False)
    except LinAlgError as exc:
        raise UnderdeterminedError(
            "normal equations are singular; supply a prior or more data"
        ) from exc
    anorm = float(np.linalg.norm(a, 1))
    if anorm > 0.0:
        rcond, info = lapack.dpocon(cf[0], anorm, uplo="L")
        if info != 0 or rcond < _RCOND_FLOOR:
            raise UnderdeterminedError(
                "normal equations are numerically singular "
                f"(rcond {rcond:.3e}); supply a prior or more data"
            )
    return cho_solve(cf, b, check_finite=False)


class FlsEstimator:
    """Penalized recursive estimator for drifting regression coefficients.

    State is the quadratic cost surface (``S``, ``s``): ``S`` is the
    curvature and ``s`` the linear term, so the cost of ending at
    coefficient vector b after ``t`` observations is ``b'Sb - 2 b's`` up
    to a constant.  The estimate is the surface minimizer,
    ``beta = solve(S, s)``.

    ``s0_scale`` sets the prior curvature ``S0 = s0_scale * I``.  Zero keeps
    the textbook flat start, in which case the first updates raise
    :class:`UnderdeterminedError` until the observed regressors span the
    coefficient space.  The default diffuse prior avoids that.

    Not thread-safe: ``update`` mutates in place.
    """

    def __init__(
        self,
        p: int,
        smoothing: Smoothing,
        s0_scale: float = 1.0 / DEFAULT_PRIOR_SCALE,
    ) -> None:
        if not isinstance(p, (int, np.integer)) or p < 1:
            raise ValueError(f"p must be a positive integer, got {p!r}")
        if not (s0_scale >= 0.0) or not math.isfinite(s0_scale):
            raise ValueError(f"s0_scale must be finite and >= 0, got {s0_scale}")
        self.p = int(p)
        self.smoothing = smoothing
        self.S = np.eye(self.p) * s0_scale
        self.s = np.zeros(self.p)
        self.beta = np.zeros(self.p)
        self.t = 0

    def update(self, x, y: float) -> NDArray[np.float64]:
        """Consume one observation and return the new coefficient estimate.

        Raises :class:`UnderdeterminedError`, leaving the state untouched,
        when the accumulated regressors do not yet pin down an estimate.
        """
        from scipy.linalg import cho_factor, cho_solve

        x = _as_vector(x, self.p, "x")
        y = float(y)
        if not math.isfinite(y):
            raise ValueError("y must be finite")
        mu = self.smoothing.mu
        B = self.S + np.outer(x, x)     # curvature seen by the estimate
        b = self.s + x * y
        beta = _solve_checked(B, b)     # raises before any state is committed
        A = B + mu * np.eye(self.p)     # curvature seen by the next step
        cf = cho_factor(A, lower=True, check_finite=False)  # A >= mu*I, always PD
        d = cho_solve(cf, b, check_finite=False)
        S_new = mu * cho_solve(cf, B, check_finite=False)
        self.S = 0.5 * (S_new + S_new.T)
        self.s = mu * d
        self.beta = beta
        self.t += 1
        return beta.copy()


def fls_smooth_batch(
    xs,
    ys,
    smoothing: Smoothing,
    prior: tuple[NDArray[np.float64], NDArray[np.float64]] | None = None,
) -> NDArray[np.float64]:
    """Smoothed (hindsight) coefficient path over a complete sample.

    ``xs`` is (T, p), ``ys`` is (T,).  ``prior`` is an optional
    ``(S0, s0)`` pair; by default a diffuse ``S0 = I / DEFAULT_PRIOR_SCALE``
    with ``s0 = 0`` is used.  Returns the (T, p) path minimizing
    ``b_1'S0 b_1 - 2 s0'b_1 + sum (y_t - x_t'b_t)^2
    + mu sum |b_{t+1} - b_t|^2``.

    One forward pass of the filter kernel (unit observation noise, state
    noise ``1/mu``) starts with the first coefficient row as an unknown of
    zero spread, carrying each forecast's derivative ``E_t`` with respect
    to it (de Jong 1991).  One p x p solve of the first row's normal
    equations ``E'WE + S0`` is the only place the prior enters, so flat and
    singular priors are exact; a singular system raises
    :class:`UnderdeterminedError`.  A backward disturbance sweep (Koopman
    1993), O(p) per row, gives the steps of the path.  Memory is O(T p);
    nothing of size T p^2 is kept.  ``FlsEstimator`` and the dense oracle
    in the tests are the references it is checked against.
    """
    xs = np.ascontiguousarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 2:
        raise ValueError(f"xs must be 2-d (T, p), got shape {xs.shape}")
    T, p = xs.shape
    if ys.shape != (T,):
        raise ValueError(f"ys must have shape ({T},), got {ys.shape}")
    if T < 1:
        raise ValueError("need at least one observation")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise ValueError("observations contain non-finite values")
    if prior is None:
        S0 = np.eye(p) / DEFAULT_PRIOR_SCALE
        s0 = np.zeros(p)
    else:
        S0 = np.asarray(prior[0], dtype=float)
        s0 = np.asarray(prior[1], dtype=float)
        if S0.shape != (p, p) or s0.shape != (p,):
            raise ValueError("prior shapes must be (p, p) and (p,)")
    vomega = 1.0 / smoothing.mu
    step = _step_for_width(p)
    dger = _blas()[2]           # dep -= K E' needs no symmetry

    # Forward: the filter from a zero mean with the first row taken as
    # known, and dep = d(forecast mean)/d(first row).
    P = np.zeros((p, p))
    beta = np.zeros(p)
    dep = np.eye(p)
    e, q = np.empty(T), np.empty(T)
    E, K = np.empty((T, p)), np.empty((T, p))
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(T):
            E[t] = xs[t] @ dep
            status, beta, e[t], q[t], K[t] = step(
                P, beta, xs[t], ys[t], vomega if t else 0.0
            )
            if status != _ACCEPTED:
                raise ValueError(
                    "non-finite filter step: check the scale of xs and ys"
                )
            dger(-1.0, E[t], K[t], a=dep.T, overwrite_a=1)   # dep -= K E'

        # The first row minimizes the prior plus the weighted innovations.
        EW = E / q[:, None]
        A = EW.T @ E + S0
        b = EW.T @ e + s0
        if not (np.isfinite(A).all() and np.isfinite(b).all()):
            raise ValueError("non-finite normal equations: check the scale of xs")
        first = _solve_checked(A, b)
        e -= E @ first

        # Backward: path[t] holds the step beta[t] - beta[t-1] until the sum.
        path = np.empty((T, p))
        path[0] = first
        r = np.zeros(p)
        for t in range(T - 1, 0, -1):
            r += xs[t] * (e[t] / q[t] - K[t] @ r)
            path[t] = vomega * r
        np.cumsum(path, axis=0, out=path)
    if not np.isfinite(path).all():
        raise ValueError("non-finite smoothed path: check the scale of xs")
    return path


class KfDiagnostics(NamedTuple):
    """Per-step byproducts of a Kalman update: numbers for one filter,
    arrays with one entry (or row) per filter for a bank."""

    innovation: float     # observation minus its one-step forecast
    forecast_var: float   # variance of that forecast error
    gain: NDArray[np.float64]


class KalmanEstimator:
    """Inversion-free recursive estimator for drifting coefficients.

    Random-walk coefficient dynamics with isotropic state noise ``vomega``
    per step and unit observation noise.  Another noise level ``c`` is the
    unit-noise filter fed ``x/sqrt(c)`` and ``y/sqrt(c)``, so it needs no
    argument.  No distributional assumptions are needed for the algebra;
    the recursion is used here purely as the O(p^2) route to the penalized
    least-squares path (see :meth:`fls_equivalent` for the exact
    correspondence).

    The prior covariance is ``prior_scale * I`` (by default
    ``DEFAULT_PRIOR_SCALE``) or a given ``P0``; giving both is an error.

    A sequence of ``vomega`` values builds a bank: one filter per value,
    all fed the same observations, the multi-process model of West &
    Harrison (1997, ch. 12).  ``P`` is then (D, p, p) and ``beta`` (D, p),
    ``prior_scale`` may give one value per filter (``P0`` is one prior for
    all of them), and one ``update`` steps them all.  A bank holds filters
    of up to :data:`BANK_MAX_P` coefficients (see :func:`filter_passes`).
    Each filter's path is the one it follows alone, bit for bit.

    The step is chosen once, at construction, by width
    (:func:`_step_for_width`): from ``p = _BLAS_MIN_P`` the one-triangle
    BLAS step of :func:`_kf_step_impl` on every backend, below it
    ``_kf_step`` (compiled when numba imports), and ``_kf_bank`` for a
    bank.  ``prior_scale`` and ``P0`` are keyword-only, so a call that
    still passes an observation noise third fails rather than setting the
    prior.

    Not thread-safe: ``update`` mutates in place.  The covariance state is
    kept in one buffer, downdated in place; from ``p = _BLAS_MIN_P`` the
    step keeps only its lower triangle current.  Reading ``P`` gives a new
    read-only symmetric array, mirrored from that triangle.
    """

    def __init__(
        self,
        p: int,
        vomega,
        *,
        prior_scale=None,
        P0: NDArray[np.float64] | None = None,
    ) -> None:
        if not isinstance(p, (int, np.integer)) or p < 1:
            raise ValueError(f"p must be a positive integer, got {p!r}")
        bank = np.array(vomega, dtype=float)
        if bank.ndim > 1 or bank.size == 0:
            raise ValueError("vomega must be a number or a 1-d sequence of them")
        if not ((bank >= 0.0).all() and np.isfinite(bank).all()):
            raise ValueError(f"vomega must be finite and >= 0, got {vomega}")
        if bank.ndim and p > BANK_MAX_P:
            raise ValueError(
                f"a bank holds filters of at most {BANK_MAX_P} coefficients, "
                f"got p={p}: run wider filters one at a time"
            )
        self.p = int(p)
        self.vomega = bank if bank.ndim else float(bank)
        self._step = _kf_bank if bank.ndim else _step_for_width(self.p)
        if P0 is not None and prior_scale is not None:
            raise ValueError("give prior_scale or P0, not both")
        if P0 is None:
            if prior_scale is None:
                prior_scale = DEFAULT_PRIOR_SCALE
            scale = np.asarray(prior_scale, dtype=float)
            if scale.shape not in ((), bank.shape):
                raise ValueError("prior_scale must be a number or one per filter")
            if not ((scale > 0.0).all() and np.isfinite(scale).all()):
                raise ValueError(
                    f"prior_scale must be finite and positive, got {prior_scale}"
                )
            # scale * I, without an identity matrix as scratch.
            self._cov = np.zeros(bank.shape + (self.p, self.p))
            diagonal = self._cov.reshape(-1, self.p * self.p)[:, :: self.p + 1]
            diagonal[...] = scale.reshape(-1, 1)
        else:
            P0 = np.asarray(P0, dtype=float)
            if P0.shape != (self.p, self.p):
                raise ValueError(f"P0 must have shape ({p}, {p})")
            if not np.all(np.isfinite(P0)):
                raise ValueError("P0 must be finite")
            P0 = 0.5 * (P0 + P0.T)
            # P0 is a covariance: an eigenvalue below zero, beyond rounding,
            # makes the forecast variance of some regressor negative.
            eigs = np.linalg.eigvalsh(P0)
            if eigs[0] < -1e-12 * np.abs(eigs).max():
                raise ValueError(
                    "P0 must be positive semidefinite, got eigenvalue "
                    f"{eigs[0]!r}"
                )
            # Every filter of a bank starts from this one prior.
            self._cov = np.broadcast_to(P0, bank.shape + P0.shape).copy()
        self.beta = np.zeros(bank.shape + (self.p,))
        self.t = 0

    @property
    def P(self) -> NDArray[np.float64]:
        """The covariance, ``(p, p)``, or ``(D, p, p)`` for a bank.

        A new read-only array on every read, symmetric: the stored lower
        triangle, mirrored.  Every kernel keeps that triangle current (the
        narrow ones, compiled or not, keep both), so the mirror is the
        state on any backend.  The next update does not change it.
        """
        lower = np.tri(self.p, dtype=bool)
        P = np.where(lower, self._cov, self._cov.swapaxes(-1, -2))
        P.flags.writeable = False
        return P

    @classmethod
    def from_smoothing(
        cls,
        p: int,
        smoothing: Smoothing | Sequence[Smoothing],
        prior_scale=DEFAULT_PRIOR_SCALE,
    ) -> "KalmanEstimator":
        """Estimator whose state noise matches a smoothness weight, or a
        bank with one filter per weight of a sequence.

        State noise ``1/mu`` per coefficient with unit observation noise
        makes the filtered path the penalized one, up to the prior.
        """
        if isinstance(smoothing, Smoothing):
            vomega = 1.0 / smoothing.mu
        else:
            vomega = [1.0 / s.mu for s in smoothing]
        return cls(p, vomega=vomega, prior_scale=prior_scale)

    @classmethod
    def fls_equivalent(
        cls,
        p: int,
        smoothing: Smoothing,
        s0_scale: float = 1.0 / DEFAULT_PRIOR_SCALE,
    ) -> "KalmanEstimator":
        """Estimator matching :class:`FlsEstimator` step for step.

        The first-step predictive spread must equal the inverse of the
        penalized prior curvature, so ``P0 = I/s0_scale - vomega*I``.  That
        requires ``s0_scale <= mu``; tighter priors have no exact filter
        counterpart with nonnegative starting spread.
        """
        if not (s0_scale > 0.0):
            raise ValueError("exact matching needs an invertible prior (s0_scale > 0)")
        vom = 1.0 / smoothing.mu
        p0 = 1.0 / s0_scale - vom
        if p0 < 0.0:
            raise ValueError(
                f"s0_scale {s0_scale} exceeds mu {smoothing.mu}; "
                "no matching filter prior exists"
            )
        return cls(p, vomega=vom, P0=np.eye(p) * p0)

    def update(self, x, y: float) -> KfDiagnostics:
        """Consume one observation; returns the step diagnostics.

        Raises :class:`RejectedStep`, leaving the state untouched, when
        ``x`` or ``y`` is not finite or the step would leave a non-finite
        state or a forecast variance that is not positive.  In a bank, one
        filter's rejection rejects the step for all of them, and the
        exception's ``filter`` is that filter's index.
        """
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.shape != (self.p,):
            raise ValueError(f"x must have shape ({self.p},), got {x.shape}")
        y = float(y)
        P = self._cov
        status, beta_new, e, q, K = self._step(P, self.beta, x, y, self.vomega)
        # A non-finite x or y makes e or q non-finite, so the kernel
        # rejects it; its message is chosen here, on that path alone.
        if any(status) if P.ndim == 3 else status != _ACCEPTED:
            if not (math.isfinite(y) and np.isfinite(x).all()):
                raise RejectedStep("x and y must be finite")
            d = None
            if P.ndim == 3:
                d = next(d for d, code in enumerate(status) if code)
                status, q = status[d], q[d]
            if status == _NONPOSITIVE:
                raise RejectedStep(f"forecast variance must stay positive, got {q}", d)
            raise RejectedStep(
                "non-finite update: check the scale of x and the state", d
            )
        self.beta = beta_new
        self.t += 1
        return KfDiagnostics(innovation=e, forecast_var=q, gain=K)


def write_coefficient_csv(path, p: int, rows) -> None:
    """Write a coefficient path and the filter's diagnostics as CSV.

    ``rows`` yields the path in consecutive blocks ``(betas, e, Q)``: a
    (k, p) array of coefficient rows, then the innovation and its forecast
    variance for each of those rows.  Columns are ``t`` (1-based), one
    ``beta_i`` per coefficient, then ``e`` and ``Q``, written by
    :func:`flexls.util.write_blocks`: lossless and byte-stable, each block
    written as it arrives, so the path need never be whole in memory.
    A whole path is one block.
    """

    def columns():
        t = 1
        for betas, innovations, forecast_vars in rows:
            betas = np.asarray(betas, dtype=float)
            if betas.ndim != 2 or betas.shape[1] != p:
                raise ValueError(f"betas must be (k, {p}), got shape {betas.shape}")
            k = len(betas)
            extras = [np.asarray(c, dtype=float) for c in (innovations, forecast_vars)]
            if any(c.shape != (k,) for c in extras):
                raise ValueError(f"e and Q columns must have length {k}")
            yield [np.arange(t, t + k), betas, *extras]
            t += k

    write_blocks(
        path, ["t"] + [f"beta_{i + 1}" for i in range(p)] + ["e", "Q"], columns()
    )
