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

``KalmanEstimator.update`` steps one row.  Its step is chosen by width
alone, once per filter (:func:`_step_for_width`).  From ``_BLAS_MIN_P``
coefficients it is :func:`_kf_step_impl`'s BLAS step, which keeps the
covariance as one triangle: BLAS's symmetric level-2 routines (Dongarra
et al. 1988, ACM TOMS 14) read it with ``dsymv`` and downdate it with
``dsyr``, and never touch the other triangle, so the state is symmetric
by construction.  From ``_NUMPY_MIN_P`` up to that width it is
:func:`_kf_step_impl`'s numpy step, which multiplies the whole matrix.
Narrower still, it is :func:`_kf_step_loops`, the same step on Python
floats, which spares the fixed cost of a dozen numpy calls.

``KalmanEstimator.update_block`` steps a run of rows as that many
``update`` calls would, to rounding.  Once the prior no longer dominates
(:data:`BLOCK_MAX_Q`) it steps them a block at a time
(:func:`_kf_block_impl`): the rows' innovations are the Cholesky factor
of their joint forecast covariance (Kailath 1968, IEEE TAC 13), so the
block costs a few level-3 BLAS calls on the same triangle from
``_BLAS_MIN_P``, and numpy calls below it.  The row step serves each
filter's first rows, the rows of a block the block step refuses,
``update`` and the smoother.

Importing this module loads numpy alone.  scipy, which takes about twice
as long as numpy to import, is loaded the first time a step needs it: by
the first filter step (of a row or of a block) at ``p >= _BLAS_MIN_P``,
by ``fls_smooth_batch`` and by ``FlsEstimator``.  A run that only filters
at ``p < _BLAS_MIN_P`` never loads it.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from .util import write_blocks

# Outcome of a filter step.  A rejected step writes nothing.
_ACCEPTED, _NONFINITE, _NONPOSITIVE = 0, 1, 2

# Narrowest covariance stepped with BLAS ``dsymv`` and ``dsyr`` on one
# triangle.  At p=16 numpy's full-matrix product and broadcast downdate
# cost the same per update (about 10 us); from there they fall behind,
# 1.15x at 32, 1.5x at 64, 2.4x at 128 and 8x at 432, where the
# one-triangle step takes about 50-60 us against 90-105 us for ``dgemv``
# and ``dger`` on the whole matrix (best and median of 9).  Below this
# width a step needs no scipy.
_BLAS_MIN_P = 16

# Narrowest filter whose row step runs on numpy; a narrower one steps on
# Python floats (:func:`_kf_step_loops`).  A numpy call costs about a
# microsecond at any small size, so the float step wins while the filter
# has few entries.  Updates per second through ``KalmanEstimator.update``,
# in thousands (best of 3 x 30,000 rows, BLAS at 1 thread, range of 5 runs
# on a 2-core machine):
#
#     p        1        2        3        4        5      6      7      8
#     floats   175-191  147-163  127-136  105-114  90-97  74-80  60-66  53-57
#     numpy    76-86    85-93    86-91    80-92    79-89  78-92  80-89  75-90
_NUMPY_MIN_P = 6

# Last forecast variance above which ``update_block`` steps a row alone
# rather than in a block.  While the prior dominates, the block's forecast
# covariance holds entries this large against its unit observation noise.
# Blocks from the first row on were up to 1.9e-7 of the largest
# coefficient from the row filter (p = 64, regressors scaled by 1e3, delta
# 1e-6); with this limit the gap was at most 1.9e-12 over p in {1, 3, 8,
# 15, 16, 17, 64}, regressor scales 1e-3 to 1e3 and delta 1e-6 to 0.9999
# (TestBlockStep.test_engine_matches_row_steps).
BLOCK_MAX_Q = 1e4

# Most rows one block step takes.  At p = 3 and 8, blocks of 64 rows cost
# 1.5-1.7 us a row, against 3.0-3.3 us for 128 and 12 us for row steps
# (BLAS at one thread).  At p = 432 the backtest's writer block (18 rows)
# is the tighter bound.
_BLOCK_MAX_ROWS = 64


@functools.cache
def _scipy_linalg():
    """``(blas, lapack)``: scipy's BLAS and LAPACK wrappers, imported on the
    first call."""
    from scipy.linalg import blas, lapack

    return blas, lapack


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
    """One filter update, with numpy or BLAS for the forecast and for P,
    and unit observation noise.

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
        blas = _scipy_linalg()[0]
        Rx = blas.dsymv(1.0, P.T, x, lower=0) + vomega * x
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
        blas.dsyr(-1.0, g, a=P.T, lower=0, overwrite_a=1)
    else:
        P -= g[:, None] * g
    return _ACCEPTED, beta_new, e, q, K


@np.errstate(all="ignore")
def _kf_block_impl(P, beta, X, Y, vomega, betas):
    """The updates of the ``B`` rows of ``X`` and ``Y`` as one step, each
    row's ``beta'``, ``e`` and ``q`` those of :func:`_kf_step_impl` on the
    rows in turn, up to rounding.

    Given ``beta``, the rows' forecast errors have the covariance whose
    lower triangle is that of ``X A + I``, ``A = P X' + vomega X'
    diag(1..B)`` (row ``j``'s coefficients have drifted ``j`` steps).  Its
    Cholesky factor ``L`` gives the innovations (Kailath 1968):
    ``eps = L^-1 (Y - X beta)``, ``e_i = L_ii eps_i``, ``q_i = L_ii^2``.
    With ``G = A L^-T``, row ``i``'s coefficients are ``beta + G_1 eps_1
    + ... + G_i eps_i``, and ``P <- P + B vomega I - G G'``.

    ``betas``, C-ordered ``(B, p)``, holds ``A`` and ``G`` before the
    coefficient rows.  Returns ``(e, q)``; or ``None``, leaving ``P`` as
    it was, when the factorization fails or a row fails the checks of
    :func:`_kf_step_impl`.  Below ``_BLAS_MIN_P`` it runs on numpy and
    keeps both of P's triangles; from it, like :func:`_kf_step_impl`, on
    P's lower triangle alone, with ``dsymm`` and ``dsyrk`` (Dongarra et
    al. 1990, ACM TOMS 16), ``dpotrf`` and ``dtrsm``.
    """
    B, p = X.shape
    drift = np.arange(1.0, B + 1.0)
    drift *= vomega
    # einsum scales rows without the iterator buffers of a broadcast
    # multiply, which would take as much memory as betas.
    np.einsum("ij,i->ij", X, drift, out=betas)
    A = betas.T
    wide = p >= _BLAS_MIN_P
    if wide:
        blas, lapack = _scipy_linalg()
        # X' for dsymm, then G for dsyrk: one (p, B) temporary, freed
        # with the step, so that a pass holds none between its blocks.
        G = np.array(X.T, order="F")
        blas.dsymm(1.0, P.T, G, beta=1.0, c=A, lower=0, overwrite_c=1)
        S = X @ A
        S.ravel()[:: B + 1] += 1.0
        # The factor of Sigma is U', U upper in the Fortran-ordered S.T.
        U, info = lapack.dpotrf(S.T, lower=0, overwrite_a=1)
        if info:
            return None
        eps = blas.dtrsv(U, Y - X @ beta, lower=0, trans=1)
        blas.dtrsm(1.0, U, A, side=1, lower=0, overwrite_b=1)
        np.copyto(G, A)
        d = np.diagonal(U)
    else:
        A += P @ X.T
        S = X @ A
        S.ravel()[:: B + 1] += 1.0
        try:
            L = np.linalg.cholesky(S)       # reads the lower triangle alone
        except np.linalg.LinAlgError:
            return None
        solved = np.linalg.solve(L, np.column_stack((Y - X @ beta, betas)))
        eps, G = solved[:, 0], solved[:, 1:].T
        d = np.diagonal(L)
    e = d * eps
    q = d * d
    if not (np.isfinite(e).all() and np.isfinite(q).all() and (q > 0.0).all()):
        return None
    # Row i is beta + G_1 eps_1 + ... + G_i eps_i, summed in that order, so
    # the last row is finite only if every row is.
    np.einsum("ij,i->ij", G.T, eps, out=betas)
    betas[0] += beta
    np.cumsum(betas, axis=0, out=betas)
    if not np.isfinite(betas[-1]).all():
        return None
    P.ravel()[:: p + 1] += B * vomega
    if wide:
        blas.dsyrk(-1.0, G, beta=1.0, c=P.T, lower=0, overwrite_c=1)
    else:
        P -= G @ G.T
    return e, q


def _kf_step_loops(P, beta, x, y, vomega):
    """The update of :func:`_kf_step_impl` on Python floats, for narrow
    filters: the same contract and the same checks, in the same order.

    Each sum runs left to right, so at ``p = 1`` every operation is the
    numpy step's and the bits agree; from ``p = 2`` numpy's dot products
    may fuse or reorder theirs, and the two agree to rounding.  Python's
    float arithmetic gives ``inf`` or ``nan`` on overflow without a
    warning, and an accepted step divides only by ``q > 0`` and its square
    root, so this step needs no ``np.errstate``.
    """
    xs = x.tolist()
    bs = beta.tolist()
    flat = P.ravel().tolist()           # P's rows, end to end
    p = len(xs)
    Rx = []
    q = xb = 0.0
    k = 0
    for xi, b in zip(xs, bs):
        s = 0.0
        for xj in xs:
            s += flat[k] * xj
            k += 1
        r = s + vomega * xi
        Rx.append(r)
        q += xi * r
        xb += xi * b
    q += 1.0
    e = y - xb
    if math.isfinite(q) and math.isfinite(e) and q > 0.0:
        K = [r / q for r in Rx]
        beta_new = [b + e * k for b, k in zip(bs, K)]
        if all(map(math.isfinite, beta_new)):
            root = math.sqrt(q)
            g = [r / root for r in Rx]
            for i in range(0, p * p, p + 1):
                flat[i] += vomega       # flat is now P + vomega I
            gg = [a * b for a in g for b in g]
            P.ravel()[:] = list(map(operator.sub, flat, gg))
            return _ACCEPTED, np.array(beta_new), e, q, np.array(K)
    # Rejected: the numpy step's gain and checks, which may overflow or
    # divide by zero, on this path alone.
    with np.errstate(all="ignore"):
        K = np.divide(Rx, q)
        return _status(e, q, beta + e * K), beta, e, q, K


def _step_for_width(p: int):
    """The row step of one filter of ``p`` coefficients: :func:`_kf_step_loops`
    below ``_NUMPY_MIN_P``, else :func:`_kf_step_impl` (numpy below
    ``_BLAS_MIN_P``, BLAS from it).

    Reads the module's names when called, so a stand-in installed there is
    the one chosen.
    """
    return _kf_step_impl if p >= _NUMPY_MIN_P else _kf_step_loops


# Reciprocal-condition floor below which a normal-equations solve is
# treated as underdetermined rather than silently amplified.
_RCOND_FLOOR = 1e-14

# Default diffuse prior: the Kalman route starts at P = PRIOR_SCALE * I,
# the penalized route at S0 = I / PRIOR_SCALE.  Large enough that the data
# dominate after a handful of observations, small enough to keep the first
# few solves well conditioned.
DEFAULT_PRIOR_SCALE = 1e6


class UnderdeterminedError(ValueError):
    """Normal equations are singular: not enough informative observations."""


class RejectedStep(ValueError):
    """A filter update was refused and the state left as it was."""


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
    dger = _scipy_linalg()[0].dger      # dep -= K E' needs no symmetry

    # Forward: the filter from a zero mean with the first row taken as
    # known, and dep = d(forecast mean)/d(first row).
    P = np.zeros((p, p))
    beta = np.zeros(p)
    dep = np.eye(p)
    e, q = np.empty(T), np.empty(T)
    E, K = np.empty((T, p)), np.empty((T, p))
    with np.errstate(over="ignore", invalid="ignore"):
        for t, y in enumerate(ys.tolist()):
            E[t] = xs[t] @ dep
            status, beta, e[t], q[t], K[t] = step(
                P, beta, xs[t], y, vomega if t else 0.0
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
    """Per-step byproducts of a Kalman update."""

    innovation: float     # observation minus its one-step forecast
    forecast_var: float   # variance of that forecast error


class KalmanEstimator:
    """Inversion-free recursive estimator for drifting coefficients.

    Random-walk coefficient dynamics with isotropic state noise ``vomega``
    per step and unit observation noise.  Another noise level ``c`` is the
    unit-noise filter fed ``x/sqrt(c)`` and ``y/sqrt(c)``, so it needs no
    argument.  No distributional assumptions are needed for the algebra;
    the recursion is used here purely as the O(p^2) route to the penalized
    least-squares path (see :meth:`fls_equivalent` for the exact
    correspondence).

    The prior covariance is ``prior_scale * I``, by default
    ``DEFAULT_PRIOR_SCALE``; zero starts the coefficients known.
    ``prior_scale`` is keyword-only, so a call that still passes an
    observation noise third fails rather than setting the prior.

    ``update`` steps one row, with the step chosen once, at construction,
    by width (:func:`_step_for_width`): from ``p = _BLAS_MIN_P`` the
    one-triangle BLAS step of :func:`_kf_step_impl`, from
    ``_NUMPY_MIN_P`` its numpy step, and below that the same step on
    Python floats, :func:`_kf_step_loops`.  ``update_block`` steps a run
    of rows, in blocks (:func:`_kf_block_impl`) once the prior no longer
    dominates.

    Not thread-safe: ``update`` mutates in place.  The covariance state is
    kept in one buffer, downdated in place; from ``p = _BLAS_MIN_P`` the
    steps keep only its lower triangle current.  Reading ``P`` gives a new
    read-only symmetric array, mirrored from that triangle.
    """

    def __init__(
        self, p: int, vomega: float, *, prior_scale: float = DEFAULT_PRIOR_SCALE
    ) -> None:
        if not isinstance(p, (int, np.integer)) or p < 1:
            raise ValueError(f"p must be a positive integer, got {p!r}")
        vomega = float(vomega)
        if not (vomega >= 0.0 and math.isfinite(vomega)):
            raise ValueError(f"vomega must be finite and >= 0, got {vomega}")
        if not (prior_scale >= 0.0 and math.isfinite(prior_scale)):
            raise ValueError(f"prior_scale must be finite and >= 0, got {prior_scale}")
        self.p = int(p)
        self.vomega = vomega
        self._step = _step_for_width(self.p)
        # scale * I, without an identity matrix as scratch.
        self._cov = np.zeros((self.p, self.p))
        self._cov.ravel()[:: self.p + 1] = prior_scale
        self.beta = np.zeros(self.p)
        self.t = 0
        self._last_q = math.inf     # the last step's forecast variance

    @property
    def P(self) -> NDArray[np.float64]:
        """The covariance, ``(p, p)``.

        A new read-only array on every read, symmetric: the stored lower
        triangle, mirrored.  Every step keeps that triangle current (the
        narrow ones keep both), so the mirror is the state.  The next
        update does not change it.
        """
        P = np.where(np.tri(self.p, dtype=bool), self._cov, self._cov.T)
        P.flags.writeable = False
        return P

    @classmethod
    def from_smoothing(
        cls,
        p: int,
        smoothing: Smoothing,
        prior_scale: float = DEFAULT_PRIOR_SCALE,
    ) -> "KalmanEstimator":
        """Estimator whose state noise matches a smoothness weight.

        State noise ``1/mu`` per coefficient with unit observation noise
        makes the filtered path the penalized one, up to the prior.
        """
        return cls(p, vomega=1.0 / smoothing.mu, prior_scale=prior_scale)

    @classmethod
    def fls_equivalent(
        cls,
        p: int,
        smoothing: Smoothing,
        s0_scale: float = 1.0 / DEFAULT_PRIOR_SCALE,
    ) -> "KalmanEstimator":
        """Estimator matching :class:`FlsEstimator` step for step.

        The first-step predictive spread must equal the inverse of the
        penalized prior curvature, so ``prior_scale = 1/s0_scale - vomega``.
        That requires ``s0_scale <= mu``; tighter priors have no exact
        filter counterpart with nonnegative starting spread.
        """
        if not (s0_scale > 0.0):
            raise ValueError("exact matching needs an invertible prior (s0_scale > 0)")
        vom = 1.0 / smoothing.mu
        p0 = 1.0 / s0_scale - vom
        if p0 < 0.0:
            raise ValueError(f"s0_scale {s0_scale} exceeds mu {smoothing.mu}; "
                             "no matching filter prior exists")
        return cls(p, vomega=vom, prior_scale=p0)

    def update(self, x, y: float) -> KfDiagnostics:
        """Consume one observation; returns the step diagnostics.

        Raises :class:`RejectedStep`, leaving the state untouched, when
        ``x`` or ``y`` is not finite or the step would leave a non-finite
        state or a forecast variance that is not positive.
        """
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.shape != (self.p,):
            raise ValueError(f"x must have shape ({self.p},), got {x.shape}")
        y = float(y)
        status, beta_new, e, q, _ = self._step(self._cov, self.beta, x, y, self.vomega)
        # A non-finite x or y makes e or q non-finite, so the kernel
        # rejects it; its message is chosen here, on that path alone.
        if status != _ACCEPTED:
            if not (math.isfinite(y) and np.isfinite(x).all()):
                raise RejectedStep("x and y must be finite")
            if status == _NONPOSITIVE:
                raise RejectedStep(f"forecast variance must stay positive, got {q}")
            raise RejectedStep("non-finite update: check the scale of x and the state")
        self.beta = beta_new
        self.t += 1
        self._last_q = q
        return KfDiagnostics(innovation=e, forecast_var=q)

    def update_block(self, X, Y, out):
        """Consume the rows of ``X`` (B, p) and ``Y`` (B,) as B calls of
        :meth:`update` would, to rounding.

        Writes each row's updated coefficients into ``out``, a C-contiguous
        float64 (B, p) array, and returns each row's innovation and forecast
        variance, ``(e, q)``.  While the last forecast variance exceeds
        :data:`BLOCK_MAX_Q` a row steps alone, through :meth:`update`;
        otherwise rows step in blocks of at most ``_BLOCK_MAX_ROWS``
        (:func:`_kf_block_impl`), and each row of a block that step refuses
        steps alone.  So a row :meth:`update` would reject raises its
        :class:`RejectedStep`, with the rows before it stepped: ``t`` has
        advanced by their count and ``out`` holds their coefficients.
        Raises ``ValueError``, before any step, on a misshapen input.
        """
        X = np.asarray(X, dtype=np.float64)
        Y = np.asarray(Y, dtype=np.float64)
        B = len(X)
        if X.shape != (B, self.p) or Y.shape != (B,):
            raise ValueError(f"X must be (B, {self.p}) and Y (B,)")
        if not (
            isinstance(out, np.ndarray) and out.dtype == np.float64
            and out.shape == X.shape and out.flags.c_contiguous
        ):
            raise ValueError(f"out must be a C-contiguous float64 ({B}, {self.p}) array")
        e, q = np.empty((2, B))
        i = 0
        while i < B:
            end, stepped = i + 1, None
            if self._last_q <= BLOCK_MAX_Q:
                end = min(B, i + _BLOCK_MAX_ROWS)
                stepped = _kf_block_impl(
                    self._cov, self.beta, X[i:end], Y[i:end], self.vomega, out[i:end]
                )
            if stepped is None:
                for j in range(i, end):
                    diag = self.update(X[j], Y[j])
                    e[j], q[j], out[j] = diag.innovation, diag.forecast_var, self.beta
            else:
                e[i:end], q[i:end] = stepped
                self.beta = out[end - 1].copy()
                self.t += end - i
                self._last_q = q[end - 1]
            i = end
        return e, q


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
