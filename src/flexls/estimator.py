"""Time-varying linear regression, estimated recursively.

Two routes to the same coefficient path:

* ``FlsEstimator`` solves a penalized least-squares problem one observation
  at a time.  The running state is a quadratic cost surface; each update
  folds in one observation and one smoothness penalty, and the estimate is
  the minimizer of the updated surface.  Costs two symmetric solves per step.
* ``KalmanEstimator`` is the inversion-free form of the same recursion.
  With state noise ``1/mu`` per coefficient and unit observation noise it
  reproduces the penalized path to rounding error, at O(p^2) per step, so it
  is the preferred engine for wide regressions.

``fls_smooth_batch`` runs the penalized recursion over a whole sample and
then sweeps backward, re-estimating every coefficient with hindsight.  The
smoothed path is the global minimizer of the full objective.  ``ols_fit``
is the constant-coefficient reference the penalized path collapses to as
the smoothness weight grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np
from numpy.typing import NDArray
from scipy.linalg import LinAlgError, cho_factor, cho_solve, lapack
from scipy.linalg.blas import dger

# Outcome of a filter step.  A rejected step writes nothing.
_ACCEPTED, _NONFINITE, _NONPOSITIVE = 0, 1, 2


def _dger_is_symmetric() -> bool:
    """Whether this BLAS's ``dger`` rounds ``a_ij - g_i*g_j`` and
    ``a_ji - g_j*g_i`` alike.

    The BLAS interface does not promise it: a kernel may fuse the multiply
    and the add in its vector body but not in its scalar tail.  47 rows
    leave a tail after any vector width up to 32.
    """
    rng = np.random.default_rng(0)
    a = rng.standard_normal((47, 47))
    a = np.asfortranarray(a + a.T)
    g = rng.standard_normal(47)
    dger(-1.0, g, g, a=a, overwrite_a=1)
    return bool(np.array_equal(a, a.T))


_DGER_SYMMETRIC = _dger_is_symmetric()


# Finite inputs can still overflow against a badly scaled state.  Such a
# step is rejected, so numpy need not warn about it.
@np.errstate(all="ignore")
def _kf_step_impl(P, beta, x, y, veps, vomega):
    """One filter update, interpreted: numpy for the forecast, BLAS for P.

    Returns ``(status, beta', e, q, K)``.  Only an accepted step (finite
    ``e``, ``q`` and ``beta'``, and ``q > 0``) writes, and it writes only
    ``P``, which must be C-ordered, in its own buffer:
    ``P <- P + vomega I - g g'`` with ``g = (P + vomega I) x / sqrt(q)``.
    A rejected step leaves every input as it was.

    The rank-1 term is one ``dger`` call.  P stays bitwise symmetric only
    where this BLAS rounds both triangles alike (:func:`_dger_is_symmetric`,
    true of the OpenBLAS this was tested with); elsewhere the step
    subtracts ``np.outer(g, g)``, symmetric by construction and several
    times slower at large p.
    """
    Rx = np.dot(P, x) + vomega * x
    q = np.dot(x, Rx) + veps
    e = y - np.dot(x, beta)
    K = Rx / q
    beta_new = beta + e * K
    if not (math.isfinite(q) and math.isfinite(e)):
        return _NONFINITE, beta, e, q, K
    if not q > 0.0:
        return _NONPOSITIVE, beta, e, q, K
    if not np.isfinite(beta_new).all():
        return _NONFINITE, beta, e, q, K
    P.ravel()[:: P.shape[0] + 1] += vomega
    g = Rx / math.sqrt(q)
    if _DGER_SYMMETRIC:
        dger(-1.0, g, g, a=P.T, overwrite_a=1)     # P.T is Fortran-ordered
    else:
        P -= np.outer(g, g)
    return _ACCEPTED, beta_new, e, q, K


def _kf_step_loops(P, beta, x, y, veps, vomega):
    """The update of :func:`_kf_step_impl`, written for numba to compile.

    Same contract and checks in one compiled call, with nothing allocated
    at p x p.  The downdate walks the upper triangle and mirrors each
    entry, so P stays symmetric by construction on any BLAS.
    """
    Rx = np.dot(P, x) + vomega * x
    q = np.dot(x, Rx) + veps
    e = y - np.dot(x, beta)
    if not (math.isfinite(q) and math.isfinite(e)):
        return _NONFINITE, beta, e, q, Rx
    if not q > 0.0:
        return _NONPOSITIVE, beta, e, q, Rx
    K = Rx / q
    beta_new = beta + e * K
    for b in beta_new:
        if not math.isfinite(b):
            return _NONFINITE, beta, e, q, K
    g = Rx / math.sqrt(q)
    p = x.shape[0]
    for i in range(p):
        gi = g[i]
        P[i, i] = (P[i, i] + vomega) - gi * gi
        for j in range(i + 1, p):
            v = P[i, j] - gi * g[j]
            P[i, j] = v
            P[j, i] = v
    return _ACCEPTED, beta_new, e, q, K


try:
    from numba import njit

    _kf_step = njit(cache=True)(_kf_step_loops)
    KERNEL_BACKEND = "numba"
except ImportError:   # pragma: no cover - numba is a declared dependency
    # Interpreted, the loops would cost a Python step per entry of P.
    _kf_step = _kf_step_impl
    KERNEL_BACKEND = "python"

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

    @classmethod
    def from_mu(cls, mu: float) -> "Smoothing":
        if not (mu > 0.0) or not math.isfinite(mu):
            raise ValueError(f"mu must be finite and positive, got {mu}")
        return cls(delta=1.0 / (1.0 + mu))


def _as_vector(x, p: int, name: str) -> NDArray[np.float64]:
    v = np.asarray(x, dtype=float)
    if v.shape != (p,):
        raise ValueError(f"{name} must have shape ({p},), got {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite values")
    return v


def _solve_checked(a: NDArray[np.float64], b: NDArray[np.float64]):
    """Solve a symmetric PSD system, refusing ill-conditioned ones."""
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


def _fls_step(S, s, r, x, y, mu, want_gain: bool):
    """One forward update of the penalized cost surface.

    Returns the new surface (S', s', r') plus the backward-pass pair
    (d, M) when requested.  Does not touch the coefficient estimate; the
    surface update is well defined even while the problem is still
    underdetermined.
    """
    p = x.shape[0]
    B = S + np.outer(x, x)          # curvature seen by the estimate
    b = s + x * y
    A = B + mu * np.eye(p)          # curvature seen by the next step
    cf = cho_factor(A, lower=True, check_finite=False)  # A >= mu*I, always PD
    d = cho_solve(cf, b, check_finite=False)
    S_new = mu * cho_solve(cf, B, check_finite=False)
    S_new = 0.5 * (S_new + S_new.T)
    s_new = mu * d
    r_new = r + y * y - float(b @ d)
    M = mu * cho_solve(cf, np.eye(p), check_finite=False) if want_gain else None
    return B, b, S_new, s_new, r_new, d, M


class FlsEstimator:
    """Penalized recursive estimator for drifting regression coefficients.

    State is the quadratic cost surface (``S``, ``s``, ``r``): ``S`` is the
    curvature, ``s`` the linear term, ``r`` the data-only constant, so the
    cost of ending at coefficient vector b after ``t`` observations is
    ``r + b'Sb - 2 b's`` up to the minimized remainder.  The estimate is
    the surface minimizer, ``beta = solve(S, s)``.

    ``s0_scale`` sets the prior curvature ``S0 = s0_scale * I``.  Zero keeps
    the textbook flat start, in which case the first updates raise
    :class:`UnderdeterminedError` until the observed regressors span the
    coefficient space.  The default diffuse prior avoids that.

    Not thread-safe: ``update`` mutates in place.  Use :meth:`copy` to
    branch a stream.
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
        self.r = 0.0
        self.beta = np.zeros(self.p)
        self.t = 0

    def update(self, x, y: float) -> NDArray[np.float64]:
        """Consume one observation and return the new coefficient estimate.

        Raises :class:`UnderdeterminedError`, leaving the state untouched,
        when the accumulated regressors do not yet pin down an estimate.
        """
        x = _as_vector(x, self.p, "x")
        y = float(y)
        if not math.isfinite(y):
            raise ValueError("y must be finite")
        B, b, S_new, s_new, r_new, _, _ = _fls_step(
            self.S, self.s, self.r, x, y, self.smoothing.mu, want_gain=False
        )
        beta = _solve_checked(B, b)     # raises before any state is committed
        self.S, self.s, self.r = S_new, s_new, r_new
        self.beta = beta
        self.t += 1
        return beta.copy()

    def minimized_cost(self) -> float:
        """Objective value attained by the best coefficient path so far."""
        return self.r + float(self.beta @ self.S @ self.beta) - 2.0 * float(
            self.beta @ self.s
        )

    def copy(self) -> "FlsEstimator":
        dup = FlsEstimator.__new__(FlsEstimator)
        dup.p = self.p
        dup.smoothing = self.smoothing
        dup.S = self.S.copy()
        dup.s = self.s.copy()
        dup.r = self.r
        dup.beta = self.beta.copy()
        dup.t = self.t
        return dup


@dataclass
class SmootherTape:
    """Forward-pass record consumed by the backward smoothing sweep.

    ``d[t]`` is the data-driven component of the smoothed estimate at step
    ``t`` and ``gain[t]`` the matrix weighting the step-``t+1`` estimate;
    the smoothed path satisfies ``beta[t] = d[t] + gain[t] @ beta[t+1]``.
    One entry per observation consumed.
    """

    d: NDArray[np.float64]      # (T, p)
    gain: NDArray[np.float64]   # (T, p, p)

    def __len__(self) -> int:
        return self.d.shape[0]


def fls_smooth_batch(
    xs,
    ys,
    smoothing: Smoothing,
    prior: tuple[NDArray[np.float64], NDArray[np.float64]] | None = None,
    return_tape: bool = False,
):
    """Smoothed (hindsight) coefficient path over a complete sample.

    ``xs`` is (T, p), ``ys`` is (T,).  ``prior`` is an optional
    ``(S0, s0)`` pair; by default a diffuse ``S0 = I / DEFAULT_PRIOR_SCALE``
    with ``s0 = 0`` is used.  Returns the (T, p) path, or the pair
    ``(path, tape)`` when ``return_tape`` is set.

    Unlike the online estimator, intermediate steps never need their own
    coefficient solve, so a flat (zero) prior is acceptable as long as the
    terminal system is nonsingular; a singular terminal system raises
    :class:`UnderdeterminedError`.
    """
    xs = np.asarray(xs, dtype=float)
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
        S = np.eye(p) / DEFAULT_PRIOR_SCALE
        s = np.zeros(p)
    else:
        S0, s0 = prior
        S = np.asarray(S0, dtype=float).copy()
        s = np.asarray(s0, dtype=float).copy()
        if S.shape != (p, p) or s.shape != (p,):
            raise ValueError("prior shapes must be (p, p) and (p,)")
    r = 0.0
    mu = smoothing.mu

    ds = np.empty((T, p))
    gains = np.empty((T, p, p))
    B_last = None
    b_last = None
    for t in range(T):
        B, b, S, s, r, d, M = _fls_step(S, s, r, xs[t], ys[t], mu, want_gain=True)
        ds[t] = d
        gains[t] = M
        B_last, b_last = B, b

    path = np.empty((T, p))
    path[T - 1] = _solve_checked(B_last, b_last)
    for t in range(T - 2, -1, -1):
        path[t] = ds[t] + gains[t] @ path[t + 1]

    if return_tape:
        return path, SmootherTape(d=ds, gain=gains)
    return path


class KfDiagnostics(NamedTuple):
    """Per-step byproducts of a Kalman update."""

    innovation: float     # observation minus its one-step forecast
    forecast_var: float   # variance of that forecast error
    gain: NDArray[np.float64]


class KalmanEstimator:
    """Inversion-free recursive estimator for drifting coefficients.

    Random-walk coefficient dynamics with isotropic state noise ``vomega``
    per step and observation noise ``veps``.  No distributional assumptions
    are needed for the algebra; the recursion is used here purely as the
    O(p^2) route to the penalized least-squares path (see
    :meth:`fls_equivalent` for the exact correspondence).

    Not thread-safe: ``update`` mutates in place.  The covariance ``P`` is
    downdated in its own buffer, so an array read from ``P`` changes with
    the next update; hold a :meth:`copy` for a snapshot.
    """

    def __init__(
        self,
        p: int,
        vomega: float,
        veps: float = 1.0,
        prior_scale: float = DEFAULT_PRIOR_SCALE,
        P0: NDArray[np.float64] | None = None,
        beta0: NDArray[np.float64] | None = None,
    ) -> None:
        if not isinstance(p, (int, np.integer)) or p < 1:
            raise ValueError(f"p must be a positive integer, got {p!r}")
        if not (vomega >= 0.0) or not math.isfinite(vomega):
            raise ValueError(f"vomega must be finite and >= 0, got {vomega}")
        if not (veps > 0.0) or not math.isfinite(veps):
            raise ValueError(f"veps must be finite and positive, got {veps}")
        self.p = int(p)
        self.vomega = float(vomega)
        self.veps = float(veps)
        if P0 is None:
            if not (prior_scale > 0.0):
                raise ValueError(f"prior_scale must be positive, got {prior_scale}")
            self.P = np.eye(self.p) * float(prior_scale)
        else:
            P0 = np.asarray(P0, dtype=float)
            if P0.shape != (self.p, self.p):
                raise ValueError(f"P0 must have shape ({p}, {p})")
            if not np.all(np.isfinite(P0)):
                raise ValueError("P0 must be finite")
            self.P = 0.5 * (P0 + P0.T)
            # P0 is a covariance: an eigenvalue below zero, beyond rounding,
            # makes the forecast variance of some regressor negative.
            eigs = np.linalg.eigvalsh(self.P)
            if eigs[0] < -1e-12 * np.abs(eigs).max():
                raise ValueError(
                    "P0 must be positive semidefinite, got eigenvalue "
                    f"{eigs[0]!r}"
                )
        self.beta = (
            np.zeros(self.p)
            if beta0 is None
            else _as_vector(beta0, self.p, "beta0").copy()
        )
        self.t = 0

    @classmethod
    def from_smoothing(
        cls, p: int, smoothing: Smoothing, veps: float = 1.0, **kwargs
    ) -> "KalmanEstimator":
        """Estimator whose state noise matches a smoothness weight.

        State noise ``1/mu`` per coefficient with unit observation noise
        makes the filtered path the penalized one, up to the prior.
        """
        return cls(p, vomega=1.0 / smoothing.mu, veps=veps, **kwargs)

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
        return cls(p, vomega=vom, veps=1.0, P0=np.eye(p) * p0)

    def update(self, x, y: float) -> KfDiagnostics:
        """Consume one observation; returns the step diagnostics.

        Raises ``ValueError``, leaving the state untouched, when ``x`` or
        ``y`` is not finite or the step would leave a non-finite state or a
        forecast variance that is not positive.
        """
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.shape != (self.p,):
            raise ValueError(f"x must have shape ({self.p},), got {x.shape}")
        y = float(y)
        if not (math.isfinite(y) and np.isfinite(x).all()):
            raise ValueError("x and y must be finite")
        # The step downdates P in its own buffer, which must be C-ordered;
        # it is, unless the attribute was replaced with another layout.
        self.P = P = np.ascontiguousarray(self.P)
        status, beta_new, e, q, K = _kf_step(
            P, self.beta, x, y, self.veps, self.vomega
        )
        if status != _ACCEPTED:
            if status == _NONPOSITIVE:
                raise ValueError(f"forecast variance must stay positive, got {q}")
            raise ValueError("non-finite update: check the scale of x and the state")
        self.beta = beta_new
        self.t += 1
        return KfDiagnostics(innovation=e, forecast_var=q, gain=K)

    def copy(self) -> "KalmanEstimator":
        dup = KalmanEstimator.__new__(KalmanEstimator)
        dup.p = self.p
        dup.vomega = self.vomega
        dup.veps = self.veps
        dup.P = self.P.copy()
        dup.beta = self.beta.copy()
        dup.t = self.t
        return dup


def ols_fit(xs, ys) -> NDArray[np.float64]:
    """Ordinary least squares over the whole sample.

    The constant-coefficient limit of the penalized path; used as a
    reference in tests and available for baseline comparisons.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 2 or ys.shape != (xs.shape[0],):
        raise ValueError("xs must be (T, p) with matching ys of length T")
    return _solve_checked(xs.T @ xs, xs.T @ ys)


def write_coefficient_csv(
    path,
    betas,
    innovations: Sequence[float] | None = None,
    forecast_vars: Sequence[float] | None = None,
) -> None:
    """Write a coefficient path as CSV.

    Columns are ``t`` (1-based), one ``beta_i`` per coefficient, then
    optional ``e`` and ``Q`` diagnostic columns.  Floats carry 17
    significant digits so reruns are byte-identical and lossless.
    """
    betas = np.asarray(betas, dtype=float)
    if betas.ndim != 2:
        raise ValueError("betas must be (T, p)")
    T, p = betas.shape
    header = ["t"] + [f"beta_{i + 1}" for i in range(p)]
    extras = []
    for name, col in (("e", innovations), ("Q", forecast_vars)):
        if col is not None:
            col = np.asarray(col, dtype=float)
            if col.shape != (T,):
                raise ValueError(f"{name} column must have length {T}")
            header.append(name)
            extras.append(col)

    # "%.17g" gives the same text as util.fmt_g17: lossless, byte-stable.
    row_fmt = "%d" + ",%.17g" * (p + len(extras)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for t, row in enumerate(np.column_stack([betas, *extras]).tolist(), 1):
            fh.write(row_fmt % (t, *row))
