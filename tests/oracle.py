"""Independent reference implementations used only by tests.

Deliberately naive: the penalized time-varying regression objective is
minimized by assembling its full (T*p x T*p) normal equations densely and
solving once.  No recursions, no shared code with the package, so agreement
is evidence rather than tautology.
"""

from __future__ import annotations

import numpy as np


def penalized_path_direct(xs, ys, mu, S0=None, s0=None):
    """Global minimizer of the penalized time-varying regression objective.

    Objective over coefficient paths b_1..b_T:

        b_1' S0 b_1 - 2 s0' b_1
        + sum_t (y_t - x_t' b_t)^2
        + mu * sum_{t<T} ||b_{t+1} - b_t||^2

    Stationarity gives a block-tridiagonal system: diagonal block t is
    x_t x_t' + mu * (coupling count) * I (+ S0 at t=1), off-diagonal blocks
    are -mu * I, right-hand side x_t y_t (+ s0 at t=1).  Returns the (T, p)
    path.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    T, p = xs.shape
    if S0 is None:
        S0 = np.zeros((p, p))
    if s0 is None:
        s0 = np.zeros(p)

    A = np.zeros((T * p, T * p))
    rhs = np.zeros(T * p)
    eye = np.eye(p)
    for t in range(T):
        sl = slice(t * p, (t + 1) * p)
        A[sl, sl] += np.outer(xs[t], xs[t])
        rhs[t * p : (t + 1) * p] += xs[t] * ys[t]
        if t > 0:
            prev = slice((t - 1) * p, t * p)
            A[sl, sl] += mu * eye
            A[prev, prev] += mu * eye
            A[sl, prev] -= mu * eye
            A[prev, sl] -= mu * eye
    A[0:p, 0:p] += np.asarray(S0, dtype=float)
    rhs[0:p] += np.asarray(s0, dtype=float)
    return np.linalg.solve(A, rhs).reshape(T, p)


def path_cost(xs, ys, mu, path, S0=None, s0=None):
    """Objective value of an arbitrary coefficient path (see above)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    path = np.asarray(path, dtype=float)
    resid = ys - np.sum(xs * path, axis=1)
    cost = float(resid @ resid)
    if len(path) > 1:
        steps = np.diff(path, axis=0)
        cost += mu * float(np.sum(steps * steps))
    if S0 is not None:
        cost += float(path[0] @ np.asarray(S0) @ path[0])
    if s0 is not None:
        cost -= 2.0 * float(np.asarray(s0) @ path[0])
    return cost


def ols_fit(xs, ys):
    """Ordinary least squares over the whole sample, by the normal equations.

    The constant-coefficient limit of the penalized path.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    return np.linalg.solve(xs.T @ xs, xs.T @ ys)


def batch_eigh_basis(samples, k):
    """Top-k eigenvectors of the empirical second-moment matrix, as rows."""
    samples = np.asarray(samples, dtype=float)
    moment = samples.T @ samples / len(samples)
    vals, vecs = np.linalg.eigh(moment)
    order = np.argsort(vals)[::-1][:k]
    return vals[order], vecs[:, order].T
