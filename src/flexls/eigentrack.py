"""Streaming estimation of the leading eigenvectors of a second-moment matrix.

Covariance-free: the tracker never forms the p-by-p moment matrix.  Each
component is an unnormalized vector whose direction estimates an eigenvector
and whose length estimates the matching eigenvalue.  A new sample updates
component ``j`` with the sample's projection onto it, then the sample is
deflated (its span along component ``j`` removed) before it reaches
component ``j+1``, which is what separates the components.

Intended use here: compress a wide vector of explanatory return streams to
a few factor scores before they enter the regression estimator, keeping the
whole pipeline single-pass.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.typing import NDArray


class NotReadyError(RuntimeError):
    """Projection requested before every component has been seeded."""


class EigenTracker:
    """Incremental tracker for the top-k eigenpairs of a data stream.

    ``amnesia`` >= 0 down-weights old samples once a component has
    absorbed more than ``1 + amnesia`` of them (Weng, Zhang & Hwang 2003);
    zero reproduces the plain running average.  Component ``j`` is seeded
    by the ``j``-th deflated residual of an incoming sample, so warm-up
    completes once ``k`` informative (linearly independent) samples have
    arrived; ``ready`` reports that.  A component collapses to zero only
    when its squared length underflows (one seeded from a sample of about
    1e-100, say); ``ready`` is then false again until a later sample
    re-seeds it.  ``project`` and ``components`` refuse to run while
    ``ready`` is false.
    """

    def __init__(self, p: int, k: int, amnesia: float = 0.0) -> None:
        if not isinstance(p, (int, np.integer)) or p < 1:
            raise ValueError(f"p must be a positive integer, got {p!r}")
        if not isinstance(k, (int, np.integer)) or not (1 <= k <= p):
            raise ValueError(f"k must satisfy 1 <= k <= p, got {k!r}")
        if not (amnesia >= 0.0) or not math.isfinite(amnesia):
            raise ValueError(f"amnesia must be finite and >= 0, got {amnesia}")
        self.p = int(p)
        self.k = int(k)
        self.amnesia = float(amnesia)
        self.h = np.zeros((self.k, self.p))   # unnormalized components, row j
        self.counts = np.zeros(self.k, dtype=int)  # samples absorbed per row
        self._active = 0                      # rows seeded so far
        # Row j's length and direction as ``update`` last wrote it; a zero
        # length marks a row not yet seeded or collapsed.
        self._norms = [0.0] * self.k
        self._units = [None] * self.k
        self._basis = None                    # sign-fixed units, built on demand

    @property
    def ready(self) -> bool:
        return all(self._norms)

    def update(self, r) -> float:
        """Absorb one sample.

        Returns this step's deflation defect: the largest magnitude of the
        inner product between a deflated residual and the (unit) component
        it was just deflated against.  Exact arithmetic would make it zero;
        it measures only rounding, not component orthogonality.
        """
        r = np.asarray(r, dtype=float)
        if r.shape != (self.p,):
            raise ValueError(f"sample must have shape ({self.p},), got {r.shape}")
        if not np.all(np.isfinite(r)):
            raise ValueError("sample contains non-finite values")
        self._basis = None
        u = r.copy()
        # Deflation leaves rounding dust (~eps * sample norm) even when a
        # sample is fully explained; anything below this floor carries no
        # usable direction and must not seed a component.
        seed_floor = 1e-12 * math.sqrt(u @ u)
        defect = 0.0
        seeded = False
        for j in range(self.k):
            fresh = j == self._active
            if fresh and seeded:
                break               # at most one new component per sample
            norm_h = self._norms[j]
            if norm_h == 0.0:
                # Seed a new component, or re-seed a collapsed one, from the
                # current residual, but only one with real signal.
                norm_h = math.sqrt(u @ u)
                if norm_h <= seed_floor:
                    break
                self.h[j] = u
                self.counts[j] = 0
                g = u / norm_h
                if fresh:
                    self._active += 1
                    seeded = True
            else:
                g = self._units[j]
            n_j = self.counts[j] + 1
            # Amnesia applies once it leaves the old estimate a positive
            # weight; a component's first samples take the plain average.
            ell = self.amnesia if n_j > 1.0 + self.amnesia else 0.0
            w_old = (n_j - 1.0 - ell) / n_j
            w_new = (1.0 + ell) / n_j
            hj = w_old * self.h[j] + w_new * float(u @ g) * u
            self.h[j] = hj
            self.counts[j] = n_j
            # Deflate against the freshly updated direction before the
            # residual feeds the next component.
            norm_h = math.sqrt(hj @ hj)
            self._norms[j] = norm_h
            if norm_h == 0.0:
                break
            g = hj / norm_h
            self._units[j] = g
            u = u - float(u @ g) * g
            defect = max(defect, abs(float(u @ g)))
        return defect

    @property
    def eigenvalues(self) -> NDArray[np.float64]:
        """Current eigenvalue estimates (component norms), length k."""
        return np.linalg.norm(self.h, axis=1)

    def _signed_basis(self) -> NDArray[np.float64]:
        """The unit components, sign-fixed once per update."""
        if not self.ready:
            if self._active < self.k:
                raise NotReadyError(
                    f"only {self._active} of {self.k} components seeded; "
                    "feed more informative samples"
                )
            raise NotReadyError(
                f"component {self._norms.index(0.0)} collapsed to zero; "
                "feed more informative samples"
            )
        if self._basis is None:
            units = np.array(self._units)
            pivot = units[np.arange(self.k), np.argmax(np.abs(units), axis=1)]
            self._basis = np.where(pivot < 0.0, -1.0, 1.0)[:, None] * units
        return self._basis

    def components(self) -> NDArray[np.float64]:
        """Unit-norm components as rows of a (k, p) array.

        Sign convention: each row's largest-magnitude entry is positive, so
        exported paths do not flip arbitrarily between steps.  Raises
        :class:`NotReadyError` during warm-up and while a collapsed
        component waits to be re-seeded.
        """
        return self._signed_basis().copy()

    def project(self, r) -> NDArray[np.float64]:
        """Coordinates of a sample in the tracked basis, length k."""
        r = np.asarray(r, dtype=float)
        if r.shape != (self.p,):
            raise ValueError(f"sample must have shape ({self.p},), got {r.shape}")
        return self._signed_basis() @ r
