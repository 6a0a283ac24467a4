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

    ``amnesia`` >= 0 down-weights old samples; zero reproduces the plain
    running average.  Component ``j`` is seeded by the ``j``-th deflated
    residual of an incoming sample, so warm-up completes once ``k``
    informative (linearly independent) samples have arrived; ``ready``
    reports that.  ``project`` and ``components`` refuse to run earlier.
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
        self.n = 0                            # samples seen overall
        self._active = 0                      # rows seeded so far

    @property
    def ready(self) -> bool:
        return self._active == self.k

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
        self.n += 1
        u = r.copy()
        # Deflation leaves rounding dust (~eps * sample norm) even when a
        # sample is fully explained; anything below this floor carries no
        # usable direction and must not seed a component.
        seed_floor = 1e-12 * float(np.linalg.norm(u))
        defect = 0.0
        seeded = False
        for j in range(self.k):
            if j == self._active:
                norm_u = float(np.linalg.norm(u))
                if seeded or norm_u <= seed_floor:
                    # At most one new component per sample, and only from a
                    # residual with real signal; the rest wait.
                    break
                self.h[j] = u.copy()
                self.counts[j] = 0
                self._active += 1
                seeded = True
            hj = self.h[j]
            norm_h = float(np.linalg.norm(hj))
            if norm_h == 0.0:
                # Collapsed component (possible under heavy amnesia): re-seed
                # from the current residual and continue.
                norm_u = float(np.linalg.norm(u))
                if norm_u <= seed_floor:
                    break
                self.h[j] = u.copy()
                self.counts[j] = 0
                hj = self.h[j]
                norm_h = norm_u
            g = hj / norm_h
            n_j = self.counts[j] + 1
            w_old = (n_j - 1.0 - self.amnesia) / n_j
            w_new = (1.0 + self.amnesia) / n_j
            self.h[j] = w_old * hj + w_new * float(u @ g) * u
            self.counts[j] = n_j
            # Deflate against the freshly updated direction before the
            # residual feeds the next component.
            hj = self.h[j]
            norm_h = float(np.linalg.norm(hj))
            if norm_h == 0.0:
                break
            g = hj / norm_h
            u = u - float(u @ g) * g
            defect = max(defect, abs(float(u @ g)))
        return defect

    @property
    def eigenvalues(self) -> NDArray[np.float64]:
        """Current eigenvalue estimates (component norms), length k."""
        return np.linalg.norm(self.h, axis=1)

    def components(self) -> NDArray[np.float64]:
        """Unit-norm components as rows of a (k, p) array.

        Sign convention: each row's largest-magnitude entry is positive, so
        exported paths do not flip arbitrarily between steps.  Raises
        :class:`NotReadyError` during warm-up.
        """
        if not self.ready:
            raise NotReadyError(
                f"only {self._active} of {self.k} components seeded; "
                "feed more informative samples"
            )
        out = np.empty_like(self.h)
        for j in range(self.k):
            norm_h = float(np.linalg.norm(self.h[j]))
            g = self.h[j] / norm_h
            pivot = int(np.argmax(np.abs(g)))
            out[j] = -g if g[pivot] < 0.0 else g
        return out

    def project(self, r) -> NDArray[np.float64]:
        """Coordinates of a sample in the tracked basis, length k."""
        r = np.asarray(r, dtype=float)
        if r.shape != (self.p,):
            raise ValueError(f"sample must have shape ({self.p},), got {r.shape}")
        return self.components() @ r
