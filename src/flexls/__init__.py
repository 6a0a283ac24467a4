"""Streaming time-varying linear regression with a futures backtest layer.

The pieces, in data-flow order: :mod:`flexls.ingest` loads aligned price
tables and turns them into log returns; :mod:`flexls.eigentrack` optionally
compresses wide return vectors into a few tracked factor scores;
:mod:`flexls.estimator` fits a drifting linear relation one observation at a
time (a Kalman filter, checked against the penalized recursion it equals,
plus a hindsight smoother);
:mod:`flexls.strategy` trades the regression residual and keeps a ledger;
:mod:`flexls.metrics` summarizes the ledger; :mod:`flexls.synth` generates
deterministic data for experiments; :mod:`flexls.cli` ties it together.

The package namespace holds only ``__version__``; import names from their
submodules, e.g. ``from flexls.estimator import KalmanEstimator``.
"""

__version__ = "0.1.0"
