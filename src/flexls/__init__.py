"""Streaming time-varying linear regression with a futures backtest layer.

The pieces, in data-flow order: :mod:`flexls.ingest` loads aligned price
tables and turns them into log returns; :mod:`flexls.eigentrack` optionally
compresses wide return vectors into a few tracked factor scores;
:mod:`flexls.estimator` fits a drifting linear relation one observation at a
time (penalized or Kalman form, plus a hindsight smoother);
:mod:`flexls.strategy` trades the regression residual and keeps a ledger;
:mod:`flexls.metrics` summarizes the ledger; :mod:`flexls.synth` generates
deterministic data for experiments; :mod:`flexls.cli` ties it together.
"""

from .eigentrack import EigenTracker, NotReadyError
from .estimator import (
    DEFAULT_PRIOR_SCALE,
    FlsEstimator,
    KalmanEstimator,
    KfDiagnostics,
    Smoothing,
    SmootherTape,
    UnderdeterminedError,
    fls_smooth_batch,
    ols_fit,
    write_coefficient_csv,
)
from .ingest import (
    DataError,
    PriceTable,
    ReturnMatrix,
    apply_split_factors,
    forward_fill,
    load_csv,
    load_split_file,
    to_log_returns,
    write_csv,
)
from .metrics import (
    BacktestReport,
    format_report_table,
    max_drawdown,
    mse_split,
    sharpe,
    summarize,
    write_report_csv,
)
from .strategy import (
    EstimatorConfig,
    FeatureConfig,
    Regressors,
    SizingConfig,
    SpreadPath,
    TradeLedger,
    compute_features,
    daily_pnl,
    estimate_spreads,
    order_size,
    position,
    run_backtest,
    signal,
    simulate_trading,
    write_ledger_csv,
)
from .synth import Fig2Config, MarketConfig, gen_fig2, gen_market

__version__ = "0.1.0"

__all__ = [
    "BacktestReport",
    "DataError",
    "DEFAULT_PRIOR_SCALE",
    "EigenTracker",
    "EstimatorConfig",
    "FeatureConfig",
    "Fig2Config",
    "FlsEstimator",
    "KalmanEstimator",
    "KfDiagnostics",
    "MarketConfig",
    "NotReadyError",
    "PriceTable",
    "Regressors",
    "ReturnMatrix",
    "SizingConfig",
    "SmootherTape",
    "Smoothing",
    "SpreadPath",
    "TradeLedger",
    "UnderdeterminedError",
    "apply_split_factors",
    "compute_features",
    "daily_pnl",
    "estimate_spreads",
    "fls_smooth_batch",
    "forward_fill",
    "format_report_table",
    "gen_fig2",
    "gen_market",
    "load_csv",
    "load_split_file",
    "max_drawdown",
    "mse_split",
    "ols_fit",
    "order_size",
    "position",
    "run_backtest",
    "sharpe",
    "signal",
    "simulate_trading",
    "summarize",
    "to_log_returns",
    "write_coefficient_csv",
    "write_csv",
    "write_ledger_csv",
    "write_report_csv",
]
