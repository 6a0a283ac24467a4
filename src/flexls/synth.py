"""Deterministic synthetic data for experiments and tests.

Two generators:

* ``gen_fig2`` builds a single-regressor stream whose true coefficient path
  walks, jumps, drifts and finally oscillates.  The four regimes exercise a
  tracker across qualitatively different kinds of change and make tracking
  error easy to attribute.
* ``gen_market`` builds a small synthetic futures market: explanatory return
  streams driven by common factors plus idiosyncratic noise, and a target
  stream that is a fixed combination of the explanatory returns plus the
  increments of a mean-reverting level.  The level's increments are
  negatively autocorrelated, so fading the estimated residual is profitable
  by construction, which gives backtests a known-sign baseline.

Both generators are pure functions of their config (seed included): equal
configs give bitwise-equal output.  Random draws are taken in a fixed
documented order, so adding regimes or streams never silently reshuffles
existing ones.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .ingest import PriceTable


@dataclass(frozen=True)
class Fig2Config:
    """Knobs for the four-regime coefficient path.

    With ``steps = 300`` the regimes are: random walk up to ``walk_until``,
    a single jump of ``jump_size`` at ``jump_step``, a near-constant drift
    through ``drift_until``, then a noisy sinusoid to the end.  The
    regressor is a first-order autoregression with Gaussian shocks of scale
    ``ar_noise_sd``, and the observation noise is bounded uniform.
    """

    steps: int = 300
    beta_start: float = 7.0
    walk_until: int = 99
    jump_step: int = 100
    jump_size: float = 4.0
    drift_until: int = 200
    walk_sd: float = 0.1
    drift_sd: float = 0.001
    sine_amplitude: float = 5.0
    sine_frequency: float = 0.5
    sine_noise_bound: float = 2.0
    obs_noise_bound: float = 2.0
    ar_coeff: float = 0.8
    # Regressor shock scale.  Large enough that the bounded observation
    # noise stays small relative to the regressor's variation; with weak
    # shocks the coefficient is unidentified wherever x_t passes near zero
    # and no estimator can track it.
    ar_noise_sd: float = 8.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if not (1 <= self.walk_until < self.jump_step <= self.drift_until):
            raise ValueError(
                "regime boundaries must satisfy "
                "1 <= walk_until < jump_step <= drift_until"
            )
        for name in ("walk_sd", "drift_sd", "sine_noise_bound", "obs_noise_bound"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")
        if self.ar_noise_sd < 0.0:
            raise ValueError("ar_noise_sd must be >= 0")
        if not (-1.0 < self.ar_coeff < 1.0):
            raise ValueError("ar_coeff must lie in (-1, 1) for a stationary regressor")


def gen_fig2(cfg: Fig2Config) -> tuple[
    NDArray[np.float64], NDArray[np.float64], NDArray[np.float64]
]:
    """Generate one stream; returns ``(x, y, beta_true)``, each length steps.

    Draw order (fixed): regressor shocks, walk noise, drift noise, sine
    noise, observation noise.  Full-length arrays are drawn for every
    regime even where unused, which keeps each regime's randomness
    independent of the others' boundaries.
    """
    rng = np.random.default_rng(cfg.seed)
    T = cfg.steps
    z = rng.standard_normal(T) * cfg.ar_noise_sd
    walk_noise = rng.normal(0.0, cfg.walk_sd, T)
    drift_noise = rng.normal(0.0, cfg.drift_sd, T)
    sine_noise = rng.uniform(-cfg.sine_noise_bound, cfg.sine_noise_bound, T)
    obs_noise = rng.uniform(-cfg.obs_noise_bound, cfg.obs_noise_bound, T)

    beta = np.empty(T)
    beta[0] = cfg.beta_start
    for t in range(2, T + 1):           # 1-based step index
        i = t - 1
        if t <= cfg.walk_until:
            beta[i] = beta[i - 1] + walk_noise[i]
        elif t == cfg.jump_step:
            beta[i] = beta[i - 1] + cfg.jump_size
        elif t <= cfg.drift_until:
            beta[i] = beta[i - 1] + drift_noise[i]
        else:
            beta[i] = cfg.sine_amplitude * math.sin(cfg.sine_frequency * t) + sine_noise[i]

    # Start the regressor at its stationary scale so step 1 is as
    # informative as any other.
    x = np.empty(T)
    x[0] = z[0] / math.sqrt(1.0 - cfg.ar_coeff**2)
    for i in range(1, T):
        x[i] = cfg.ar_coeff * x[i - 1] + z[i]

    y = x * beta + obs_noise
    return x, y, beta


@dataclass(frozen=True)
class MarketConfig:
    """Knobs for the synthetic futures market.

    ``steps`` counts price rows; return rows number one fewer.  The target
    stream's returns are a fixed positive combination of the explanatory
    returns plus the day-over-day change of a level that reverts to zero at
    rate ``spread_reversion`` per day with innovation scale ``spread_vol``.
    Setting ``spread_vol = 0`` makes the target exactly spanned by the
    explanatory streams.
    """

    n_streams: int = 8
    n_factors: int = 2
    steps: int = 600
    factor_vol: float = 0.004
    idio_vol: float = 0.002
    spread_reversion: float = 0.35
    spread_vol: float = 0.01
    base_price: float = 100.0
    target_base_price: float = 1400.0
    start: dt.date = field(default_factory=lambda: dt.date(2001, 1, 1))
    seed: int = 0

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.n_streams < 1 or self.n_factors < 1:
            raise ValueError("n_streams and n_factors must be >= 1")
        if self.steps < 2:
            raise ValueError(f"steps must be >= 2, got {self.steps}")
        if not (0.0 < self.spread_reversion < 1.0):
            raise ValueError(
                f"spread_reversion must lie in (0, 1), got {self.spread_reversion}"
            )
        for name in ("factor_vol", "idio_vol", "spread_vol"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")
        if self.base_price <= 0.0 or self.target_base_price <= 0.0:
            raise ValueError("base prices must be positive")


def gen_market(cfg: MarketConfig) -> tuple[PriceTable, NDArray[np.float64]]:
    """Generate a synthetic market; returns ``(prices, spread_levels)``.

    The price table holds the target stream first (label ``INDEX``) followed
    by the explanatory streams, one calendar day per row.  ``spread_levels``
    is the true mean-reverting level at each return row, for tests that need
    the ground truth.

    Draw order (fixed): loadings, combination weights, factor returns,
    idiosyncratic noise, level shocks.
    """
    rng = np.random.default_rng(cfg.seed)
    m = cfg.steps - 1
    loadings = rng.uniform(0.25, 1.0, (cfg.n_streams, cfg.n_factors))
    weights = rng.uniform(0.2, 1.0, cfg.n_streams)
    factor_returns = rng.normal(0.0, cfg.factor_vol, (m, cfg.n_factors))
    idio = rng.normal(0.0, cfg.idio_vol, (m, cfg.n_streams))
    level_shocks = rng.standard_normal(m)

    explanatory = factor_returns @ loadings.T + idio

    levels = np.empty(m)
    prev = 0.0
    keep = 1.0 - cfg.spread_reversion
    for i in range(m):
        prev = keep * prev + cfg.spread_vol * level_shocks[i]
        levels[i] = prev
    increments = np.diff(levels, prepend=0.0)

    target_returns = explanatory @ weights + increments

    log_target = np.concatenate(([0.0], np.cumsum(target_returns)))
    log_streams = np.concatenate(
        (np.zeros((1, cfg.n_streams)), np.cumsum(explanatory, axis=0))
    )
    prices = np.empty((cfg.steps, 1 + cfg.n_streams))
    prices[:, 0] = cfg.target_base_price * np.exp(log_target)
    prices[:, 1:] = cfg.base_price * np.exp(log_streams)

    dates = [cfg.start + dt.timedelta(days=i) for i in range(cfg.steps)]
    labels = ["INDEX"] + [f"S{i + 1:03d}" for i in range(cfg.n_streams)]
    return PriceTable(dates=dates, prices=prices, labels=labels), levels
