"""Market model parameters, trader state, derived quantities, and regimes.

The security price is S = exp(X) where the log price X mean-reverts at
speed beta toward the fundamental log level F with volatility sigma, and
selling at rate zeta depresses the drift by alpha*zeta (linear impact).
Two derived scalars drive everything downstream:

    y = sigma^2 / (4*beta)   variance scale of the stationary log price
    z = log(s) - F           initial log mispricing

The closed-form results assume z > 2y, i.e. the security starts rich enough
relative to the fundamental that liquidation pushes the price toward (not
through) the fundamental level.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import ConfigError, StandingAssumptionWarning, _warn


@dataclass(frozen=True)
class ModelParams:
    """Impact, reversion, volatility, fundamental level, and horizon.

    alpha = 0 disables impact entirely; it is accepted here so the
    simulator and the proceeds evaluator can run no-impact control
    experiments, but every closed-form solver requires alpha > 0.
    """

    alpha: float
    beta: float
    sigma: float
    fundamental_log: float
    horizon: float

    def __post_init__(self):
        if not (self.alpha >= 0.0) or not math.isfinite(self.alpha):
            raise ConfigError(f"alpha must be >= 0, got {self.alpha}")
        if not (self.beta > 0.0) or not math.isfinite(self.beta):
            raise ConfigError(f"beta must be > 0, got {self.beta}")
        if not (self.sigma >= 0.0) or not math.isfinite(self.sigma):
            raise ConfigError(f"sigma must be >= 0, got {self.sigma}")
        if not (0.0 < self.horizon <= 1.0):
            raise ConfigError(f"horizon must be in (0, 1], got {self.horizon}")
        if not math.isfinite(self.fundamental_log):
            raise ConfigError("fundamental_log must be finite")

    @property
    def y(self) -> float:
        """y = sigma^2 / (4 beta), the variance scale of the stationary log price."""
        return self.sigma * self.sigma / (4.0 * self.beta)


@dataclass(frozen=True)
class MarketState:
    """Trader state: cash w, holdings phi (shares), quoted price s."""

    cash: float
    holdings: float
    price: float

    def __post_init__(self):
        if not (self.price > 0.0) or not math.isfinite(self.price):
            raise ConfigError(f"price must be > 0, got {self.price}")
        if not math.isfinite(self.cash) or not math.isfinite(self.holdings):
            raise ConfigError("cash and holdings must be finite")


@dataclass(frozen=True)
class DerivedQuantities:
    """y = sigma^2/(4 beta) and z = log(price) - fundamental_log."""

    y: float
    z: float


class Regime(enum.Enum):
    """Which closed-form branch applies to an instance."""

    SMALL_HOLDINGS = "small_holdings"   # phi <= (z - 2y)/alpha: one initial block is optimal
    LARGE_HOLDINGS = "large_holdings"   # phi > max(z, 1 + beta)/alpha: block/gradual/block mixture
    GAP = "gap"                         # between the two; no closed form, numeric fallback only
    ZERO_VOL = "zero_vol"               # sigma = 0 and phi > z/alpha: constant-speed gradual phase


def derive(params: ModelParams, state: MarketState) -> DerivedQuantities:
    """Compute (y, z) for an instance. Pure and deterministic."""
    return DerivedQuantities(y=params.y, z=math.log(state.price) - params.fundamental_log)


def block_factor(p: float, alpha: float) -> float:
    """Proceeds per unit of pre-trade price of a block sale of p shares.

    (1 - e^{-alpha p}) / alpha, with its alpha -> 0 limit p.
    """
    return p if alpha == 0.0 else -math.expm1(-alpha * p) / alpha


def classify(params: ModelParams, state: MarketState) -> Regime:
    """Pick the unique applicable regime for (params, state).

    ZERO_VOL takes precedence over LARGE_HOLDINGS when sigma = 0.
    Emits StandingAssumptionWarning when z <= 2y; classification is still
    returned, but standard-mode solvers will refuse such instances.
    """
    if params.alpha <= 0.0:
        raise ConfigError("classification needs alpha > 0 (regime boundaries scale with 1/alpha)")
    q = derive(params, state)
    if q.z <= 2.0 * q.y:
        _warn(f"z = {q.z:.6g} <= 2y = {2.0 * q.y:.6g}: outside the standing assumption z > 2y",
              StandingAssumptionWarning)
    phi = state.holdings
    if params.sigma == 0.0 and phi > q.z / params.alpha:
        return Regime.ZERO_VOL
    if phi <= (q.z - 2.0 * q.y) / params.alpha:
        return Regime.SMALL_HOLDINGS
    if phi > max(q.z, 1.0 + params.beta) / params.alpha:
        return Regime.LARGE_HOLDINGS
    return Regime.GAP
