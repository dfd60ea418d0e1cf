"""Optimal schedule when volatility is zero.

With sigma = 0 the expected-price exponent loses its curvature term and
the optimal selling rate is constant: an initial block p*, a flat rate
zeta* = beta (p* - z/alpha), and a terminal block q*. p* solves the
strictly increasing scalar equation

    C(p) = exp(alpha (1 + beta t) p - alpha phi - beta t z) + alpha p - z - 1 = 0.

With k = 1 + beta t and u = z + 1 - alpha p it reads
(k u) e^{k u} = k e^{k + z - alpha phi}, so

    p* = (z + 1 - W0(k e^{k + z - alpha phi}) / k) / alpha

on the principal branch of Lambert W. Whenever phi > z/alpha the exponent
stays below k, so W0 of the argument lies in (0, k) and alpha p* lies in
(z, z + 1). For beta t beyond about 700 the argument itself overflows a
float, so W0 is taken from its logarithm log k + k + z - alpha phi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError, NumericalError, RegimeError
from .model import MarketState, ModelParams, derive
from .numerics import lambert_w0_exp


@dataclass(frozen=True)
class ZeroVolSchedule:
    p_star: float
    zeta_star: float
    q_star: float
    value: float


def c_eval(params: ModelParams, state: MarketState, p: float) -> float:
    """Optimality residual for the initial block size p."""
    d = derive(params, state)
    a, bt = params.alpha, params.beta * params.horizon
    if a <= 0.0:
        raise ConfigError("alpha must be positive")
    return math.exp(a * (1.0 + bt) * p - a * state.holdings - bt * d.z) + a * p - d.z - 1.0


def solve(params: ModelParams, state: MarketState) -> ZeroVolSchedule:
    """p*, zeta*, q* and the schedule value for the no-noise model; |C(p*)| must be <= 1e-12."""
    d = derive(params, state)
    a, b, t = params.alpha, params.beta, params.horizon
    phi, s = state.holdings, state.price
    if a <= 0.0:
        raise ConfigError("alpha must be positive")
    if params.sigma != 0.0:
        raise RegimeError("this solver requires sigma = 0")
    if phi <= d.z / a:
        raise RegimeError("requires phi > z/alpha; smaller holdings sell in one block")

    k = 1.0 + b * t
    w = lambert_w0_exp(math.log(k) + k + d.z - a * phi)
    # 1 - w/k in (0, 1) is added to z last, so rounding keeps alpha p* in [z, z + 1]
    p_star = (d.z + max(1.0 - w / k, 0.0)) / a
    c = lambda p: c_eval(params, state, p)
    if not abs(c(p_star)) <= 1e-12:
        # p* is within a few ulps of the root, but for large beta t one ulp
        # of p moves the computed C by about 1e-12: take the nearby float at
        # which the computed C is smallest
        near = [p_star + j * math.ulp(p_star) for j in range(-16, 17)]
        p_star = min((p for p in near if p >= d.z / a), key=lambda p: abs(c(p)))
    resid = abs(c(p_star))
    if not resid <= 1e-12:
        raise NumericalError(f"block-size residual {resid:.3e} above 1.0e-12")

    zeta = b * (p_star - d.z / a)
    q_star = phi - p_star - t * zeta
    val = (state.cash
           + (1.0 - math.exp(-a * (p_star + q_star))) * s / a
           + t * s * math.exp(-a * p_star) * zeta)
    return ZeroVolSchedule(p_star=float(p_star), zeta_star=float(zeta),
                           q_star=float(q_star), value=float(val))
