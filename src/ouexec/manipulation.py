"""Round-trip viability analysis under extended (buy-permitting) strategies.

When purchases are allowed, the schedule formulas extend to any phi,
including phi = 0: sell high early, buy back cheap at the horizon. The
expected profit of that round trip admits an analytic lower bound

    (s/alpha) { 1 - (1+beta t) e^{y-z} lambda*/alpha
                + beta e^{y-z} int_0^t exp(e^{-2 b r} y - alpha xi*_r) dr }

which itself dominates the simpler (s/alpha) L(z) with

    L(z) = 1 - (1 + beta t + z) exp(-beta t z / (1 + beta t)) + beta t e^{-z-1}.

L crosses zero (near z ~ 3.31 for beta = t = 1) and tends to 1 as z grows,
so a sufficiently large gap between market price and fundamental value
makes manipulation profitable. Every manipulation this module reports is
certified twice: the analytic bound must be positive AND the exact
proceeds evaluator must confirm positive profit on the concrete strategy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import continuous
from .errors import ConfigError, _warn, check_int
from .model import MarketState, ModelParams, classify, derive
from .numerics import LOG_FLOAT_MAX, find_root, float_range
from .proceeds import _sharing, expected_proceeds


def l_eval(z, beta: float = 1.0, horizon: float = 1.0):
    """Asymptotic profitability indicator L(z); positive means profitable."""
    bt = beta * horizon
    if bt <= 0.0:
        raise ConfigError("beta and horizon must be positive")
    z = np.asarray(z, dtype=float)
    return 1.0 - (1.0 + bt + z) * np.exp(-bt * z / (1.0 + bt)) + bt * np.exp(-z - 1.0)


def l_root(beta: float = 1.0, horizon: float = 1.0, lo: float = 1e-6,
           hi: float = 50.0) -> float:
    """Smallest positive root of L (L < 0 at 0+, L -> 1).

    Newton on L with its closed-form slope

        L'(z) = (beta t - 1 + beta t z / (1 + beta t)) exp(-beta t z / (1 + beta t))
                - beta t e^{-z-1},

    kept inside the sign-change bracket [lo, hi] by find_root; its step
    tolerance 1e-13 max(1, |z|) is about 3e-13 at the root.
    """
    f_lo, f_hi = l_eval(lo, beta, horizon), l_eval(hi, beta, horizon)
    if not (f_lo < 0.0 < f_hi):
        raise ConfigError("root not bracketed; widen [lo, hi]")
    bt = beta * horizon

    def ldl(z, live):
        z, = z
        slope = ((bt - 1.0 + bt * z / (1.0 + bt)) * math.exp(-bt * z / (1.0 + bt))
                 - bt * math.exp(-z - 1.0))
        return [l_eval(z, beta, horizon)], [slope]

    return float(find_root(ldl, [lo], [hi], [f_lo], [f_hi], xtol=1e-13)[0])


@dataclass(frozen=True)
class RoundTripBound:
    bound: float          # the profit lower bound, its integral on the solve's nodes
    weak_bound: float     # (s/alpha) L(z)
    lambda_star: float    # extended multiplier at phi = 0


def round_trip_profit_bound(params: ModelParams, state: MarketState) -> RoundTripBound:
    """Analytic lower bound on the expected profit of the phi = 0 round trip."""
    if abs(state.holdings) > 1e-12:
        raise ConfigError("round trips require phi = 0")
    panels = continuous._panels(params)
    lam = continuous.solve_lambda_star(params, state, extended=True, panels=panels)
    tr = continuous._trajectory(params, [lam], panels)
    return _bound_at(params, state, lam, continuous._row(tr, 0))


@float_range("the round-trip bound")
def _bound_at(params: ModelParams, state: MarketState, lam: float,
              tr: continuous._Trajectory) -> RoundTripBound:
    """The round-trip profit bounds at the extended multiplier lam, whose trajectory is tr."""
    d = derive(params, state)
    a, b, t = params.alpha, params.beta, params.horizon
    integral = float(np.dot(tr.weights, np.exp(tr.node_decay2 * d.y - a * tr.node_xi)))
    shrink = math.exp(d.y - d.z)
    bound = (state.price / a) * (1.0 - (1.0 + b * t) * shrink * lam / a
                                 + b * shrink * integral)
    if not math.isfinite(bound):  # a float product past the range rounds to inf silently
        raise OverflowError(bound)
    weak = (state.price / a) * float(l_eval(d.z, b, t))
    return RoundTripBound(bound=float(bound), weak_bound=float(weak),
                          lambda_star=float(lam))


@dataclass(frozen=True)
class ManipulationReport:
    z_values: np.ndarray
    l_values: np.ndarray
    profit_bounds: np.ndarray
    verified_profits: np.ndarray
    first_profitable_z: float | None


# scan points per xi* inversion: at grid 400, four rows of 929 samples keep the
# inversion's working set within the proceeds evaluator's, whatever the point count
_BLOCK = 4


def _scan_grid(params: ModelParams, z_range: tuple[float, float], points: int) -> np.ndarray:
    """The scan's z points; each must leave the price e^{F+z} inside the float range."""
    lo, hi = float(z_range[0]), float(z_range[1])
    if not (hi > lo):
        raise ConfigError("z_range must satisfy lo < hi")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"z_range must be finite, got [{lo}, {hi}]")
    check_int("points", points, 2)
    if lo > 0.0:
        zs = np.geomspace(lo, hi, points)
    else:
        # log-spaced offsets above lo so the grid still starts exactly at lo
        u = np.linspace(0.0, 1.0, points)
        zs = lo + (hi - lo) * (np.power(10.0, u) - 1.0) / 9.0
    if not params.fundamental_log + zs[-1] <= LOG_FLOAT_MAX:
        raise ConfigError(f"the price e^(F + z) at z = {zs[-1]:.6g} is beyond the float range")
    return zs


def scan(params: ModelParams, state: MarketState, z_range: tuple[float, float],
         points: int = 200, grid_points: int = 400) -> ManipulationReport:
    """Sweep the price-fundamental gap z and certify round-trip profits.

    For each z the market price is reset to e^{F+z} with zero holdings.
    One solve_lambda_star call finds the extended multipliers of every z
    together. The extended schedules are then built _BLOCK points at a
    time by schedule()'s closed-form builder, from one xi* inversion with
    a row per point, so a long scan never holds every point's trajectory
    at once. At each z the profit is bounded analytically on that point's
    trajectory and verified exactly by the proceeds evaluator, which
    prices every point's strategy on one segment table; each point keeps
    its own bits. first_profitable_z reports the smallest scanned z
    certified both ways: analytic bound > 0 and verified profit > 0.
    """
    if abs(state.holdings) > 1e-12:
        raise ConfigError("scan operates on round trips; set phi = 0")
    zs = _scan_grid(params, z_range, points)
    check_int("grid_points", grid_points, 1)
    l_vals = l_eval(zs, params.beta, params.horizon)
    bounds = np.empty(points)
    profits = np.empty(points)
    states = [MarketState(cash=state.cash, holdings=0.0, price=math.exp(params.fundamental_log + z))
              for z in zs]
    panels = continuous._panels(params)  # xi* reads the model alone: one pin for every z
    lams = continuous.solve_lambda_star(params, states, extended=True, panels=panels)
    times = np.linspace(0.0, params.horizon, grid_points + 1)
    with _sharing():
        for start in range(0, points, _BLOCK):
            block = slice(start, start + _BLOCK)
            for st in states[block]:
                classify(params, st)  # the standing-assumption warning of each point's schedule
            rows = continuous._closed_form(params, states[block], lams[block], panels, times,
                                           extended=True)
            for i, lam, (*_, strategy, tr) in zip(range(start, points), lams[block].tolist(), rows):
                bounds[i] = _bound_at(params, states[i], lam, tr).bound
                profits[i] = expected_proceeds(params, states[i], strategy) - state.cash
            del rows, strategy, tr  # the block's trajectory goes before the next block's inversion

    certified = np.flatnonzero((bounds > 0.0) & (profits > 0.0))
    first = float(zs[certified[0]]) if certified.size else None
    if certified.size and np.any(profits[certified[0]:] <= 0.0):
        _warn("verified profit not monotone above first_profitable_z", RuntimeWarning)
    return ManipulationReport(z_values=zs, l_values=l_vals, profit_bounds=bounds,
                              verified_profits=profits, first_profitable_z=first)
