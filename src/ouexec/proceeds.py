"""Exact expected proceeds of a deterministic strategy.

For a deterministic execution (eta_r = cumulative shares sold by r), the
expected terminal cash is

    w + e^{F+y} * integral of zeta_r * exp(e^{-br} z - e^{-2br} y - D_r) dr

plus a term exp(...) * (1 - e^{-alpha p})/alpha for each block of size p,
where D_r = alpha * int_0^r e^{-b(r-v)} d eta_v is the accumulated impact
displacement of the log price, decayed at the reversion speed.

The cells, split at interior blocks, are segments of constant rate zeta_j.
On a segment D solves D' = alpha zeta_j - beta D, so across one of length
l_j it follows the recurrence D <- c_j D + alpha zeta_j (1 - c_j)/beta,
c_j = e^{-beta l_j}, and a block of p adds alpha p. 1 - c_j is taken as
-expm1(-beta l_j), and the recurrence as D + (1 - c_j)(alpha zeta_j/beta - D),
so no rounded c_j multiplies D and compounds over the segments. One pass
gives D at every segment start and before every block; inside a segment
D is closed form and the outer integrand smooth, so one Gauss-Legendre
rule per segment, evaluated for all segments in one array expression, is
exact to machine accuracy for practical grids. Price
samples and the impact profile read D from the same segment table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import strategy as strat
from .errors import ConfigError
from .model import MarketState, ModelParams, block_factor, derive
from .numerics import float_range, gl_nodes

_TOL = 1e-12
_ORDER = 20  # Gauss-Legendre nodes per gradual segment


@dataclass(frozen=True)
class ProceedsBreakdown:
    """Expected proceeds split by phase; excludes starting cash."""

    initial_block_value: float
    gradual_value: float
    terminal_block_value: float
    total: float


def _impact_path(params: ModelParams, strategy: strat.ExecutionStrategy):
    """Segment table of the impact displacement D.

    A block applies at time 0 or at a cell edge within _TOL of it, or
    together with an earlier block within _TOL before it; otherwise it
    splits its cell. Returns the event times (segment starts, then the
    horizon), the rate on each segment, D after the blocks at each event
    and D just before each block.
    """
    alpha, beta = params.alpha, params.beta
    edges = np.arange(strategy.cells + 1) * strategy.cell_width
    edges[-1] = strategy.horizon
    ends = edges[1:] + _TOL
    anchors, splits, anchor = [], [], 0.0
    for r, _ in strategy.impulses:
        if r > anchor + _TOL:
            b = float(edges[np.searchsorted(ends, r) + 1])
            if r < b - _TOL:
                anchor = r
                splits.append(r)
            else:
                anchor = b
        anchors.append(anchor)
    # a split in cell i goes after edge i and takes the cell's rate
    cut = np.searchsorted(edges, splits)
    events = np.insert(edges, cut, splits)
    rates = np.insert(strategy.density, cut, strategy.density[cut - 1])
    # a row per event and, just before it, a zero-length row per block there
    ev = np.searchsorted(events, anchors)
    is_block = np.zeros(events.size + ev.size, dtype=bool)
    is_block[ev + np.arange(ev.size)] = True  # block k goes before event ev[k]
    length, rate, jump = np.zeros((3, is_block.size))
    length[~is_block] = np.append(np.diff(events), 0.0)
    rate[~is_block] = np.append(rates, 0.0)
    jump[is_block] = [alpha * p for _, p in strategy.impulses]
    # the recurrence's per-segment factors, taken before the loop that needs D
    push = (alpha * rate).tolist()
    relax = [-e / beta for e in map(math.expm1, (-beta * length).tolist())]
    before, d = [], 0.0
    for p, f, j in zip(push, relax, jump.tolist()):
        before.append(d)
        d += j
        d += (p - beta * d) * f
    before = np.array(before)
    return events, rates, before[~is_block], before[is_block]


def _impact_at(params: ModelParams, path, times: np.ndarray) -> np.ndarray:
    """D at checked times; post-block at an event, decayed from the latest event before.

    A time within _TOL of an event reads that event's D, extended by the
    rate of the segment ending there.
    """
    alpha, beta = params.alpha, params.beta
    events, rates, d_events, _ = path
    k = np.searchsorted(events + _TOL, times)
    at = np.where(times > events[k] - _TOL, k, np.maximum(k - 1, 0))
    rate = np.append(0.0, rates)[k]
    x = -beta * np.maximum(times - events[at], 0.0)
    return d_events[at] * np.exp(x) - alpha * rate * np.expm1(x) / beta


def _expected_price(params: ModelParams, state: MarketState, r, d):
    """E[S_r] = e^{F+y} exp(e^{-beta r} z - e^{-2 beta r} y - D_r) at displacement d."""
    q = derive(params, state)
    beta = params.beta
    return math.exp(params.fundamental_log + q.y) * np.exp(
        np.exp(-beta * r) * q.z - np.exp(-2.0 * beta * r) * q.y - d)


def _check_times(times, horizon: float) -> np.ndarray:
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if not (np.all(np.isfinite(times)) and np.all(np.diff(times) >= 0.0)
            and np.all(times >= -_TOL) and np.all(times <= horizon + _TOL)):
        raise ConfigError("times must be finite, sorted ascending and in [0, horizon]")
    return times


def _check_admissible(state: MarketState, strategy: strat.ExecutionStrategy):
    sold = strat.total_sold(strategy)
    if sold > state.holdings + 1e-9 * max(1.0, abs(state.holdings)):
        raise ConfigError(f"strategy sells {sold}, exceeding holdings {state.holdings}")


@float_range("the proceeds integral")
def proceeds_breakdown(params: ModelParams, state: MarketState,
                       strategy: strat.ExecutionStrategy) -> ProceedsBreakdown:
    """Expected proceeds split into initial block / gradual / terminal block."""
    _check_admissible(state, strategy)
    alpha, beta, t = params.alpha, params.beta, strategy.horizon
    events, rates, d_events, d_blocks = _impact_path(params, strategy)
    parts = [0.0, 0.0, 0.0]
    r_blocks = np.array([r for r, _ in strategy.impulses])
    prices = _expected_price(params, state, r_blocks, d_blocks).tolist()
    for (r, p), s in zip(strategy.impulses, prices):
        parts[0 if r <= _TOL else (2 if r >= t - _TOL else 1)] += s * block_factor(p, alpha)
    live = rates != 0.0
    nodes, weights = gl_nodes(_ORDER)
    x = nodes + 1.0
    half = 0.5 * np.diff(events)[live]
    zeta = rates[live][:, None]
    u = (-beta * half)[:, None] * x
    d_r = d_events[:-1][live][:, None] * np.exp(u) - alpha * zeta * np.expm1(u) / beta
    r = events[:-1][live][:, None] + half[:, None] * x
    parts[1] += float(np.sum(half * ((zeta * _expected_price(params, state, r, d_r)) @ weights)))
    return ProceedsBreakdown(
        initial_block_value=parts[0],
        gradual_value=parts[1],
        terminal_block_value=parts[2],
        total=math.fsum(parts),
    )


def expected_proceeds(params: ModelParams, state: MarketState,
                      strategy: strat.ExecutionStrategy) -> float:
    """Expected terminal cash: starting cash plus expected proceeds."""
    return state.cash + proceeds_breakdown(params, state, strategy).total


def expected_price_path(params: ModelParams, state: MarketState,
                        strategy: strat.ExecutionStrategy, times) -> np.ndarray:
    """E[S_r] at the given sorted times in [0, horizon]; post-block at a block's time."""
    times = _check_times(times, strategy.horizon)
    d = _impact_at(params, _impact_path(params, strategy), times)
    return _expected_price(params, state, times, d)


def impact_decay_profile(params: ModelParams, strategy: strat.ExecutionStrategy, r):
    """Log-price displacement alpha * int_0^r e^{-beta(r-v)} d eta_v.

    Past sales push the log price down; mean reversion pulls the
    displacement back to zero at speed beta. Accepts a scalar time or a
    sorted array of times in [0, horizon]; a block's own time reads the
    post-block value.
    """
    scalar = np.isscalar(r)
    times = _check_times(r, strategy.horizon)
    out = _impact_at(params, _impact_path(params, strategy), times)
    return float(out[0]) if scalar else out
