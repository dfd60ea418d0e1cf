"""Exact expected proceeds of a deterministic strategy.

For a deterministic execution (eta_r = cumulative shares sold by r), the
expected terminal cash is

    w + e^{F+y} * integral of zeta_r * exp(e^{-br} z - e^{-2br} y - D_r) dr

plus a term exp(...) * (1 - e^{-alpha p})/alpha for each block of size p,
where D_r = alpha * int_0^r e^{-b(r-v)} d eta_v is the accumulated impact
displacement of the log price, decayed at the reversion speed.

The cells, split at interior blocks, are segments of constant rate zeta_j.
On a segment D solves D' = alpha zeta_j - beta D, so across one of length
l_j it follows D <- D + (1 - c_j)(alpha zeta_j/beta - D), c_j = e^{-beta l_j},
with 1 - c_j as -expm1(-beta l_j) so that no rounded c_j multiplies D and
compounds; a block of p adds alpha p. Inside a segment D is closed form and
the integrand smooth, so one Gauss-Legendre rule per segment, for all
segments in one array expression, is exact to machine accuracy on practical
grids. A segment table holds what beta, the grid and the impulse times set,
one per key in a _sharing block (a manipulation scan); each strategy adds its
recurrence, block prices and node sum in its own float order, and its price
samples and impact profile read D from the same table.
"""

from __future__ import annotations

import contextlib
import functools
import math
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from . import strategy as strat
from .errors import ConfigError
from .model import MarketState, ModelParams, block_factor, derive
from .numerics import float_range, gl_nodes

_TOL = 1e-12
_ORDER = 20  # Gauss-Legendre nodes per gradual segment
_SHARED: ContextVar[dict] = ContextVar("shared_tables")  # the tables of a _sharing block


@dataclass(frozen=True)
class ProceedsBreakdown:
    """Expected proceeds split by phase; excludes starting cash."""

    initial_block_value: float
    gradual_value: float
    terminal_block_value: float
    total: float


@contextlib.contextmanager
def _sharing():
    """Let the evaluations in the block share segment tables by key; none outlives it."""
    token = _SHARED.set({})
    try:
        yield
    finally:
        _SHARED.reset(token)


class _Table:
    """The part of an evaluation that beta, the grid and the impulse times set.

    A block applies at time 0 or at a cell edge within _TOL of it, or with an
    earlier block within _TOL before it; otherwise it splits its cell. A row
    per event (segment starts, then the horizon) after a zero-length row per
    block there has a relax factor and a cell to take its rate from (for a
    block or the horizon, a zero past the last cell)."""

    def __init__(self, beta: float, strategy: strat.ExecutionStrategy):
        self.beta = beta
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
        cut = np.searchsorted(edges, splits)
        self.events = np.insert(edges, cut, splits)
        ev = np.searchsorted(self.events, anchors)
        self.block = np.zeros(self.events.size + ev.size, dtype=bool)
        self.block[ev + np.arange(ev.size)] = True  # block k goes before event ev[k]
        self.row_cell = np.full(self.block.size, strategy.cells)
        self.row_cell[~self.block] = np.insert(np.arange(strategy.cells + 1), cut, cut - 1)
        length = np.zeros(self.block.size)
        length[~self.block] = np.append(np.diff(self.events), 0.0)
        self.relax = [-e / beta for e in map(math.expm1, (-beta * length).tolist())]

    @functools.cached_property
    def nodes(self):
        """Each segment's half length and its nodes' e^u, expm1(u), e^{-beta r}, e^{-2 beta r}."""
        half, x = 0.5 * np.diff(self.events), gl_nodes(_ORDER)[0] + 1.0
        u = (-self.beta * half)[:, None] * x
        r = self.events[:-1][:, None] + half[:, None] * x
        return half, np.exp(u), np.expm1(u), *_decays(self.beta, r)


def _impact_path(params: ModelParams, strategy: strat.ExecutionStrategy):
    """The segment table, segment rates, D after each event's blocks and D before each block."""
    alpha, beta = params.alpha, params.beta
    shared = _SHARED.get({})  # a table per key, for the _sharing block or for this call
    key = (beta, strategy.cells, strategy.horizon, tuple(r for r, _ in strategy.impulses))
    table = shared[key] = shared.get(key) or _Table(beta, strategy)
    rate = np.append(strategy.density, 0.0)[table.row_cell]
    jump = np.zeros(rate.size)
    jump[table.block] = [alpha * p for _, p in strategy.impulses]
    push = (alpha * rate).tolist()
    before, d = [], 0.0
    for p, f, j in zip(push, table.relax, jump.tolist()):
        before.append(d)
        d += j
        d += (p - beta * d) * f
    before = np.array(before)
    return table, rate[~table.block][:-1], before[~table.block], before[table.block]


def _impact_at(params: ModelParams, path, times: np.ndarray) -> np.ndarray:
    """D at checked times; post-block at an event, decayed from the latest event before.

    A time within _TOL of an event reads that event's D, extended by the
    rate of the segment ending there.
    """
    alpha, beta = params.alpha, params.beta
    table, rates, d_events, _ = path
    events = table.events
    k = np.searchsorted(events + _TOL, times)
    at = np.where(times > events[k] - _TOL, k, np.maximum(k - 1, 0))
    rate = np.append(0.0, rates)[k]
    x = -beta * np.maximum(times - events[at], 0.0)
    return d_events[at] * np.exp(x) - alpha * rate * np.expm1(x) / beta


def _decays(beta: float, r):  # e^{-beta r} and e^{-2 beta r}
    return np.exp(-beta * r), np.exp(-2.0 * beta * r)


def _expected_price(params: ModelParams, state: MarketState, decay, decay2, d):
    """E[S_r] = e^{F+y} exp(e^{-beta r} z - e^{-2 beta r} y - D_r) from r's decays."""
    q = derive(params, state)
    return math.exp(params.fundamental_log + q.y) * np.exp(decay * q.z - decay2 * q.y - d)


def _check_times(times, horizon: float) -> np.ndarray:
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if not (np.all(np.isfinite(times)) and np.all(np.diff(times) >= 0.0)
            and np.all(times >= -_TOL) and np.all(times <= horizon + _TOL)):
        raise ConfigError("times must be finite, sorted ascending and in [0, horizon]")
    return times


@float_range("the proceeds integral")
def proceeds_breakdown(params: ModelParams, state: MarketState,
                       strategy: strat.ExecutionStrategy) -> ProceedsBreakdown:
    """Expected proceeds split into initial block / gradual / terminal block."""
    sold = strat.total_sold(strategy)
    if sold > state.holdings + 1e-9 * max(1.0, abs(state.holdings)):
        raise ConfigError(f"strategy sells {sold}, exceeding holdings {state.holdings}")
    alpha, beta, t = params.alpha, params.beta, strategy.horizon
    table, rates, d_events, d_blocks = _impact_path(params, strategy)
    parts = [0.0, 0.0, 0.0]
    r_blocks = np.array([r for r, _ in strategy.impulses])
    prices = _expected_price(params, state, *_decays(beta, r_blocks), d_blocks).tolist()
    for (r, p), s in zip(strategy.impulses, prices):
        parts[0 if r <= _TOL else (2 if r >= t - _TOL else 1)] += s * block_factor(p, alpha)
    live = rates != 0.0
    if live.any():  # a strategy that trades only in blocks needs no node arrays
        live = slice(None) if live.all() else live  # a view of the table where every rate is live
        half, exp_u, expm1_u, decay, decay2 = (a[live] for a in table.nodes)
        zeta = rates[live][:, None]
        d_r = d_events[:-1][live][:, None] * exp_u - alpha * zeta * expm1_u / beta
        price = _expected_price(params, state, decay, decay2, d_r)
        parts[1] += float(np.sum(half * ((zeta * price) @ gl_nodes(_ORDER)[1])))
    return ProceedsBreakdown(*parts, total=math.fsum(parts))


def expected_proceeds(params: ModelParams, state: MarketState,
                      strategy: strat.ExecutionStrategy) -> float:
    """Expected terminal cash: starting cash plus expected proceeds."""
    return state.cash + proceeds_breakdown(params, state, strategy).total


def expected_price_path(params: ModelParams, state: MarketState,
                        strategy: strat.ExecutionStrategy, times) -> np.ndarray:
    """E[S_r] at the given sorted times in [0, horizon]; post-block at a block's time."""
    times = _check_times(times, strategy.horizon)
    d = _impact_at(params, _impact_path(params, strategy), times)
    return _expected_price(params, state, *_decays(params.beta, times), d)


def impact_decay_profile(params: ModelParams, strategy: strat.ExecutionStrategy, r):
    """Log-price displacement alpha * int_0^r e^{-beta(r-v)} d eta_v.

    Past sales push the log price down; mean reversion pulls the
    displacement back to zero at speed beta. r holds times in [0, horizon],
    sorted along its last axis, in any shape, and the result takes that
    shape; a block's own time reads the post-block value.
    """
    times = _check_times(r, strategy.horizon)
    return _impact_at(params, _impact_path(params, strategy), times).reshape(np.shape(r))
