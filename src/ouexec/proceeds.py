"""Exact expected proceeds of a deterministic strategy.

For a deterministic execution (eta_r = cumulative shares sold by r), the
expected terminal cash is

    w + e^{F+y} * integral of zeta_r * exp(e^{-br} z - e^{-2br} y - D_r) dr

plus a term exp(...) * (1 - e^{-alpha p})/alpha for each block of size p,
where D_r = alpha * int_0^r e^{-b(r-v)} d eta_v is the accumulated impact
displacement of the log price, decayed at the reversion speed. D obeys a
one-sided linear ODE, so on every cell where the rate is constant it has a
closed form, and the outer integrand is smooth there: one Gauss-Legendre
rule per cell is exact to machine accuracy for practical grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import strategy as strat
from .errors import ConfigError
from .model import MarketState, ModelParams, block_factor, derive
from .numerics import gl_nodes

_TOL = 1e-12


@dataclass(frozen=True)
class ProceedsBreakdown:
    """Expected proceeds split by phase; excludes starting cash."""

    initial_block_value: float
    gradual_value: float
    terminal_block_value: float
    total: float


def _scan(params: ModelParams, state: MarketState, strategy: strat.ExecutionStrategy,
          sample_times: np.ndarray | None, order: int = 20):
    """Single pass over the strategy timeline.

    Returns (initial, gradual, terminal) in units of e^{F+y} * shares-value
    and, if sample_times is given (sorted ascending), the expected price at
    those times. Prices at an exact block time are post-block.
    """
    q = derive(params, state)
    alpha, beta = params.alpha, params.beta
    t = strategy.horizon
    y, z = q.y, q.z
    scale = math.exp(params.fundamental_log + y)
    nodes, weights = gl_nodes(order)

    samples = None
    s_idx = 0
    if sample_times is not None:
        samples = np.empty(len(sample_times))

    def price(r, d):
        return scale * np.exp(np.exp(-beta * r) * z - np.exp(-2.0 * beta * r) * y - d)

    imps = strategy.impulses
    imp_idx = 0
    d = 0.0
    parts = [0.0, 0.0, 0.0]  # initial, gradual, terminal

    def apply_impulses(upto):
        nonlocal imp_idx, d
        while imp_idx < len(imps) and imps[imp_idx][0] <= upto + _TOL:
            r, p = imps[imp_idx]
            slot = 0 if r <= _TOL else (2 if r >= t - _TOL else 1)
            parts[slot] += float(price(r, d)) * block_factor(p, alpha)
            d += alpha * p
            imp_idx += 1

    def take_samples(lo, hi, d_at_lo, anchor, inclusive):
        # expected price at sample times in (lo, hi) (or (lo, hi]) given the
        # displacement d_at_lo at time anchor and rate zeta on the interval
        nonlocal s_idx
        while samples is not None and s_idx < len(sample_times):
            ts = sample_times[s_idx]
            if ts > hi + (_TOL if inclusive else -_TOL):
                break
            u = max(ts - anchor, 0.0)
            decay = math.exp(-beta * u)
            d_ts = d_at_lo * decay + alpha * zeta_cur * (1.0 - decay) / beta
            samples[s_idx] = float(price(ts, d_ts))
            s_idx += 1

    zeta_cur = 0.0
    apply_impulses(0.0)
    take_samples(-1.0, 0.0, d, 0.0, inclusive=True)

    w_cell = strategy.cell_width
    for i in range(strategy.cells):
        a = i * w_cell
        b = t if i == strategy.cells - 1 else (i + 1) * w_cell
        zeta_cur = float(strategy.density[i])
        pos = a
        while True:
            nxt = b
            if imp_idx < len(imps) and imps[imp_idx][0] < b - _TOL:
                nxt = max(imps[imp_idx][0], pos)
            span = nxt - pos
            if span > _TOL:
                take_samples(pos, nxt, d, pos, inclusive=False)
                decay_u = np.exp(-beta * (0.5 * span) * (nodes + 1.0))
                if zeta_cur != 0.0:
                    d_r = d * decay_u + alpha * zeta_cur * (1.0 - decay_u) / beta
                    r = pos + 0.5 * span * (nodes + 1.0)
                    vals = zeta_cur * price(r, d_r)
                    parts[1] += 0.5 * span * float(np.dot(weights, vals))
                end_decay = math.exp(-beta * span)
                d = d * end_decay + alpha * zeta_cur * (1.0 - end_decay) / beta
            pos = nxt
            if pos >= b - _TOL:
                break
            apply_impulses(pos)
            take_samples(pos - 1.0, pos, d, pos, inclusive=True)
        apply_impulses(b if i < strategy.cells - 1 else t)
        take_samples(b - 1.0, b, d, b, inclusive=True)

    if samples is not None and s_idx < len(sample_times):
        raise ConfigError("sample times must lie in [0, horizon] and be sorted")
    return parts, samples


def _check_admissible(state: MarketState, strategy: strat.ExecutionStrategy):
    sold = strat.total_sold(strategy)
    if sold > state.holdings + 1e-9 * max(1.0, abs(state.holdings)):
        raise ConfigError(f"strategy sells {sold}, exceeding holdings {state.holdings}")


def proceeds_breakdown(params: ModelParams, state: MarketState,
                       strategy: strat.ExecutionStrategy, order: int = 20) -> ProceedsBreakdown:
    """Expected proceeds split into initial block / gradual / terminal block."""
    _check_admissible(state, strategy)
    parts, _ = _scan(params, state, strategy, None, order=order)
    return ProceedsBreakdown(
        initial_block_value=parts[0],
        gradual_value=parts[1],
        terminal_block_value=parts[2],
        total=math.fsum(parts),
    )


def expected_proceeds(params: ModelParams, state: MarketState,
                      strategy: strat.ExecutionStrategy, order: int = 20) -> float:
    """Expected terminal cash: starting cash plus expected proceeds."""
    return state.cash + proceeds_breakdown(params, state, strategy, order=order).total


def expected_price_path(params: ModelParams, state: MarketState,
                        strategy: strat.ExecutionStrategy, times, order: int = 20) -> np.ndarray:
    """E[S_r] at the given (sorted) times under the strategy's impact path."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if np.any(np.diff(times) < 0.0):
        raise ConfigError("times must be sorted ascending")
    _, samples = _scan(params, state, strategy, times, order=order)
    return samples


def impact_decay_profile(params: ModelParams, strategy: strat.ExecutionStrategy, r):
    """Log-price displacement alpha * int_0^r e^{-beta(r-v)} d eta_v.

    Past sales push the log price down; mean reversion pulls the
    displacement back to zero at speed beta. Accepts a scalar time or a
    sorted array of times.
    """
    scalar = np.isscalar(r)
    times = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(np.diff(times) < 0.0):
        raise ConfigError("times must be sorted ascending")
    if np.any(times < -_TOL) or np.any(times > strategy.horizon + _TOL):
        raise ConfigError("times must lie in [0, horizon]")
    alpha, beta = params.alpha, params.beta
    out = np.empty_like(times)

    events = []  # (time, kind, amount): kind 0 = block, 1 = rate change
    for rr, p in strategy.impulses:
        events.append((rr, 0, p))
    w = strategy.cell_width
    for i in range(strategy.cells):
        events.append((i * w, 1, float(strategy.density[i])))
    events.sort(key=lambda e: (e[0], e[1]))

    d = 0.0
    pos = 0.0
    zeta = 0.0
    e_idx = 0
    for k, ts in enumerate(times):
        while e_idx < len(events) and events[e_idx][0] <= ts + _TOL:
            ev_t, kind, amount = events[e_idx]
            ev_t = min(max(ev_t, pos), strategy.horizon)
            decay = math.exp(-beta * (ev_t - pos))
            d = d * decay + alpha * zeta * (1.0 - decay) / beta
            pos = ev_t
            if kind == 0:
                d += alpha * amount
            else:
                zeta = amount
            e_idx += 1
        decay = math.exp(-beta * (ts - pos))
        d = d * decay + alpha * zeta * (1.0 - decay) / beta
        pos = max(pos, ts)
        out[k] = d
    return float(out[0]) if scalar else out
