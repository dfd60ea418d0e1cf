"""Reference implementations of the exact evaluator.

``scan`` is the per-cell loop the vectorized evaluator in
``ouexec.proceeds`` replaced. It walks the cells in time order, splits a
cell at each interior block, applies the blocks as it reaches them and
integrates each piece with its own Gauss-Legendre rule. The tests compare
the two; only the summation order differs between them.

``breakdown``, ``price_path`` and ``decay_profile`` are the vectorized
evaluator as it was before strategies could share a segment table: each
call builds its own segment table, recurrence factors and node arrays.
The arithmetic is the package's, so the tests require equal bytes.
"""

from __future__ import annotations

import math

import numpy as np

from ouexec.model import block_factor, derive
from ouexec.proceeds import ProceedsBreakdown
from ouexec.numerics import gl_nodes

_TOL = 1e-12


def scan(params, state, strategy, sample_times=None, order: int = 20):
    """Single pass over the strategy timeline.

    Returns [initial, gradual, terminal] block and gradual proceeds (without
    starting cash), the sum of the magnitudes of the terms added into them
    (the scale of their rounding error), and, if sample_times is given
    (sorted ascending, in [0, horizon]), the expected price and the impact
    displacement D at those times. Values at an exact block time are
    post-block.
    """
    q = derive(params, state)
    alpha, beta = params.alpha, params.beta
    t = strategy.horizon
    y, z = q.y, q.z
    scale = math.exp(params.fundamental_log + y)
    nodes, weights = gl_nodes(order)

    samples = impacts = None
    s_idx = 0
    if sample_times is not None:
        samples = np.empty(len(sample_times))
        impacts = np.empty(len(sample_times))

    def price(r, d):
        return scale * np.exp(np.exp(-beta * r) * z - np.exp(-2.0 * beta * r) * y - d)

    imps = strategy.impulses
    imp_idx = 0
    d = 0.0
    parts = [0.0, 0.0, 0.0]  # initial, gradual, terminal
    magnitude = 0.0

    def apply_impulses(upto):
        nonlocal imp_idx, d, magnitude
        while imp_idx < len(imps) and imps[imp_idx][0] <= upto + _TOL:
            r, p = imps[imp_idx]
            slot = 0 if r <= _TOL else (2 if r >= t - _TOL else 1)
            term = float(price(r, d)) * block_factor(p, alpha)
            parts[slot] += term
            magnitude += abs(term)
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
            d_ts = d_at_lo * decay + alpha * zeta_cur * -math.expm1(-beta * u) / beta
            samples[s_idx] = float(price(ts, d_ts))
            impacts[s_idx] = d_ts
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
                x_u = -beta * (0.5 * span) * (nodes + 1.0)
                decay_u = np.exp(x_u)
                if zeta_cur != 0.0:
                    d_r = d * decay_u + alpha * zeta_cur * -np.expm1(x_u) / beta
                    r = pos + 0.5 * span * (nodes + 1.0)
                    vals = zeta_cur * price(r, d_r)
                    term = 0.5 * span * float(np.dot(weights, vals))
                    parts[1] += term
                    magnitude += abs(term)
                d += (alpha * zeta_cur - beta * d) * (-math.expm1(-beta * span) / beta)
            pos = nxt
            if pos >= b - _TOL:
                break
            apply_impulses(pos)
            take_samples(pos - 1.0, pos, d, pos, inclusive=True)
        apply_impulses(b if i < strategy.cells - 1 else t)
        take_samples(b - 1.0, b, d, b, inclusive=True)

    if samples is not None and s_idx < len(sample_times):
        raise ValueError("sample times must lie in [0, horizon] and be sorted")
    return parts, magnitude, samples, impacts


def impact_path(params, strategy):
    """Segment table of D: event times, segment rates, D at events and before blocks."""
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
    cut = np.searchsorted(edges, splits)
    events = np.insert(edges, cut, splits)
    rates = np.insert(strategy.density, cut, strategy.density[cut - 1])
    ev = np.searchsorted(events, anchors)
    is_block = np.zeros(events.size + ev.size, dtype=bool)
    is_block[ev + np.arange(ev.size)] = True
    length, rate, jump = np.zeros((3, is_block.size))
    length[~is_block] = np.append(np.diff(events), 0.0)
    rate[~is_block] = np.append(rates, 0.0)
    jump[is_block] = [alpha * p for _, p in strategy.impulses]
    push = (alpha * rate).tolist()
    relax = [-e / beta for e in map(math.expm1, (-beta * length).tolist())]
    before, d = [], 0.0
    for p, f, j in zip(push, relax, jump.tolist()):
        before.append(d)
        d += j
        d += (p - beta * d) * f
    before = np.array(before)
    return events, rates, before[~is_block], before[is_block]


def impact_at(params, path, times):
    """D at sorted times in [0, horizon]; post-block at an event."""
    alpha, beta = params.alpha, params.beta
    events, rates, d_events, _ = path
    k = np.searchsorted(events + _TOL, times)
    at = np.where(times > events[k] - _TOL, k, np.maximum(k - 1, 0))
    rate = np.append(0.0, rates)[k]
    x = -beta * np.maximum(times - events[at], 0.0)
    return d_events[at] * np.exp(x) - alpha * rate * np.expm1(x) / beta


def expected_price(params, state, r, d):
    q = derive(params, state)
    beta = params.beta
    return math.exp(params.fundamental_log + q.y) * np.exp(
        np.exp(-beta * r) * q.z - np.exp(-2.0 * beta * r) * q.y - d)


def breakdown(params, state, strategy):
    """ProceedsBreakdown of an admissible strategy, one segment table per call."""
    alpha, beta, t = params.alpha, params.beta, strategy.horizon
    events, rates, d_events, d_blocks = impact_path(params, strategy)
    parts = [0.0, 0.0, 0.0]
    r_blocks = np.array([r for r, _ in strategy.impulses])
    prices = expected_price(params, state, r_blocks, d_blocks).tolist()
    for (r, p), s in zip(strategy.impulses, prices):
        parts[0 if r <= _TOL else (2 if r >= t - _TOL else 1)] += s * block_factor(p, alpha)
    live = rates != 0.0
    nodes, weights = gl_nodes(20)
    x = nodes + 1.0
    half = 0.5 * np.diff(events)[live]
    zeta = rates[live][:, None]
    u = (-beta * half)[:, None] * x
    d_r = d_events[:-1][live][:, None] * np.exp(u) - alpha * zeta * np.expm1(u) / beta
    r = events[:-1][live][:, None] + half[:, None] * x
    parts[1] += float(np.sum(half * ((zeta * expected_price(params, state, r, d_r)) @ weights)))
    return ProceedsBreakdown(initial_block_value=parts[0], gradual_value=parts[1],
                             terminal_block_value=parts[2], total=math.fsum(parts))


def price_path(params, state, strategy, times):
    """E[S_r] at sorted times in [0, horizon]."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    return expected_price(params, state, times,
                          impact_at(params, impact_path(params, strategy), times))


def decay_profile(params, strategy, times):
    """D at sorted times in [0, horizon], as an array."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    return impact_at(params, impact_path(params, strategy), times)
