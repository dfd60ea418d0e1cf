"""Reference Monte Carlo step loop: fresh arrays at every step.

This is the loop ``ouexec.montecarlo.simulate`` ran before it moved into
buffers allocated once per call. Each step builds its temporaries anew
(``np.exp(x) * factor``, ``m_u[i] + k_u[i] * x``, ``decay * x + drift +
step_sd * z``). The arithmetic and the draw order are the same as the
buffered loop's, so the tests require equal bits from the two when the
loop takes the package's per-step accrual order (``package_order``); a
fixed order (``fixed_order(5)`` is the loop before the order was chosen
per step, ``fixed_order(12)`` the accuracy reference) runs the same loop.
"""

from __future__ import annotations

import math

import numpy as np

from ouexec.model import block_factor, derive
from ouexec.montecarlo import _accrual_limits, _accrual_order, _rng
from ouexec.numerics import gl_nodes


def package_order(q: float, y: float):
    """The package's rule: the node count for a step whose reach beta dt max|A| is given."""
    limits = _accrual_limits(q, y)
    return lambda reach: _accrual_order(limits, reach)


def fixed_order(order: int):
    return lambda q, y: (lambda reach: order)


def simulate(params, state, strategy, paths: int, steps: int, seed: int,
             order=package_order):
    """(mean_cash, std_error) of the per-step loop; inputs are taken as valid."""
    cash = terminal_cash(params, state, strategy, paths, steps, seed, order)
    mean = float(np.mean(cash))
    se = 0.0 if cash.size == 1 else float(np.std(cash, ddof=1) / math.sqrt(cash.size))
    return mean, se


def terminal_cash(params, state, strategy, paths: int, steps: int, seed: int,
                  order=package_order):
    """Each path's terminal cash; order(beta dt, y) maps a step's reach to its node count."""
    d = derive(params, state)
    a, b, sig = params.alpha, params.beta, params.sigma
    fund = params.fundamental_log
    dt = strategy.horizon / steps
    deterministic = sig == 0.0
    n_paths = 1 if deterministic else paths
    rng = None if deterministic else _rng(seed)

    boundary_blocks: dict[int, float] = {}
    for r, p in strategy.impulses:
        idx = min(max(int(round(r / dt)), 0), steps)
        boundary_blocks[idx] = boundary_blocks.get(idx, 0.0) + p

    rule = order(b * dt, d.y)

    decay = math.exp(-b * dt)
    step_sd = 0.0 if deterministic else sig * math.sqrt((1.0 - decay ** 2) / (2.0 * b))
    cell_of_step = np.minimum((np.floor((np.arange(steps) + 0.5) * dt
                                        / strategy.cell_width)).astype(int), strategy.cells - 1)
    dens = np.asarray(strategy.density)

    x = np.full(n_paths, fund + d.z)
    cash = np.full(n_paths, state.cash, dtype=float)
    for j in range(steps):
        p_here = boundary_blocks.get(j)
        if p_here:
            cash += np.exp(x) * block_factor(p_here, a)
            x -= a * p_here
        zeta = float(dens[cell_of_step[j]])
        if zeta != 0.0:
            shift = a * zeta / b - fund
            nodes, weights = gl_nodes(rule(float(np.abs(x + shift).max()) * (b * dt)))
            u = 0.5 * dt * (nodes + 1.0)
            k_u = np.exp(-b * u)
            w_u = 0.5 * dt * weights
            m_u = (1.0 - k_u) * fund + d.y * (1.0 - k_u ** 2) - a * zeta * (1.0 - k_u) / b
            for i in range(len(nodes)):
                cash += (w_u[i] * zeta) * np.exp(m_u[i] + k_u[i] * x)
        drift = (1.0 - decay) * fund - a * zeta * (1.0 - decay) / b
        if deterministic:
            x = decay * x + drift
        else:
            x = decay * x + drift + step_sd * rng.standard_normal(n_paths)

    p_end = boundary_blocks.get(steps)
    if p_end:
        cash += np.exp(x) * block_factor(p_end, a)
    return cash
