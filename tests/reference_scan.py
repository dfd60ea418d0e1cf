"""Reference manipulation scan: one schedule per z point.

This is the loop ``ouexec.manipulation.scan`` ran before it built its
points' schedules in blocks from one xi* inversion, together with the
``_schedule`` it called once per point; the multiplier solve, the
trajectory, the bound and the evaluator are the package's own. The tests
require the same bytes from the two scans.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from ouexec import continuous, zero_vol
from ouexec.continuous import (ContinuousSchedule, _panels, _row, _trajectory, _Trajectory,
                               _value_block, _zeta, p_eval, solve_lambda_star)
from ouexec.errors import ConfigError, RegimeError, check_int
from ouexec.manipulation import ManipulationReport, _bound_at, _scan_grid, l_eval
from ouexec.model import MarketState, ModelParams, Regime, block_factor, classify, derive
from ouexec.proceeds import expected_proceeds
from ouexec.numerics import float_range
from ouexec.strategy import assemble_optimal


def scan(params: ModelParams, state: MarketState, z_range: tuple[float, float],
         points: int = 200, grid_points: int = 400) -> ManipulationReport:
    """Sweep the price-fundamental gap z and certify round-trip profits.

    For each z the market price is reset to e^{F+z} with zero holdings.
    One solve_lambda_star call finds the extended multipliers of every z
    together; then each z's extended schedule is built at its multiplier,
    and the profit is both bounded analytically there and verified exactly
    by the proceeds evaluator on the assembled strategy. first_profitable_z
    reports the smallest scanned z certified both ways: analytic bound > 0
    and verified profit > 0.
    """
    if abs(state.holdings) > 1e-12:
        raise ConfigError("scan operates on round trips; set phi = 0")
    zs = _scan_grid(params, z_range, points)
    l_vals = np.asarray(l_eval(zs, params.beta, params.horizon))
    bounds = np.empty(points)
    profits = np.empty(points)
    states = [MarketState(cash=state.cash, holdings=0.0, price=math.exp(params.fundamental_log + z))
              for z in zs]
    panels = continuous._panels(params)  # xi* reads the model alone: one pin for every z
    lams = continuous.solve_lambda_star(params, states, extended=True, panels=panels)
    for i, (st, lam) in enumerate(zip(states, lams.tolist())):
        sched, tr = _schedule(params, st, grid_points, extended=True, panels=panels, lam=lam)
        bounds[i] = _bound_at(params, st, sched.lambda_star, tr).bound
        profits[i] = expected_proceeds(params, st, sched.strategy) - state.cash

    certified = np.flatnonzero((bounds > 0.0) & (profits > 0.0))
    first = float(zs[certified[0]]) if certified.size else None
    if certified.size and np.any(profits[certified[0]:] <= 0.0):
        warnings.warn("verified profit not monotone above first_profitable_z",
                      RuntimeWarning, stacklevel=2)
    return ManipulationReport(z_values=zs, l_values=l_vals, profit_bounds=bounds,
                              verified_profits=profits, first_profitable_z=first)


@float_range("the schedule")
def _schedule(params: ModelParams, state: MarketState, grid_points: int, tol: float = 1e-10,
              extended: bool = False, panels: int | None = None,
              lam: float | None = None) -> tuple[ContinuousSchedule, _Trajectory | None]:
    """schedule() and the solved multiplier's trajectory.

    panels is the xi* pin and lam the multiplier solve_lambda_star gives
    for this state on it, if the caller holds them.
    """
    check_int("grid_points", grid_points, 1)
    d = derive(params, state)
    a, b, t = params.alpha, params.beta, params.horizon
    phi, s = state.holdings, state.price
    regime = classify(params, state)
    if d.z <= 2.0 * d.y and not extended:
        # blocks turn into purchases here; only extended mode may proceed
        raise RegimeError(
            f"z = {d.z:.6g} <= 2y = {2.0 * d.y:.6g}: the standard schedule "
            "is only optimal under z > 2y (extended=True evaluates the "
            "formulas anyway, without optimality claims)")
    times = np.linspace(0.0, t, grid_points + 1)
    tr = None

    if regime is Regime.ZERO_VOL and not extended:
        zv = zero_vol.solve(params, state)
        lam = a * float(p_eval(zv.p_star - d.z / a, a))
        p_star, q_star, dens_int, val = zv.p_star, zv.q_star, zv.zeta_star * t, zv.value
        xi = np.full_like(times, zv.p_star - d.z / a)
        eta = np.full_like(times, zv.p_star)
        zeta = np.full_like(times, zv.zeta_star)
        price = math.exp(params.fundamental_log) * np.exp(-a * xi)  # y = 0
        strategy = assemble_optimal(zv.p_star, zeta[:-1], zv.q_star, t)
    elif regime is Regime.SMALL_HOLDINGS and not extended:
        # selling pressure never outweighs the depressed price: one block now
        lam, p_star, q_star, dens_int = None, phi, 0.0, 0.0
        xi = np.full_like(times, np.nan)
        zeta = np.zeros_like(times)
        eta = np.full_like(times, phi)
        decay = np.exp(-b * times)
        decay2 = np.exp(-2.0 * b * times)
        price = math.exp(params.fundamental_log + d.y) * np.exp(
            decay * d.z - decay2 * d.y - a * phi)
        strategy = assemble_optimal(phi, zeta[:-1], 0.0, t)
        val = state.cash + s * block_factor(phi, a)
    elif regime is Regime.GAP and not extended:
        raise RegimeError(
            "holdings fall between the small- and large-holdings conditions; "
            "no closed form applies (use the discrete approximation)")
    else:
        panels = panels or _panels(params)
        if lam is None:
            lam = solve_lambda_star(params, state, tol=tol, extended=extended, panels=panels)
        # the grid, then the cell midpoints at which the strategy samples the rate
        samples = np.append(times, 0.5 * (times[:-1] + times[1:]))
        tr = _row(_trajectory(params, [lam], panels, samples), 0)
        n = times.size
        xi, decay2 = tr.xi[:n], tr.decay2[:n]
        zeta, mid_zeta = np.split(_zeta(params, tr.xi, tr.decay2), [n])
        eta = xi - (1.0 + decay2) * d.y / a + d.z / a
        price = math.exp(params.fundamental_log + d.y) * np.exp(decay2 * d.y - a * xi)
        p_star = float(xi[0] + (d.z - 2.0 * d.y) / a)
        q_star = float(phi - b * tr.j - xi[-1] - d.z / a + d.y * (1.0 + math.exp(-2.0 * b * t)) / a)
        dens_int = float(np.dot(tr.weights, _zeta(params, tr.node_xi, tr.node_decay2)))
        strategy = assemble_optimal(p_star, mid_zeta, q_star, t, extended_mode=extended)
        val = _value_block(params, state, tr, p_star, q_star, float(xi[-1]))
    return ContinuousSchedule(
        regime=regime, lambda_star=lam, p_star=p_star, q_star=q_star,
        times=times, xi=xi, eta=eta, zeta=zeta, expected_price=price,
        density_integral=dens_int, value=val, strategy=strategy, extended=extended), tr
