"""Closed-form optimal liquidation schedule in continuous time.

The optimal strategy is an initial block p*, an absolutely continuous part
with rate zeta*_r, and a terminal block q*. Everything is parametrized by
a scalar multiplier lambda* that enforces the selling constraint: the
first-order condition per unit time reads

    P(xi_r) = exp(-e^{-2 b r} y) * lambda / alpha,   P(x) = e^{-ax}(1 - ax)

and lambda* is the root of a scalar equation H(lambda) = 0 obtained by
substituting the implied schedule back into the constraint. H reads
E(lambda) - lambda with E positive and decreasing, so the root lies in
[E(E(0)), E(0)]; numerics.solve_multiplier finds it by Newton in
log lambda inside that bracket. P^{-1} is closed form through Lambert W,
and so is the slope of log E.

xi_r is the (shifted) log of the expected price along the optimal path:
E[S_r] = e^{F+y} exp(e^{-2 b r} y - a xi_r). The cumulative sales process
is eta_r = xi_r - (1 + e^{-2 b r}) y / a + z / a. Given lambda*, the whole
schedule comes from one inversion for xi* on the solve's nodes and the grid.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import proceeds, zero_vol
from .errors import ConfigError, NumericalError, RegimeError, check_int, check_positive
from .model import MarketState, ModelParams, Regime, block_factor, classify, derive
from .numerics import (LOG_FLOAT_MAX, adaptive_quad, float_range, lambert_w0, panel_nodes,
                       solve_multiplier)
from .strategy import ExecutionStrategy, assemble_optimal


def p_eval(x, alpha: float):
    """Per-unit price response P(x) = e^{-alpha x}(1 - alpha x)."""
    if alpha <= 0.0:
        raise ConfigError("alpha must be positive")
    x = np.asarray(x, dtype=float)
    return np.exp(-alpha * x) * (1.0 - alpha * x)


def p_inverse(q, alpha: float):
    """Inverse of P on its decreasing branch x <= 2/alpha.

    P maps (-inf, 2/alpha] onto [-e^{-2}, inf); q below -e^{-2} has no
    preimage. With w = 1 - alpha x, P(x) = q reads w e^w = e q, so the
    inverse is x = (1 - W0(e q)) / alpha on the principal branch of
    Lambert W.
    """
    if alpha <= 0.0:
        raise ConfigError("alpha must be positive")
    q = np.asarray(q, dtype=float)
    floor = -math.exp(-2.0)
    if np.any(q < floor - 1e-12):
        raise ConfigError("value below the minimum of the price response")
    q = np.maximum(q, floor)
    x = (1.0 - lambert_w0(math.e * q)) / alpha

    resid = np.abs(p_eval(x, alpha) - q)
    if not np.all(resid <= 1e-12 * np.maximum(1.0, np.abs(q))):
        raise NumericalError("price response inversion did not converge")
    return x


def xi_star(params: ModelParams, lam: float, r):
    """Optimal log expected-price deviation at times r for multiplier lam; it reads the model alone."""
    g = np.exp(-np.exp(-2.0 * params.beta * np.asarray(r, dtype=float)) * params.y)
    return p_inverse(g * lam / params.alpha, params.alpha)


def zeta_star(params: ModelParams, state: MarketState, lam: float, r, form: str = "reduced"):
    """Optimal selling rate at times r.

    form="reduced" uses the algebraically simplified expression; form
    ="direct" differentiates eta* term by term, carrying lam explicitly.
    The two must agree to roundoff; keeping both guards the derivation.
    """
    r = np.asarray(r, dtype=float)
    a, b, y = params.alpha, params.beta, params.y
    decay2 = np.exp(-2.0 * b * r)
    xi = xi_star(params, lam, r)
    if form == "reduced":
        return _zeta(params, xi, decay2)
    if form == "direct":
        inv_slope = np.exp(a * xi) / (a * (a * xi - 2.0))  # d P^{-1} / dq
        return b * xi + 2.0 * b * lam * decay2 * y * inv_slope * np.exp(-decay2 * y) / a + 2.0 * b * y * decay2 / a
    raise ConfigError(f"unknown zeta form {form!r}")


def _zeta(params: ModelParams, xi, decay2):
    """Reduced-form zeta* from xi* and e^{-2 beta r} at the same times."""
    a, b = params.alpha, params.beta
    return b * xi + 2.0 * b * params.y * decay2 / (a * (2.0 - a * xi))


_GAP_FALLBACK_N = 2000  # periods per unit time of the discrete solve that values the gap
# xi* and e^{-2 beta r} on the quadrature nodes and at sample times; j = int_0^t xi*
_Trajectory = namedtuple("_Trajectory", "weights node_decay2 node_xi decay2 xi j")


def _panels(params: ModelParams) -> int:
    """The model's xi* quadrature pin: a count (at least 8) of order-16 Gauss-Legendre panels.

    The adaptive xi* integral settles there at lambda0 = alpha e^{-y} / 2.
    xi* reads alpha, beta, y and t alone, so the solve, the trajectory and
    a scan over z share one pin.
    """
    if params.alpha <= 0.0:
        raise ConfigError("alpha must be positive")
    lam0 = 0.5 * params.alpha * math.exp(-params.y)
    _, panels = adaptive_quad(lambda r: xi_star(params, lam0, r), 0.0, params.horizon,
                              rel_tol=1e-13, abs_tol=1e-15)
    return max(panels, 8)


def _trajectory(params: ModelParams, lams, panels: int, times=()) -> _Trajectory:
    """xi*_r on the `panels` pinned panels and at the times, a row per multiplier of lams.

    One inversion covers every row, node and time; j has an entry per row,
    each row's own 1-D dot, summed as for that row alone (a matrix product
    may sum in another order), so every row has the bits of its multiplier's
    alone.
    """
    a = params.alpha
    nodes, weights = panel_nodes(0.0, params.horizon, panels, 16)
    decay2 = np.exp(-2.0 * params.beta * np.concatenate([nodes, np.asarray(times, dtype=float)]))
    xi = p_inverse(np.exp(-decay2 * params.y) * np.asarray(lams, dtype=float)[:, None] / a, a)
    k = nodes.size
    return _Trajectory(weights, decay2[:k], xi[:, :k], decay2[k:], xi[:, k:],
                       [float(np.dot(weights, row)) for row in xi[:, :k]])


def _row(tr: _Trajectory, k: int) -> _Trajectory:
    """Row k of tr: the trajectory of its k-th multiplier."""
    return tr._replace(node_xi=tr.node_xi[k], xi=tr.xi[k], j=tr.j[k])


def _as_list(state: MarketState | Sequence[MarketState]) -> tuple[list[MarketState], bool]:
    """The states as a list, and whether a sequence of them was given rather than one."""
    many = not isinstance(state, MarketState)
    return (list(state) if many else [state]), many


def h_eval(params: ModelParams, state: MarketState | Sequence[MarketState], lam,
           panels: int | None = None) -> np.ndarray:
    """Constraint mismatch H(lam) = E(lam) - lam; the optimal multiplier is its root.

    E(lam) = alpha exp(alpha beta int_0^t xi*_r dr - alpha phi + z - y) is
    positive and decreasing, with E(0) = alpha exp(beta t - alpha phi + z - y),
    so H has slope <= -1. The xi integral runs on the model's pinned panels,
    the discretization solve_lambda_star finds the root of; `panels` is that
    pin, _panels(params), for a caller that already holds it. lam holds one
    multiplier per state, in order and in any shape; H takes that shape, and
    each entry is the one its state gives alone.
    """
    states = _as_list(state)[0]
    lams = np.asarray(lam, dtype=float)
    if lams.size != len(states):
        raise ConfigError("give one multiplier per state")
    flat = lams.reshape(-1)
    if not np.all((flat >= 0.0) & (flat < math.inf)):
        raise ConfigError("the multiplier is a nonnegative finite number")
    log_e = _log_e_with_slope(params, states, flat, panels or _panels(params))[0]
    for le, lm in zip(log_e, flat.tolist()):
        if not le <= LOG_FLOAT_MAX:
            raise NumericalError(f"H({lm:.6g}) is beyond the float range: log E = {le:.6g}")
    return np.array([math.exp(le) for le in log_e]).reshape(lams.shape) - lams


def _log_e_with_slope(params: ModelParams, states: list[MarketState], lam,
                      panels: int) -> tuple[list[float], list[float]]:
    """log E on `panels` Gauss-Legendre panels of order 16, and d log E / d log lam.

    One entry per state, at its entry of the sequence lam. All come from one
    inversion on the quadrature nodes, a row per state: with
    w = 1 - alpha xi = W0(e q), differentiating P(xi) = q = g lam / alpha
    gives lam d xi / d lam = P(xi) / P'(xi) = -w / (alpha (1 + w)).
    """
    a, b = params.alpha, params.beta
    tr = _trajectory(params, lam, panels)
    w = 1.0 - a * tr.node_xi
    log_e = []
    for st, j in zip(states, tr.j):
        d = derive(params, st)
        log_e.append(math.log(a) + a * b * j - a * st.holdings + d.z - d.y)
    return log_e, [-b * float(np.dot(tr.weights, row)) for row in w / (1.0 + w)]


def solve_lambda_star(params: ModelParams, state: MarketState | Sequence[MarketState],
                      tol: float = 1e-10, extended: bool = False,
                      panels: int | None = None) -> float | np.ndarray:
    """Root of H; for a sequence of states, the array of their roots.

    Standard mode requires phi > max(z, 1 + beta)/alpha; extended mode
    accepts any phi (including zero, for round-trip analysis). Every
    iterate sees one discretization, the model's pinned xi quadrature
    (`panels`, as in h_eval), where the root must leave |H| <= tol lambda.
    A sequence of states is solved together, one inversion per Newton
    round for the states still open, and each root has the bits the
    state's own solve gives.
    """
    check_positive("tol", tol)
    states, many = _as_list(state)
    if not extended:
        for st in states:
            regime = classify(params, st)
            if regime is not Regime.LARGE_HOLDINGS:
                raise RegimeError(
                    f"closed form requires phi > max(z, 1+beta)/alpha; regime is {regime.value}")
    panels = panels or _panels(params)
    lam = solve_multiplier(
        lambda lams, live: _log_e_with_slope(params, [states[i] for i in live], lams, panels),
        len(states), tol, lambda lams: h_eval(params, states, lams, panels))
    return lam if many else float(lam[0])


@dataclass(frozen=True)
class ContinuousSchedule:
    """Optimal schedule sampled on a uniform grid over [0, t].

    times has grid_points + 1 boundary entries; xi, eta, zeta and
    expected_price align with it. density_integral is zeta* integrated on
    the solve's Gauss-Legendre nodes, so p_star + density_integral + q_star
    recovers phi to quadrature accuracy rather than grid accuracy.
    """

    regime: Regime
    lambda_star: float | None
    p_star: float
    q_star: float
    times: np.ndarray
    xi: np.ndarray
    eta: np.ndarray
    zeta: np.ndarray
    expected_price: np.ndarray
    density_integral: float
    value: float
    strategy: ExecutionStrategy
    extended: bool = False


def value(params: ModelParams, state: MarketState, tol: float = 1e-10) -> float:
    """Best attainable expected terminal cash for the current regime.

    The value of schedule(), which holds the closed forms of every regime
    and refuses z <= 2y. The gap regime under z > 2y has no closed form and
    falls back to the n = _GAP_FALLBACK_N discrete solver (a numeric approximation,
    not a formula); schedule() is the API that refuses the gap outright.
    """
    check_positive("tol", tol)
    d = derive(params, state)
    if d.z > 2.0 * d.y and classify(params, state) is Regime.GAP:
        from . import discrete
        n = _GAP_FALLBACK_N
        lam = discrete.solve_lambda_hat(params, state, n, tol=tol)
        psi = discrete.recover_psi(params, state, n, lam)
        if float(np.min(psi)) < -1e-10 * max(1.0, state.holdings):
            raise NumericalError(
                "gap-regime fallback: the stationary allocation leaves the "
                "admissible set; no value available")
        return discrete.discrete_value(params, state, psi, n)
    return schedule(params, state, 1, tol).value  # the value needs no finer grid


def _value_block(params: ModelParams, state: MarketState, tr: _Trajectory, p_star: float,
                 q_star: float, xi_t: float) -> float:
    """value_block_form from the trajectory tr of its multiplier; xi_t = xi*_t."""
    d = derive(params, state)
    a, b, s = params.alpha, params.beta, state.price
    eta_t = xi_t - (1.0 + math.exp(-2.0 * b * params.horizon)) * d.y / a + d.z / a
    grad = float(np.dot(tr.weights, tr.node_xi * np.exp(tr.node_decay2 * d.y - a * tr.node_xi)))
    v = s * block_factor(p_star, a)
    v += s * (math.exp(-a * p_star) - math.exp(-a * eta_t)) / a
    v += s * b * math.exp(d.y - d.z) * grad
    v += s * math.exp(-a * eta_t) * block_factor(q_star, a)
    return state.cash + v


def value_block_form(params: ModelParams, state: MarketState, lam: float, p_star: float,
                     q_star: float) -> float:
    """Expected cash of the optimal schedule, block-decomposition form.

    Initial block, gradual part and terminal block are valued separately;
    the non-martingale drift correction enters through an integral of
    xi* e^{-alpha eta*}, taken on the pinned nodes of the multiplier solve.
    """
    tr = _row(_trajectory(params, [lam], _panels(params), [params.horizon]), 0)
    return _value_block(params, state, tr, p_star, q_star, float(tr.xi[0]))


def value_flow_form(params: ModelParams, state: MarketState, lam: float) -> float:
    """Same value through the aggregate-constraint route.

    Uses only the total phi and the running xi integral; the blocks never
    appear individually. Agreement with value() validates both algebra
    paths. Both integrals run on the pinned nodes of the multiplier solve.
    """
    d = derive(params, state)
    a, b = params.alpha, params.beta
    tr = _row(_trajectory(params, [lam], _panels(params)), 0)
    grad = float(np.dot(tr.weights, tr.node_xi * np.exp(
        params.fundamental_log - a * tr.node_xi + (1.0 + tr.node_decay2) * d.y)))
    v = (state.price / a) * (1.0 - math.exp(-a * state.holdings + a * b * tr.j))
    return state.cash + v + b * grad


@float_range("the schedule")
def schedule(params: ModelParams, state: MarketState, grid_points: int = 1000,
             tol: float = 1e-10, extended: bool = False) -> ContinuousSchedule:
    """Full optimal schedule for the current regime.

    Large holdings: closed form via the multiplier. Zero volatility:
    delegated to the degenerate solver (constant rate). Small holdings:
    sell everything immediately. The gap between the small- and
    large-holdings conditions has no closed form and raises RegimeError
    unless extended=True, which evaluates the same formulas without
    optimality guarantees.
    """
    check_positive("tol", tol)
    check_int("grid_points", grid_points, 1)
    d = derive(params, state)
    a, t = params.alpha, params.horizon
    phi, s = state.holdings, state.price
    regime = classify(params, state)
    if d.z <= 2.0 * d.y and not extended:
        # blocks turn into purchases here; only extended mode may proceed
        raise RegimeError(
            f"z = {d.z:.6g} <= 2y = {2.0 * d.y:.6g}: the standard schedule "
            "is only optimal under z > 2y (extended=True evaluates the "
            "formulas anyway, without optimality claims)")
    times = np.linspace(0.0, t, grid_points + 1)

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
        strategy = assemble_optimal(phi, zeta[:-1], 0.0, t)
        price = proceeds.expected_price_path(params, state, strategy, times)  # impact decays
        val = state.cash + s * block_factor(phi, a)
    elif regime is Regime.GAP and not extended:
        raise RegimeError(
            "holdings fall between the small- and large-holdings conditions; "
            "no closed form applies (use the discrete approximation)")
    else:
        panels = _panels(params)
        lam = solve_lambda_star(params, state, tol=tol, extended=extended, panels=panels)
        (p_star, q_star, zeta, strategy, tr), = _closed_form(params, [state], [lam], panels,
                                                              times, extended)
        xi, decay2 = tr.xi[:times.size], tr.decay2[:times.size]
        eta = xi - (1.0 + decay2) * d.y / a + d.z / a
        price = math.exp(params.fundamental_log + d.y) * np.exp(decay2 * d.y - a * xi)
        dens_int = float(np.dot(tr.weights, _zeta(params, tr.node_xi, tr.node_decay2)))
        val = _value_block(params, state, tr, p_star, q_star, float(xi[-1]))
    return ContinuousSchedule(
        regime=regime, lambda_star=lam, p_star=p_star, q_star=q_star,
        times=times, xi=xi, eta=eta, zeta=zeta, expected_price=price,
        density_integral=dens_int, value=val, strategy=strategy, extended=extended)


@float_range("the schedule")
def _closed_form(params: ModelParams, states: list[MarketState], lams, panels: int,
                 times: np.ndarray, extended: bool) -> list[tuple]:
    """Each state's (p*, q*, zeta* on the grid, strategy, trajectory) at its multiplier.

    lams holds the multipliers solve_lambda_star gives the states on the
    pin `panels`, and times the uniform strategy grid over [0, t]. One xi*
    inversion, with a row per state, on the grid and the cell midpoints at
    which the strategy samples the rate, gives them all; each state's
    carry the bits of its own schedule.
    """
    a, b, y, t = params.alpha, params.beta, params.y, params.horizon
    n = times.size
    tr = _trajectory(params, lams, panels, np.append(times, 0.5 * (times[:-1] + times[1:])))
    z = np.array([derive(params, st).z for st in states])
    zeta, mid_zeta = np.split(_zeta(params, tr.xi, tr.decay2), [n], axis=1)
    p_star = tr.xi[:, 0] + (z - 2.0 * y) / a
    q_star = (np.array([st.holdings for st in states]) - b * np.array(tr.j) - tr.xi[:, n - 1]
              - z / a + y * (1.0 + math.exp(-2.0 * b * t)) / a)
    return [(p, q, zeta[k], assemble_optimal(p, mid_zeta[k], q, t, extended_mode=extended),
             _row(tr, k)) for k, (p, q) in enumerate(zip(p_star.tolist(), q_star.tolist()))]
