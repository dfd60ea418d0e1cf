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
is eta_r = xi_r - (1 + e^{-2 b r}) y / a + z / a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import zero_vol
from .errors import ConfigError, NumericalError, RegimeError
from .model import MarketState, ModelParams, Regime, block_factor, classify, derive
from .numerics import (FLOAT_TINY, LOG_FLOAT_MAX, adaptive_quad, lambert_w0, panel_nodes,
                       solve_multiplier)
from .strategy import ExecutionStrategy, assemble_optimal


def p_eval(x, alpha: float):
    """Per-unit price response P(x) = e^{-alpha x}(1 - alpha x)."""
    if alpha <= 0.0:
        raise ConfigError("alpha must be positive")
    x = np.asarray(x, dtype=float)
    out = np.exp(-alpha * x) * (1.0 - alpha * x)
    return float(out) if out.ndim == 0 else out


def p_inverse(q, alpha: float):
    """Inverse of P on its decreasing branch x <= 2/alpha.

    P maps (-inf, 2/alpha] onto [-e^{-2}, inf); q below -e^{-2} has no
    preimage. With w = 1 - alpha x, P(x) = q reads w e^w = e q, so the
    inverse is x = (1 - W0(e q)) / alpha on the principal branch of
    Lambert W.
    """
    if alpha <= 0.0:
        raise ConfigError("alpha must be positive")
    scalar = np.isscalar(q)
    q = np.atleast_1d(np.asarray(q, dtype=float))
    floor = -math.exp(-2.0)
    if np.any(q < floor - 1e-12):
        raise ConfigError("value below the minimum of the price response")
    q = np.maximum(q, floor)
    x = (1.0 - lambert_w0(math.e * q)) / alpha

    resid = np.abs(p_eval(x, alpha) - q)
    if not np.all(resid <= 1e-12 * np.maximum(1.0, np.abs(q))):
        raise NumericalError("price response inversion did not converge")
    return float(x[0]) if scalar else x


def xi_star(params: ModelParams, state: MarketState, lam: float, r):
    """Optimal log expected-price deviation at times r for multiplier lam."""
    d = derive(params, state)
    scalar = np.isscalar(r)
    r = np.atleast_1d(np.asarray(r, dtype=float))
    g = np.exp(-np.exp(-2.0 * params.beta * r) * d.y)
    out = p_inverse(g * lam / params.alpha, params.alpha)
    out = np.atleast_1d(out)
    return float(out[0]) if scalar else out


def eta_star(params: ModelParams, state: MarketState, lam: float, r):
    """Cumulative amount sold by time r on the optimal path."""
    d = derive(params, state)
    scalar = np.isscalar(r)
    r = np.atleast_1d(np.asarray(r, dtype=float))
    a = params.alpha
    out = (xi_star(params, state, lam, r)
           - (1.0 + np.exp(-2.0 * params.beta * r)) * d.y / a + d.z / a)
    return float(out[0]) if scalar else out


def zeta_star(params: ModelParams, state: MarketState, lam: float, r, form: str = "reduced"):
    """Optimal selling rate at times r.

    form="reduced" uses the algebraically simplified expression; form
    ="direct" differentiates eta* term by term, carrying lam explicitly.
    The two must agree to roundoff; keeping both guards the derivation.
    """
    d = derive(params, state)
    scalar = np.isscalar(r)
    r = np.atleast_1d(np.asarray(r, dtype=float))
    a, b, y = params.alpha, params.beta, d.y
    decay2 = np.exp(-2.0 * b * r)
    xi = xi_star(params, state, lam, r)
    if form == "reduced":
        out = b * xi + 2.0 * b * y * decay2 / (a * (2.0 - a * xi))
    elif form == "direct":
        inv_slope = np.exp(a * xi) / (a * (a * xi - 2.0))  # d P^{-1} / dq
        out = b * xi + 2.0 * b * lam * decay2 * y * inv_slope * np.exp(-decay2 * y) / a + 2.0 * b * y * decay2 / a
    else:
        raise ConfigError(f"unknown zeta form {form!r}")
    return float(out[0]) if scalar else out


def _xi_integral(params: ModelParams, state: MarketState, lam: float):
    """Adaptive integral of xi*_r over [0, t]."""
    f = lambda r: xi_star(params, state, lam, r)
    return adaptive_quad(f, 0.0, params.horizon, rel_tol=1e-13, abs_tol=1e-15)


def h_eval(params: ModelParams, state: MarketState, lam: float,
           panels: int | None = None) -> float:
    """Constraint mismatch H(lam) = E(lam) - lam; the optimal multiplier is its root.

    E(lam) = alpha exp(alpha beta int_0^t xi*_r dr - alpha phi + z - y) is
    positive and decreasing, with E(0) = alpha exp(beta t - alpha phi + z - y),
    so H has slope <= -1. The xi integral runs on `panels` Gauss-Legendre
    panels of order 16, by default as many as the adaptive rule needs.
    """
    if params.alpha <= 0.0:
        raise ConfigError("alpha must be positive")
    if lam < 0.0:
        raise ConfigError("the multiplier is nonnegative")
    log_e = _log_e_with_slope(params, state, lam, panels or _panels(params, state, lam))[0]
    if not log_e <= LOG_FLOAT_MAX:
        raise NumericalError(f"H({lam:.6g}) is beyond the float range: log E = {log_e:.6g}")
    return math.exp(log_e) - lam


def _panels(params: ModelParams, state: MarketState, lam: float) -> int:
    """Panel count (at least 8) at which the adaptive xi integral settles for lam."""
    _, panels = adaptive_quad(lambda r: xi_star(params, state, lam, r), 0.0, params.horizon,
                              rel_tol=1e-13, abs_tol=1e-15, return_panels=True)
    return max(panels, 8)


def _log_e_with_slope(params: ModelParams, state: MarketState, lam: float,
                      panels: int) -> tuple[float, float]:
    """log E(lam) on `panels` Gauss-Legendre panels of order 16, and d log E / d log lam.

    Both come from one inversion on the quadrature nodes: with
    w = 1 - alpha xi = W0(e q), differentiating P(xi) = q = g lam / alpha
    gives lam d xi / d lam = P(xi) / P'(xi) = -w / (alpha (1 + w)).
    """
    d = derive(params, state)
    a, b = params.alpha, params.beta
    nodes, weights = panel_nodes(0.0, params.horizon, panels, 16)
    g = np.exp(-np.exp(-2.0 * b * nodes) * d.y)
    xi = p_inverse(g * lam / a, a)
    w = 1.0 - a * xi
    j = float(np.dot(weights, xi))
    log_e = math.log(a) + a * b * j - a * state.holdings + d.z - d.y
    return log_e, -b * float(np.dot(weights, w / (1.0 + w)))


def solve_lambda_star(params: ModelParams, state: MarketState,
                      tol: float = 1e-10, extended: bool = False) -> float:
    """Root of H.

    Standard mode requires phi > max(z, 1 + beta)/alpha; extended mode
    accepts any phi (including zero, for round-trip analysis). The xi
    quadrature is pinned once, at the panel count the adaptive rule needs
    for lambda = alpha e^{-y} / 2, so every iterate sees the same
    discretization; solve_multiplier then finds the root, and the result
    must leave |H| <= tol lambda (relative down to the smallest normal
    float).
    """
    a = params.alpha
    if a <= 0.0:
        raise ConfigError("alpha must be positive")
    if not extended:
        regime = classify(params, state)
        if regime is not Regime.LARGE_HOLDINGS:
            raise RegimeError(
                f"closed form requires phi > max(z, 1+beta)/alpha; regime is {regime.value}")

    panels = _panels(params, state, 0.5 * a * math.exp(-params.y))
    lam = solve_multiplier(lambda lam: _log_e_with_slope(params, state, lam, panels))
    resid = abs(h_eval(params, state, lam, panels=panels))
    if not resid <= tol * max(lam, FLOAT_TINY):
        raise NumericalError(f"multiplier residual {resid:.3e} above tolerance {tol:.1e}")
    return lam


@dataclass(frozen=True)
class ContinuousSchedule:
    """Optimal schedule sampled on a uniform grid over [0, t].

    times has grid_points + 1 boundary entries; xi, eta, zeta and
    expected_price align with it. density_integral is the adaptively
    integrated zeta*, so p_star + density_integral + q_star recovers phi
    to quadrature accuracy rather than grid accuracy.
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


def _expected_price_on_path(params: ModelParams, state: MarketState, xi, r):
    d = derive(params, state)
    decay2 = np.exp(-2.0 * params.beta * np.asarray(r, dtype=float))
    return math.exp(params.fundamental_log + d.y) * np.exp(decay2 * d.y - params.alpha * xi)


def value(params: ModelParams, state: MarketState, tol: float = 1e-10) -> float:
    """Best attainable expected terminal cash for the current regime.

    Small holdings and zero volatility have simple closed forms; large
    holdings evaluates the block-decomposition formula at the solved
    multiplier. The gap regime has no closed form and falls back to the
    n = 2000 discrete solver (a numeric approximation, not a formula);
    schedule() is the API that refuses the gap outright.
    """
    regime = classify(params, state)
    a = params.alpha
    d0 = derive(params, state)
    if d0.z <= 2.0 * d0.y:
        raise RegimeError(
            f"z = {d0.z:.6g} <= 2y = {2.0 * d0.y:.6g}: no closed-form value "
            "outside the standing assumption z > 2y")
    if regime is Regime.SMALL_HOLDINGS:
        return state.cash + state.price * block_factor(state.holdings, a)
    if regime is Regime.ZERO_VOL:
        return zero_vol.solve(params, state).value
    if regime is Regime.GAP:
        from . import discrete
        n = 2000
        lam = discrete.solve_lambda_hat(params, state, n)
        psi = discrete.recover_psi(params, state, n, lam, check=False)
        if float(np.min(psi)) < -1e-10 * max(1.0, state.holdings):
            raise NumericalError(
                "gap-regime fallback: the stationary allocation leaves the "
                "admissible set; no value available")
        resid = float(np.max(np.abs(discrete.gradient(params, state, psi, n) - lam)))
        if not resid <= 1e-8 * max(1.0, lam):
            raise NumericalError(
                f"gap-regime fallback stationarity residual {resid:.3e} too large")
        return discrete.discrete_value(params, state, psi, n)
    lam = solve_lambda_star(params, state, tol=tol)
    d = derive(params, state)
    p_star = float(xi_star(params, state, lam, 0.0)) + (d.z - 2.0 * d.y) / a
    j = _xi_integral(params, state, lam)
    q_star = (state.holdings - params.beta * j
              - float(xi_star(params, state, lam, params.horizon))
              - d.z / a + d.y * (1.0 + math.exp(-2.0 * params.beta * params.horizon)) / a)
    return value_block_form(params, state, lam, p_star, q_star)


def value_block_form(params: ModelParams, state: MarketState, lam: float, p_star: float,
                     q_star: float) -> float:
    """Expected cash of the optimal schedule, block-decomposition form.

    Initial block, gradual part and terminal block are valued separately;
    the non-martingale drift correction enters through an integral of
    xi* e^{-alpha eta*}, done adaptively.
    """
    d = derive(params, state)
    a, b, t = params.alpha, params.beta, params.horizon
    s = state.price

    def kernel(r):
        r = np.asarray(r, dtype=float)
        xi = xi_star(params, state, lam, r)
        decay2 = np.exp(-2.0 * b * r)
        return xi * np.exp(decay2 * d.y - a * xi)

    grad = adaptive_quad(kernel, 0.0, t, rel_tol=1e-13, abs_tol=1e-15)
    eta_t = float(eta_star(params, state, lam, t))
    v = s * block_factor(p_star, a)
    v += s * (math.exp(-a * p_star) - math.exp(-a * eta_t)) / a
    v += s * b * math.exp(d.y - d.z) * grad
    v += s * math.exp(-a * eta_t) * block_factor(q_star, a)
    return state.cash + v


def value_flow_form(params: ModelParams, state: MarketState, lam: float) -> float:
    """Same value through the aggregate-constraint route.

    Uses only the total phi and the running xi integral; the blocks never
    appear individually. Agreement with value() validates both algebra
    paths.
    """
    d = derive(params, state)
    a, b, t = params.alpha, params.beta, params.horizon
    j = _xi_integral(params, state, lam)

    def kernel(r):
        r = np.asarray(r, dtype=float)
        xi = xi_star(params, state, lam, r)
        decay2 = np.exp(-2.0 * b * r)
        return xi * np.exp(params.fundamental_log - a * xi + (1.0 + decay2) * d.y)

    grad = adaptive_quad(kernel, 0.0, t, rel_tol=1e-13, abs_tol=1e-15)
    v = (state.price / a) * (1.0 - math.exp(-a * state.holdings + a * b * j))
    return state.cash + v + b * grad


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

    if regime is Regime.ZERO_VOL and not extended:
        zv = zero_vol.solve(params, state)
        lam = a * float(p_eval(zv.p_star - d.z / a, a))
        xi = np.full_like(times, zv.p_star - d.z / a)
        eta = np.full_like(times, zv.p_star)
        zeta = np.full_like(times, zv.zeta_star)
        price = _expected_price_on_path(params, state, xi, times)
        strategy = assemble_optimal(zv.p_star, zeta[:-1], zv.q_star, t)
        return ContinuousSchedule(
            regime=regime, lambda_star=lam, p_star=zv.p_star, q_star=zv.q_star,
            times=times, xi=xi, eta=eta, zeta=zeta, expected_price=price,
            density_integral=zv.zeta_star * t, value=zv.value,
            strategy=strategy, extended=False)

    if regime is Regime.SMALL_HOLDINGS and not extended:
        # selling pressure never outweighs the depressed price: one block now
        xi = np.full_like(times, np.nan)
        zeta = np.zeros_like(times)
        eta = np.full_like(times, phi)
        decay = np.exp(-b * times)
        decay2 = np.exp(-2.0 * b * times)
        price = math.exp(params.fundamental_log + d.y) * np.exp(
            decay * d.z - decay2 * d.y - a * phi)
        strategy = assemble_optimal(phi, zeta[:-1], 0.0, t)
        val = state.cash + s * block_factor(phi, a)
        return ContinuousSchedule(
            regime=regime, lambda_star=None, p_star=phi, q_star=0.0,
            times=times, xi=xi, eta=eta, zeta=zeta, expected_price=price,
            density_integral=0.0, value=val, strategy=strategy, extended=False)

    if regime is Regime.GAP and not extended:
        raise RegimeError(
            "holdings fall between the small- and large-holdings conditions; "
            "no closed form applies (use the discrete approximation)")

    lam = solve_lambda_star(params, state, tol=tol, extended=extended)
    xi = xi_star(params, state, lam, times)
    eta = eta_star(params, state, lam, times)
    zeta = zeta_star(params, state, lam, times)
    price = _expected_price_on_path(params, state, xi, times)
    p_star = float(xi[0] + (d.z - 2.0 * d.y) / a)
    j = _xi_integral(params, state, lam)
    q_star = float(phi - b * j - xi[-1] - d.z / a + d.y * (1.0 + math.exp(-2.0 * b * t)) / a)
    dens_int = adaptive_quad(lambda r: zeta_star(params, state, lam, r),
                             0.0, t, rel_tol=1e-13, abs_tol=1e-15)
    mids = 0.5 * (times[:-1] + times[1:])
    strategy = assemble_optimal(p_star, zeta_star(params, state, lam, mids),
                                q_star, t, extended_mode=extended)
    val = value_block_form(params, state, lam, p_star, q_star)
    return ContinuousSchedule(
        regime=regime, lambda_star=lam, p_star=p_star, q_star=q_star,
        times=times, xi=xi, eta=eta, zeta=zeta, expected_price=price,
        density_integral=dens_int, value=val, strategy=strategy,
        extended=extended)
