"""Closed-form optimal liquidation schedule in continuous time.

The optimal strategy is an initial block p*, an absolutely continuous part
with rate zeta*_r, and a terminal block q*. Everything is parametrized by
a scalar multiplier lambda* that enforces the selling constraint: the
first-order condition per unit time reads

    P(xi_r) = exp(-e^{-2 b r} y) * lambda / alpha,   P(x) = e^{-ax}(1 - ax)

and lambda* is the root of a scalar equation H(lambda) = 0 obtained by
substituting the implied schedule back into the constraint. P^{-1} is
closed form through Lambert W, and so is d xi / d lambda; H is strictly
decreasing with H(0) > 0, so its root is found by a bracketed Newton
iteration on H and its analytic slope.

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
from .numerics import adaptive_quad, find_root, lambert_w0, panel_nodes
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
    """Constraint mismatch H(lam); the optimal multiplier is its unique root.

    H(0) = alpha * exp(beta t - alpha phi + z - y) > 0 and H is strictly
    decreasing, with slope <= -1 everywhere.
    """
    d = derive(params, state)
    a = params.alpha
    if a <= 0.0:
        raise ConfigError("alpha must be positive")
    if lam < 0.0:
        raise ConfigError("the multiplier is nonnegative")
    if panels is not None:
        return _h_with_slope(params, state, lam, panels)[0]
    j = _xi_integral(params, state, lam)
    return a * math.exp(a * params.beta * j - a * state.holdings + d.z - d.y) - lam


def _h_with_slope(params: ModelParams, state: MarketState, lam: float,
                  panels: int) -> tuple[float, float]:
    """H(lam) on `panels` Gauss-Legendre panels of order 16, and dH/dlam.

    Both come from one inversion on the quadrature nodes: differentiating
    P(xi) = g lam / alpha gives d xi / d lam = (g / alpha) / P'(xi).
    """
    d = derive(params, state)
    a, b = params.alpha, params.beta
    nodes, weights = panel_nodes(0.0, params.horizon, panels, 16)
    g = np.exp(-np.exp(-2.0 * b * nodes) * d.y)
    xi = p_inverse(g * lam / a, a)
    dxi = (g / a) / (-a * np.exp(-a * xi) * (2.0 - a * xi))
    e = a * math.exp(a * b * float(np.dot(weights, xi)) - a * state.holdings + d.z - d.y)
    return e - lam, e * a * b * float(np.dot(weights, dxi)) - 1.0


def solve_lambda_star(params: ModelParams, state: MarketState,
                      tol: float = 1e-10, extended: bool = False,
                      bracket_hint: tuple[float, float] | None = None) -> float:
    """Root of H.

    Standard mode requires phi > max(z, 1 + beta)/alpha, which guarantees
    the root lies in (0, alpha e^{-y}). Extended mode accepts any phi
    (including zero, for round-trip analysis) and grows the bracket by
    doubling until H changes sign; monotonicity makes that terminate.
    A caller sweeping nearby instances can pass bracket_hint to skip the
    wide initial bracket; it is validated and ignored if stale. Inside the
    bracket, find_root runs Newton on H and its analytic slope.
    """
    d = derive(params, state)
    a = params.alpha
    if a <= 0.0:
        raise ConfigError("alpha must be positive")
    if not extended:
        regime = classify(params, state)
        if regime is not Regime.LARGE_HOLDINGS:
            raise RegimeError(
                f"closed form requires phi > max(z, 1+beta)/alpha; regime is {regime.value}")

    hi = a * math.exp(-d.y)
    # pin the quadrature resolution once so every iterate sees the same
    # discretization of the xi integral
    _, panels = adaptive_quad(lambda r: xi_star(params, state, 0.5 * hi, r),
                              0.0, params.horizon, rel_tol=1e-13, abs_tol=1e-15,
                              return_panels=True)
    panels = max(panels, 8)
    h = lambda lam: h_eval(params, state, lam, panels=panels)

    bracket = None
    if bracket_hint is not None:
        lo_h, hi_h = max(bracket_hint[0], 0.0), bracket_hint[1]
        if hi_h > lo_h and (f_hi := h(hi_h)) <= 0.0 <= (f_lo := h(lo_h)):
            bracket = (lo_h, hi_h, f_lo, f_hi)
    if bracket is None:
        f_hi = h(hi)
        if extended:
            doublings = 0
            while f_hi > 0.0:
                hi *= 2.0
                f_hi = h(hi)
                doublings += 1
                if doublings > 200:
                    raise NumericalError("no sign change found for the multiplier equation")
        elif f_hi > 0.0:
            raise NumericalError("expected sign change on (0, alpha e^{-y}) not found")
        bracket = (0.0, hi, h(0.0), f_hi)

    lam = find_root(lambda lam: _h_with_slope(params, state, lam, panels), *bracket,
                    xtol=1e-15 * max(1.0, bracket[1]))
    resid = abs(h(lam))
    if not resid <= tol * max(1.0, lam):
        raise NumericalError(f"multiplier residual {resid:.3e} above tolerance {tol:.1e}")
    return float(lam)


def reference_multiplier(params: ModelParams, state: MarketState) -> float | None:
    """Continuous multiplier when one exists: solved in the large-holdings
    regime, mapped from the degenerate solver at sigma = 0, None otherwise."""
    regime = classify(params, state)
    if regime is Regime.LARGE_HOLDINGS:
        return solve_lambda_star(params, state)
    if regime is Regime.ZERO_VOL:
        d = derive(params, state)
        zv = zero_vol.solve(params, state)
        return params.alpha * float(p_eval(zv.p_star - d.z / params.alpha, params.alpha))
    return None


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
        lam = discrete.solve_lambda_hat(params, state, n, bracket="expand")
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
             tol: float = 1e-10, extended: bool = False,
             bracket_hint: tuple[float, float] | None = None) -> ContinuousSchedule:
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

    lam = solve_lambda_star(params, state, tol=tol, extended=extended,
                            bracket_hint=bracket_hint)
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
