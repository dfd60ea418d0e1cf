"""Discrete n-period approximation of the optimal schedule.

Time is cut into periods of length 1/n; with horizon t there are
m = floor(n t) periods and the one-period decay factor is c = e^{-beta/n}.
Selling x_k in period k earns (per unit of e^{F+y}) the term

    exp(c^k z - c^{2k} y - alpha A_k) (1 - e^{-alpha x_k}),
    A_k = sum_{l<k} c^{k-l} x_l,

and the maximand objective() is the sum of these terms. The optimal
allocation is an interior stationary point of the Lagrangian
objective + lambda (phi - sum x): every partial derivative equals the
multiplier. Through the inverses of the per-period response functions
F^n_k (fnk_eval, the discrete analogue of P) it solves lambda = E_n(lambda),
E_n positive and decreasing (the continuous equation's form;
hn_eval = E_n - lambda), which numerics.solve_multiplier brackets a priori
in [E_n(E_n(0)), E_n(0)]; recover_psi maps the root back to the allocation.
fnk_inverse is one monotone Newton iteration on log F^n_k from a Lambert-W
start, the continuous P^{-1} in the limit.

As n grows the recovered allocation converges to the continuous schedule:
psi_0 -> p*, n psi_k -> zeta*_{k/n}, psi_{m-1} -> q*.
"""

from __future__ import annotations

import math
import numbers
import warnings

import numpy as np

from .errors import ConfigError, NumericalError
from .model import MarketState, ModelParams, derive
from .numerics import FLOAT_TINY, LOG_FLOAT_MAX, lambert_w0_exp, solve_multiplier


def periods(params: ModelParams, n: int) -> tuple[int, float]:
    """Number of periods m and decay factor c for an n-per-unit-time grid.

    Periods have length 1/n. When n*horizon is not an integer the grid
    covers only m/n < horizon and the tail stays idle; such solutions are
    flagged with a warning because they answer a slightly different
    question than the continuous-time problem on [0, horizon].
    """
    if n < 1 or n != int(n):
        raise ConfigError("n must be a positive integer")
    nt = n * params.horizon
    m = int(math.floor(nt + 1e-9))
    if m < 1:
        raise ConfigError("horizon shorter than one period; increase n")
    if abs(nt - round(nt)) > 1e-9:
        warnings.warn(
            f"n*t = {nt:.6g} is not an integer; the discrete grid stops at "
            f"{m}/{n} and leaves the last {params.horizon - m / n:.3g} idle",
            UserWarning, stacklevel=2)
    return m, math.exp(-params.beta / n)


def objective(params: ModelParams, state: MarketState, x, n: int) -> float:
    """Discrete proceeds maximand (in units of e^{F+y}, times alpha).

    Far outside the admissible region the terms overflow double range; the
    sum is then settled in log space so the -inf divergence (huge purchase
    legs always dominate the sales they finance) comes out as -inf instead
    of an overflow error.
    """
    m, c, x, acc = _impact(params, x, n)
    d = derive(params, state)
    a, y = params.alpha, params.y
    ck = c ** np.arange(m)
    expo = ck * d.z - ck * ck * y - a * acc
    u = -a * x  # term sign and magnitude come from -expm1(u)
    if np.max(expo) <= 700.0 and np.max(u) <= 700.0:
        return math.fsum(math.exp(expo[k]) * (-math.expm1(u[k])) for k in range(m))
    # scale by the dominant term so only the sign of the blow-up matters
    lmag = np.where(u > 36.0,
                    u,
                    np.log(np.abs(np.expm1(np.minimum(u, 36.0))) + 1e-300))
    mag = expo + lmag
    top = float(np.max(mag))
    w = float(np.sum(np.sign(-u) * np.exp(np.maximum(mag - top, -745.0))))
    if top > 709.0:
        return math.inf * w if w != 0.0 else 0.0
    return w * math.exp(top)


def discrete_value(params: ModelParams, state: MarketState, x, n: int) -> float:
    """Expected terminal cash of the allocation x."""
    if params.alpha <= 0.0:
        raise ConfigError("alpha must be positive")
    scale = math.exp(params.fundamental_log + params.y) / params.alpha
    return state.cash + scale * objective(params, state, x, n)


def gradient(params: ModelParams, state: MarketState, x, n: int) -> np.ndarray:
    """Partial derivatives of objective(); all equal the multiplier at an optimum."""
    m, c, x, acc = _impact(params, x, n)
    d = derive(params, state)
    a, y = params.alpha, params.y
    s_k = acc + x  # impact level right after the period-k sale
    ck = c ** np.arange(m)
    # grad_k = c grad_{k+1} + a (1 - c) e^{-c^{2k} y} F^n_k(S_k - c^k z / a)
    terms = (a * _one_minus_c(params, n) * np.exp(-ck[:-1] ** 2 * y)
             * fnk_eval(params, n, np.arange(m - 1), s_k[:-1] - ck[:-1] * d.z / a))
    grad = np.empty(m)
    grad[m - 1] = a * math.exp(ck[-1] * d.z - ck[-1] ** 2 * y - a * s_k[m - 1])
    for k in range(m - 2, -1, -1):
        grad[k] = c * grad[k + 1] + terms[k]
    return grad


def _impact(params: ModelParams, x, n: int):
    """m, c, the allocation as an array, and A_k just before each trade k."""
    m, c = periods(params, n)
    x = np.asarray(x, dtype=float)
    if x.shape != (m,):
        raise ConfigError(f"allocation must have {m} entries for n={n}")
    acc = np.empty(m)
    run = 0.0
    for k in range(m):
        acc[k] = run
        run = c * (run + x[k])
    return m, c, x, acc


def _one_minus_c(params: ModelParams, n: int) -> float:
    """1 - c = -expm1(-beta/n), exact to rounding; 1.0 - c would carry c's rounding."""
    return -math.expm1(-params.beta / n)


def _response(params: ModelParams, n: int, k):
    """alpha, c, u = 1 - c and the zero x0 = (beta/n - c^{2k} (1 - c^2) y) / (alpha u) of F^n_k.

    -log c is beta/n exactly, so x0 stays finite where c underflows to 0.
    1 - c^2 is -expm1(-2 beta/n), as exact as u.
    """
    _, c = periods(params, n)
    a, u = params.alpha, _one_minus_c(params, n)
    if a <= 0.0 or c == 1.0:
        raise ConfigError("F^n_k needs alpha > 0 and a decay factor c = e^{-beta/n} below 1")
    # numpy's scalar and array powers can differ in the last bit: use one for any k
    g = c ** (2 * np.atleast_1d(k)) * -math.expm1(-2.0 * params.beta / n) * params.y
    return a, c, u, ((params.beta / n - g) / (a * u)).reshape(np.shape(k))


def _log_abs_fnk(a: float, u: float, x0, x):
    """s = alpha u (x - x0) and log |F^n_k(x)|, for any x; u = 1 - c.

    F = e^{-alpha x} (-expm1(s)) / u: no cancellation, F(x0) = 0 exactly.
    """
    s = a * u * (x - x0)
    gap = -np.expm1(-np.abs(s))
    log_gap = np.log(gap, out=np.full(np.shape(gap), -np.inf), where=gap > 0.0)
    return s, log_gap + np.maximum(s, 0.0) - a * x - math.log(u)


def fnk_eval(params: ModelParams, n: int, k, x):
    """Per-period price response F^n_k, the discrete analogue of P."""
    a, _, u, x0 = _response(params, n, k)
    s, log_f = _log_abs_fnk(a, u, x0, np.asarray(x, dtype=float))
    out = np.sign(-s) * np.exp(log_f)
    return float(out) if out.ndim == 0 else out


def fnk_zero(params: ModelParams, n: int, k):
    """Right endpoint of the domain on which F^n_k is inverted (F = 0 there)."""
    x0 = _response(params, n, k)[3]
    return float(x0) if np.ndim(x0) == 0 else x0


def fnk_inverse(params: ModelParams, n: int, k, q):
    """Inverse of F^n_k on (-inf, fnk_zero], defined for q >= 0.

    log F is concave and decreasing there, so Newton on log F - log q
    from a point right of the root stays right of it and decreases to it.
    It starts where the bound F <= alpha (x0 - x) e^{-alpha x} (1 - e^s <= -s)
    equals q: x0 - W0(q e^{alpha x0}) / alpha, the continuous P^{-1} as n -> inf
    and x0 itself at q = 0. It stops after a step of at most 1e-14 |x|, once
    F is within 1e-14 of q relative, or on a step that fails to halve (the
    noise floor). The result must leave |F(x) - q| <= 1e-12 max(1, q) +
    4 eps |x| |F'(x)|, the last term the rounding floor of x.
    """
    scalar = np.ndim(k) == 0 and np.ndim(q) == 0
    k, q = np.broadcast_arrays(np.atleast_1d(k), np.atleast_1d(np.asarray(q, dtype=float)))
    if np.any(q < -1e-15):
        raise ConfigError("F^n_k only takes nonnegative values on its domain")
    q = np.maximum(q, 0.0)
    a, c, u, x0 = _response(params, n, k)
    log_q = np.log(q, out=np.full(q.shape, -np.inf), where=q > 0.0)
    x = x0 - lambert_w0_exp(log_q + a * x0) / a
    live = x < x0
    last = np.full(q.shape, np.inf)
    for _ in range(10):
        s, log_f = _log_abs_fnk(a, u, x0[live], x[live])
        miss = log_f - log_q[live]
        step = miss * _inv_log_slope(a, c, u, s)
        size = np.abs(step)
        noise = size > 0.5 * last[live]
        x[live] = np.where(noise, x[live], x[live] - step)
        last[live] = size
        live[live] = ~(noise | (size <= 1e-14 * np.abs(x[live])) | (np.abs(miss) <= 1e-14))
        live &= x < x0
        if not np.any(live):
            break
    else:
        raise NumericalError("per-period response Newton did not settle in 10 steps")
    # the check, scaled by max(1, q) so that nothing overflows
    s, log_f = _log_abs_fnk(a, u, x0, x)
    log_df = math.log(a / u) - a * x + np.log(u - c * np.expm1(s))
    log_m = np.maximum(log_q, 0.0)
    resid = np.abs(np.sign(-s) * np.exp(log_f - log_m) - np.exp(log_q - log_m))
    floor = 4.0 * np.finfo(float).eps * np.abs(x) * np.exp(np.minimum(log_df - log_m, 700.0))
    if not np.all(resid <= 1e-12 + floor):
        raise NumericalError("per-period response inversion did not converge")
    return float(x[0]) if scalar else x


def _inv_log_slope(a: float, c: float, u: float, s):
    """1 / (log F^n_k)'(x) for s <= 0, u = 1 - c; 0 at x0, where F = 0."""
    em1 = np.expm1(s)
    return em1 / (a * (u - c * em1))


def hn_eval(params: ModelParams, state: MarketState, lam: float, n: int) -> float:
    """Discrete multiplier mismatch E_n(lam) - lam; strictly decreasing, positive at 0."""
    if lam < 0.0:
        raise ConfigError("the multiplier is nonnegative")
    log_e = _log_e_with_slope(params, state, lam, n)[0]
    if not log_e <= LOG_FLOAT_MAX:
        raise NumericalError(f"hn({lam:.6g}) is beyond the float range: log E_n = {log_e:.6g}")
    return math.exp(log_e) - lam


def _log_e_with_slope(params: ModelParams, state: MarketState, lam: float,
                      n: int) -> tuple[float, float]:
    """log E_n(lam) and d log E_n / d log lam, from one pass of response inverses.

    F^n_k(x_k) is proportional to lam, so lam dx_k / dlam = 1 / (log F^n_k)'(x_k).
    """
    m, c = periods(params, n)
    d = derive(params, state)
    a, u, ks = params.alpha, _one_minus_c(params, n), np.arange(m - 1)
    finv = fnk_inverse(params, n, ks, np.exp(c ** (2 * ks) * params.y) * lam / a)
    log_e = (math.log(a) + a * u * float(np.sum(finv)) - a * state.holdings
             + d.z - c ** (2 * (m - 1)) * params.y)
    slope = _inv_log_slope(a, c, u, a * u * (finv - fnk_zero(params, n, ks)))
    return log_e, a * u * float(np.sum(slope))


def solve_lambda_hat(params: ModelParams, state: MarketState, n: int,
                     tol: float = 1e-10) -> float:
    """Root of hn_eval, for any phi.

    solve_multiplier finds it inside [E_n(E_n(0)), E_n(0)]; the result
    must leave |hn| <= tol lambda (relative down to the smallest normal
    float). With one period E_n does not depend on lambda and the root is
    E_n(0).
    """
    lam = solve_multiplier(lambda lam: _log_e_with_slope(params, state, lam, n))
    resid = abs(hn_eval(params, state, lam, n))
    if not resid <= tol * max(lam, FLOAT_TINY):
        raise NumericalError(f"discrete multiplier residual {resid:.3e} above {tol:.1e}")
    return lam


def recover_psi(params: ModelParams, state: MarketState, n: int, lam: float,
                check_tol: float = 1e-8, check: bool = True) -> np.ndarray:
    """Allocation implied by the multiplier; verifies stationarity.

    The per-period first-order conditions give the post-sale impact levels
    S_k through the response inverses; differencing them yields the sales.
    The last period takes whatever the budget leaves so the allocation
    sums to phi exactly. Gradient k must be within check_tol max(1, lam) of
    lam plus the rounding floor of its terms, which is e^y sized at large y.
    """
    m, c = periods(params, n)
    d = derive(params, state)
    a, phi, u = params.alpha, state.holdings, _one_minus_c(params, n)
    if m == 1:
        psi, floor = np.array([phi]), 0.0
    else:
        ks = np.arange(m - 1)
        finv = fnk_inverse(params, n, ks, np.exp(c ** (2 * ks) * params.y) * lam / a)
        psi = np.empty(m)
        psi[0] = finv[0] + d.z / a
        psi[1:m - 1] = finv[1:] - c * finv[:-1]
        tail = u * float(np.sum(finv[:m - 2])) if m > 2 else 0.0
        psi[m - 1] = phi - tail - finv[m - 2] - d.z / a
        # the floor of gradient k sums 4 eps |x_j| |d term_j / d x_j| over j >= k, where
        # term j is a u e^{-c^{2j} y} F^n_j(x_j) and F' = -(a/u) e^{-a x}(u - c expm1(s))
        slope = a * a * (u - c * np.expm1(a * u * (finv - fnk_zero(params, n, ks)))) * np.exp(
            np.minimum(-c ** (2 * ks) * params.y - a * finv, 700.0))
        terms = 4.0 * np.finfo(float).eps * np.abs(finv) * slope
        floor = np.append(np.cumsum(terms[::-1])[::-1], 0.0)
    if check:
        resid = np.abs(gradient(params, state, psi, n) - lam)
        if not np.all(resid <= check_tol * max(1.0, abs(lam)) + floor):
            raise NumericalError(
                f"stationarity residual {np.max(resid):.3e} above {check_tol:.1e} plus its "
                "rounding floor; the recovered allocation is not a critical point")
    return psi


def _lattice_start(params: ModelParams, state: MarketState, m: int, c: float,
                   resolution: int) -> np.ndarray:
    """Best point of the lattice x = phi i / resolution, sum i = resolution.

    m >= 2 periods with decay factor c, as periods() returns them. The scan
    takes one first count i_0 at a time and builds its slice as a tree of
    count prefixes (i_0, ..., i_{k-1}) in lexicographic order. Each prefix
    carries its partial maximand and the impact level A_k, so the factor
    exp(c^k z - c^{2k} y - alpha A_k) is taken once per prefix and
    1 - e^{-alpha x} once per count; the last period takes the rest. A
    point's terms are objective()'s, added left to right. A slice keeps the
    first index of its maximum, and the first slice holding the overall
    maximum wins (a later slice replaces the running best only when strictly
    larger), so ties go to the lexicographically smallest point.
    """
    d = derive(params, state)
    a, y = params.alpha, params.y
    step = state.holdings / resolution
    count = np.arange(resolution + 1)
    gain = -np.expm1(-a * (count * step))  # 1 - e^{-alpha x} of each count

    def scale(ck, acc):
        return np.exp(ck * d.z - ck * ck * y - a * acc)

    # the first period for every slice at once: its term and A_1
    head = scale(1.0, np.zeros(resolution + 1)) * gain
    head_acc = c * (count * step)
    best_val = np.empty(resolution + 1)
    best_counts = np.empty((resolution + 1, m), dtype=int)
    for i0 in range(resolution + 1):
        total, acc = head[i0:i0 + 1], head_acc[i0:i0 + 1]
        left, cols = np.array([resolution - i0]), [np.array([i0])]
        ck = c
        for _ in range(1, m - 1):
            width = left + 1
            parent = np.repeat(np.arange(left.size), width)
            ik = np.arange(parent.size) - np.repeat(np.cumsum(width) - width, width)
            total = total[parent] + scale(ck, acc)[parent] * gain[ik]
            acc = c * (acc[parent] + ik * step)
            left = left[parent] - ik
            cols = [col[parent] for col in cols] + [ik]
            ck *= c
        total = total + scale(ck, acc) * gain[left]
        j = int(np.argmax(total))
        best_val[i0] = total[j]
        best_counts[i0] = [col[j] for col in cols] + [left[j]]
    return best_counts[int(np.argmax(best_val))].astype(float) * step


def brute_force(params: ModelParams, state: MarketState, n: int,
                resolution: int = 200, sweeps: int = 50) -> tuple[np.ndarray, float]:
    """Independent maximizer for small m: lattice search plus refinement.

    Scans the whole simplex {x >= 0, sum x = phi} at the given resolution,
    one first-period count at a time, so its working memory is
    O(resolution^(m-2)) rather than the O(resolution^(m-1)) of the full
    lattice. A later slice's best replaces the running best only when it
    is strictly larger, so ties resolve to the lexicographically smallest
    point. Then it runs pairwise-transfer coordinate descent with a
    halving step, for at most `sweeps` sweeps. Only feasible for m <= 4.
    """
    for name, knob, low in (("resolution", resolution, 1), ("sweeps", sweeps, 0)):
        if isinstance(knob, bool) or not isinstance(knob, numbers.Integral) or knob < low:
            raise ConfigError(f"{name} must be an integer >= {low}, got {knob!r}")
    m, c = periods(params, n)
    if m > 4:
        raise ConfigError("exhaustive search is limited to four periods")
    phi = state.holdings
    if phi < 0.0:
        raise ConfigError("holdings must be nonnegative")
    if phi == 0.0:
        return np.zeros(m), discrete_value(params, state, np.zeros(m), n)
    if m == 1:
        x = np.array([phi])
        return x, discrete_value(params, state, x, n)

    x = _lattice_start(params, state, m, c, resolution)
    f_best = objective(params, state, x, n)
    step = phi / resolution
    for _ in range(sweeps):
        improved = False
        for i in range(m):
            for j in range(m):
                if i == j:
                    continue
                amt = min(step, x[i])
                if amt <= 0.0:
                    continue
                cand = x.copy()
                cand[i] -= amt
                cand[j] += amt
                f_cand = objective(params, state, cand, n)
                if f_cand > f_best:
                    x, f_best = cand, f_cand
                    improved = True
        if not improved:
            step *= 0.5
            if step < 1e-16 * max(1.0, phi):
                break
    return x, discrete_value(params, state, x, n)
