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
fnk_eval it solves lambda = E_n(lambda), E_n positive and decreasing (the
continuous equation's form; hn_eval = E_n - lambda), which
numerics.solve_multiplier brackets a priori in [E_n(E_n(0)), E_n(0)];
recover_psi maps the root back to the allocation.

As n grows the recovered allocation converges to the continuous schedule:
psi_0 -> p*, n psi_k -> zeta*_{k/n}, psi_{m-1} -> q*.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import ConfigError, NumericalError
from .model import MarketState, ModelParams, derive
from .numerics import LOG_FLOAT_MAX, bisect_vec, solve_multiplier


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
    m, c = periods(params, n)
    x = np.asarray(x, dtype=float)
    if x.shape != (m,):
        raise ConfigError(f"allocation must have {m} entries for n={n}")
    d = derive(params, state)
    a, y = params.alpha, params.y
    ck = c ** np.arange(m)
    acc = np.empty(m)  # A_k just before trade k
    run = 0.0
    for k in range(m):
        acc[k] = run
        run = c * (run + x[k])
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
    m, c = periods(params, n)
    x = np.asarray(x, dtype=float)
    if x.shape != (m,):
        raise ConfigError(f"allocation must have {m} entries for n={n}")
    d = derive(params, state)
    a, y = params.alpha, params.y

    acc = np.empty(m)  # A_k
    run = 0.0
    for k in range(m):
        acc[k] = run
        run = c * (run + x[k])
    s_k = acc + x  # impact level right after the period-k sale

    grad = np.empty(m)
    ck_last = c ** (m - 1)
    grad[m - 1] = a * math.exp(ck_last * d.z - ck_last ** 2 * y - a * s_k[m - 1])
    cpow = c ** np.arange(m)
    for k in range(m - 2, -1, -1):
        f_val = fnk_eval(params, n, k, s_k[k] - cpow[k] * d.z / a)
        grad[k] = c * grad[k + 1] + a * (1.0 - c) * math.exp(-cpow[k] ** 2 * y) * f_val
    return grad


def fnk_eval(params: ModelParams, n: int, k, x):
    """Per-period price response F^n_k, the discrete analogue of P."""
    _, c = periods(params, n)
    a, y = params.alpha, params.y
    if a <= 0.0:
        raise ConfigError("alpha must be positive")
    k = np.asarray(k)
    x = np.asarray(x, dtype=float)
    g = c ** (2 * k) * (1.0 - c * c) * y
    out = (np.exp(-a * x) - c * np.exp(-a * c * x + g)) / (1.0 - c)
    return float(out) if out.ndim == 0 else out


def _fnk_derivative(params, n, k, x):
    _, c = periods(params, n)
    a, y = params.alpha, params.y
    g = c ** (2 * np.asarray(k)) * (1.0 - c * c) * y
    return (-a * np.exp(-a * x) + a * c * c * np.exp(-a * c * x + g)) / (1.0 - c)


def fnk_zero(params: ModelParams, n: int, k):
    """Right endpoint of the domain on which F^n_k is inverted (F = 0 there)."""
    _, c = periods(params, n)
    a, y = params.alpha, params.y
    k = np.asarray(k)
    g = c ** (2 * k) * (1.0 - c * c) * y
    out = -(math.log(c) + g) / (a * (1.0 - c))
    return float(out) if out.ndim == 0 else out


def fnk_inverse(params: ModelParams, n: int, k, q):
    """Inverse of F^n_k on (-inf, fnk_zero], defined for q >= 0.

    F^n_k decreases through its zero and keeps decreasing a little beyond
    it, so Newton steps clipped to the bisection bracket cannot escape.
    """
    scalar = np.isscalar(q) and np.isscalar(k)
    k = np.atleast_1d(np.asarray(k))
    q = np.atleast_1d(np.asarray(q, dtype=float))
    k, q = np.broadcast_arrays(k, q)
    if np.any(q < -1e-15):
        raise ConfigError("F^n_k only takes nonnegative values on its domain")
    q = np.maximum(q, 0.0)

    hi = np.atleast_1d(np.asarray(fnk_zero(params, n, k), dtype=float)).copy()
    lo = hi.copy()
    step = np.ones_like(hi)
    for _ in range(200):
        need = fnk_eval(params, n, k, lo) < q
        if not np.any(need):
            break
        lo[need] -= step[need]
        step[need] *= 2.0
    else:
        raise NumericalError("could not bracket the per-period response inverse")

    lo, hi = bisect_vec(lambda x: fnk_eval(params, n, k, x) - q, lo, hi, iters=60)
    x = 0.5 * (lo + hi)
    for _ in range(6):
        r = fnk_eval(params, n, k, x) - q
        x = np.clip(x - r / _fnk_derivative(params, n, k, x), lo, hi)

    resid = np.abs(fnk_eval(params, n, k, x) - q)
    if not np.all(resid <= 1e-12 * np.maximum(1.0, q)):
        raise NumericalError("per-period response inversion did not converge")
    return float(x[0]) if scalar else x


def _finv_all(params: ModelParams, state: MarketState, n: int, lam: float) -> np.ndarray:
    """fnk_inverse(k, e^{c^{2k} y} lam / alpha) for k = 0 .. m-2, vectorized."""
    m, c = periods(params, n)
    a, y = params.alpha, params.y
    ks = np.arange(m - 1)
    qs = np.exp(c ** (2 * ks) * y) * lam / a
    return fnk_inverse(params, n, ks, qs)


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

    x_k = fnk_inverse(k, q_k) with q_k = e^{c^{2k} y} lam / alpha, so
    lam d x_k / d lam = q_k / F'(x_k).
    """
    m, c = periods(params, n)
    d = derive(params, state)
    a, y = params.alpha, params.y
    ks = np.arange(m - 1)
    finv = _finv_all(params, state, n, lam) if m > 1 else np.zeros(0)
    log_e = (math.log(a) + a * (1.0 - c) * float(np.sum(finv)) - a * state.holdings
             + d.z - c ** (2 * (m - 1)) * y)
    q = np.exp(c ** (2 * ks) * y) * lam / a
    return log_e, a * (1.0 - c) * float(np.sum(q / _fnk_derivative(params, n, ks, finv)))


def solve_lambda_hat(params: ModelParams, state: MarketState, n: int,
                     tol: float = 1e-10) -> float:
    """Root of hn_eval, for any phi.

    solve_multiplier finds it inside [E_n(E_n(0)), E_n(0)]; the result
    must leave |hn| <= tol max(1, lambda). With one period E_n does not
    depend on lambda and the root is E_n(0).
    """
    lam = solve_multiplier(lambda lam: _log_e_with_slope(params, state, lam, n))
    resid = abs(hn_eval(params, state, lam, n))
    if not resid <= tol * max(1.0, lam):
        raise NumericalError(f"discrete multiplier residual {resid:.3e} above {tol:.1e}")
    return lam


def recover_psi(params: ModelParams, state: MarketState, n: int, lam: float,
                check_tol: float = 1e-8, check: bool = True) -> np.ndarray:
    """Allocation implied by the multiplier; verifies stationarity.

    The per-period first-order conditions give the post-sale impact levels
    S_k through the response inverses; differencing them yields the sales.
    The last period takes whatever the budget leaves so the allocation
    sums to phi exactly.
    """
    m, c = periods(params, n)
    d = derive(params, state)
    a = params.alpha
    phi = state.holdings
    if m == 1:
        psi = np.array([phi])
    else:
        finv = _finv_all(params, state, n, lam)
        psi = np.empty(m)
        psi[0] = finv[0] + d.z / a
        for k in range(1, m - 1):
            psi[k] = finv[k] - c * finv[k - 1]
        tail = (1.0 - c) * float(np.sum(finv[:m - 2])) if m > 2 else 0.0
        psi[m - 1] = phi - tail - finv[m - 2] - d.z / a
    if check:
        resid = float(np.max(np.abs(gradient(params, state, psi, n) - lam)))
        if not resid <= check_tol * max(1.0, abs(lam)):
            raise NumericalError(
                f"stationarity residual {resid:.3e} above {check_tol:.1e}; "
                "the recovered allocation is not a critical point")
    return psi


def brute_force(params: ModelParams, state: MarketState, n: int,
                resolution: int = 200, sweeps: int = 50) -> tuple[np.ndarray, float]:
    """Independent maximizer for small m: lattice search plus refinement.

    Scans the whole simplex {x >= 0, sum x = phi} at the given resolution
    (ties resolved to the lexicographically smallest point), then runs
    pairwise-transfer coordinate descent with a halving step. Only
    feasible for m <= 4.
    """
    m, c = periods(params, n)
    if m > 4:
        raise ConfigError("exhaustive search is limited to four periods")
    d = derive(params, state)
    a, y = params.alpha, params.y
    phi = state.holdings
    if phi < 0.0:
        raise ConfigError("holdings must be nonnegative")
    if phi == 0.0:
        return np.zeros(m), discrete_value(params, state, np.zeros(m), n)
    if m == 1:
        x = np.array([phi])
        return x, discrete_value(params, state, x, n)

    # lattice: all compositions of `resolution` into m parts, lexicographic
    axis = np.arange(resolution + 1, dtype=np.int32)
    grids = np.meshgrid(*[axis] * (m - 1), indexing="ij")
    counts = [g.ravel() for g in grids]
    used = np.zeros_like(counts[0])
    for g in counts:
        used = used + g
    feas = used <= resolution
    cols = [g[feas] for g in counts] + [(resolution - used[feas]).astype(np.int32)]
    x_all = np.stack(cols, axis=1).astype(float) * (phi / resolution)

    def batch_objective(xs):
        total = np.zeros(len(xs))
        acc = np.zeros(len(xs))
        ck = 1.0
        for k in range(m):
            total += np.exp(ck * d.z - ck * ck * y - a * acc) * (-np.expm1(-a * xs[:, k]))
            acc = c * (acc + xs[:, k])
            ck *= c
        return total

    vals = batch_objective(x_all)
    best = int(np.argmax(vals))  # first index wins ties: lexicographic smallest
    x = x_all[best].copy()

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
