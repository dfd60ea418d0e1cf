"""Lambert W, quadrature and root-finding kernels used by the solvers.

Gauss-Legendre nodes come from numpy; the integrands in this package are
smooth inside each panel, so composite rules converge fast and the adaptive
driver just doubles the panel count until two successive estimates agree.
The two equations with exact solutions (the price-response inverse and
the zero-volatility block) go through lambert_w0. Every other scalar root
is found by find_root, a Newton iteration that falls back to bisection
whenever a step would leave the shrinking sign-change bracket.
Both multiplier equations read lambda = E(lambda) with E positive and
decreasing, so the root lies in [E(E(0)), E(0)]; solve_multiplier runs
find_root on that bracket in log lambda, where the equation is nearly
linear even when E(0) is e^80 and the root e^30.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

import numpy as np

from .errors import ConfigError, NumericalError

LOG_FLOAT_MAX = math.log(sys.float_info.max)
# below the smallest normal float a value has fewer than 53 significant bits
FLOAT_TINY = sys.float_info.min

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gl_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1]."""
    if order not in _GL_CACHE:
        x, w = np.polynomial.legendre.leggauss(order)
        _GL_CACHE[order] = (x, w)
    return _GL_CACHE[order]


def panel_nodes(a: float, b: float, panels: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """All nodes and weights of a composite rule on [a, b], flattened."""
    x, w = gl_nodes(order)
    edges = np.linspace(a, b, panels + 1)
    half = np.diff(edges) / 2.0
    mids = (edges[:-1] + edges[1:]) / 2.0
    nodes = (mids[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def fixed_quad(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
               panels: int = 1, order: int = 16) -> float:
    """Composite Gauss-Legendre integral with a fixed panel count."""
    if a == b:
        return 0.0
    nodes, weights = panel_nodes(a, b, panels, order)
    return float(np.dot(weights, np.asarray(f(nodes), dtype=float)))


def adaptive_quad(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                  rel_tol: float = 1e-11, abs_tol: float = 1e-14) -> tuple[float, int]:
    """Refine a composite order-16 Gauss-Legendre rule until two estimates agree.

    Doubles the panel count, up to 4096, until |new - old| <= rel_tol*|new|
    + abs_tol; returns the estimate and the panel count that gave it.
    """
    if a == b:
        return 0.0, 1
    panels = 2
    prev = fixed_quad(f, a, b, panels, 16)
    while panels < 4096:
        panels *= 2
        cur = fixed_quad(f, a, b, panels, 16)
        if abs(cur - prev) <= rel_tol * abs(cur) + abs_tol:
            return cur, panels
        prev = cur
    raise NumericalError("quadrature did not settle within 4096 panels")


def lambert_w0(x):
    """Principal branch W0 of the Lambert W function, w e^w = x, for x >= -1/e.

    Halley iterations (Corless et al., Adv. Comput. Math. 5, 1996) on
    w - x e^{-w}, the usual residual w e^w - x scaled by e^{-w} so nothing
    overflows, started from the branch-point series near -1/e, from
    log(1 + x) in the middle and from log x - log log x above e.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < -math.exp(-1.0) - 1e-15):
        raise ConfigError("W0 is real only for x >= -1/e")
    x = np.maximum(x, -math.exp(-1.0))
    near, far = x < -0.25, x > math.e
    mid = ~(near | far)
    w = np.empty_like(x)
    p = np.sqrt(np.maximum(2.0 * (math.e * x[near] + 1.0), 0.0))
    w[near] = -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * 11.0 / 72.0))
    w[mid] = np.log1p(x[mid])
    l1 = np.log(x[far])
    l2 = np.log(l1)
    w[far] = l1 - l2 + l2 / l1
    for _ in range(12):
        f = w - x * np.exp(-w)
        wp1 = w + 1.0
        den = 2.0 * wp1 * wp1 - (w + 2.0) * f
        step = np.divide(2.0 * wp1 * f, den, out=np.zeros_like(w), where=den != 0.0)
        w = np.maximum(w - step, -1.0)
        if np.all(np.abs(step) <= 1e-15 * (1.0 + np.abs(w))):
            break
    return float(w) if w.ndim == 0 else w


def lambert_w0_exp(log_x):
    """W0(e^log_x), also where e^log_x is beyond the float range; elementwise.

    Below log_x = 700 this is lambert_w0(e^log_x) (0 at log_x = -inf).
    Above, W0 solves w + log w = log_x; Newton from log_x - log log_x is
    off by less than 1e-2 there and four steps reach rounding.
    """
    log_x = np.asarray(log_x, dtype=float)
    big = log_x >= 700.0
    w = np.array(lambert_w0(np.exp(np.minimum(log_x, 700.0))), dtype=float)
    lb = log_x[big]
    v = lb - np.log(lb)
    for _ in range(4):
        v -= (v + np.log(v) - lb) * v / (v + 1.0)
    w[big] = v
    return float(w) if w.ndim == 0 else w


def find_root(fdf: Callable[[float], tuple[float, float]], lo: float, hi: float,
              f_lo: float, f_hi: float, xtol: float) -> float:
    """Root of f on a bracket [lo, hi] over which f changes sign.

    fdf(x) returns f(x) and f'(x); f_lo and f_hi are f at the endpoints.
    The first point is the secant point of the bracket. Each evaluated
    point replaces the endpoint with the same sign, and the next point is
    the Newton step from it, or the bracket midpoint when that step would
    leave the bracket or is not at most half the previous step. Returns
    a point where f is exactly zero, or the first point reached by a step
    of at most xtol max(1, |x|), a tolerance that stays above the float
    spacing of x. Stopping on the step rather than on |f| lets Newton run
    down to the noise floor of f; a Newton step that small is taken even
    when it rounds onto a bracket end, as bisecting would throw it away.
    """
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if np.sign(f_lo) == np.sign(f_hi):
        raise NumericalError(f"no sign change on [{lo}, {hi}]")
    x = lo - f_lo * (hi - lo) / (f_hi - f_lo)
    if not lo < x < hi:
        x = 0.5 * (lo + hi)
    last = hi - lo
    for _ in range(100):
        f, df = fdf(x)
        if f == 0.0:
            return x
        if np.sign(f) == np.sign(f_lo):
            lo = x
        else:
            hi = x
        new = x - f / df if df != 0.0 else math.nan
        step_tol = xtol * max(1.0, abs(x))
        if abs(new - x) <= step_tol:
            return new
        if not (lo < new < hi and abs(new - x) <= 0.5 * last):
            new = 0.5 * (lo + hi)
        last = abs(new - x)
        x = new
        if last <= step_tol:
            return x
    raise NumericalError(f"no root to within {xtol:.1e} after 100 iterations")


def solve_multiplier(log_e: Callable[[float], tuple[float, float]]) -> float:
    """Root of lambda = E(lambda) for a positive, decreasing E.

    log_e(lam) returns log E(lam) and d log E / d log lam (<= 0). In
    u = log lam, find_root runs on G(u) = log E(e^u) - u, whose slope is
    <= -1, over [lo, hi] = [log E(E(0)), log E(0)]: hi is log E(0), and
    lo = hi + G(hi) comes with the evaluation at hi.
    """
    hi = log_e(0.0)[0]
    if not hi < 700.0:
        raise NumericalError(f"multiplier bound E(0) = e^{hi:.6g} is too large for float")

    def g(u):
        log_e_u, slope = log_e(math.exp(u))
        return log_e_u - u, slope - 1.0

    # G(hi) <= 0 <= G(lo) hold exactly; the clamps drop rounding-level misses
    g_hi = min(g(hi)[0], 0.0)
    # e^u is 0.0 below u = -746, so no point there says more than u = -746
    lo = max(hi + g_hi, min(hi, -746.0))
    return math.exp(find_root(g, lo, hi, max(g(lo)[0], 0.0), g_hi, xtol=1e-15))
