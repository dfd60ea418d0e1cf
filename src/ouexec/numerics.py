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
linear even when E(0) is e^80 and the root e^30. Both take a batch of
brackets or equations (a manipulation scan's z points, or a batch of
one): each steps and stops on its own Python-float arithmetic, while one
fdf call per round evaluates all that are still open, so every root has
the bits of its bracket's batch of one.

One array convention holds for the public numeric kernels here and in
continuous, discrete, manipulation and proceeds: each takes array_like and
returns NumPy's result in the broadcast shape of its inputs, a 0-d value
for scalars, never a Python float; a caller that stores a value converts
it with float(). Each element has the bits it has alone, except that
lambert_w0, and the inverses built on it, settle a row along the last
axis together and keep that row's bits.
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
from typing import Callable

import numpy as np

from .errors import ConfigError, NumericalError

LOG_FLOAT_MAX = math.log(sys.float_info.max)
# below the smallest normal float a value has fewer than 53 significant bits
FLOAT_TINY = sys.float_info.min


@contextlib.contextmanager
def float_range(what: str):
    """Raise NumericalError for a float overflow in the block, from math or from numpy."""
    try:
        with np.errstate(over="raise"):
            yield
    except (OverflowError, FloatingPointError) as exc:
        raise NumericalError(
            f"{what} overflows the float range ({sys.float_info.max:.6g})") from exc


@functools.cache
def gl_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1]."""
    return np.polynomial.legendre.leggauss(order)


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
    log(1 + x) in the middle and from log x - log log x above e. Each row
    along the last axis (a 0-D or 1-D x is one row) iterates until all of
    its steps are at rounding level and is then left as it is, so a row
    comes out with the bits it has when passed alone.
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
    del l1, l2  # before the rounds' buffers, which hold the peak
    rows_x = x.reshape(math.prod(x.shape[:-1]), math.prod(x.shape[-1:]))
    rows_w = w.reshape(rows_x.shape)  # a view: updating a row updates w
    buffers = np.empty((4, *rows_w.shape))  # each round works in the first rows of these
    live = slice(None)  # every row, until one settles
    for _ in range(12):
        wl, xl = rows_w[live], rows_x[live]
        f, wp1, two, den = buffers[:, :len(wl)]
        np.subtract(wl, np.multiply(xl, np.exp(np.negative(wl, out=f), out=f), out=f), out=f)
        np.multiply(2.0, np.add(wl, 1.0, out=wp1), out=two)  # 2(w + 1), taken once
        np.multiply(two, wp1, out=den)
        den -= np.multiply(np.add(wl, 2.0, out=wp1), f, out=wp1)  # 2(w + 1)^2 - (w + 2) f
        two *= f
        step = (np.divide(two, den, out=two) if den.all()
                else np.divide(two, den, out=np.zeros_like(wl), where=den != 0.0))
        wl = np.maximum(np.subtract(wl, step, out=den), -1.0, out=den)
        rows_w[live] = wl
        settled = np.abs(step, out=f) <= np.add(np.abs(wl, out=wp1), 1.0, out=wp1) * 1e-15
        if settled.all():
            break
        if len(wl) > 1:  # drop the rows whose steps have all settled
            live = np.arange(len(rows_w))[live][~settled.all(axis=1)]
    return w


def lambert_w0_exp(log_x):
    """W0(e^log_x), also where e^log_x is beyond the float range; elementwise.

    Below log_x = 700 this is lambert_w0(e^log_x) (0 at log_x = -inf).
    Above, W0 solves w + log w = log_x; Newton from log_x - log log_x is
    off by less than 1e-2 there and four steps reach rounding.
    """
    log_x = np.asarray(log_x, dtype=float)
    big = log_x >= 700.0
    w = lambert_w0(np.exp(np.minimum(log_x, 700.0)))
    lb = log_x[big]
    v = lb - np.log(lb)
    for _ in range(4):
        v -= (v + np.log(v) - lb) * v / (v + 1.0)
    w[big] = v
    return w


def find_root(fdf: Callable, lo, hi, f_lo, f_hi, xtol: float) -> np.ndarray:
    """Roots of f_i on brackets [lo_i, hi_i] over which each changes sign.

    lo, hi, f_lo and f_hi are equal-length sequences, f_lo and f_hi the
    values at the endpoints. fdf(x, live) gets lists of the current points
    x of the brackets not yet settled and of their numbers `live`, and
    returns sequences of f and f' there; the roots come back as an array.
    Each bracket runs the same float arithmetic, and stops, as it would alone.
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
    lo, hi, f_lo, f_hi = ([float(u) for u in v] for v in (lo, hi, f_lo, f_hi))
    roots = [None] * len(lo)
    x = [0.5 * (a + b) for a, b in zip(lo, hi)]
    last = [b - a for a, b in zip(lo, hi)]
    for i, (a, b, fa, fb) in enumerate(zip(lo, hi, f_lo, f_hi)):
        if fa == 0.0:
            roots[i] = a
        elif fb == 0.0:
            roots[i] = b
        elif np.sign(fa) == np.sign(fb):
            raise NumericalError(f"no sign change on [{a}, {b}]")
        elif a < (secant := a - fa * (b - a) / (fb - fa)) < b:
            x[i] = secant
    for _ in range(100):
        live = [i for i, r in enumerate(roots) if r is None]
        if not live:
            break
        f, df = ([float(u) for u in v] for v in fdf([x[i] for i in live], live))
        for i, fi, dfi in zip(live, f, df):
            if fi == 0.0:
                roots[i] = x[i]
                continue
            if np.sign(fi) == np.sign(f_lo[i]):
                lo[i] = x[i]
            else:
                hi[i] = x[i]
            new = x[i] - fi / dfi if dfi != 0.0 else math.nan
            step_tol = xtol * max(1.0, abs(x[i]))
            if abs(new - x[i]) <= step_tol:
                roots[i] = new
                continue
            if not (lo[i] < new < hi[i] and abs(new - x[i]) <= 0.5 * last[i]):
                new = 0.5 * (lo[i] + hi[i])
            last[i] = abs(new - x[i])
            x[i] = new
            if last[i] <= step_tol:
                roots[i] = new
    if None in roots:
        raise NumericalError(f"no root to within {xtol:.1e} after 100 iterations")
    return np.array(roots)


def solve_multiplier(log_e: Callable, count: int, tol: float, mismatch: Callable) -> np.ndarray:
    """Roots of `count` equations lambda = E_i(lambda), each E_i positive and decreasing.

    log_e(lam, live) takes a list lam of multipliers for the equations
    whose numbers are the list live, and returns sequences of log E_i and
    d log E_i / d log lam (<= 0) there; the roots come back as an array,
    each the root its equation has alone. In u = log lam, find_root runs
    on G(u) = log E(e^u) - u, whose slope is <= -1, over [lo, hi] =
    [log E(E(0)), log E(0)]: hi is log E(0), and lo = hi + G(hi) comes
    with the evaluation at hi. mismatch(lam) gives E_i - lambda_i at the
    array of roots; each root must leave it within tol lambda_i (relative
    down to the smallest normal float), or NumericalError is raised.
    """
    every = list(range(count))
    hi = [float(h) for h in log_e([0.0] * count, every)[0]]
    for h in hi:
        if not h < 700.0:
            raise NumericalError(f"multiplier bound E(0) = e^{h:.6g} is too large for float")

    def g(u, live):
        # math.exp, not numpy's exp, which differs from it in the last bit on some arguments
        log_e_u, slope = log_e([math.exp(v) for v in u], live)
        return [le - v for le, v in zip(log_e_u, u)], [sl - 1.0 for sl in slope]

    # G(hi) <= 0 <= G(lo) hold exactly; the clamps drop rounding-level misses
    g_hi = [min(v, 0.0) for v in g(hi, every)[0]]
    # e^u is 0.0 below u = -746, so no point there says more than u = -746
    lo = [max(h + gh, min(h, -746.0)) for h, gh in zip(hi, g_hi)]
    g_lo = [max(v, 0.0) for v in g(lo, every)[0]]
    lam = np.array([math.exp(u) for u in find_root(g, lo, hi, g_lo, g_hi, xtol=1e-15)])
    for r, lm in zip(np.abs(mismatch(lam)).tolist(), lam.tolist()):
        if not r <= tol * max(lm, FLOAT_TINY):
            raise NumericalError(f"multiplier residual {r:.3e} above tolerance {tol:.1e}")
    return lam
