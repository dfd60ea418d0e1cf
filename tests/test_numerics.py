import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ouexec import ConfigError, NumericalError
from ouexec.numerics import (adaptive_quad, bisect_vec, find_root, fixed_quad,
                             gl_nodes, lambert_w0, lambert_w0_exp)


def test_gl_nodes_integrate_polynomials_exactly():
    # order-n Gauss-Legendre is exact through degree 2n - 1
    x, w = gl_nodes(8)
    for k in range(16):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert float(w @ x**k) == pytest.approx(exact, abs=1e-13)


def test_fixed_quad_smooth_integrand():
    val = fixed_quad(np.exp, 0.0, 1.0, panels=4, order=16)
    assert val == pytest.approx(math.e - 1.0, rel=1e-14)


def test_adaptive_quad_refines_hard_integrand():
    # sharp exponential near the left endpoint
    f = lambda r: np.exp(-200.0 * r)
    val = adaptive_quad(f, 0.0, 1.0, rel_tol=1e-12)
    assert val == pytest.approx((1.0 - math.exp(-200.0)) / 200.0, rel=1e-11)


def test_adaptive_quad_empty_interval():
    assert adaptive_quad(np.exp, 0.5, 0.5) == 0.0


def test_adaptive_quad_returns_panel_count():
    val, panels = adaptive_quad(np.exp, 0.0, 1.0, return_panels=True)
    assert val == pytest.approx(math.e - 1.0, rel=1e-12)
    assert panels >= 1
    # pinning the panel count reproduces the estimate exactly
    assert fixed_quad(np.exp, 0.0, 1.0, panels=panels, order=16) == val


def test_find_root_cube_root():
    f = lambda x: (x**3 - 2.0, 3.0 * x * x)
    root = find_root(f, 0.0, 2.0, -2.0, 6.0, xtol=1e-15)
    assert root == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-15)


def test_find_root_stays_in_bracket():
    # the slope flattens toward the right end, so a plain Newton step from
    # there would leave the bracket; every iterate must stay inside it
    seen = []

    def fdf(x):
        seen.append(x)
        return math.tanh(x) - 0.5, 1.0 - math.tanh(x) ** 2

    root = find_root(fdf, 0.0, 3.0, -0.5, math.tanh(3.0) - 0.5, xtol=1e-15)
    assert seen and all(0.0 < x < 3.0 for x in seen)
    assert 0.0 <= root <= 3.0
    assert abs(math.tanh(root) - 0.5) <= 1e-12


def test_find_root_decreasing_function():
    # f(lo) > 0 > f(hi): the bracket orientation comes from the signs alone
    fdf = lambda x: (1.0 - x * math.exp(x), -(1.0 + x) * math.exp(x))
    root = find_root(fdf, 0.0, 1.0, 1.0, 1.0 - math.e, xtol=1e-15)
    assert root * math.exp(root) == pytest.approx(1.0, rel=1e-14)
    assert root == pytest.approx(float(lambert_w0(1.0)), rel=1e-15)


def test_find_root_endpoint_roots_and_zero_slope():
    fdf = lambda x: (x - 1.0, 0.0)  # zero slope: bisection only
    assert find_root(fdf, 1.0, 2.0, 0.0, 1.0, xtol=1e-12) == 1.0
    assert find_root(fdf, 0.0, 1.0, -1.0, 0.0, xtol=1e-12) == 1.0
    root = find_root(fdf, 0.0, 3.0, -1.0, 2.0, xtol=1e-12)
    assert abs(root - 1.0) <= 1e-12


def test_find_root_requires_sign_change():
    fdf = lambda x: (x * x + 1.0, 2.0 * x)
    with pytest.raises(NumericalError):
        find_root(fdf, -1.0, 2.0, 2.0, 5.0, xtol=1e-12)


def test_bisect_vec_elementwise():
    targets = np.array([1.0, 2.0, 3.0, 10.0])
    f = lambda x: x * x - targets
    lo = np.zeros(4)
    hi = np.full(4, 4.0)
    lo2, hi2 = bisect_vec(f, lo, hi, iters=60)
    roots = 0.5 * (lo2 + hi2)
    assert roots == pytest.approx(np.sqrt(targets), rel=1e-12)


def test_lambert_w0_exact_points():
    assert lambert_w0(-math.exp(-1.0)) == -1.0
    assert lambert_w0(0.0) == 0.0
    assert lambert_w0(math.e) == pytest.approx(1.0, rel=1e-15)
    assert lambert_w0(np.array([0.0, math.e])).shape == (2,)


def test_lambert_w0_rejects_below_branch_point():
    with pytest.raises(ConfigError):
        lambert_w0(-0.37)


@settings(max_examples=200)
@given(x=st.one_of(st.floats(-math.exp(-1.0), 10.0),
                   st.floats(10.0, 1e300),
                   st.floats(-1e-6, 1e-6)))
def test_lambert_w0_inverts_w_exp_w(x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = float(lambert_w0(np.array([x]))[0])
        assert w >= -1.0
        assert w * math.exp(w) == pytest.approx(x, rel=1e-13, abs=1e-300)


@settings(max_examples=200)
@given(log_x=st.floats(-700.0, 1e6))
def test_lambert_w0_exp_solves_w_plus_log_w(log_x):
    # W0(e^L) satisfies w + log w = L, also past the float range of e^L
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = lambert_w0_exp(log_x)
        assert w > 0.0 and math.isfinite(w)
        assert w + math.log(w) == pytest.approx(log_x, rel=1e-13, abs=1e-13)
