import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ouexec import (ConfigError, MarketState, ModelParams, NumericalError,
                    continuous, discrete)
from ouexec.numerics import (adaptive_quad, find_root, fixed_quad,
                             gl_nodes, lambert_w0, lambert_w0_exp,
                             solve_multiplier)


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


def test_find_root_stops_at_the_noise_floor():
    # f carries rounding-level noise, so Newton steps near the root neither
    # shrink below an absolute 1e-15 nor halve; the relative step tolerance
    # must end the search there instead of bisecting the whole bracket
    seen = []

    def fdf(x):
        seen.append(x)
        return 20.4336388081808 - x + 1e-14 * math.sin(1e15 * x), -1.0

    root = find_root(fdf, -700.0, 40.0, 720.4336388081808, -19.5663611918192,
                     xtol=1e-15)
    assert abs(root - 20.4336388081808) <= 1e-13
    assert len(seen) <= 5


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


def test_lambert_w0_exp_is_elementwise():
    log_x = np.array([-np.inf, -800.0, 0.0, 699.0, 700.0, 1e6])
    w = lambert_w0_exp(log_x)
    assert w.shape == log_x.shape
    assert w[0] == 0.0
    assert w.tolist() == [lambert_w0_exp(v) for v in log_x]


# ------------------------------------------------------- the multiplier solve

@pytest.mark.parametrize("c", np.geomspace(1e-300, 1e300, 61))
def test_solve_multiplier_lambert_family(c):
    # lambda = c e^{-lambda} is lambda e^lambda = c, so the root is W0(c);
    # lambda = e^u inherits the float spacing of u = log lambda
    calls = []

    def log_e(lam):
        calls.append(lam)
        return math.log(c) - lam, -lam

    lam = solve_multiplier(log_e)
    w = float(lambert_w0(c))
    assert lam == pytest.approx(w, rel=max(1e-14, 4.0 * math.ulp(math.log(w))))
    assert len(calls) <= 30


def test_solve_multiplier_refuses_e0_beyond_range():
    with pytest.raises(NumericalError):
        solve_multiplier(lambda lam: (700.0 - lam, -lam))
    with pytest.raises(NumericalError):
        solve_multiplier(lambda lam: (math.nan, 0.0))


@settings(max_examples=60)
@given(log_alpha=st.floats(-2.0, 2.0), log_beta=st.floats(-2.0, 2.0),
       sigma=st.floats(0.0, 1.5), t=st.floats(0.01, 1.0), z=st.floats(-1.0, 40.0),
       phi=st.one_of(st.just(0.0), st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e)))
def test_multiplier_solves_over_the_sweep_domain(log_alpha, log_beta, sigma, t, z, phi):
    # each solve returns a root within the a priori bound lambda <= E(0)
    # that passes the residual check, or raises a typed error
    params = ModelParams(alpha=10.0 ** log_alpha, beta=10.0 ** log_beta, sigma=sigma,
                         fundamental_log=0.0, horizon=t)
    state = MarketState(cash=0.0, holdings=phi, price=math.exp(z))
    solves = [(lambda: continuous.solve_lambda_star(params, state, extended=True),
               lambda lam: continuous.h_eval(params, state, lam))]
    for n in (2, 3, 10, 100):
        solves.append((lambda n=n: discrete.solve_lambda_hat(params, state, n),
                       lambda lam, n=n: discrete.hn_eval(params, state, lam, n)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for solve, mismatch in solves:
            try:
                lam = solve()
            except (ConfigError, NumericalError):
                continue
            e0 = mismatch(0.0)
            assert 0.0 <= lam <= e0 * (1.0 + 1e-14)
            assert abs(mismatch(lam)) <= 1e-10 * max(lam, sys.float_info.min)
