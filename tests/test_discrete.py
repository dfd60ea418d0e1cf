import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_large_instance
from ouexec import ConfigError, MarketState, ModelParams, NumericalError, discrete
from ouexec.discrete import (brute_force, discrete_value, fnk_eval,
                             fnk_inverse, fnk_zero, gradient, hn_eval,
                             objective, periods, recover_psi, solve_lambda_hat)


def test_periods_and_decay(ou_params):
    m, c = periods(ou_params, 10)
    assert m == 10
    assert c == math.exp(-0.1)


def test_periods_flags_truncated_horizon():
    params = ModelParams(alpha=1.0, beta=1.0, sigma=0.2, fundamental_log=0.0,
                         horizon=0.45)
    with pytest.warns(UserWarning, match="not an integer"):
        m, _ = periods(params, 10)
    assert m == 4


def test_single_period_multiplier_closed_form(ou_params, ref_state):
    # with one period the stationarity equation solves by hand
    lam = solve_lambda_hat(ou_params, ref_state, 1)
    y, z, phi = 0.01, 1.0, 3.0
    assert lam == pytest.approx(math.exp(z - y - phi), rel=1e-12)
    psi = recover_psi(ou_params, ref_state, 1, lam)
    assert psi.tolist() == pytest.approx([phi], rel=1e-12)


def test_value_wraps_objective(ou_params, ref_state):
    x = np.array([1.0, 1.0, 1.0])
    v = discrete_value(ou_params, ref_state, x, 3)
    obj = objective(ou_params, ref_state, x, 3)
    assert v == pytest.approx(0.0 + math.exp(0.0 + 0.01) * obj / 1.0, rel=1e-14)


def test_objective_diverges_for_huge_allocations(ou_params, ref_state):
    # on the constraint set (sum = phi) a large norm forces a huge purchase
    # leg somewhere, and the objective plunges to -inf in that direction
    phi = ref_state.holdings
    assert objective(ou_params, ref_state, np.array([-1e3, 1e3 + phi]), 2) < 0.0
    assert objective(ou_params, ref_state, np.array([1e3, phi - 1e3]), 2) < 0.0
    assert objective(ou_params, ref_state,
                     np.array([1e3, -2e3 + phi, 1e3]), 3) < 0.0


def test_gradient_matches_central_differences(ou_params, ref_state):
    # central differences, step 1e-6, at 100 random interior points
    rng = np.random.default_rng(42)
    n = 7
    m, _ = periods(ou_params, n)
    h = 1e-6
    worst = 0.0
    for _ in range(100):
        x = rng.uniform(0.05, 1.2, m)
        g = gradient(ou_params, ref_state, x, n)
        for k in rng.choice(m, size=2, replace=False):
            xp, xm = x.copy(), x.copy()
            xp[k] += h
            xm[k] -= h
            fd = (objective(ou_params, ref_state, xp, n)
                  - objective(ou_params, ref_state, xm, n)) / (2.0 * h)
            worst = max(worst, abs(fd - g[k]))
    assert worst <= 1e-8


def test_fnk_decreasing_and_inverse_roundtrip(ou_params):
    n = 50
    for k in (0, 10, 49):
        x0 = fnk_zero(ou_params, n, k)
        xs = np.linspace(x0 - 3.0, x0, 40)
        vals = fnk_eval(ou_params, n, k, xs)
        assert np.all(np.diff(vals) < 0.0)
        assert abs(float(fnk_eval(ou_params, n, k, x0))) <= 1e-14
        q = np.geomspace(1e-8, 20.0, 30)
        x = fnk_inverse(ou_params, n, k, q)
        back = fnk_eval(ou_params, n, k, x)
        assert back == pytest.approx(q, rel=1e-10, abs=1e-12)


@settings(max_examples=200)
@given(log_alpha=st.floats(-2.0, 2.0), log_bn=st.floats(-5.0, 4.0),
       n=st.sampled_from([1, 2, 10, 100]), k=st.integers(0, 99), sigma=st.floats(0.0, 1.5),
       qs=st.lists(st.one_of(st.just(0.0), st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)),
                   min_size=1, max_size=6))
def test_fnk_inverse_property(log_alpha, log_bn, n, k, sigma, qs):
    # beta/n spans 1e-5 .. 1e4, so c runs from 1 - 1e-5 down to 0.0
    params = ModelParams(alpha=10.0 ** log_alpha, beta=10.0 ** log_bn * n, sigma=sigma,
                         fundamental_log=0.0, horizon=1.0)
    k %= n
    q = np.sort(np.array(qs))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x0 = fnk_zero(params, n, k)
        x = fnk_inverse(params, n, k, q)
        f = fnk_eval(params, n, k, x)
    assert math.isfinite(x0)
    assert np.all(x <= x0)
    assert np.all(x[q == 0.0] == x0)
    # |F(x) - q| within 1e-12 max(1, q), or within the change of F over a
    # few float steps of x where no float meets that; past the float range
    # that change is inf
    with np.errstate(over="ignore"):
        df = np.abs(fnk_eval(params, n, k, np.nextafter(x, -np.inf)) - f)
    assert np.all(np.abs(f - q) <= 1e-12 * np.maximum(1.0, q) + 8.0 * df)
    # nonincreasing in q, up to rounding of x = x0 - (x0 - x)
    assert np.all(np.diff(x) <= 4.0 * np.spacing(max(abs(x0), float(np.max(np.abs(x))))))


def test_inversion_at_large_response_terms():
    # the two terms of F^n_k are about e^{-alpha x}/(1 - c) = 1e8 here; in the
    # unfactored form their rounding alone failed the inversion check at q = 0
    params = ModelParams(alpha=1.0, beta=0.01, sigma=0.5, fundamental_log=0.0, horizon=1.0)
    state = MarketState(cash=0.0, holdings=1.0, price=math.exp(5.0))
    lam = solve_lambda_hat(params, state, 10)
    assert abs(hn_eval(params, state, lam, 10)) <= 1e-10 * lam
    psi = recover_psi(params, state, 10, lam, check=True)
    assert float(np.sum(psi)) == pytest.approx(1.0, abs=1e-12)


def test_decay_factor_underflow():
    # beta/n = 1000: c = e^{-1000} is 0.0 in floats, so x0 must not use log c
    params = ModelParams(alpha=1.0, beta=2000.0, sigma=0.5, fundamental_log=0.0, horizon=1.0)
    assert periods(params, 2)[1] == 0.0
    assert math.isfinite(fnk_zero(params, 2, 0))
    state = MarketState(cash=0.0, holdings=1000.0, price=math.exp(1.0))
    lam = solve_lambda_hat(params, state, 2)
    assert lam > 0.0 and abs(hn_eval(params, state, lam, 2)) <= 1e-10 * lam
    psi = recover_psi(params, state, 2, lam)
    assert float(np.sum(psi)) == pytest.approx(1000.0, rel=1e-14)
    # with phi = 1, E_n(0) = e^1000 is beyond the float range
    with pytest.raises(NumericalError):
        solve_lambda_hat(params, MarketState(cash=0.0, holdings=1.0, price=math.exp(1.0)), 2)


def test_multiplier_residual_check_is_relative(monkeypatch):
    # lambda_hat is about 2.2e-11, so twice it is 100% off while |hn| stays
    # below an absolute 1e-10
    params = ModelParams(alpha=2.0, beta=0.01, sigma=0.5, fundamental_log=0.0, horizon=1.0)
    state = MarketState(cash=0.0, holdings=10.0, price=math.exp(1.0))
    lam = solve_lambda_hat(params, state, 10)
    assert lam < 1e-10
    monkeypatch.setattr(discrete, "solve_multiplier", lambda log_e: 2.0 * lam)
    with pytest.raises(NumericalError, match="residual"):
        solve_lambda_hat(params, state, 10)


def test_hn_root_and_bracket_modes(ou_params, ref_state):
    n = 100
    lam = solve_lambda_hat(ou_params, ref_state, n)
    assert abs(hn_eval(ou_params, ref_state, lam, n)) <= 1e-10
    # the root lies in the a priori bracket [E_n(E_n(0)), E_n(0)]
    e0 = hn_eval(ou_params, ref_state, 0.0, n)
    assert hn_eval(ou_params, ref_state, e0, n) + e0 <= lam <= e0


def test_small_holdings_multiplier_regression():
    # the doubling bracket of an earlier solver overshot here and the
    # per-period response inversion failed to converge
    params = ModelParams(alpha=9.786723429030848, beta=0.030784738473593875,
                         sigma=0.6102862843570457, fundamental_log=0.0,
                         horizon=0.8881412274135774)
    state = MarketState(cash=0.0, holdings=1.1884830123353152,
                        price=math.exp(26.941400876293166))
    with pytest.warns(UserWarning, match="not an integer"):
        lam = solve_lambda_hat(params, state, 3)
        assert abs(hn_eval(params, state, lam, 3)) <= 1e-10


def test_hn_beyond_float_range_is_numerical_error():
    params = ModelParams(alpha=1.0, beta=50.0, sigma=0.5, fundamental_log=0.0,
                         horizon=1.0)
    state = MarketState(cash=0.0, holdings=0.0, price=math.exp(690.0))
    with pytest.raises(NumericalError):
        hn_eval(params, state, 0.0, 10)
    with pytest.raises(NumericalError):
        solve_lambda_hat(params, state, 10)


def test_recover_psi_checks_stationarity(ou_params, ref_state):
    n = 64
    lam = solve_lambda_hat(ou_params, ref_state, n)
    psi = recover_psi(ou_params, ref_state, n, lam)
    assert float(np.sum(psi)) == pytest.approx(3.0, abs=1e-10)
    g = gradient(ou_params, ref_state, psi, n)
    assert np.max(np.abs(g - lam)) <= 1e-8 * max(1.0, lam)
    with pytest.raises(NumericalError):
        recover_psi(ou_params, ref_state, n, 1.5 * lam)
    # check=False returns the (non-stationary) allocation anyway
    bad = recover_psi(ou_params, ref_state, n, 1.5 * lam, check=False)
    assert bad.shape == psi.shape


def test_errors_decrease_with_n(ou_params, ref_state):
    from ouexec.continuous import value
    v_ref = value(ou_params, ref_state)
    errs = []
    for n in (8, 32, 128):
        lam = solve_lambda_hat(ou_params, ref_state, n)
        psi = recover_psi(ou_params, ref_state, n, lam)
        errs.append(abs(discrete_value(ou_params, ref_state, psi, n) - v_ref))
    assert errs[0] > errs[1] > errs[2]
    # roughly first order in 1/n
    assert errs[2] <= errs[0] / 8.0


def test_first_and_last_psi_exceed_interior(ou_params, ref_state):
    # the discrete solution mirrors the block-rate-block shape
    n = 40
    lam = solve_lambda_hat(ou_params, ref_state, n)
    psi = recover_psi(ou_params, ref_state, n, lam)
    assert psi[0] > np.max(psi[1:-1])
    assert psi[-1] > np.max(psi[1:-1])
    assert np.all(psi > 0.0)


def test_brute_force_agrees_with_multiplier_route(ou_params, ref_state):
    for n in (2, 3):
        lam = solve_lambda_hat(ou_params, ref_state, n)
        psi = recover_psi(ou_params, ref_state, n, lam)
        x_bf, v_bf = brute_force(ou_params, ref_state, n, resolution=150)
        v_psi = discrete_value(ou_params, ref_state, psi, n)
        assert v_bf <= v_psi + 1e-12  # psi is the true argmax
        assert v_bf == pytest.approx(v_psi, rel=1e-9)
        assert x_bf == pytest.approx(psi, abs=3.0 / 150.0)


def test_brute_force_single_period(ou_params, ref_state):
    x, v = brute_force(ou_params, ref_state, 1)
    assert x.tolist() == [3.0]
    assert v == pytest.approx(discrete_value(ou_params, ref_state, np.array([3.0]), 1),
                              rel=1e-14)


def test_random_instances_brute_vs_recovered():
    rng = np.random.default_rng(11)
    for _ in range(3):
        params, state = random_large_instance(rng)
        params = ModelParams(alpha=params.alpha, beta=params.beta,
                             sigma=params.sigma,
                             fundamental_log=params.fundamental_log, horizon=1.0)
        n = 3
        lam = solve_lambda_hat(params, state, n)
        psi = recover_psi(params, state, n, lam)
        x_bf, v_bf = brute_force(params, state, n, resolution=120)
        assert v_bf == pytest.approx(discrete_value(params, state, psi, n), rel=1e-8)
        assert x_bf == pytest.approx(psi, abs=state.holdings / 120.0 * 1.5)
