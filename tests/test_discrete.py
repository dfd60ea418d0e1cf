import dataclasses
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_brute_force
from conftest import E, random_large_instance
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


def test_response_zero_exact_at_small_decay():
    # 1 - c and 1 - c^2 taken as -expm1: with 1.0 - c * c, x0 was 4,133 ulps off here
    params = ModelParams(alpha=2.6, beta=1.2e-5, sigma=0.0789, fundamental_log=0.0,
                         horizon=1.0)
    with mpmath.workdps(50):
        a, b, y = mpmath.mpf(params.alpha), mpmath.mpf(params.beta), mpmath.mpf(params.y)
        c = mpmath.exp(-b)
        exact = float((b - c ** 2 * (1 - c ** 2) * y) / (a * (1 - c)))
    assert exact == -99.37537023418393
    assert abs(fnk_zero(params, 1, 1) - exact) <= 4 * math.ulp(exact)


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


def test_recover_psi_check_allows_for_rounding_at_large_y():
    # y = 43.9: each gradient term moves by ~e^{c^{2k} y} per unit of its argument, so
    # ulp-level rounding in psi left residuals of 1.3e2 against the absolute 1e-8 bound
    params = ModelParams(alpha=0.313, beta=0.0107, sigma=1.37, fundamental_log=0.0,
                         horizon=0.842)
    state = MarketState(cash=0.0, holdings=0.893, price=math.exp(2.88))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # n t = 8.42 leaves the tail idle
        lam = solve_lambda_hat(params, state, 10)
        psi = recover_psi(params, state, 10, lam, check=True)
    assert np.all(np.isfinite(psi))
    assert float(np.sum(psi)) == pytest.approx(0.893, abs=1e-9)


@pytest.mark.parametrize("k", range(1, 9))
def test_recover_psi_check_still_catches_a_perturbed_period(monkeypatch, ou_params,
                                                            ref_state, k):
    n = 10
    lam = solve_lambda_hat(ou_params, ref_state, n)
    recover_psi(ou_params, ref_state, n, lam)
    exact = discrete.gradient

    def perturbed(params, state, psi, n):
        psi = psi.copy()
        psi[k] *= 1.0 + 1e-6
        return exact(params, state, psi, n)

    monkeypatch.setattr(discrete, "gradient", perturbed)
    with pytest.raises(NumericalError):
        recover_psi(ou_params, ref_state, n, lam)


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


@pytest.mark.parametrize("knobs", [{"resolution": 0}, {"resolution": -1}, {"resolution": 2.5},
                                   {"sweeps": -1}, {"sweeps": 0.5}])
def test_brute_force_rejects_bad_knobs(ou_params, ref_state, knobs):
    with pytest.raises(ConfigError):
        brute_force(ou_params, ref_state, 3, **knobs)


def _oracle_cases():
    """(params, state, n) for m = 2, 3, 4: large holdings, gap, zero volatility, n t not whole."""
    rng = np.random.default_rng(2011)
    groups = []
    for i in range(2):
        params, state = random_large_instance(rng)
        groups.append((f"large{i}", dataclasses.replace(params, horizon=1.0), state, (2, 3, 4)))
    ou = ModelParams(alpha=1.0, beta=1.0, sigma=0.2, fundamental_log=0.0, horizon=1.0)
    zv = ModelParams(alpha=1.3, beta=0.7, sigma=0.0, fundamental_log=0.2, horizon=1.0)
    groups.append(("gap", ou, MarketState(cash=0.25, holdings=1.5, price=E), (2, 3, 4)))
    groups.append(("sigma0", zv, MarketState(cash=0.0, holdings=2.0, price=3.0), (2, 3, 4)))
    # t = 0.9: n = 3, 4, 5 give m = 2, 3, 4 and leave the tail idle
    params, state = random_large_instance(rng)
    groups.append(("fractional", dataclasses.replace(params, horizon=0.9), state, (3, 4, 5)))
    return [pytest.param(params, state, n, id=f"{name}-n{n}")
            for name, params, state, ns in groups for n in ns]


@pytest.mark.filterwarnings("ignore:n\\*t")
@pytest.mark.parametrize("params, state, n", _oracle_cases())
def test_lattice_start_matches_full_cube(params, state, n, monkeypatch):
    m, c = periods(params, n)
    x0 = discrete._lattice_start(params, state, m, c, 200)
    assert np.array_equal(x0, reference_brute_force.lattice_start(params, state, m, c, 200))
    x, v = brute_force(params, state, n)
    monkeypatch.setattr(discrete, "_lattice_start", reference_brute_force.lattice_start)
    x_ref, v_ref = brute_force(params, state, n)
    assert np.array_equal(x, x_ref)
    assert v == v_ref


def test_lattice_start_exact_tie_keeps_first_point():
    # c rounds to 1.0, and 163 of the 12,341 lattice points tie exactly at the
    # maximum with different allocations: the lexicographically smallest wins
    params = ModelParams(alpha=1.0, beta=1e-300, sigma=0.0, fundamental_log=0.0, horizon=1.0)
    state = MarketState(cash=0.0, holdings=2.0, price=1.0)
    m, c = periods(params, 4)
    assert c == 1.0
    x0 = discrete._lattice_start(params, state, m, c, 40)
    assert np.array_equal(x0, np.array([0.0, 6.0, 32.0, 2.0]) * (2.0 / 40))
    assert np.array_equal(x0, reference_brute_force.lattice_start(params, state, m, c, 40))


def test_brute_force_memory_stays_below_the_cube(ou_params, ref_state):
    # the full-cube reference lattice peaks at 247 MB here; one slice at a time needs 1.6 MB
    tracemalloc.start()
    try:
        brute_force(ou_params, ref_state, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
