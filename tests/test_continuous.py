import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import lambertw

import reference_values as ref
from conftest import E, random_large_instance
from ouexec import (ConfigError, MarketState, ModelParams, NumericalError, Regime,
                    RegimeError, expected_proceeds)
from ouexec import continuous
from ouexec import zero_vol
from ouexec.continuous import (h_eval, p_eval, p_inverse, schedule,
                               solve_lambda_star, value, value_block_form,
                               value_flow_form, xi_star, zeta_star)


# ---------------------------------------------------------------- P and P^-1

def test_p_eval_shape_and_landmarks():
    assert p_eval(0.0, 1.0) == 1.0
    assert p_eval(1.0, 1.0) == 0.0
    assert p_eval(2.0, 1.0) == pytest.approx(-math.exp(-2.0), rel=1e-15)


def test_p_inverse_against_lambert_w():
    # P(x) = q on x <= 2/alpha solves (1-ax) e^{1-ax} = q e, principal branch
    alpha = 1.4
    q = np.concatenate([np.linspace(-math.exp(-2.0) + 1e-6, -1e-6, 40),
                        np.geomspace(1e-6, 50.0, 40)])
    x = p_inverse(q, alpha)
    oracle = (1.0 - lambertw(q * math.e, 0).real) / alpha
    assert x == pytest.approx(oracle, rel=1e-11, abs=1e-13)


def test_p_inverse_roundtrip_near_flat_point():
    alpha = 0.8
    q = np.array([-math.exp(-2.0) + 1e-12, -math.exp(-2.0) + 1e-7])
    x = p_inverse(q, alpha)
    assert np.all(x <= 2.0 / alpha + 1e-9)
    assert p_eval(x, alpha) == pytest.approx(q, abs=1e-11)


def test_p_inverse_rejects_below_range():
    with pytest.raises(ConfigError):
        p_inverse(-math.exp(-2.0) - 1e-6, 1.0)


@settings(max_examples=40)
@given(q=st.floats(-0.13, 80.0), alpha=st.floats(0.2, 3.0))
def test_p_inverse_roundtrip_property(q, alpha):
    x = p_inverse(q, alpha)
    assert float(np.asarray(p_eval(x, alpha))) == pytest.approx(
        q, rel=1e-11, abs=1e-11)


# ------------------------------------------------------------- lambda* and H

def test_lambda_star_matches_reference(ou_params, ref_state):
    lam = solve_lambda_star(ou_params, ref_state)
    assert lam == pytest.approx(ref.OU_LAMBDA_STAR, rel=1e-12)
    assert abs(h_eval(ou_params, ref_state, lam)) <= 1e-10


def test_h_positive_at_zero_and_decreasing(ou_params, ref_state):
    h0 = h_eval(ou_params, ref_state, 0.0)
    assert h0 > 0.0
    lams = np.linspace(0.0, 0.9, 10)
    vals = [h_eval(ou_params, ref_state, lam) for lam in lams]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_h_beyond_float_range_is_numerical_error():
    # alpha = 1, beta = 50, z = 690, phi = 0: log E(0) = beta t + z - y ~ 740
    params = ModelParams(alpha=1.0, beta=50.0, sigma=0.5, fundamental_log=0.0,
                         horizon=1.0)
    state = MarketState(cash=0.0, holdings=0.0, price=math.exp(690.0))
    with pytest.raises(NumericalError):
        h_eval(params, state, 0.0)
    with pytest.raises(NumericalError):
        solve_lambda_star(params, state, extended=True)


def test_multiplier_residual_check_is_relative(monkeypatch):
    # lambda* is about 2.2e-11, so twice it is 100% off while |H| stays
    # below an absolute 1e-10
    params = ModelParams(alpha=2.0, beta=0.01, sigma=0.5, fundamental_log=0.0, horizon=1.0)
    state = MarketState(cash=0.0, holdings=10.0, price=math.exp(1.0))
    lam = continuous.solve_lambda_star(params, state, extended=True)
    assert lam < 1e-10
    monkeypatch.setattr(continuous, "solve_multiplier", lambda log_e: 2.0 * lam)
    with pytest.raises(NumericalError, match="residual"):
        continuous.solve_lambda_star(params, state, extended=True)


def test_eq9_style_bound_holds_for_round_trips(ou_params):
    # for phi <= z/alpha the multiplier stays below alpha e^{-y} P((a phi - z)/(a(1+bt)))
    state = MarketState(cash=0.0, holdings=0.4, price=E)  # phi < z/alpha = 1
    lam = solve_lambda_star(ou_params, state, extended=True)
    y = 0.01
    cap = 1.0 * math.exp(-y) * p_eval((1.0 * 0.4 - 1.0) / (1.0 * 2.0), 1.0)
    assert 0.0 < lam < cap


# ------------------------------------------------------------- the schedule

def test_schedule_matches_reference(ou_params, ref_state):
    sched = schedule(ou_params, ref_state, grid_points=1000)
    assert sched.regime is Regime.LARGE_HOLDINGS
    assert sched.lambda_star == pytest.approx(ref.OU_LAMBDA_STAR, rel=1e-12)
    assert sched.p_star == pytest.approx(ref.OU_P_STAR, rel=1e-12)
    assert sched.q_star == pytest.approx(ref.OU_Q_STAR, rel=1e-12)
    # zeta integrates to exactly what the blocks leave over
    assert sched.density_integral == pytest.approx(
        ref_state.holdings - ref.OU_P_STAR - ref.OU_Q_STAR, rel=1e-10)
    assert continuous._xi_integral(ou_params, ref_state, sched.lambda_star) == \
        pytest.approx(ref.OU_XI_INT, rel=1e-12)
    assert sched.zeta[0] == pytest.approx(ref.OU_ZETA0, rel=1e-11)
    assert sched.value == pytest.approx(ref.OU_VALUE, rel=1e-12)


def test_schedule_invariants(ou_params, ref_state):
    sched = schedule(ou_params, ref_state, grid_points=400)
    a = ou_params.alpha
    assert np.all(sched.xi >= 0.0)
    assert np.all(np.diff(sched.xi) <= 1e-14)          # nonincreasing
    assert sched.xi[0] <= 1.0 / a + 1e-12
    assert np.all(sched.zeta > 0.0)
    assert np.all(np.diff(sched.eta) > 0.0)            # keeps selling
    assert sched.eta[0] == pytest.approx(sched.p_star, rel=1e-12)
    # start price after the initial block
    assert sched.expected_price[0] == pytest.approx(
        ref_state.price * math.exp(-a * sched.p_star), rel=1e-11)


def test_zeta_forms_agree(ou_params, ref_state):
    lam = solve_lambda_star(ou_params, ref_state)
    r = np.linspace(0.0, 1.0, 250)
    reduced = zeta_star(ou_params, ref_state, lam, r, form="reduced")
    direct = zeta_star(ou_params, ref_state, lam, r, form="direct")
    assert np.max(np.abs(reduced - direct)) <= 1e-12 * np.max(np.abs(reduced))


def test_value_forms_agree(ou_params, ref_state):
    lam = solve_lambda_star(ou_params, ref_state)
    sched = schedule(ou_params, ref_state, grid_points=100)
    block = value_block_form(ou_params, ref_state, lam, sched.p_star, sched.q_star)
    flow = value_flow_form(ou_params, ref_state, lam)
    assert block == pytest.approx(flow, rel=1e-12)
    assert block == pytest.approx(ref.OU_VALUE, rel=1e-12)


def test_conservation(ou_params, ref_state):
    sched = schedule(ou_params, ref_state)
    total = sched.p_star + sched.density_integral + sched.q_star
    assert total == pytest.approx(ref_state.holdings, abs=1e-10)


def test_value_confirmed_by_evaluator(ou_params, ref_state):
    sched = schedule(ou_params, ref_state, grid_points=2000)
    val = expected_proceeds(ou_params, ref_state, sched.strategy)
    # midpoint-sampled density sits slightly below the optimum
    assert val <= sched.value + 1e-10
    assert val == pytest.approx(sched.value, abs=5e-10)


# ----------------------------------------------------- regime special cases

def test_sigma_zero_delegates_to_zero_vol_solve(zv_params, ref_state):
    sched = schedule(zv_params, ref_state, grid_points=50)
    sol = zero_vol.solve(zv_params, ref_state)
    assert sched.regime is Regime.ZERO_VOL
    assert sched.p_star == pytest.approx(sol.p_star, rel=1e-14)
    assert sched.q_star == pytest.approx(sol.q_star, rel=1e-14)
    assert np.all(sched.zeta == sched.zeta[0])
    assert sched.zeta[0] == pytest.approx(sol.zeta_star, rel=1e-14)
    assert sched.value == pytest.approx(sol.value, rel=1e-14)
    assert sched.lambda_star == pytest.approx(ref.ZERO_VOL_LAMBDA_STAR, rel=1e-12)


def test_small_holdings_block_schedule(ou_params):
    # z = 1 makes phi = 0.5 <= (z - 2y)/alpha; the block value needs only s
    state = MarketState(cash=0.0, holdings=0.5, price=10.0)
    params = ModelParams(alpha=1.0, beta=1.0, sigma=0.2,
                         fundamental_log=math.log(10.0) - 1.0, horizon=1.0)
    sched = schedule(params, state, grid_points=20)
    assert sched.regime is Regime.SMALL_HOLDINGS
    assert sched.p_star == 0.5 and sched.q_star == 0.0
    assert sched.lambda_star is None
    assert np.all(sched.eta == 0.5)
    assert sched.value == pytest.approx(ref.SMALL_HOLDINGS_VALUE, rel=1e-14)
    val = expected_proceeds(params, state, sched.strategy)
    assert val == pytest.approx(sched.value, rel=1e-14)


def test_gap_regime_refuses_schedule_but_values(ou_params):
    gap_state = MarketState(cash=0.25, holdings=1.5, price=E)
    with pytest.raises(RegimeError):
        schedule(ou_params, gap_state)
    v = value(ou_params, gap_state)
    assert math.isfinite(v)
    assert v > 0.25


def test_value_dispatch_matches_schedule(ou_params, zv_params, ref_state):
    assert value(ou_params, ref_state) == pytest.approx(
        schedule(ou_params, ref_state).value, rel=1e-13)
    assert value(zv_params, ref_state) == pytest.approx(
        zero_vol.solve(zv_params, ref_state).value, rel=1e-14)


def test_extended_mode_handles_small_phi(ou_params):
    state = MarketState(cash=0.0, holdings=0.2, price=E)
    sched = schedule(ou_params, state, extended=True)
    assert sched.extended
    assert sched.q_star < 0.0  # ends with a buy-back
    total = sched.p_star + sched.density_integral + sched.q_star
    assert total == pytest.approx(0.2, abs=1e-10)


def test_standard_mode_refuses_outside_standing_assumption():
    params = ModelParams(alpha=1.0, beta=1.0, sigma=2.0, fundamental_log=0.0,
                         horizon=1.0)  # y = 1, z = 1 <= 2y
    state = MarketState(cash=0.0, holdings=5.0, price=E)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(RegimeError):
            schedule(params, state)


# ------------------------------------- cross-identity with the no-noise solve

def test_c_identity_links_h_and_zero_vol(zv_params, ref_state):
    # C(p) = e^{alpha p - z} H(alpha P(p - z/alpha)) / alpha at sigma = 0
    # p <= z/alpha + 1/alpha keeps the mapped multiplier nonnegative
    rng = np.random.default_rng(5)
    for p in rng.uniform(1.05, 1.95, 12):
        lam = 1.0 * p_eval(p - 1.0, 1.0)
        lhs = zero_vol.c_eval(zv_params, ref_state, float(p))
        rhs = math.exp(p - 1.0) * h_eval(zv_params, ref_state, lam) / 1.0
        assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)


# ------------------------------------------------------------ random sweeps

@settings(max_examples=25)
@given(seed=st.integers(0, 10_000))
def test_random_large_instances_conserve_and_verify(seed):
    params, state = random_large_instance(np.random.default_rng(seed))
    sched = schedule(params, state, grid_points=300)
    total = sched.p_star + sched.density_integral + sched.q_star
    assert total == pytest.approx(state.holdings, abs=1e-8)
    assert abs(h_eval(params, state, sched.lambda_star)) <= 1e-9
    block = value_block_form(params, state, sched.lambda_star,
                             sched.p_star, sched.q_star)
    flow = value_flow_form(params, state, sched.lambda_star)
    assert block == pytest.approx(flow, rel=1e-9)
