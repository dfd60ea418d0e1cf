import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_values as ref
from ouexec import (ConfigError, MarketState, ModelParams, NumericalError,
                    RegimeError, expected_proceeds)
from ouexec.strategy import assemble_optimal
from ouexec.zero_vol import c_eval, solve


def test_reference_instance_exact(zv_params, ref_state):
    sol = solve(zv_params, ref_state)
    assert sol.p_star == pytest.approx(ref.ZERO_VOL_P_STAR, rel=1e-14)
    assert sol.zeta_star == pytest.approx(ref.ZERO_VOL_ZETA_STAR, rel=1e-14)
    assert sol.q_star == pytest.approx(ref.ZERO_VOL_Q_STAR, rel=1e-14)
    assert sol.value == pytest.approx(ref.ZERO_VOL_VALUE, rel=1e-14)


def test_c_vanishes_at_solution(zv_params, ref_state):
    sol = solve(zv_params, ref_state)
    assert abs(c_eval(zv_params, ref_state, sol.p_star)) <= 1e-12


def test_rejects_nonzero_sigma(ou_params, ref_state):
    with pytest.raises(RegimeError):
        solve(ou_params, ref_state)


def test_rejects_small_holdings(zv_params):
    small = MarketState(cash=0.0, holdings=0.8, price=math.e)  # phi <= z/alpha
    with pytest.raises(RegimeError):
        solve(zv_params, small)


def test_value_confirmed_by_evaluator(zv_params, ref_state):
    sol = solve(zv_params, ref_state)
    strat = assemble_optimal(sol.p_star, np.full(2000, sol.zeta_star),
                             sol.q_star, zv_params.horizon)
    val = expected_proceeds(zv_params, ref_state, strat)
    # constant-rate density is represented exactly; only quadrature error remains
    assert val == pytest.approx(sol.value, rel=1e-12)


def test_all_components_positive_inside_regime(zv_params, ref_state):
    sol = solve(zv_params, ref_state)
    assert sol.p_star > 1.0  # > z/alpha
    assert sol.zeta_star > 0.0
    assert sol.q_star > 0.0


@settings(max_examples=60)
@given(alpha=st.floats(0.3, 2.5), beta=st.floats(0.3, 2.0),
       t=st.floats(0.2, 1.0), z=st.floats(0.05, 2.0), extra=st.floats(0.05, 4.0))
def test_random_instances_conserve_and_satisfy_stationarity(alpha, beta, t, z, extra):
    params = ModelParams(alpha=alpha, beta=beta, sigma=0.0,
                         fundamental_log=0.0, horizon=t)
    state = MarketState(cash=0.0, holdings=z / alpha + extra, price=math.exp(z))
    sol = solve(params, state)
    assert sol.p_star + t * sol.zeta_star + sol.q_star == pytest.approx(
        state.holdings, rel=1e-12, abs=1e-12)
    assert abs(c_eval(params, state, sol.p_star)) <= 1e-10
    assert sol.zeta_star == pytest.approx(beta * (sol.p_star - z / alpha), rel=1e-12)
    assert sol.p_star >= z / alpha - 1e-12
    assert sol.q_star >= -1e-12


@settings(max_examples=300)
@given(log_alpha=st.floats(-3.0, 2.0), log_beta=st.floats(-3.0, 4.0),
       t=st.floats(1e-4, 1.0), z=st.floats(1e-6, 40.0), ratio=st.floats(0.0, 1.0))
def test_closed_form_over_the_whole_domain(log_alpha, log_beta, t, z, ratio):
    # phi from just above z/alpha up to 50 z/alpha and beta t up to 1e4, where
    # the Lambert-W argument k e^{k + z - alpha phi} can overflow a float; the
    # closed form must meet its residual bound or refuse with a typed error
    alpha, beta = 10.0 ** log_alpha, 10.0 ** log_beta
    params = ModelParams(alpha=alpha, beta=beta, sigma=0.0,
                         fundamental_log=0.0, horizon=t)
    phi = z / alpha * (1.0 + 1e-9 + 49.0 * ratio)
    state = MarketState(cash=0.0, holdings=phi, price=math.exp(z))
    try:
        sol = solve(params, state)
    except (ConfigError, RegimeError, NumericalError):
        return
    assert abs(c_eval(params, state, sol.p_star)) <= 1e-12
    z = math.log(state.price)  # the z the solver sees, not the rounded draw
    assert z / alpha <= sol.p_star <= (z + 1.0) / alpha
    assert math.isfinite(sol.value)


@pytest.mark.parametrize("phi", [1.0, 296.5])
def test_large_beta_t_block_is_finite(phi):
    # beta t = 1000: e^{k + z - alpha phi} overflows at phi = 1, and at
    # phi = 296.5 it is finite but k times it is not
    params = ModelParams(alpha=1.0, beta=1000.0, sigma=0.0,
                         fundamental_log=0.0, horizon=1.0)
    state = MarketState(cash=0.0, holdings=phi, price=math.exp(0.1))
    sol = solve(params, state)
    assert abs(c_eval(params, state, sol.p_star)) <= 1e-12
    assert 0.1 <= sol.p_star <= 1.1
    assert math.isfinite(sol.value)
