import dataclasses
import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import lambertw

import reference_scan
import reference_values as ref
from conftest import E, random_large_instance, random_small_instance
from ouexec import (ConfigError, MarketState, ModelParams, NumericalError, Regime,
                    RegimeError, StandingAssumptionWarning, classify, expected_price_path,
                    expected_proceeds)
from ouexec import continuous, numerics
from ouexec import zero_vol
from ouexec.continuous import (h_eval, p_eval, p_inverse, schedule,
                               solve_lambda_star, value, value_block_form,
                               value_flow_form, xi_star, zeta_star)
from ouexec.manipulation import scan
from ouexec.numerics import adaptive_quad


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


@pytest.mark.parametrize("call", [
    lambda p, s: schedule(p, s, grid_points=-1),
    lambda p, s: schedule(p, s, grid_points=2.5),
    lambda p, s: schedule(p, s, grid_points=True),
    lambda p, s: scan(p, MarketState(cash=0.0, holdings=0.0, price=s.price), (0.5, 3.0),
                      points=4, grid_points=-1),
    lambda p, s: scan(p, MarketState(cash=0.0, holdings=0.0, price=s.price), (0.5, 3.0),
                      points=2.5),
], ids=["schedule_grid_negative", "schedule_grid_float", "schedule_grid_bool",
        "scan_grid_negative", "scan_points_float"])
def test_integer_arguments_are_config_errors(ou_params, ref_state, call):
    with pytest.raises(ConfigError):
        call(ou_params, ref_state)


def test_h_eval_rejects_nan_multiplier(ou_params, ref_state):
    # a negative multiplier is a ConfigError; NaN raised NumericalError by accident
    with pytest.raises(ConfigError):
        h_eval(ou_params, ref_state, math.nan)


def test_h_eval_rejects_infinite_multiplier(ou_params, ref_state):
    # +inf reached inf - inf inside W0 before any typed error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError):
            h_eval(ou_params, ref_state, math.inf)
        with pytest.raises(ConfigError):
            h_eval(ou_params, [ref_state, ref_state], [1.0, math.inf])


@pytest.mark.parametrize("tol", [math.nan, -1.0])
@pytest.mark.parametrize("call", [
    lambda p, s, tol: solve_lambda_star(p, s, tol=tol),
    lambda p, s, tol: schedule(p, s, grid_points=10, tol=tol),
    lambda p, s, tol: value(p, s, tol=tol),
    lambda p, s, tol: schedule(p, MarketState(cash=0.0, holdings=0.5, price=E), tol=tol),
    lambda p, s, tol: value(p, MarketState(cash=0.0, holdings=1.5, price=E), tol=tol),
], ids=["solve_lambda_star", "schedule", "value", "schedule_small_holdings", "value_gap"])
def test_bad_tolerance_is_config_error(ou_params, ref_state, call, tol):
    # a NaN or negative tol reached the residual check and came out as a NumericalError;
    # where no closed-form solve runs it went unchecked
    with pytest.raises(ConfigError, match="tol"):
        call(ou_params, ref_state, tol)


def test_solve_lambda_star_over_states_matches_one_solve_per_state(ou_params):
    # the batched solve returns each state's own root, bit for bit, and h_eval follows
    states = [MarketState(cash=0.0, holdings=phi, price=math.exp(z))
              for phi, z in [(0.0, 0.5), (3.0, 1.0), (0.0, 6.0), (10.0, 2.0), (0.5, 0.01)]]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StandingAssumptionWarning)
        lams = solve_lambda_star(ou_params, states, extended=True)
        alone = [solve_lambda_star(ou_params, s, extended=True) for s in states]
        assert lams.tolist() == alone
        assert h_eval(ou_params, states, lams).tolist() == [
            h_eval(ou_params, s, lam) for s, lam in zip(states, alone)]
        with pytest.raises(RegimeError):
            solve_lambda_star(ou_params, states)  # standard mode checks every state


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
    # the root finder lands on twice the root; solve_multiplier's check must refuse it
    monkeypatch.setattr(numerics, "find_root",
                        lambda g, lo, *_, **__: np.full(len(lo), math.log(2.0 * lam)))
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
    tr = continuous._trajectory(ou_params, [sched.lambda_star], continuous._panels(ou_params))
    assert tr.j[0] == pytest.approx(ref.OU_XI_INT, rel=1e-12)
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


@pytest.mark.parametrize("extended", [False, True])
def test_schedule_inverts_once_after_the_solve(monkeypatch, ou_params, ref_state, extended):
    # the panel pin comes before the solve; once lambda* is known, one inversion on
    # the nodes and the grid
    solved, sizes = [], []
    solve, inverse = continuous.solve_lambda_star, continuous.p_inverse

    def counted_solve(*args, **kwargs):
        solved.append(solve(*args, **kwargs))
        return solved[-1]

    def counted_inverse(q, alpha):
        if solved:
            sizes.append(np.size(q))
        return inverse(q, alpha)

    monkeypatch.setattr(continuous, "solve_lambda_star", counted_solve)
    monkeypatch.setattr(continuous, "p_inverse", counted_inverse)
    state = MarketState(cash=0.0, holdings=0.0, price=math.exp(3.0)) if extended else ref_state
    schedule(ou_params, state, grid_points=400, extended=extended)
    assert len(solved) == 1
    assert len(sizes) == 1
    assert sum(size > 2 * 400 + 1 for size in sizes) == 1


@pytest.mark.parametrize("case,pins", [
    ("large", 1), ("extended", 1), ("solve", 1), ("scan3", 1), ("scan12", 1),
    ("zero_vol", 0), ("small", 0),
])
def test_one_xi_pin_per_request(monkeypatch, ou_params, zv_params, ref_state, case, pins):
    # xi* reads the model alone, so a request runs the adaptive rule at most once
    calls = []
    quad = numerics.adaptive_quad

    def counted(*args, **kwargs):
        calls.append(1)
        return quad(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if mod is not None and mod.__name__.startswith("ouexec") and \
                getattr(mod, "adaptive_quad", None) is quad:
            monkeypatch.setattr(mod, "adaptive_quad", counted)
    round_trip = MarketState(cash=0.0, holdings=0.0, price=math.exp(3.0))
    run = {
        "large": lambda: schedule(ou_params, ref_state, grid_points=100),
        "extended": lambda: schedule(ou_params, round_trip, grid_points=100, extended=True),
        "solve": lambda: solve_lambda_star(ou_params, ref_state),
        "scan3": lambda: scan(ou_params, round_trip, (1.0, 6.0), points=3, grid_points=50),
        "scan12": lambda: scan(ou_params, round_trip, (1.0, 6.0), points=12, grid_points=50),
        "zero_vol": lambda: schedule(zv_params, ref_state, grid_points=100),
        "small": lambda: schedule(ou_params, MarketState(cash=0.0, holdings=0.5, price=E),
                                  grid_points=100),
    }[case]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run()
    assert len(calls) == pins


@settings(max_examples=60, deadline=None)
@given(log_alpha=st.floats(math.log(0.1), math.log(10.0)),
       log_beta=st.floats(math.log(0.1), math.log(10.0)),
       sigma=st.floats(0.0, 1.0), t=st.floats(0.05, 1.0), gap=st.floats(0.01, 5.0),
       large=st.booleans(), scale=st.floats(1.05, 2.5))
def test_pinned_node_integrals_match_adaptive_quadrature(log_alpha, log_beta, sigma, t, gap,
                                                         large, scale):
    # large holdings, or the phi = 0 round trip in extended mode; z > 2y either way
    a, b = math.exp(log_alpha), math.exp(log_beta)
    params = ModelParams(alpha=a, beta=b, sigma=sigma, fundamental_log=0.0, horizon=t)
    y = params.y
    z = 2.0 * y + gap
    phi = max(z, 1.0 + b) / a * scale if large else 0.0
    state = MarketState(cash=0.0, holdings=phi, price=math.exp(z))
    lam = solve_lambda_star(params, state, extended=True)
    tr = continuous._row(continuous._trajectory(params, [lam], continuous._panels(params)), 0)
    w, xi, decay2 = tr.weights, tr.node_xi, tr.node_decay2
    # J, the density integral, the block-form kernel and the round-trip bound kernel
    kernels = [lambda x, d: x,
               lambda x, d: continuous._zeta(params, x, d),
               lambda x, d: x * np.exp(d * y - a * x),
               lambda x, d: np.exp(d * y - a * x)]
    # xi* = (1 - W)/alpha is rounded to about eps (1 + |W|)/alpha; where xi* is near 0
    # that floor, not the panel count, limits how well two rules can agree
    shift = 4.0 * np.finfo(float).eps * (1.0 + np.abs(1.0 - a * xi)) / a
    for k in kernels:
        pinned = np.dot(w, k(xi, decay2))
        f = lambda r: k(xi_star(params, lam, r), np.exp(-2.0 * b * r))
        adaptive, _ = adaptive_quad(f, 0.0, t, rel_tol=1e-13, abs_tol=0.0)
        floor = np.dot(w, np.abs(k(xi + shift, decay2) - k(xi, decay2)))
        # relative to the integral of |f|: xi* and zeta* change sign on round trips
        assert abs(pinned - adaptive) <= 1e-14 * np.dot(w, np.abs(k(xi, decay2))) + floor
    assert tr.j == np.dot(w, xi)


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


@pytest.mark.parametrize("params,state", [
    (ModelParams(alpha=1.0, beta=1.0, sigma=0.2, fundamental_log=0.0, horizon=1.0),
     MarketState(cash=0.0, holdings=0.5, price=E)),
    (ModelParams(alpha=0.7, beta=1.3, sigma=0.25, fundamental_log=-0.3, horizon=0.8),
     MarketState(cash=1.0, holdings=1.5, price=math.exp(1.7))),
], ids=["reference", "off_reference"])
def test_small_holdings_price_decays_the_block_impact(params, state):
    # after the block at 0 its impact alpha phi relaxes at speed beta:
    # E[S_r] = e^{F+y} exp(e^{-beta r}(z - alpha phi) - e^{-2 beta r} y), to 50 digits
    sched = schedule(params, state, grid_points=1000)
    assert sched.regime is Regime.SMALL_HOLDINGS
    with mpmath.workdps(50):
        a, b, phi = mpmath.mpf(params.alpha), mpmath.mpf(params.beta), mpmath.mpf(state.holdings)
        f = mpmath.mpf(params.fundamental_log)
        y = mpmath.mpf(params.sigma) ** 2 / (4 * b)
        z = mpmath.log(mpmath.mpf(state.price)) - f
        want = [mpmath.exp(f + y + mpmath.exp(-b * r) * (z - a * phi) - mpmath.exp(-2 * b * r) * y)
                for r in map(mpmath.mpf, sched.times.tolist())]
        gap = max(abs(mpmath.mpf(p) / w - 1) for p, w in zip(sched.expected_price.tolist(), want))
    assert gap <= 1e-14
    evaluator = expected_price_path(params, state, sched.strategy, sched.times)
    assert np.max(np.abs(sched.expected_price / evaluator - 1.0)) <= 1e-14


@pytest.mark.parametrize("grid", [400, 1000])
def test_schedule_price_is_the_evaluators_on_its_strategy(grid):
    # in every closed-form regime the price column is E[S_r] under sched.strategy; the
    # last point is excluded, as the column reads it before the terminal block
    bounds = {Regime.LARGE_HOLDINGS: 1e-9, Regime.ZERO_VOL: 2e-14, Regime.SMALL_HOLDINGS: 1e-14}
    seen = set()
    rng = np.random.default_rng(24 + grid)
    for make in (random_large_instance, random_small_instance):
        for params, state in (make(rng) for _ in range(10)):
            for p in (params, dataclasses.replace(params, sigma=0.0)):
                sched = schedule(p, state, grid_points=grid)
                evaluator = expected_price_path(p, state, sched.strategy, sched.times[:-1])
                gap = np.max(np.abs(sched.expected_price[:-1] / evaluator - 1.0))
                assert gap <= bounds[sched.regime], (sched.regime, p, state)
                seen.add(sched.regime)
    assert seen == set(bounds)


def test_gap_regime_refuses_schedule_but_values(ou_params):
    gap_state = MarketState(cash=0.25, holdings=1.5, price=E)
    with pytest.raises(RegimeError):
        schedule(ou_params, gap_state)
    v = value(ou_params, gap_state)
    assert math.isfinite(v)
    assert v > 0.25


@pytest.mark.parametrize("phi", [1.5, 3.0], ids=["gap", "large_holdings"])
def test_value_honours_tol_in_every_regime(ou_params, phi):
    # the gap fallback's multiplier solve ran at its default tolerance whatever tol was
    state = MarketState(cash=0.0, holdings=phi, price=E)
    with pytest.raises(NumericalError, match="residual"):
        value(ou_params, state, tol=1e-300)


def _schedule_bytes(sched):
    """Every field of a schedule and of its strategy: arrays as bytes, the rest as reprs."""
    *fields, strategy, extended = dataclasses.astuple(sched)
    return [v.tobytes() if isinstance(v, np.ndarray) else repr(v)
            for v in (*fields, *strategy, extended)]


@pytest.mark.parametrize("extended", [False, True])
@pytest.mark.parametrize("grid", [1, 2, 7, 400, 1000])
def test_schedule_matches_the_frozen_per_state_oracle(extended, grid):
    # schedule() builds its one state through the batch builder of the scan,
    # with the bytes of the per-state schedule the scan reference keeps
    rng = np.random.default_rng(20 + grid)
    for params, state in (random_large_instance(rng) for _ in range(8)):
        want, _ = reference_scan._schedule(params, state, grid, extended=extended)
        assert _schedule_bytes(schedule(params, state, grid, extended=extended)) == \
            _schedule_bytes(want)


def test_value_dispatch_matches_schedule(ou_params, zv_params, ref_state):
    # value() reads schedule()'s value outside the gap, bit for bit, at any grid
    rng = np.random.default_rng(11)
    small = MarketState(cash=0.0, holdings=0.5, price=E)
    cases = [(ou_params, ref_state), (zv_params, ref_state), (ou_params, small)]
    cases += [random_large_instance(rng) for _ in range(3)]
    cases += [random_small_instance(rng) for _ in range(3)]
    for params, state in cases:
        assert value(params, state) == schedule(params, state, grid_points=1000).value
    assert classify(ou_params, small) is Regime.SMALL_HOLDINGS
    assert value(zv_params, ref_state) == zero_vol.solve(zv_params, ref_state).value


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
        # a gap instance under z <= 2y is refused too, not priced by the n = 2000 fallback
        gap = MarketState(cash=0.0, holdings=1.5, price=E)
        assert classify(params, gap) is Regime.GAP
        with pytest.raises(RegimeError):
            value(params, gap)


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


@pytest.mark.parametrize("sigma", [1.2, 2.0])  # y = 360 and 1000: e^(F + y) x e^(...) overflows
def test_large_y_extended_schedule_is_a_numerical_error(sigma):
    params = ModelParams(alpha=1.0, beta=1e-3, sigma=sigma, fundamental_log=0.0, horizon=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StandingAssumptionWarning)
        with pytest.raises(NumericalError, match="float range"):
            schedule(params, MarketState(cash=0.0, holdings=3.0, price=E), extended=True)
