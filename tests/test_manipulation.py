import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_scan
import reference_values as ref
from ouexec import (ConfigError, MarketState, ModelParams, NumericalError, RegimeError,
                    StandingAssumptionWarning, continuous, expected_proceeds, manipulation,
                    proceeds)
from ouexec.continuous import schedule
from ouexec.manipulation import l_eval, l_root, round_trip_profit_bound, scan


def _params(sigma=0.2):
    return ModelParams(alpha=1.0, beta=1.0, sigma=sigma, fundamental_log=0.0,
                       horizon=1.0)


def _state(z, phi=0.0):
    return MarketState(cash=0.0, holdings=phi, price=math.exp(z))


def test_l_eval_landmarks():
    assert l_eval(0.0) == pytest.approx(ref.L_AT_0, rel=1e-14)
    assert abs(l_eval(100.0) - 1.0) <= 1e-10
    zs = np.array([0.0, 1.0, 5.0, 20.0])
    vals = l_eval(zs)
    assert vals.shape == (4,)
    assert vals[0] < 0.0 < vals[2] < vals[3] < 1.0


def test_l_root_matches_reference():
    root = l_root()
    assert root == pytest.approx(ref.L_ROOT, abs=1e-10)
    assert l_eval(root - 0.05) < 0.0 < l_eval(root + 0.05)


def test_l_root_requires_bracket():
    with pytest.raises(ConfigError):
        l_root(lo=10.0, hi=50.0)  # L > 0 on the whole interval


def test_round_trip_bound_reference_instance():
    rtb = round_trip_profit_bound(_params(), _state(10.0))
    assert rtb.lambda_star == pytest.approx(ref.ROUND_TRIP_LAMBDA_Z10, rel=1e-11)
    assert rtb.bound == pytest.approx(ref.ROUND_TRIP_BOUND_Z10, rel=1e-11)
    assert rtb.weak_bound == pytest.approx(ref.ROUND_TRIP_WEAK_BOUND_Z10, rel=1e-12)
    assert rtb.bound >= rtb.weak_bound


def test_round_trip_bound_requires_flat_book():
    with pytest.raises(ConfigError):
        round_trip_profit_bound(_params(), _state(5.0, phi=1.0))


def test_extended_schedule_signs_at_large_z():
    sched = schedule(_params(), _state(6.0), grid_points=400, extended=True)
    assert sched.extended
    assert sched.p_star > 0.0
    assert sched.q_star < 0.0  # terminal buy-back closes the round trip
    total = sched.p_star + sched.density_integral + sched.q_star
    assert total == pytest.approx(0.0, abs=1e-9)


def test_extended_matches_standard_inside_large_holdings(ou_params, ref_state):
    std = schedule(ou_params, ref_state, grid_points=200)
    ext = schedule(ou_params, ref_state, grid_points=200, extended=True)
    assert ext.lambda_star == pytest.approx(std.lambda_star, rel=1e-12)
    assert ext.p_star == pytest.approx(std.p_star, rel=1e-12)
    assert ext.q_star == pytest.approx(std.q_star, rel=1e-12)
    assert ext.value == pytest.approx(std.value, rel=1e-13)


@pytest.mark.parametrize("z,phi,grid", [(0.05, 0.0, 2000), (3.0, 0.0, 1500),
                                        (2.0, 1.5, 1500)])
def test_realized_strategy_attains_closed_form(z, phi, grid):
    # evaluator value of the concrete extended strategy reaches the closed
    # form up to the 1e-8 realization allowance
    params = _params()
    state = _state(z, phi=phi)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sched = schedule(params, state, grid_points=grid, extended=True)
    got = expected_proceeds(params, state, sched.strategy)
    assert got >= sched.value - 1e-8
    assert got <= sched.value + 1e-8  # and never exceeds the optimum


def test_scan_reference_window():
    params = _params()
    rep = scan(params, _state(0.0), (0.0, 10.0), points=12, grid_points=200)
    assert rep.z_values.shape == (12,)
    assert rep.z_values[0] == 0.0 and rep.z_values[-1] == 10.0
    s_over_alpha = np.exp(rep.z_values)
    # the quadrature bound dominates the displayed weak bound everywhere
    assert np.all(rep.profit_bounds >= s_over_alpha * rep.l_values - 1e-9)
    # verified profits track the bound from below (realization gap only)
    assert np.all(rep.verified_profits <= rep.profit_bounds + 1e-8)
    assert np.all(rep.verified_profits >= rep.profit_bounds
                  - 1e-6 * np.maximum(1.0, rep.profit_bounds))
    assert rep.first_profitable_z is not None
    # monotone tail: profits stay positive above the threshold
    above = rep.z_values >= rep.first_profitable_z
    assert np.all(rep.verified_profits[above] > 0.0)


def test_scan_low_window_profitable_under_volatility():
    # with y > 0 even tiny gaps admit certified round trips: the expected
    # price rises by e^{y(1-e^{-2 beta t})} over the horizon, which a small
    # sell-late round trip captures at first order while paying impact at
    # second order. The weak L(z) bound stays negative here; the exact
    # bound and the evaluator both certify the profit.
    params = _params()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = scan(params, _state(0.0), (0.1, 1.0), points=6, grid_points=200)
    assert np.all(rep.l_values < 0.0)
    assert np.all(rep.profit_bounds > 0.0)
    assert np.all(rep.verified_profits > 0.0)
    assert rep.first_profitable_z == pytest.approx(0.1)


def test_scan_solves_every_multiplier_in_one_call(monkeypatch):
    # one solve over all points, on the one pin the scan took for the model
    calls = []
    solve = continuous.solve_lambda_star

    def counted(params, state, **kwargs):
        calls.append((len(state), kwargs.get("extended"), kwargs.get("panels")))
        return solve(params, state, **kwargs)

    monkeypatch.setattr(continuous, "solve_lambda_star", counted)
    scan(_params(), _state(0.0), (1.0, 6.0), points=5, grid_points=100)
    assert calls == [(5, True, continuous._panels(_params()))]


def test_scan_bound_reads_the_schedule_trajectory(monkeypatch):
    # one solve for all points, then one inversion per block of points; the bound inverts nothing
    solves, sizes, bound_inversions = [], [], []
    solve, inverse, bound_at = (continuous.solve_lambda_star, continuous.p_inverse,
                                manipulation._bound_at)

    def counted_solve(*args, **kwargs):
        solves.append(solve(*args, **kwargs))  # the solve's own inversions are not counted
        return solves[-1]

    def counted_inverse(q, alpha):
        if solves:
            sizes.append(np.shape(q))
        return inverse(q, alpha)

    def counted_bound(*args):
        before = len(sizes)
        out = bound_at(*args)
        bound_inversions.append(len(sizes) - before)
        return out

    monkeypatch.setattr(continuous, "solve_lambda_star", counted_solve)
    monkeypatch.setattr(continuous, "p_inverse", counted_inverse)
    monkeypatch.setattr(manipulation, "_bound_at", counted_bound)
    for points in (manipulation._BLOCK, manipulation._BLOCK + 3):  # one block, and two
        for log in (solves, sizes, bound_inversions):
            log.clear()
        scan(_params(), _state(0.0), (1.0, 6.0), points=points, grid_points=400)
        assert len(solves) == 1 and solves[0].shape == (points,)
        assert bound_inversions == [0] * points
        blocks = range(0, points, manipulation._BLOCK)
        assert [rows for rows, _ in sizes] == [min(manipulation._BLOCK, points - b) for b in blocks]
        assert all(samples > 2 * 400 + 1 for _, samples in sizes)  # the grid, midpoints and nodes


def test_scan_prices_every_point_on_one_segment_table(monkeypatch):
    # every point's strategy has blocks at 0 and t on one grid; the table goes with the scan
    built = []

    class Counted(proceeds._Table):
        def __init__(self, *args):
            built.append(args[1].impulses)
            super().__init__(*args)

    monkeypatch.setattr(proceeds, "_Table", Counted)
    calls = []
    evaluate = manipulation.expected_proceeds
    monkeypatch.setattr(manipulation, "expected_proceeds",
                        lambda *args: calls.append(1) or evaluate(*args))
    scan(_params(), _state(0.0), (0.5, 10.0), points=10, grid_points=400)
    assert len(calls) == 10 and len(built) == 1
    assert [r for r, _ in built[0]] == [0.0, 1.0]
    assert proceeds._SHARED.get(None) is None


@pytest.mark.parametrize("sigma,z_range", [(0.2, (0.5, 10.0)), (0.35, (0.0, 4.0)),
                                           (0.1, (-0.5, 3.0))])
def test_scan_points_equal_the_single_state_path(sigma, z_range):
    # the batched solve leaves each point with the bits of the public one-state calls
    params = _params(sigma)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StandingAssumptionWarning)
        rep = scan(params, _state(0.0), z_range, points=7)
        for i, z in enumerate(rep.z_values):
            st = _state(float(z))
            assert rep.profit_bounds[i] == round_trip_profit_bound(params, st).bound
            sched = schedule(params, st, 400, extended=True)
            assert rep.verified_profits[i] == expected_proceeds(params, st, sched.strategy)


def _scan_outcome(scan_fn, *args, **kwargs):
    """("ok", the report's bytes) or ("raised", the error type), then the warnings raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            rep = scan_fn(*args, **kwargs)
        except (ConfigError, NumericalError, RegimeError) as exc:  # the scans must fail alike
            outcome = ("raised", type(exc))
        else:
            outcome = ("ok", [a.tobytes() for a in (rep.z_values, rep.l_values, rep.profit_bounds,
                                                    rep.verified_profits)],
                       repr(rep.first_profitable_z))
    return outcome, sorted((w.category.__name__, str(w.message)) for w in caught)


@settings(max_examples=40)
@given(sigma=st.one_of(st.just(0.0), st.floats(0.05, 0.8)),
       alpha=st.floats(0.3, 3.0), beta=st.floats(0.2, 5.0), horizon=st.floats(0.2, 1.0),
       lo=st.floats(-1.5, 2.0), width=st.floats(0.3, 6.0),
       points=st.integers(2, 3 * manipulation._BLOCK + 1), grid=st.integers(1, 400))
@example(sigma=0.0, alpha=1.0, beta=1.0, horizon=1.0, lo=-1.0, width=4.0,
         points=manipulation._BLOCK + 1, grid=1)
@example(sigma=0.2, alpha=1.0, beta=1.0, horizon=1.0, lo=0.0, width=10.0,
         points=2 * manipulation._BLOCK, grid=400)
def test_scan_matches_the_per_point_loop(sigma, alpha, beta, horizon, lo, width, points, grid):
    # the blocked scan gives every output the bytes of one schedule per point
    params = ModelParams(alpha=alpha, beta=beta, sigma=sigma, fundamental_log=0.3,
                         horizon=horizon)
    args = (params, MarketState(cash=0.5, holdings=0.0, price=1.0), (lo, lo + width))
    want = _scan_outcome(reference_scan.scan, *args, points=points, grid_points=grid)
    assert _scan_outcome(scan, *args, points=points, grid_points=grid) == want


@pytest.mark.parametrize("z_range", [(0.5, 800.0), (0.5, math.inf), (-math.inf, 1.0)])
def test_scan_window_beyond_the_float_range_is_config_error(z_range):
    # e^{F+z} overflowed math.exp, and an infinite end reached numpy's warnings first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="z"):
            scan(_params(), _state(0.0), z_range, points=5)


def test_scan_requires_flat_book():
    with pytest.raises(ConfigError):
        scan(_params(), _state(1.0, phi=2.0), (0.0, 5.0), points=4)


@pytest.mark.parametrize("grid_points", [0, -3, 2.5])
def test_scan_rejects_bad_grid_points_before_solving(monkeypatch, grid_points):
    def solve(*args, **kwargs):
        raise AssertionError("the multiplier solve ran before grid_points was checked")

    monkeypatch.setattr(continuous, "solve_lambda_star", solve)
    with pytest.raises(ConfigError, match="grid_points"):
        scan(_params(), _state(0.0), (1.0, 6.0), points=5, grid_points=grid_points)


@pytest.mark.parametrize("sigma", [1.2, 2.0])  # y = 360 (the parent's bound was inf), y = 1000
def test_large_y_bound_is_a_numerical_error(sigma):
    params = ModelParams(alpha=1.0, beta=1e-3, sigma=sigma, fundamental_log=0.0, horizon=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StandingAssumptionWarning)
        with pytest.raises(NumericalError, match="float range"):
            round_trip_profit_bound(params, _state(1.0))
        with pytest.raises(NumericalError, match="float range"):
            scan(params, _state(0.0), (0.5, 3.0), points=manipulation._BLOCK + 1)
