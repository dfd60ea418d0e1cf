import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import reference_proceeds
import reference_values as ref
from ouexec import (ConfigError, MarketState, ModelParams, NumericalError, continuous,
                    expected_proceeds, proceeds, proceeds_breakdown)
from ouexec.proceeds import expected_price_path, impact_decay_profile
from ouexec.strategy import ExecutionStrategy, assemble_optimal, initial_block


def _params(alpha=1.0, beta=1.0, sigma=0.2, F=0.0, t=1.0):
    return ModelParams(alpha=alpha, beta=beta, sigma=sigma,
                       fundamental_log=F, horizon=t)


def test_pure_block_matches_closed_form():
    # selling phi at time zero realizes s*(1 - e^{-alpha*phi})/alpha
    params = _params(sigma=0.3, F=math.log(10.0))
    state = MarketState(cash=0.0, holdings=0.5, price=10.0)
    val = expected_proceeds(params, state, initial_block(0.5, cells=8))
    assert val == pytest.approx(ref.SMALL_HOLDINGS_VALUE, rel=1e-14)


def test_starting_cash_enters_additively():
    params = _params()
    s1 = MarketState(cash=0.0, holdings=1.0, price=2.0)
    s2 = MarketState(cash=7.5, holdings=1.0, price=2.0)
    strat = initial_block(1.0, cells=4)
    assert expected_proceeds(params, s2, strat) == pytest.approx(
        expected_proceeds(params, s1, strat) + 7.5, rel=1e-15)


def test_zero_strategy_returns_cash():
    params = _params()
    state = MarketState(cash=3.25, holdings=2.0, price=1.0)
    empty = ExecutionStrategy(impulses=(), density=np.zeros(5), horizon=1.0)
    assert expected_proceeds(params, state, empty) == 3.25
    b = proceeds_breakdown(params, state, empty)
    assert b.total == b.initial_block_value == b.gradual_value == 0.0


def test_no_impact_block_is_price_times_size():
    params = _params(alpha=0.0)
    state = MarketState(cash=0.0, holdings=2.0, price=3.0)
    val = expected_proceeds(params, state, initial_block(2.0, cells=4))
    assert val == pytest.approx(6.0, rel=1e-15)


def test_constant_rate_against_independent_quadrature():
    # sigma = 0, z = 0: E[S_r] = exp(F - D_r) with D_r = alpha*zeta*(1-e^{-beta r})/beta
    alpha, beta, zeta, F = 1.3, 0.8, 0.7, 0.2
    params = _params(alpha=alpha, beta=beta, sigma=0.0, F=F)
    state = MarketState(cash=0.0, holdings=2.0, price=math.exp(F))

    def integrand(r):
        d = alpha * zeta * (1.0 - math.exp(-beta * r)) / beta
        return zeta * math.exp(F - d)

    oracle, err = quad(integrand, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13)
    strat = ExecutionStrategy(impulses=(), density=np.full(10, zeta), horizon=1.0)
    val = expected_proceeds(params, state, strat)
    assert val == pytest.approx(oracle, rel=1e-11)


def test_ou_constant_rate_against_independent_quadrature():
    # full formula: E[S_r] = e^{F+y} exp(e^{-br}z - e^{-2br}y - D_r)
    alpha, beta, sigma, F, z, zeta = 0.9, 1.2, 0.4, -0.1, 0.6, 0.5
    y = sigma * sigma / (4.0 * beta)
    params = _params(alpha=alpha, beta=beta, sigma=sigma, F=F)
    state = MarketState(cash=0.0, holdings=1.0, price=math.exp(F + z))

    def integrand(r):
        d = alpha * zeta * (1.0 - math.exp(-beta * r)) / beta
        return zeta * math.exp(F + y) * math.exp(
            math.exp(-beta * r) * z - math.exp(-2.0 * beta * r) * y - d)

    oracle, _ = quad(integrand, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13)
    strat = ExecutionStrategy(impulses=(), density=np.full(16, zeta), horizon=1.0)
    assert expected_proceeds(params, state, strat) == pytest.approx(oracle, rel=1e-11)


def test_colocated_block_split_is_invariant():
    # selling p as one block or as two back-to-back blocks at the same time
    # must price identically: bf(p1) + e^{-a p1} bf(p2) = bf(p1+p2)
    params = _params()
    state = MarketState(cash=0.0, holdings=3.0, price=2.0)
    one = ExecutionStrategy(impulses=((0.3, 1.5),), density=np.zeros(10), horizon=1.0)
    two = ExecutionStrategy(impulses=((0.3, 0.9), (0.3, 0.6)), density=np.zeros(10),
                            horizon=1.0)
    assert expected_proceeds(params, state, one) == pytest.approx(
        expected_proceeds(params, state, two), rel=1e-14)


def test_breakdown_components_sum():
    params = _params()
    state = MarketState(cash=0.0, holdings=4.0, price=2.0)
    strat = assemble_optimal(1.0, np.full(8, 0.5), 1.5, 1.0)
    b = proceeds_breakdown(params, state, strat)
    assert b.total == pytest.approx(
        b.initial_block_value + b.gradual_value + b.terminal_block_value, rel=1e-15)
    assert b.initial_block_value > 0 and b.gradual_value > 0 and b.terminal_block_value > 0


def test_overselling_rejected_in_standard_mode():
    params = _params()
    state = MarketState(cash=0.0, holdings=1.0, price=1.0)
    with pytest.raises(ConfigError):
        expected_proceeds(params, state, initial_block(1.1, cells=4))


def test_extended_round_trip_allowed():
    params = _params()
    state = MarketState(cash=0.0, holdings=0.0, price=1.0)
    rt = ExecutionStrategy(impulses=((0.0, 1.0), (1.0, -1.0)), density=np.zeros(4),
                           horizon=1.0, extended_mode=True)
    val = expected_proceeds(params, state, rt)
    assert math.isfinite(val)


def test_price_path_reacts_to_blocks_then_recovers():
    params = _params(sigma=0.0)  # z = 0 keeps reversion out of the way
    state = MarketState(cash=0.0, holdings=2.0, price=1.0)
    strat = ExecutionStrategy(impulses=((0.0, 1.0),), density=np.zeros(10), horizon=1.0)
    times = np.array([0.0, 0.25, 0.5, 1.0])
    prices = expected_price_path(params, state, strat, times)
    assert prices[0] == pytest.approx(math.exp(-1.0), rel=1e-12)  # post-block
    assert np.all(np.diff(prices) > 0.0)  # impact decays back toward 1
    assert prices[-1] < 1.0


def test_price_path_without_trading_matches_ou_mean(zv_params, ou_params):
    state = MarketState(cash=0.0, holdings=0.0, price=math.e)
    empty = ExecutionStrategy(impulses=(), density=np.zeros(4), horizon=1.0)
    times = np.linspace(0.0, 1.0, 7)
    for params in (zv_params, ou_params):
        y = params.sigma ** 2 / (4.0 * params.beta)
        expect = np.exp(y) * np.exp(np.exp(-times) * 1.0 - np.exp(-2.0 * times) * y)
        got = expected_price_path(params, state, empty, times)
        assert got == pytest.approx(expect, rel=1e-13)


def test_impact_decay_profile_block_and_rate():
    alpha, beta = 1.5, 0.7
    params = _params(alpha=alpha, beta=beta)
    strat = ExecutionStrategy(impulses=((0.0, 2.0),), density=np.full(10, 0.3),
                              horizon=1.0)
    r = np.array([0.0, 0.4, 1.0])
    d = impact_decay_profile(params, strat, r)
    manual = alpha * 2.0 * np.exp(-beta * r) + alpha * 0.3 * (1 - np.exp(-beta * r)) / beta
    assert d == pytest.approx(manual, rel=1e-12)
    assert impact_decay_profile(params, strat, 0.4) == pytest.approx(manual[1], rel=1e-12)


@pytest.mark.parametrize("beta", [1e-4, 1e-3, 1e-2, 0.1, 1.0])
@pytest.mark.parametrize("grid", [400, 1000])
def test_impact_decay_profile_constant_rate_closed_form(beta, grid):
    # D_r = alpha zeta (1 - e^{-beta r}) / beta; with 1.0 - c in the recurrence
    # D was 1.7e-11 relative off at beta = 1e-3
    alpha, zeta = 1.3, 0.7
    strat = assemble_optimal(0.0, np.full(grid, zeta), 0.0, 1.0)
    r = np.linspace(0.0, 1.0, 41)[1:]
    exact = alpha * zeta * -np.expm1(-beta * r) / beta
    d = impact_decay_profile(_params(alpha=alpha, beta=beta), strat, r)
    assert np.max(np.abs(d - exact) / exact) <= 5e-14


def test_quadrature_order_insensitivity():
    # the reference cell loop at twice the rule order moves a smooth instance below 1e-9 rel
    params = _params(sigma=0.25)
    state = MarketState(cash=0.0, holdings=3.0, price=2.0)
    strat = assemble_optimal(0.8, np.linspace(0.2, 0.9, 50), 0.7, 1.0)
    v20 = expected_proceeds(params, state, strat)
    v40 = state.cash + math.fsum(reference_proceeds.scan(params, state, strat, order=40)[0])
    assert abs(v40 - v20) <= 1e-9 * abs(v40)


@settings(max_examples=30)
@given(p=st.floats(0.0, 1.0), q=st.floats(0.0, 1.0), rate=st.floats(0.0, 1.0),
       sigma=st.floats(0.0, 0.5), beta=st.floats(0.3, 2.0))
def test_proceeds_bounded_by_undepressed_price(p, q, rate, sigma, beta):
    # impact only hurts: proceeds can never exceed total_sold * sup_r E[S_r^{no impact}]
    params = _params(alpha=1.0, beta=beta, sigma=sigma, F=0.0)
    state = MarketState(cash=0.0, holdings=p + q + rate + 1.0, price=1.5)
    strat = assemble_optimal(p, np.full(6, rate), q, 1.0)
    val = expected_proceeds(params, state, strat)
    y = sigma * sigma / (4.0 * beta)
    z = math.log(1.5)
    times = np.linspace(0.0, 1.0, 200)
    sup_price = float(np.max(np.exp(y) * np.exp(np.exp(-beta * times) * z
                                                - np.exp(-2.0 * beta * times) * y)))
    sold = p + q + rate
    assert val <= sold * sup_price + 1e-9


@pytest.mark.parametrize("times", [[-5.0, 0.0, 0.5], [0.0, math.nan], [0.5, 0.2],
                                   [0.0, 1.5], [math.inf], -1e-9])
def test_sample_times_are_validated(times):
    params = _params()
    state = MarketState(cash=0.0, holdings=2.0, price=1.0)
    strat = ExecutionStrategy(impulses=((0.0, 1.0),), density=np.full(4, 0.2), horizon=1.0)
    with pytest.raises(ConfigError):
        expected_price_path(params, state, strat, times)
    with pytest.raises(ConfigError):
        impact_decay_profile(params, strat, times)


def _check_against_reference(params, state, strat, times):
    # only the summation order differs from the loop, so the bound on the parts
    # scales with the magnitude of the terms summed: opposite blocks cancel
    parts, magnitude, prices, impacts = reference_proceeds.scan(params, state, strat, times)
    got = proceeds_breakdown(params, state, strat)
    for want, have in zip(parts, (got.initial_block_value, got.gradual_value,
                                  got.terminal_block_value)):
        assert abs(have - want) <= 1e-14 * magnitude
    assert np.all(np.abs(expected_price_path(params, state, strat, times) - prices)
                  <= 1e-14 * np.abs(prices))
    assert np.all(np.abs(impact_decay_profile(params, strat, times) - impacts)
                  <= 1e-14 * np.abs(impacts))


@st.composite
def _timelines(draw):
    """Strategies with off-grid, colocated and near-edge blocks, and sample times."""
    cells = draw(st.integers(1, 40))
    t = draw(st.floats(0.05, 1.0))
    w = t / cells
    rate = st.one_of(st.just(0.0), st.floats(-2.0, 2.0))
    near = st.one_of(st.sampled_from([0.0, -1e-12, 1e-12, -2e-12, 2e-12]),
                     st.floats(-2e-12, 2e-12))
    imps = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["free", "edge", "again"]))
        if kind == "free":
            r = draw(st.floats(0.0, t))
        elif kind == "edge":
            r = draw(st.integers(0, cells)) * w + draw(near)
        else:
            r = imps[-1][0] if imps else 0.0
        imps.append((min(max(r, 0.0), t), draw(st.floats(-2.0, 2.0))))
    strat = ExecutionStrategy(impulses=tuple(imps),
                              density=draw(st.lists(rate, min_size=cells, max_size=cells)),
                              horizon=t, extended_mode=True)
    free = draw(st.lists(st.floats(0.0, t), max_size=6))
    times = np.sort(np.array(free + [r for r, _ in imps] + [0.0, t]))
    params = ModelParams(alpha=draw(st.floats(0.0, 3.0)),
                         beta=10.0 ** draw(st.floats(-2.0, 3.0)),
                         sigma=draw(st.floats(0.0, 1.0)),
                         fundamental_log=draw(st.floats(-0.5, 0.5)), horizon=t)
    state = MarketState(cash=0.0, holdings=1e6, price=draw(st.floats(0.5, 3.0)))
    return params, state, strat, times


@settings(max_examples=300)
@given(case=_timelines())
def test_matches_the_cell_loop(case):
    _check_against_reference(*case)


@pytest.mark.parametrize("extended", [False, True])
@pytest.mark.parametrize("grid", [400, 1000])
def test_schedules_match_the_cell_loop(extended, grid):
    params = _params(sigma=0.3)
    if extended:  # a buy-back round trip from a flat book, as the manipulation scan prices
        state = MarketState(cash=0.0, holdings=0.0, price=math.exp(2.5))
        strat = continuous.schedule(params, state, grid_points=grid, extended=True).strategy
    else:
        state = MarketState(cash=0.0, holdings=3.0, price=math.e)
        strat = continuous.schedule(params, state, grid_points=grid).strategy
    _check_against_reference(params, state, strat, np.linspace(0.0, 1.0, 9))


def _evaluation_bytes(evaluator, params, state, strat, times):
    """The bytes of the four breakdown fields, the price path and the impact profile."""
    breakdown, price_path, decay_profile = evaluator
    b = breakdown(params, state, strat)
    fields = (b.initial_block_value, b.gradual_value, b.terminal_block_value, b.total)
    return ([np.float64(v).tobytes() for v in fields],
            price_path(params, state, strat, times).tobytes(),
            np.atleast_1d(decay_profile(params, strat, times)).tobytes())


_PACKAGE = (proceeds_breakdown, expected_price_path, impact_decay_profile)
_ONE_TABLE_PER_CALL = (reference_proceeds.breakdown, reference_proceeds.price_path,
                       reference_proceeds.decay_profile)


@settings(max_examples=300)
@given(case=_timelines())
def test_shared_tables_keep_the_bytes_of_one_table_per_call(case):
    # a twin on the same grid with the same impulse times has the same table key
    params, state, strat, times = case
    twin = ExecutionStrategy(impulses=tuple((r, 0.5 - p) for r, p in strat.impulses),
                             density=strat.density[::-1] * 0.5, horizon=strat.horizon,
                             extended_mode=True)
    want = [_evaluation_bytes(_ONE_TABLE_PER_CALL, params, state, s, times)
            for s in (strat, twin)]
    assert [_evaluation_bytes(_PACKAGE, params, state, s, times) for s in (strat, twin)] == want
    with proceeds._sharing():
        got = [_evaluation_bytes(_PACKAGE, params, state, s, times) for s in (strat, twin, strat)]
    assert got == want + want[:1]


def test_sharing_scope_keys_tables_by_impulse_times(monkeypatch):
    # A, B, A in one scope: B (p* = 0, no initial block) gets its own table, A reuses its own
    built = []

    class Counted(proceeds._Table):
        def __init__(self, *args):
            built.append(args[1].impulses)
            super().__init__(*args)

    params = _params(sigma=0.3)
    state = MarketState(cash=0.0, holdings=0.0, price=math.exp(2.5))
    a = continuous.schedule(params, state, grid_points=400, extended=True).strategy
    assert [r for r, _ in a.impulses] == [0.0, 1.0]
    b = assemble_optimal(0.0, a.density, a.impulses[1][1], 1.0, extended_mode=True)
    wide = MarketState(cash=0.0, holdings=1e6, price=state.price)  # B alone oversells a flat book
    times = np.linspace(0.0, 1.0, 9)
    want = [_evaluation_bytes(_PACKAGE, params, wide, s, times) for s in (a, b)]
    monkeypatch.setattr(proceeds, "_Table", Counted)
    with proceeds._sharing():
        got = [_evaluation_bytes(_PACKAGE, params, wide, s, times) for s in (a, b, a)]
        assert len(proceeds._SHARED.get()) == 2
    assert got == want + want[:1]
    assert built == [a.impulses, b.impulses]
    assert proceeds._SHARED.get(None) is None


def test_sharing_scope_ends_when_its_body_raises():
    # y = 1000: e^{F+y} overflows, and the scope's tables go with the error
    params = ModelParams(alpha=1.0, beta=1e-3, sigma=2.0, fundamental_log=0.0, horizon=1.0)
    state = MarketState(cash=0.0, holdings=1.0, price=1.0)
    with pytest.raises(NumericalError, match="float range"):
        with proceeds._sharing():
            proceeds_breakdown(_params(), state, initial_block(1.0, cells=8))
            assert len(proceeds._SHARED.get()) == 1
            proceeds_breakdown(params, state, initial_block(1.0, cells=8))
    assert proceeds._SHARED.get(None) is None
    assert proceeds_breakdown(_params(), state, initial_block(1.0, cells=8)).total > 0.0
