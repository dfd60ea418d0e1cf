import collections
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_montecarlo
from ouexec import ConfigError, MarketState, ModelParams, expected_proceeds, montecarlo, simulate
from ouexec.continuous import schedule
from ouexec.discrete import discrete_value, recover_psi, solve_lambda_hat
from ouexec.strategy import ExecutionStrategy, assemble_optimal, period_blocks


def test_sigma_zero_is_exact(zv_params, ref_state):
    sched = schedule(zv_params, ref_state, grid_points=500)
    rep = simulate(zv_params, ref_state, sched.strategy, paths=10, steps=500, seed=0)
    assert rep.paths == 1  # deterministic dynamics collapse to one path
    assert rep.std_error == 0.0
    target = expected_proceeds(zv_params, ref_state, sched.strategy)
    assert abs(rep.mean_cash - target) <= 1e-9 * max(1.0, abs(target))


def test_mean_within_three_standard_errors(ou_params, ref_state):
    sched = schedule(ou_params, ref_state, grid_points=500)
    rep = simulate(ou_params, ref_state, sched.strategy,
                   paths=20_000, steps=500, seed=1)
    target = expected_proceeds(ou_params, ref_state, sched.strategy)
    assert rep.std_error > 0.0
    assert abs(rep.mean_cash - target) <= 3.0 * rep.std_error


def test_bitwise_reproducible(ou_params, ref_state):
    sched = schedule(ou_params, ref_state, grid_points=100)
    a = simulate(ou_params, ref_state, sched.strategy, paths=500, steps=200, seed=9)
    b = simulate(ou_params, ref_state, sched.strategy, paths=500, steps=200, seed=9)
    c = simulate(ou_params, ref_state, sched.strategy, paths=500, steps=200, seed=10)
    assert a.mean_cash == b.mean_cash and a.std_error == b.std_error
    assert c.mean_cash != a.mean_cash


def test_zero_strategy_returns_cash(ou_params):
    state = MarketState(cash=1.75, holdings=1.0, price=2.0)
    empty = ExecutionStrategy(impulses=(), density=np.zeros(10), horizon=1.0)
    rep = simulate(ou_params, state, empty, paths=300, steps=100, seed=0)
    assert rep.mean_cash == 1.75
    assert rep.std_error == 0.0


def test_no_impact_run_matches_evaluator():
    # alpha = 0: the dynamics ignore the trades; cross-check stays within 3 SE
    params = ModelParams(alpha=0.0, beta=1.0, sigma=0.3, fundamental_log=0.0,
                         horizon=1.0)
    state = MarketState(cash=0.0, holdings=2.0, price=1.5)
    strat = assemble_optimal(0.5, np.full(50, 1.0), 0.5, 1.0)
    rep = simulate(params, state, strat, paths=20_000, steps=500, seed=4)
    target = expected_proceeds(params, state, strat)
    assert abs(rep.mean_cash - target) <= 3.0 * rep.std_error


def test_interior_block_handled(ou_params):
    state = MarketState(cash=0.0, holdings=2.0, price=2.0)
    strat = ExecutionStrategy(impulses=((0.5, 1.0),), density=np.full(20, 0.5),
                              horizon=1.0)
    rep = simulate(ou_params, state, strat, paths=20_000, steps=400, seed=2)
    target = expected_proceeds(ou_params, state, strat)
    assert abs(rep.mean_cash - target) <= 3.0 * rep.std_error


def test_steps_must_align_with_cells(ou_params, ref_state):
    strat = ExecutionStrategy(impulses=(), density=np.full(30, 0.5), horizon=1.0)
    with pytest.raises(ConfigError):
        simulate(ou_params, ref_state, strat, paths=10, steps=100, seed=0)


@pytest.mark.parametrize("knob", [{"paths": 2.5}, {"paths": True}, {"steps": 10.0},
                                  {"paths": 0}, {"steps": 0}])
def test_paths_and_steps_must_be_positive_integers(ou_params, ref_state, knob):
    strat = ExecutionStrategy(impulses=(), density=np.full(10, 0.5), horizon=1.0)
    kwargs = {"paths": 10, "steps": 100, "seed": 0, **knob}
    with pytest.raises(ConfigError):
        simulate(ou_params, ref_state, strat, **kwargs)


@pytest.mark.parametrize("seed", [-1, True, 1.0, "3"])
def test_seed_must_be_a_nonnegative_integer(ou_params, zv_params, ref_state, seed):
    strat = ExecutionStrategy(impulses=(), density=np.full(10, 0.5), horizon=1.0)
    for params in (ou_params, zv_params):  # also where no generator is drawn from
        with pytest.raises(ConfigError):
            simulate(params, ref_state, strat, paths=10, steps=100, seed=seed)


def test_discrete_simulation_within_three_se(ou_params, ref_state):
    n = 10
    lam = solve_lambda_hat(ou_params, ref_state, n)
    psi = recover_psi(ou_params, ref_state, n, lam)
    rep = simulate(ou_params, ref_state, period_blocks(psi, n), paths=30_000,
                   steps=psi.size, seed=5)
    target = discrete_value(ou_params, ref_state, psi, n)
    assert abs(rep.mean_cash - target) <= 3.0 * rep.std_error


def test_discrete_simulation_sigma_zero_exact(zv_params, ref_state):
    psi = np.array([1.2, 0.9, 0.9])
    rep = simulate(zv_params, ref_state, period_blocks(psi, 3), paths=10,
                   steps=psi.size, seed=0)
    target = discrete_value(zv_params, ref_state, psi, 3)
    assert abs(rep.mean_cash - target) <= 1e-12 * max(1.0, abs(target))
    assert rep.std_error == 0.0


def test_integer_cash_is_accepted(ou_params, zv_params):
    # cash=0 (a Python int) must not fix the accumulator's dtype to int64
    state = MarketState(cash=0, holdings=3.0, price=math.e)
    strat = assemble_optimal(1.0, np.full(10, 1.0), 1.0, 1.0)
    rep = simulate(ou_params, state, strat, paths=200, steps=100, seed=0)
    assert math.isfinite(rep.mean_cash) and rep.mean_cash > 0.0
    exact = simulate(zv_params, state, strat, paths=1, steps=100, seed=0)
    assert exact.mean_cash == pytest.approx(
        expected_proceeds(zv_params, state, strat), rel=1e-9)
    disc = simulate(ou_params, state, period_blocks(np.array([1.0, 1.0, 1.0]), 3),
                    paths=200, steps=3, seed=0)
    assert math.isfinite(disc.mean_cash) and disc.mean_cash > 0.0


@st.composite
def _instances(draw):
    """A model, a state and a strategy on whole cells, with steps a multiple of the cells."""
    sigma = draw(st.sampled_from([0.0, 0.05, 0.2, 0.6]))
    params = ModelParams(alpha=draw(st.floats(0.0, 2.0)), beta=draw(st.floats(0.1, 3.0)),
                         sigma=sigma, fundamental_log=draw(st.floats(-0.5, 0.5)),
                         horizon=draw(st.sampled_from([1.0, 0.6, 0.25])))
    state = MarketState(cash=draw(st.floats(-1.0, 1.0)), holdings=3.0,
                        price=math.exp(draw(st.floats(-0.5, 1.5))))
    if draw(st.booleans()):  # verify's gap path: one block per period, no rate
        n = draw(st.integers(1, 8))
        psi = draw(st.lists(st.floats(-0.5, 1.5), min_size=n, max_size=n))
        return params, state, period_blocks(np.array(psi), n), n * draw(st.integers(1, 8))
    cells = draw(st.integers(1, 12))
    steps = cells * draw(st.integers(1, 8))
    t = params.horizon
    times = [0.0, t, t * draw(st.integers(1, steps)) / steps, draw(st.floats(0.0, t))]
    blocks = draw(st.lists(st.tuples(st.sampled_from(times), st.floats(0.0, 1.0)), max_size=3))
    rates = draw(st.lists(st.sampled_from([0.0, 0.4, 1.3, 2.0]), min_size=cells, max_size=cells))
    strat = ExecutionStrategy(impulses=tuple(blocks), density=np.array(rates), horizon=t)
    return params, state, strat, steps


@settings(max_examples=120)
@given(inst=_instances(), paths=st.integers(1, 300), seed=st.integers(0, 2**32))
def test_buffered_loop_matches_the_per_step_loop(inst, paths, seed):
    params, state, strat, steps = inst
    rep = simulate(params, state, strat, paths=paths, steps=steps, seed=seed)
    mean, se = reference_montecarlo.simulate(params, state, strat, paths, steps, seed)
    assert (rep.mean_cash.hex(), rep.std_error.hex()) == (mean.hex(), se.hex())


def test_reference_instance_mean_is_frozen(ou_params, ref_state):
    # the one fingerprint of the normals' stream (SFC64 through SeedSequence): the
    # reference schedule, 2000 paths x 1000 steps, seed 0. 12 nodes on every step give
    # 0x1.670d05fcf3d2dp+1 and 0x1.8548903e4fbc2p-10; the counter-based stream drawn
    # before gave 0x1.672282c862bb4p+1 and 0x1.7f12dced68349p-10
    sched = schedule(ou_params, ref_state, grid_points=1000)
    rep = simulate(ou_params, ref_state, sched.strategy, paths=2000, steps=1000, seed=0)
    assert rep.mean_cash.hex() == "0x1.670d05fcf3d2cp+1"
    assert rep.std_error.hex() == "0x1.8548903e4fbd9p-10"


def _large_holdings(rng):
    """A large-holdings instance drawn as perfbench's: t = 1, price e^{F + z}, no cash."""
    alpha, beta = rng.uniform(0.5, 2.0), rng.uniform(0.5, 1.5)
    sigma = rng.uniform(0.05, 0.4)
    z = rng.uniform(sigma * sigma / (2.0 * beta) + 0.2, 2.5)
    phi = max(z, 1.0 + beta) / alpha * rng.uniform(1.1, 2.5)
    fund = rng.uniform(-0.5, 0.5)
    params = ModelParams(alpha=alpha, beta=beta, sigma=sigma, fundamental_log=fund,
                         horizon=1.0)
    return params, MarketState(cash=0.0, holdings=phi, price=math.exp(fund + z))


def test_z_scores_are_standard_normal_across_seeds():
    # whatever the generator, (mean - exact) / SE over seeded runs is N(0, 1). Each bound
    # is about 4 standard errors of its statistic at n = 100: mean 1/10, sd 1/sqrt(2n);
    # |z| > 3 has p = 0.0027, so more than 2 of 100 has probability 2.6e-3
    rng = np.random.default_rng(0)
    z = []
    for seed in range(100):
        params, state = _large_holdings(rng)
        strat = schedule(params, state, grid_points=100).strategy
        rep = simulate(params, state, strat, paths=2000, steps=100, seed=seed)
        z.append((rep.mean_cash - expected_proceeds(params, state, strat)) / rep.std_error)
    z = np.array(z)
    assert abs(z.mean()) <= 0.4
    assert 0.7 <= z.std(ddof=1) <= 1.3
    assert np.count_nonzero(np.abs(z) > 3.0) <= 2


def _counted_orders(monkeypatch):
    """Record (limits, reach, order) of every accruing step of the next simulate calls."""
    seen, order = [], montecarlo._accrual_order

    def counted(limits, reach):
        seen.append((limits, reach, order(limits, reach)))
        return seen[-1][2]

    monkeypatch.setattr(montecarlo, "_accrual_order", counted)
    return seen


def _partitions(n, largest=None):
    """Integer partitions of n as {part: multiplicity}."""
    largest = n if largest is None else largest
    if n == 0:
        yield {}
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield {**rest, part: rest.get(part, 0) + 1}


def _remainder_ratio(m, q, y, reach):
    """c_m B_2m(s) e^{s_1} in 50 digits, B_2m summed over the partitions of 2m."""
    with mpmath.workdps(50):
        q, y, a, n = mpmath.mpf(q), mpmath.mpf(y), mpmath.mpf(reach), 2 * m
        s = {j: a * q ** (j - 1) + y * (2 * q) ** j for j in range(1, n + 1)}
        f = mpmath.factorial
        bell = mpmath.fsum(f(n) * mpmath.fprod(s[j] ** k / (f(k) * f(j) ** k)
                                               for j, k in parts.items())
                           for parts in _partitions(n))
        c = f(m) ** 4 / ((2 * m + 1) * f(n) ** 3)
        return c * bell * mpmath.exp(s[1])


@pytest.mark.parametrize("sigma, beta", [(0.0, 1.1), (0.2, 1.0), (0.39, 0.61), (0.3, 5.0)])
def test_chosen_order_is_the_fewest_nodes_whose_bound_holds(monkeypatch, sigma, beta):
    params = ModelParams(alpha=1.0, beta=beta, sigma=sigma, fundamental_log=0.0, horizon=1.0)
    state = MarketState(cash=0.0, holdings=8.0, price=math.e)
    strat = schedule(params, state, grid_points=200).strategy
    seen = _counted_orders(monkeypatch)
    simulate(params, state, strat, paths=500, steps=200, seed=3)
    assert len(seen) == 200
    q = beta / 200
    for limits, reach, m in seen[::7] + seen[-1:]:
        if m < 5:
            assert _remainder_ratio(m, q, params.y, reach) <= mpmath.mpf(2) ** -52
        if m > 1:
            assert _remainder_ratio(m - 1, q, params.y, reach) > mpmath.mpf(2) ** -52 * (1 - 1e-6)


@pytest.mark.parametrize("sigma, orders", [(0.0, [1, 2, 3, 4]), (2e-4, [2, 3, 4])])
def test_chosen_order_matches_twelve_nodes_at_each_switch(monkeypatch, sigma, orders):
    # one step of one path (beta dt = 0.05), with zeta set so that A = x - F + alpha zeta /
    # beta sits just below and just above each order's limit, where |A| <= 1.3
    params = ModelParams(alpha=1.0, beta=2.0, sigma=sigma, fundamental_log=0.0, horizon=0.025)
    state = MarketState(cash=0.0, holdings=1.0, price=1.0)  # x = F = 0
    q = params.beta * params.horizon
    limits = montecarlo._accrual_limits(q, params.y)
    switches = [(m, limit / q) for m, limit in enumerate(limits, 1) if limit > 0.0]
    assert [m for m, _ in switches] == orders  # y > 0: one node is never enough
    seen = _counted_orders(monkeypatch)
    for m, a_limit in switches:
        for side, a_step in ((m, a_limit * (1 - 1e-6)), (m + 1, a_limit * (1 + 1e-6))):
            zeta = a_step * params.beta / params.alpha
            strat = ExecutionStrategy(impulses=(), density=np.array([zeta]), horizon=0.025)
            rep = simulate(params, state, strat, paths=1, steps=1, seed=0)
            assert seen[-1][2] == side
            twelve, _ = reference_montecarlo.simulate(params, state, strat, 1, 1, 0,
                                                      order=reference_montecarlo.fixed_order(12))
            assert abs(rep.mean_cash - twelve) <= 4 * math.ulp(twelve)


def test_large_beta_dt_keeps_five_nodes_and_their_bits(monkeypatch, ou_params, ref_state):
    # beta dt = 0.2; the bits are those of 5 nodes on every step
    strat = schedule(ou_params, ref_state, grid_points=5).strategy
    seen = _counted_orders(monkeypatch)
    rep = simulate(ou_params, ref_state, strat, paths=2000, steps=5, seed=3)
    assert [m for *_, m in seen] == [5] * 5
    mean, se = reference_montecarlo.simulate(ou_params, ref_state, strat, 2000, 5, 3,
                                             order=reference_montecarlo.fixed_order(5))
    assert (rep.mean_cash.hex(), rep.std_error.hex()) == (mean.hex(), se.hex())


def test_period_blocks_keep_their_bits(monkeypatch, ou_params, ref_state):
    # a block-only strategy never accrues: the bits of the per-step loop's blocks alone
    lam = solve_lambda_hat(ou_params, ref_state, 10)
    psi = recover_psi(ou_params, ref_state, 10, lam)
    strat = period_blocks(psi, 10)
    seen = _counted_orders(monkeypatch)
    rep = simulate(ou_params, ref_state, strat, paths=2000, steps=10, seed=3)
    assert seen == []
    mean, se = reference_montecarlo.simulate(ou_params, ref_state, strat, 2000, 10, 3)
    assert (rep.mean_cash.hex(), rep.std_error.hex()) == (mean.hex(), se.hex())


def test_sigma_zero_matches_the_evaluator_to_rounding(monkeypatch):
    # instance 0 of the verify_xcheck benchmark workload at seed 21; 5 nodes on every step
    # were 1.07e-13 off, as the 5-node weights sum to 2 - 2^-52
    params = ModelParams(alpha=1.6716763832262065, beta=1.1058470295709681, sigma=0.0,
                         fundamental_log=0.1307144158739043, horizon=1.0)
    state = MarketState(cash=0.0, holdings=1.514901719895389, price=7.332210466577487)
    strat = schedule(params, state, grid_points=1000).strategy
    seen = _counted_orders(monkeypatch)
    rep = simulate(params, state, strat, paths=20_000, steps=1000, seed=1333199766)
    assert collections.Counter(m for *_, m in seen) == {1: 1000}  # A stays at rounding level
    target = expected_proceeds(params, state, strat)
    assert abs(rep.mean_cash - target) <= 1e-14 * abs(target)


def test_standard_error_survives_an_overflowing_square():
    # the mean is finite (-1.5e215) but squaring the deviations overflows
    params = ModelParams(alpha=1.0, beta=1e-3, sigma=1.0, fundamental_log=0.0, horizon=1.0)
    state = MarketState(cash=0.0, holdings=1.0, price=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # z = 0 <= 2y: an extended schedule
        strat = schedule(params, state, grid_points=10, extended=True).strategy
    rep = simulate(params, state, strat, paths=64, steps=10, seed=0)
    assert math.isfinite(rep.mean_cash) and math.isfinite(rep.std_error)
    cash = reference_montecarlo.terminal_cash(params, state, strat, 64, 10, 0)
    assert rep.mean_cash == float(np.mean(cash))
    with mpmath.workdps(50):
        values = [mpmath.mpf(float(c)) for c in cash]
        mean = mpmath.fsum(values) / len(values)
        sd = mpmath.sqrt(mpmath.fsum((v - mean) ** 2 for v in values) / (len(values) - 1))
        exact = sd / mpmath.sqrt(len(values))
        assert abs(rep.std_error - exact) <= 1e-12 * exact
