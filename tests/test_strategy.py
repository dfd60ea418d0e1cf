import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_large_instance, random_small_instance
from ouexec import ConfigError, MarketState, expected_proceeds
from ouexec.discrete import discrete_value, recover_psi, solve_lambda_hat
from ouexec.strategy import (ExecutionStrategy, assemble_optimal, initial_block,
                             period_blocks, realize_delta, to_csv, total_sold)


def test_impulses_sorted_and_frozen():
    s = ExecutionStrategy(impulses=((1.0, 0.5), (0.0, 1.0)),
                          density=np.zeros(4), horizon=1.0)
    assert s.impulses == ((0.0, 1.0), (1.0, 0.5))
    with pytest.raises(ValueError):
        s.density[0] = 1.0  # read-only view


def test_negative_quantities_need_extended_mode():
    with pytest.raises(ConfigError):
        ExecutionStrategy(impulses=((0.0, -1.0),), density=np.zeros(4), horizon=1.0)
    with pytest.raises(ConfigError):
        ExecutionStrategy(impulses=(), density=np.array([-1.0, 0.0]), horizon=1.0)
    ExecutionStrategy(impulses=((0.0, -1.0),), density=np.array([-1.0, 0.0]),
                      horizon=1.0, extended_mode=True)


def test_impulse_times_must_lie_in_horizon():
    with pytest.raises(ConfigError):
        ExecutionStrategy(impulses=((1.5, 1.0),), density=np.zeros(4), horizon=1.0)


@pytest.mark.parametrize("build", [
    lambda: ExecutionStrategy(impulses=((math.nan, 1.0),), density=np.zeros(4), horizon=1.0),
    lambda: ExecutionStrategy(impulses=((0.0, math.nan),), density=np.zeros(4), horizon=1.0),
    lambda: ExecutionStrategy(impulses=(), density=np.array([0.5, math.nan]), horizon=1.0),
    lambda: initial_block(math.nan),
], ids=["impulse_time", "impulse_size", "density", "initial_block"])
def test_non_finite_quantities_rejected(build):
    # each priced to nan without an error, or (initial_block) sold nothing
    with pytest.raises(ConfigError):
        build()


def test_initial_block_and_total():
    s = initial_block(2.5, horizon=1.0, cells=10)
    assert total_sold(s) == pytest.approx(2.5, abs=0.0)
    assert initial_block(0.0).impulses == ()


def test_assemble_optimal_drops_zero_blocks():
    s = assemble_optimal(0.0, np.ones(5), 0.0, 1.0)
    assert s.impulses == ()
    s2 = assemble_optimal(1.0, np.ones(5), 2.0, 1.0)
    assert s2.impulses == ((0.0, 1.0), (1.0, 2.0))
    assert total_sold(s2) == pytest.approx(4.0, rel=1e-15)


@given(p=st.floats(0.0, 3.0), q=st.floats(0.0, 3.0),
       rate=st.floats(0.0, 2.0), cells=st.integers(1, 50))
def test_total_sold_closed_form(p, q, rate, cells):
    s = assemble_optimal(p, np.full(cells, rate), q, 1.0)
    assert total_sold(s) == pytest.approx(p + q + rate, rel=1e-12, abs=1e-12)


def test_period_blocks_shape():
    x = np.array([0.5, 0.25, -0.125, 0.75, 0.5])
    s = period_blocks(x, 8)
    assert s.impulses == tuple((k / 8, float(p)) for k, p in enumerate(x))
    assert s.horizon == 5 / 8 and s.cells == 5
    assert np.all(s.density == 0.0)
    assert total_sold(s) == pytest.approx(float(np.sum(x)), rel=1e-15)
    assert s.extended_mode  # the purchase at k = 2
    assert not period_blocks(np.abs(x), 8).extended_mode


def test_period_blocks_priced_as_the_discrete_value(ou_params, zv_params, ref_state):
    # the exact evaluator prices the n-period allocation as the discrete objective does
    rng = np.random.default_rng(3)
    cases = [(ou_params, ref_state), (zv_params, ref_state),
             (ou_params, MarketState(cash=0.0, holdings=1.5, price=ref_state.price)),  # gap
             random_large_instance(rng), random_small_instance(rng)]
    for params, state in cases:
        for n in (2, 3, 10, 100, 1000):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # n t off the integers: idle tail
                psi = recover_psi(params, state, n, solve_lambda_hat(params, state, n))
                target = discrete_value(params, state, psi, n)
            got = expected_proceeds(params, state, period_blocks(psi, n))
            assert got == pytest.approx(target, rel=1e-13)


def test_delta_family_preserves_total():
    base = assemble_optimal(1.5, np.full(10, 0.6), 0.9, 1.0)
    for delta in (0.5, 0.1, 0.02):
        realized = realize_delta(base, delta)
        assert realized.impulses == ()
        assert total_sold(realized) == pytest.approx(total_sold(base), rel=1e-12)


def test_delta_family_terminal_block_smears_backwards():
    base = assemble_optimal(0.0, np.zeros(4), 1.0, 1.0)
    realized = realize_delta(base, 0.25)
    # all mass in the last quarter
    assert realized.density[-1] == pytest.approx(4.0)
    assert np.all(realized.density[:-1] == 0.0)


def test_delta_family_misaligned_delta_rejected():
    base = assemble_optimal(1.0, np.zeros(3), 0.0, 1.0)
    with pytest.raises(ConfigError):
        realize_delta(base, 0.29)
    with pytest.raises(ConfigError):
        realize_delta(base, 1.5)


def test_csv_shape_and_cumulative():
    s = assemble_optimal(1.0, np.full(4, 0.5), 0.25, 1.0)
    text = to_csv(s)
    lines = text.strip().split("\n")
    assert lines[0] == "r,impulse,zeta,cumulative_sold"
    assert len(lines) == 1 + 5  # n + 1 boundary rows
    first = lines[1].split(",")
    last = lines[-1].split(",")
    assert float(first[1]) == 1.0
    assert float(last[3]) == pytest.approx(total_sold(s), rel=1e-15)
    # deterministic: repr round-trip
    assert to_csv(s) == text
