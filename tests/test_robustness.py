"""The contract over a wide parameter domain: a finite answer or a typed error.

Every entry point either returns finite numbers or raises ConfigError,
NumericalError or RegimeError; numpy's overflow, divide and invalid are
raised as errors, so a silent inf or nan breaks the property too. The
domain reaches y = sigma^2 / (4 beta) far above 1,000, where e^y leaves
the float range.
"""

import math
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ouexec import (ConfigError, MarketState, ModelParams, NumericalError, RegimeError,
                    continuous, discrete, expected_proceeds, manipulation, simulate)
from ouexec.strategy import assemble_optimal

_LOG_UNIFORM = st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e)


def _finite(*values):
    for v in values:
        assert np.all(np.isfinite(np.asarray(v, dtype=float))), v


@settings(max_examples=100, derandomize=True, deadline=None)
# y = 500: the discrete stationarity check; y = 1000: the proceeds integral; y = 250: the
# Monte Carlo standard error. Each overflowed numpy or math with an untyped error.
@example(alpha=1.0, beta=0.002, sigma=2.0, t=1.0, z=35.0, phi=0.002, fundamental=0.0)
@example(alpha=1.0, beta=1e-3, sigma=2.0, t=1.0, z=0.0, phi=1.0, fundamental=0.0)
@example(alpha=1.0, beta=1e-3, sigma=1.0, t=1.0, z=0.0, phi=1.0, fundamental=0.0)
@given(alpha=_LOG_UNIFORM, beta=_LOG_UNIFORM,
       sigma=st.one_of(st.just(0.0), st.floats(0.0, 3.0)), t=st.floats(0.01, 1.0),
       z=st.floats(-5.0, 60.0), phi=_LOG_UNIFORM, fundamental=st.floats(-3.0, 3.0))
def test_entry_points_return_finite_values_or_typed_errors(alpha, beta, sigma, t, z, phi,
                                                           fundamental):
    params = ModelParams(alpha=alpha, beta=beta, sigma=sigma, fundamental_log=fundamental,
                         horizon=t)
    state = MarketState(cash=0.0, holdings=phi, price=math.exp(fundamental + z))
    flat = MarketState(cash=0.0, holdings=0.0, price=state.price)
    # the extended schedule's strategy, or selling at a constant rate where it has none
    strategy = assemble_optimal(0.0, np.full(10, phi / t), 0.0, t)

    def extended():
        nonlocal strategy
        sched = continuous.schedule(params, state, grid_points=10, extended=True)
        strategy = sched.strategy
        return sched

    def schedule_numbers(sched):
        # the one-block schedule of small holdings has no multiplier, and xi* is NaN there
        solved = [] if sched.lambda_star is None else [sched.lambda_star, sched.xi]
        return solved + [sched.p_star, sched.q_star, sched.density_integral, sched.value,
                         sched.eta, sched.zeta, sched.expected_price, sched.strategy.density]

    def discrete_solve():
        lam = discrete.solve_lambda_hat(params, state, 10)
        return [lam, discrete.recover_psi(params, state, 10, lam)]

    def round_trip():
        rtb = manipulation.round_trip_profit_bound(params, flat)
        return [rtb.bound, rtb.weak_bound, rtb.lambda_star]

    calls = [
        lambda: [continuous.value(params, state)],
        lambda: schedule_numbers(continuous.schedule(params, state, grid_points=10)),
        lambda: schedule_numbers(extended()),
        lambda: [expected_proceeds(params, state, strategy)],
        discrete_solve,
        round_trip,
        lambda: [simulate(params, state, strategy, paths=64, steps=10, seed=0).mean_cash],
    ]
    with warnings.catch_warnings(), np.errstate(over="raise", divide="raise", invalid="raise"):
        warnings.simplefilter("ignore", UserWarning)  # the standing-assumption warning
        for call in calls:
            try:
                _finite(*call())
            except (ConfigError, NumericalError, RegimeError):
                pass
