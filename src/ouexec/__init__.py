"""Optimal execution schedules under mean-reverting prices with linear impact.

The security price is S = e^X where the log price X mean-reverts to a
fundamental level F at speed beta with volatility sigma, and selling at
rate zeta depresses X linearly (alpha zeta per unit time). The package
computes the closed-form liquidation schedule that maximizes expected
terminal cash (an initial block, a decaying selling rate, and a terminal
block), together with an exact proceeds evaluator, an n-period discrete
approximation with its own solver and brute-force oracle, Monte Carlo
validation, and a round-trip (price manipulation) profitability analysis.
"""

from .continuous import (ContinuousSchedule, h_eval, p_eval, p_inverse, schedule,
                         solve_lambda_star, value, value_block_form, value_flow_form,
                         xi_star, zeta_star)
from .discrete import (brute_force, discrete_value, fnk_eval, fnk_inverse, fnk_zero,
                       gradient, hn_eval, objective, periods, recover_psi,
                       solve_lambda_hat)
from .errors import ConfigError, NumericalError, RegimeError, StandingAssumptionWarning
from .manipulation import (ManipulationReport, RoundTripBound, l_eval, l_root,
                           round_trip_profit_bound, scan)
from .model import (DerivedQuantities, MarketState, ModelParams, Regime, classify,
                    derive)
from .montecarlo import SimulationReport, simulate
from .proceeds import (ProceedsBreakdown, expected_price_path, expected_proceeds,
                       impact_decay_profile, proceeds_breakdown)
from .strategy import (ExecutionStrategy, assemble_optimal, initial_block, period_blocks,
                       realize_delta, to_csv, total_sold)
from .zero_vol import ZeroVolSchedule, c_eval
from .zero_vol import solve as solve_zero_vol

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "ContinuousSchedule", "DerivedQuantities",
    "ExecutionStrategy", "ManipulationReport", "MarketState", "ModelParams",
    "NumericalError", "ProceedsBreakdown", "Regime", "RegimeError",
    "RoundTripBound", "SimulationReport", "StandingAssumptionWarning",
    "ZeroVolSchedule", "assemble_optimal", "brute_force", "c_eval", "classify",
    "derive", "discrete_value", "expected_price_path",
    "expected_proceeds", "fnk_eval", "fnk_inverse", "fnk_zero",
    "gradient", "h_eval", "hn_eval", "impact_decay_profile", "initial_block",
    "l_eval", "l_root", "objective", "p_eval", "p_inverse", "period_blocks", "periods",
    "proceeds_breakdown", "realize_delta", "recover_psi", "round_trip_profit_bound", "scan",
    "schedule", "simulate", "solve_lambda_hat",
    "solve_lambda_star", "solve_zero_vol", "to_csv", "total_sold", "value",
    "value_block_form", "value_flow_form", "xi_star", "zeta_star",
]
