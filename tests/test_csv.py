import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_format as ref_fmt
from ouexec.cli import _csv
from ouexec.strategy import ExecutionStrategy, assemble_optimal, period_blocks, to_csv

# signed zeros, subnormals, the edges of the writers' range and short decimals
_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300,
            0.1, 0.125, 2.675, 1e16, 1e-5, 123456789.123]
_FINITE = st.one_of(st.sampled_from(_SPECIAL), st.floats(-1e300, 1e300), st.floats(-10.0, 10.0))


# ------------------------------------------------------------------- cli._csv

@settings(max_examples=200)
@given(data=st.data(), n=st.integers(0, 8), width=st.integers(1, 4))
def test_csv_matches_the_cell_loop(data, n, width):
    floats = st.one_of(_FINITE, st.sampled_from([math.nan, math.inf, -math.inf]))
    columns = [np.array(data.draw(st.lists(floats, min_size=n, max_size=n)), dtype=float)
               for _ in range(width)]
    header = [f"c{j}" for j in range(width)]
    assert _csv(header, columns) == ref_fmt.csv_rows(header, zip(*columns))


def test_csv_int_and_text_columns_pass_through():
    ns = [4, 10, 1000]
    methods = ["continuous", "discrete", "monte_carlo"]
    details = ["", "n=1000", "se=0.001"]
    values = np.array([2.5, -0.0, math.nan])
    text = _csv(["n", "method", "value", "detail"], [ns, methods, values, details])
    assert text == ref_fmt.csv_rows(["n", "method", "value", "detail"],
                                    zip(ns, methods, values, details))
    assert text.splitlines()[1] == "4,continuous,2.5,"
    assert text.splitlines()[3] == "1000,monte_carlo,nan,se=0.001"


def test_csv_of_no_rows_is_the_header():
    assert _csv(["a", "b"], [np.array([]), []]) == "a,b\n"


# ----------------------------------------------------------- strategy.to_csv

@st.composite
def _strategies(draw):
    n = draw(st.integers(1, 8))
    horizon = draw(st.sampled_from([1.0, 0.5, 0.3, 0.7, 1e-3]))
    extended = draw(st.booleans())
    values = _FINITE if extended else _FINITE.map(abs)
    density = draw(st.lists(values, min_size=n, max_size=n))
    cells = draw(st.lists(st.integers(0, n), max_size=4))
    w = horizon / n
    impulses = [(i * w if i < n else horizon, draw(values)) for i in cells]
    return ExecutionStrategy(impulses=tuple(impulses), density=np.array(density),
                             horizon=horizon, extended_mode=extended)


@settings(max_examples=200)
@given(strategy=_strategies())
def test_to_csv_matches_the_row_loop(strategy):
    assert to_csv(strategy) == ref_fmt.to_csv(strategy)


@pytest.mark.parametrize("impulses", [
    (), ((0.0, 1.5),), ((1.0, 0.75),), ((0.25, 0.5),), ((0.0, 1.0), (1.0, 0.5)),
    ((0.0, 1.0), (0.5, 2.0), (0.5, 0.25), (1.0, 0.5)),
], ids=["none", "at_0", "at_t", "inside", "at_0_and_t", "stacked_inside"])
def test_to_csv_impulses_at_the_edges_and_inside(impulses):
    s = ExecutionStrategy(impulses=impulses, density=np.linspace(0.0, 1.0, 8), horizon=1.0)
    assert to_csv(s) == ref_fmt.to_csv(s)


def test_to_csv_extended_mode_negative_density():
    s = assemble_optimal(-0.5, -np.linspace(0.1, 2.0, 10), 0.3, 0.8, extended_mode=True)
    assert to_csv(s) == ref_fmt.to_csv(s)
    buy_back = period_blocks([1.0, -0.25, 0.5, -1.25], 4)
    assert to_csv(buy_back) == ref_fmt.to_csv(buy_back)


def test_to_csv_integer_horizon_prints_as_a_float():
    s = ExecutionStrategy(impulses=((1, 2),), density=np.ones(2), horizon=1)
    assert to_csv(s) == ref_fmt.to_csv(s)
    assert to_csv(s).splitlines()[-1] == "1.0,2.0,1.0,3.0"
