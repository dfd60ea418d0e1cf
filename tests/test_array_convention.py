"""The array convention of the public numeric kernels (see the numerics module docstring).

Each kernel takes array_like and returns NumPy's result in the broadcast
shape of its inputs, never a Python float, and each element of a batch has
the bits the kernel gives that element alone. objective() reads its
allocations along the last axis, so its elements are rows.
"""

import math

import numpy as np
import pytest

from conftest import E
from ouexec import MarketState, ModelParams
from ouexec.continuous import h_eval, p_eval, p_inverse, schedule, xi_star, zeta_star
from ouexec.discrete import fnk_eval, fnk_inverse, fnk_zero, objective
from ouexec.manipulation import l_eval
from ouexec.numerics import lambert_w0, lambert_w0_exp
from ouexec.proceeds import impact_decay_profile

PARAMS = ModelParams(alpha=1.0, beta=1.0, sigma=0.2, fundamental_log=0.0, horizon=1.0)
STATE = MarketState(cash=0.0, holdings=3.0, price=E)
STRATEGY = schedule(PARAMS, STATE, grid_points=10).strategy
LAM = 0.02  # near the reference instance's multiplier
N = 10  # periods of the discrete kernels


def _shaped(pool, kind):
    """pool[0], the six values of pool, or pool as two rows of three."""
    return {"scalar": pool[0], "1-D": np.array(pool),
            "2-D": np.array(pool).reshape(2, 3)}[kind]


def _one(pool):
    """Inputs of a kernel with one array argument, drawn from the six values of pool."""
    return lambda kind: (_shaped(pool, kind),)


def _periods_against(pool):
    """(k, x) with k broadcast against x: both scalars, k along x, k across x's rows."""
    return lambda kind: {"scalar": (3, pool[0]),
                         "1-D": (np.arange(6), pool[2]),
                         "2-D": (np.arange(3) * 4, np.array(pool).reshape(2, 3))}[kind]


def _h(lam):
    # a state per multiplier, read off its value, so an element alone has its state
    states = [MarketState(cash=0.0, holdings=3.0 + 10.0 * v, price=E) for v in np.ravel(lam)]
    return h_eval(PARAMS, states if np.ndim(lam) else states[0], lam)


_ALLOCATIONS = [[0.75, 0.75, 0.75, 0.75], [3.0, 0.0, 0.0, 0.0], [-1.0, 2.5, 0.0, 1.5],
                [0.0, 0.0, 0.0, 3.0], [-1e3, 0.0, 0.0, 1e3 + 3.0], [1.0, 1.0, 0.5, 0.5]]
_TIMES = [0.0, 0.05, 0.3, 0.5, 0.77, 1.0]  # each row of the 2-D input sorted, as r must be

# name -> (kernel, its inputs for "scalar", "1-D" and "2-D", trailing axes of one element).
# lambert_w0 settles a row along the last axis together, so in its family (P^-1, xi*,
# zeta*, the F^n_k inverse) an element keeps its own bits where its row's elements
# settle in one round, as in every row here; test_lambert_w0_rows_keep_their_bits
# covers rows whose elements need different rounds.
KERNELS = {
    "p_eval": (lambda x: p_eval(x, 1.3), _one([-0.5, 0.1, 0.7, 1.2, 1.5, 3.0]), 0),
    "p_inverse": (lambda q: p_inverse(q, 1.3), _one([-0.1, 0.0, 0.2, 1.0, 5.0, 40.0]), 0),
    "xi_star": (lambda r: xi_star(PARAMS, LAM, r), _one(_TIMES), 0),
    "zeta_star reduced": (lambda r: zeta_star(PARAMS, STATE, LAM, r), _one(_TIMES), 0),
    "zeta_star direct": (lambda r: zeta_star(PARAMS, STATE, LAM, r, form="direct"),
                         _one(_TIMES), 0),
    "fnk_eval": (lambda k, x: fnk_eval(PARAMS, N, k, x),
                 _periods_against([-2.0, 0.0, 0.5, 1.0, 1.05, 1.5]), 0),
    "fnk_zero": (lambda k: fnk_zero(PARAMS, N, k), _one([0, 1, 2, 4, 7, 8]), 0),
    "fnk_inverse": (lambda k, q: fnk_inverse(PARAMS, N, k, q),
                    _periods_against([0.0, 0.01, 0.5, 2.0, 10.0, 1e3]), 0),
    "lambert_w0": (lambert_w0, _one([-math.exp(-1.0), -0.3, 0.0, 0.5, 3.0, 1e5]), 0),
    "lambert_w0_exp": (lambert_w0_exp, _one([-math.inf, -30.0, 0.0, 2.0, 300.0, 800.0]), 0),
    "l_eval": (lambda z: l_eval(z, 1.0, 1.0), _one([0.0, 1.0, 3.0, 3.31, 10.0, 100.0]), 0),
    "impact_decay_profile": (lambda r: impact_decay_profile(PARAMS, STRATEGY, r),
                             _one(_TIMES), 0),
    "h_eval": (_h, _one([0.0, 0.01, 0.02, 0.05, 0.1, 1.0]), 0),
    "objective": (lambda x: objective(PARAMS, STATE, x, 4),
                  lambda kind: (np.array({"scalar": _ALLOCATIONS[0], "1-D": _ALLOCATIONS,
                                          "2-D": [_ALLOCATIONS[:3], _ALLOCATIONS[3:]]}[kind]),),
                  1),
}


@pytest.mark.parametrize("kind", ["scalar", "1-D", "2-D"])
@pytest.mark.parametrize("name", list(KERNELS))
def test_kernels_return_arrays_in_the_input_shape_with_each_element_bits(name, kind):
    kernel, inputs, unit = KERNELS[name]
    args = inputs(kind)
    full = np.broadcast_shapes(*(np.shape(a) for a in args))
    shape = full[:len(full) - unit]
    out = kernel(*args)
    assert type(out) is not float
    assert np.shape(out) == shape
    for idx in np.ndindex(shape):
        alone = kernel(*(np.broadcast_to(a, full)[idx].tolist() for a in args))
        assert type(alone) is not float
        assert np.asarray(alone).tobytes() == np.asarray(out[idx]).tobytes(), idx
