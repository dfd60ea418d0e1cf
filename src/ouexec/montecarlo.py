"""Monte Carlo validation of the exact proceeds formulas.

Paths use the exact transition of the mean-reverting log price over each
step (no Euler bias): conditional on the step start, the end point is
Gaussian with known mean and variance, and the within-step proceeds of a
constant selling rate have a closed conditional expectation. Accruing
that expectation instead of sampled prices removes all within-step noise
while leaving the estimator unbiased (tower property), and makes sigma=0
runs exactly deterministic: a single path reproduces the quadrature value
to roundoff.

Randomness comes from a counter-based generator seeded once; draws are
step-major (one vector of normals per step across all paths), so results
are bit-reproducible for a given (seed, paths, steps) triple regardless
of hardware. The step loop works in buffers allocated once per call (log
prices, cash, one scratch vector and one vector of normals) and allocates
no array per step; the normals fill the buffer in the same draw order.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, check_int
from .model import MarketState, ModelParams, block_factor, derive
from .numerics import float_range, gl_nodes
from .strategy import ExecutionStrategy

_ACCRUAL_ORDER = 5


@dataclass(frozen=True)
class SimulationReport:
    paths: int
    mean_cash: float
    std_error: float
    seed: int
    elapsed: float


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


@float_range("the Monte Carlo estimate")
def simulate(params: ModelParams, state: MarketState, strategy: ExecutionStrategy,
             paths: int = 100_000, steps: int = 1_000, seed: int = 0) -> SimulationReport:
    """Estimate expected terminal cash of a deterministic strategy.

    Blocks execute at the nearest step boundary (exact for schedules whose
    blocks sit at 0 and t). The selling rate is read off the strategy cell
    containing each step midpoint; aligned grids (cells dividing steps)
    incur no sampling error.
    """
    check_int("paths", paths, 1)
    check_int("steps", steps, 1)
    check_int("seed", seed, 0)
    if steps % strategy.cells != 0:
        raise ConfigError("steps must be a multiple of the strategy grid cells")
    start = time.perf_counter()
    d = derive(params, state)
    a, b, sig = params.alpha, params.beta, params.sigma
    fund = params.fundamental_log
    t = strategy.horizon
    dt = t / steps
    y = d.y

    deterministic = sig == 0.0
    n_paths = 1 if deterministic else paths
    rng = None if deterministic else _rng(seed)

    # blocks grouped by the step boundary they land on
    boundary_blocks: dict[int, float] = {}
    for r, p in strategy.impulses:
        idx = int(round(r / dt))
        idx = min(max(idx, 0), steps)
        boundary_blocks[idx] = boundary_blocks.get(idx, 0.0) + p

    # within-step accrual: E[exp(X_{u})] given the step start, at GL nodes
    nodes, weights = gl_nodes(_ACCRUAL_ORDER)
    u = 0.5 * dt * (nodes + 1.0)
    k_u = np.exp(-b * u)
    w_u = 0.5 * dt * weights
    base_m = (1.0 - k_u) * fund + y * (1.0 - k_u ** 2)
    accrual = list(zip(k_u.tolist(), w_u.tolist(), base_m.tolist()))

    decay = math.exp(-b * dt)
    step_sd = 0.0 if deterministic else sig * math.sqrt((1.0 - decay ** 2) / (2.0 * b))

    cells = strategy.cells
    cell_of_step = np.minimum((np.floor((np.arange(steps) + 0.5) * dt
                                        / strategy.cell_width)).astype(int), cells - 1)
    dens = np.asarray(strategy.density)

    x = np.full(n_paths, fund + d.z)
    cash = np.full(n_paths, state.cash, dtype=float)
    buf, noise = np.empty(n_paths), np.empty(n_paths)  # the loop allocates no array

    for j in range(steps):
        p_here = boundary_blocks.get(j)
        if p_here:
            cash += np.multiply(np.exp(x, out=buf), block_factor(p_here, a), out=buf)
            x -= a * p_here
        zeta = float(dens[cell_of_step[j]])
        if zeta != 0.0:
            for k, w, m in accrual:
                np.multiply(x, k, out=buf)
                buf += m - a * zeta * (1.0 - k) / b
                cash += np.multiply(np.exp(buf, out=buf), w * zeta, out=buf)
        x *= decay
        x += (1.0 - decay) * fund - a * zeta * (1.0 - decay) / b
        if not deterministic:
            x += np.multiply(rng.standard_normal(out=noise), step_sd, out=noise)

    p_end = boundary_blocks.get(steps)
    if p_end:
        cash += np.multiply(np.exp(x, out=buf), block_factor(p_end, a), out=buf)

    mean = float(np.mean(cash))
    se = 0.0 if n_paths == 1 else float(np.std(cash, ddof=1) / math.sqrt(n_paths))
    return SimulationReport(paths=n_paths, mean_cash=mean, std_error=se,
                            seed=seed, elapsed=time.perf_counter() - start)

