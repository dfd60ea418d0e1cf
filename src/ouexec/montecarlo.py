"""Monte Carlo validation of the exact proceeds formulas.

Paths use the exact transition of the mean-reverting log price over each
step (no Euler bias): conditional on the step start, the end point is
Gaussian with known mean and variance, and the within-step proceeds of a
constant selling rate have a closed conditional expectation. Accruing
that expectation instead of sampled prices removes all within-step noise
while leaving the estimator unbiased (tower property), and makes sigma=0
runs exactly deterministic: a single path reproduces the quadrature value
to roundoff.

Randomness comes from one SFC64 stream seeded once through SeedSequence;
draws are step-major (one vector of normals per step across all paths),
so results are bit-reproducible for a given (seed, paths, steps) triple
regardless of hardware. A counter-based generator would let streams be
addressed by counter, but a call draws one stream in order and never
jumps, advances or spawns, so that property buys nothing here; SFC64 is
the fastest generator numpy ships and passes BigCrush and PractRand.
The step loop works in buffers allocated once per call (log prices, cash,
one scratch vector and one vector of normals) and allocates no array per
step; the normals fill the buffer in the same draw order.

A step of length h integrates f = e^g, g(u) = const + A e^{-beta u} - y e^{-2 beta u},
A = x - F + alpha zeta/beta, on the fewest Gauss-Legendre nodes m <= 5 whose remainder
c_m h^{2m+1} f^{(2m)}, c_m = (m!)^4/((2m+1)((2m)!)^3) (Davis & Rabinowitz, sec. 2.7),
is at most 2^-52 of it on every path: by |g^{(j)}| <= K_j = |A| beta^j + y (2 beta)^j,
that share is <= c_m B_2m(h K_1, ..., h^2m K_2m) e^{h K_1} (complete Bell), rising in |A|.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, check_int
from .model import MarketState, ModelParams, block_factor, derive
from .numerics import find_root, float_range, gl_nodes
from .strategy import ExecutionStrategy

_ACCRUAL_ORDER = 5  # the most nodes a step's accrual takes


@dataclass(frozen=True)
class SimulationReport:
    paths: int
    mean_cash: float
    std_error: float
    seed: int
    elapsed: float


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.SFC64(seed))


def _accrual_limits(q: float, y: float) -> list[float]:
    """Largest reach q|A| (q = beta h) at which m = 1..4 nodes meet the bound; -inf for none."""
    limits = [-math.inf] * (_ACCRUAL_ORDER - 1)
    for m in range(1, _ACCRUAL_ORDER if q < 1.0 else 1):  # q >= 1 needs |A| < 4e-7 for m < 5
        n = 2 * m
        log_c = math.log(2.0 ** 52 * math.factorial(m) ** 4 / (n + 1) / math.factorial(n) ** 3)

        def log_share(u, _):  # log(c_m B_2m e^{s_1} / 2^-52) at q|A| = e^u, and d/du
            a = math.exp(u[0])
            s = [q ** j * (a + y * 2.0 ** (j + 1) * q) for j in range(n)]  # h^j K_j, j = 1..n
            b = [1.0]  # B_{k+1} = sum_j C(k, j) B_{k-j} s_{j+1}; dB_n/ds_j = C(n, j) B_{n-j}
            for k in range(n):
                b.append(sum(math.comb(k, j) * b[k - j] * s[j] for j in range(k + 1)))
            slope = sum(math.comb(n, j + 1) * b[n - j - 1] * q ** j for j in range(n))
            return [log_c + math.log(b[n]) + s[0]], [a * (slope / b[n] + 1.0)]

        hi = -log_c / n  # c_m (q|A|)^2m = 2^-52 there, and B_2m >= (q|A|)^2m
        f_lo, f_hi = log_share([hi - 50.0], 0)[0][0], max(log_share([hi], 0)[0][0], 0.0)
        if f_lo <= 0.0:  # else the limit is below e^-50 of hi: m nodes never do
            root = find_root(log_share, [hi - 50.0], [hi], [f_lo], [f_hi], xtol=1e-15)[0]
            limits[m - 1] = math.exp(root - 1e-9)  # a margin for the root's rounding
    return limits


def _accrual_order(limits: list[float], reach: float) -> int:
    """The fewest nodes whose bound holds at reach q max|A| (a nan reach takes the most)."""
    return next((m for m, limit in enumerate(limits, 1) if reach <= limit), _ACCRUAL_ORDER)


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

    accrual = []  # within-step accrual: E[exp(X_{u})] given the step start, at 1..5 GL nodes
    for nodes, weights in map(gl_nodes, range(1, _ACCRUAL_ORDER + 1)):
        k_u = np.exp(-b * (0.5 * dt * (nodes + 1.0)))
        w_u = 0.5 * dt * weights
        base_m = (1.0 - k_u) * fund + y * (1.0 - k_u ** 2)
        accrual.append(list(zip(k_u.tolist(), w_u.tolist(), base_m.tolist())))
    limits = _accrual_limits(b * dt, y)

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
            shift = a * zeta / b - fund  # A = x + shift
            reach = max(x.max() + shift, -(x.min() + shift)) * (b * dt)
            for k, w, m in accrual[_accrual_order(limits, reach) - 1]:
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
    try:
        se = 0.0 if n_paths == 1 else float(np.std(cash, ddof=1) / math.sqrt(n_paths))
    except FloatingPointError:  # only the squares overflow: take the spread of cash / max|cash|
        se = float(np.std(cash / (top := np.abs(cash).max()), ddof=1) / math.sqrt(n_paths) * top)
    return SimulationReport(paths=n_paths, mean_cash=mean, std_error=se,
                            seed=seed, elapsed=time.perf_counter() - start)

