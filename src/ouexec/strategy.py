"""Execution strategies: impulses plus a piecewise-constant selling density.

A strategy is a finite list of block sales (time, size) together with a
selling rate that is constant on each cell of a uniform grid over [0, t].
Blocks are first-class: the proceeds evaluator prices a block of size p
analytically through the factor (1 - exp(-alpha*p))/alpha, which is the
limit value of selling p/delta per unit time over a vanishing window.
realize_delta builds those finite-delta approximations explicitly so
tests and `ouexec verify` can confirm the convergence.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

_TIME_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class ExecutionStrategy:
    """Impulses (sorted by time) and a per-cell selling rate on [0, horizon].

    Every impulse time, impulse size and density value must be finite. In
    standard mode every impulse size and density value must be >= 0.
    extended_mode lifts that restriction (sales may be negative, meaning
    purchases) but totals are still capped by the holdings bound when the
    strategy is evaluated against a state.
    """

    impulses: tuple[tuple[float, float], ...]
    density: np.ndarray
    horizon: float
    extended_mode: bool = False

    def __post_init__(self):
        if not (0.0 < self.horizon <= 1.0):
            raise ConfigError(f"horizon must be in (0, 1], got {self.horizon}")
        dens = np.array(self.density, dtype=float)
        if dens.ndim != 1 or dens.size < 1:
            raise ConfigError("density must be a nonempty 1-d array of cell rates")
        imps = tuple(sorted((float(r), float(p)) for r, p in self.impulses))
        if not (all(math.isfinite(r) and math.isfinite(p) for r, p in imps)
                and np.all(np.isfinite(dens))):
            raise ConfigError("impulse times, impulse sizes and density values must be finite")
        for r, p in imps:
            if r < -_TIME_TOL or r > self.horizon + _TIME_TOL:
                raise ConfigError(f"impulse time {r} outside [0, {self.horizon}]")
            if not self.extended_mode and p < 0.0:
                raise ConfigError(f"negative impulse size {p} requires extended_mode")
        if not self.extended_mode and np.any(dens < 0.0):
            raise ConfigError("negative density requires extended_mode")
        dens.flags.writeable = False
        object.__setattr__(self, "impulses", imps)
        object.__setattr__(self, "density", dens)

    @property
    def cells(self) -> int:
        return self.density.size

    @property
    def cell_width(self) -> float:
        return self.horizon / self.density.size


def realize_delta(strategy: ExecutionStrategy, delta: float) -> ExecutionStrategy:
    """The strategy with every block sold gradually over a window of width delta.

    Each impulse (r, p) becomes a density p/delta on [r, r + delta], or on
    [r - delta, r] when r is the horizon, on the coarsest grid that refines
    the strategy's grid and delta. total_sold is the same for every delta,
    which is what justifies treating the block value as a limit.
    """
    t = strategy.horizon
    if not (0.0 < delta <= t):
        raise ConfigError(f"delta must be in (0, horizon], got {delta}")
    windows = t / delta
    m = int(round(windows))
    if abs(windows - m) > 1e-9 * max(1.0, windows):
        raise ConfigError("delta must divide the horizon")
    cells = math.lcm(strategy.cells, m)
    w = t / cells
    dens = np.repeat(strategy.density, cells // strategy.cells).astype(float)
    span = delta / w
    n_span = int(round(span))
    if abs(span - n_span) > 1e-9 or n_span < 1:
        raise ConfigError("delta must span a whole number of cells")
    for r, p in strategy.impulses:
        start = r - delta if r >= t - _TIME_TOL else r
        idx = start / w
        i0 = int(round(idx))
        if abs(idx - i0) > 1e-9:
            raise ConfigError(f"impulse at {r} does not sit on the refined grid")
        dens[i0:i0 + n_span] += p / delta
    return ExecutionStrategy(impulses=(), density=dens, horizon=t,
                             extended_mode=strategy.extended_mode)


def initial_block(phi: float, horizon: float = 1.0, cells: int = 1000) -> ExecutionStrategy:
    """Sell everything in one block at time zero (empty strategy for phi = 0)."""
    if not phi >= 0.0:
        raise ConfigError(f"block size must be >= 0, got {phi}")
    imps = ((0.0, float(phi)),) if phi > 0.0 else ()
    return ExecutionStrategy(impulses=imps, density=np.zeros(cells), horizon=horizon)


def period_blocks(x, n: int) -> ExecutionStrategy:
    """An n-period allocation as a strategy: block x_k at time k/n, no gradual rate.

    The horizon is len(x)/n, one idle cell per period; negative entries
    (purchases) switch on extended_mode.
    """
    x = np.asarray(x, dtype=float)
    return ExecutionStrategy(impulses=tuple((k / n, float(p)) for k, p in enumerate(x)),
                             density=np.zeros(x.size), horizon=x.size / n,
                             extended_mode=bool(np.any(x < 0.0)))


def assemble_optimal(p_star: float, zeta_grid, q_star: float, horizon: float,
                     extended_mode: bool = False) -> ExecutionStrategy:
    """Combine initial block, gradual density, and terminal block.

    zeta_grid holds the selling rate sampled at the midpoints of a uniform
    grid over [0, horizon]. Zero-sized blocks are dropped, so a pure block
    input degenerates to just that block.
    """
    imps = []
    if p_star != 0.0:
        imps.append((0.0, float(p_star)))
    if q_star != 0.0:
        imps.append((float(horizon), float(q_star)))
    return ExecutionStrategy(impulses=tuple(imps), density=np.asarray(zeta_grid, dtype=float),
                             horizon=horizon, extended_mode=extended_mode)


def total_sold(strategy: ExecutionStrategy) -> float:
    """Sum of impulse sizes plus the grid integral of the density."""
    blocks = math.fsum(p for _, p in strategy.impulses)
    return blocks + float(np.sum(strategy.density)) * strategy.cell_width


def to_csv(strategy: ExecutionStrategy) -> str:
    """Tabulate the strategy: columns r, impulse, zeta, cumulative_sold.

    One row per grid boundary. 'impulse' is the block size executed exactly
    at that time (0 if none); 'zeta' is the rate on the cell starting there
    (the last row repeats the final cell so step plots close); cumulative
    includes all sales up to and including time r.
    """
    w = strategy.cell_width
    n = strategy.cells
    imp_at = {}
    for r, p in strategy.impulses:
        idx = r / w
        i = int(round(idx))
        if abs(idx - i) > 1e-9:
            raise ConfigError(f"impulse at {r} is not on the grid and cannot be tabulated")
        imp_at[i] = imp_at.get(i, 0.0) + p
    imps = [imp_at.get(i, 0.0) for i in range(n + 1)]
    dens = strategy.density.tolist()
    steps = [0.0] * (2 * n + 1)  # block i, then the sales of cell i: the rows' order
    steps[::2] = imps
    steps[1::2] = [rate * w for rate in dens]
    cum = list(itertools.accumulate(steps, initial=0.0))[1::2]
    rows = map("{!r},{!r},{!r},{!r}".format, [i * w for i in range(n)] + [float(strategy.horizon)],
               imps, dens + dens[-1:], cum)
    return "r,impulse,zeta,cumulative_sold\n" + "\n".join(rows) + "\n"
