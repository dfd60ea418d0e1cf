"""Reference brute-force oracle: the whole simplex in one array, then one maximand call per step.

``lattice_start`` is the full-cube scan that ``ouexec.discrete._lattice_start``
replaced. It builds ``meshgrid`` over all (resolution + 1)^(m - 1) leading
counts, keeps the compositions of `resolution` into m parts (the last count
takes the rest), evaluates the maximand on every one of them at once and
takes the first index of the maximum, the lexicographically smallest point
among ties. ``descent`` is the pairwise-transfer refinement that
``ouexec.discrete.brute_force`` runs from that point, with one
``objective()`` call per candidate transfer. The tests require the
package's scan and batched descent to return the same point and value,
bit for bit.
"""

from __future__ import annotations

import numpy as np

from ouexec.discrete import discrete_value, objective
from ouexec.model import derive


def lattice_start(params, state, m, c, resolution):
    """Best lattice point of the simplex {x >= 0, sum x = phi}; m >= 2 periods, decay c."""
    d = derive(params, state)
    a, y = params.alpha, params.y
    phi = state.holdings

    # lattice: all compositions of `resolution` into m parts, lexicographic
    axis = np.arange(resolution + 1, dtype=np.int32)
    grids = np.meshgrid(*[axis] * (m - 1), indexing="ij")
    counts = [g.ravel() for g in grids]
    used = np.zeros_like(counts[0])
    for g in counts:
        used = used + g
    feas = used <= resolution
    cols = [g[feas] for g in counts] + [(resolution - used[feas]).astype(np.int32)]
    x_all = np.stack(cols, axis=1).astype(float) * (phi / resolution)

    def batch_objective(xs):
        total = np.zeros(len(xs))
        acc = np.zeros(len(xs))
        ck = 1.0
        for k in range(m):
            total += np.exp(ck * d.z - ck * ck * y - a * acc) * (-np.expm1(-a * xs[:, k]))
            acc = c * (acc + xs[:, k])
            ck *= c
        return total

    vals = batch_objective(x_all)
    best = int(np.argmax(vals))  # first index wins ties: lexicographic smallest
    return x_all[best].copy()


def descent(params, state, n, x, resolution=200, sweeps=50):
    """(x, value) after the pairwise-transfer descent from the lattice point x, phi > 0.

    Each sweep visits the transfers i -> j in order, prices each one alone from
    the current x and takes it when it improves; a sweep without an improvement
    halves the step, down to 1e-16 max(1, phi).
    """
    phi = state.holdings
    m = len(x)
    f_best = objective(params, state, x, n)
    step = phi / resolution
    for _ in range(sweeps):
        improved = False
        for i in range(m):
            for j in range(m):
                if i == j:
                    continue
                amt = min(step, x[i])
                if amt <= 0.0:
                    continue
                cand = x.copy()
                cand[i] -= amt
                cand[j] += amt
                f_cand = objective(params, state, cand, n)
                if f_cand > f_best:
                    x, f_best = cand, f_cand
                    improved = True
        if not improved:
            step *= 0.5
            if step < 1e-16 * max(1.0, phi):
                break
    return x, discrete_value(params, state, x, n)
