"""Reference Lambert W0: the Halley loop with fresh arrays every round.

This is the loop ``ouexec.numerics.lambert_w0`` ran before it moved into
reused buffers: each round builds f, w + 1, the denominator and the step
anew, and always divides under a ``den != 0`` mask. The arithmetic, the
start and the per-row stop are the buffered loop's, so the tests require
equal bits from the two.
"""

from __future__ import annotations

import math

import numpy as np


def lambert_w0(x):
    """W0(x) for x >= -1/e (inputs are taken as valid); rows stop on their own."""
    x = np.maximum(np.asarray(x, dtype=float), -math.exp(-1.0))
    near, far = x < -0.25, x > math.e
    mid = ~(near | far)
    w = np.empty_like(x)
    p = np.sqrt(np.maximum(2.0 * (math.e * x[near] + 1.0), 0.0))
    w[near] = -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * 11.0 / 72.0))
    w[mid] = np.log1p(x[mid])
    l1 = np.log(x[far])
    l2 = np.log(l1)
    w[far] = l1 - l2 + l2 / l1
    rows_x = x.reshape(math.prod(x.shape[:-1]), x.shape[-1] if x.ndim else 1)
    rows_w = w.reshape(rows_x.shape)
    live = slice(None)
    for _ in range(12):
        wl, xl = rows_w[live], rows_x[live]
        f = wl - xl * np.exp(-wl)
        wp1 = wl + 1.0
        den = 2.0 * wp1 * wp1 - (wl + 2.0) * f
        step = np.divide(2.0 * wp1 * f, den, out=np.zeros_like(wl), where=den != 0.0)
        wl = np.maximum(wl - step, -1.0)
        rows_w[live] = wl
        settled = np.abs(step) <= 1e-15 * (1.0 + np.abs(wl))
        if settled.all():
            break
        if len(wl) > 1:
            live = np.arange(len(rows_w))[live][~settled.all(axis=1)]
    return float(w) if w.ndim == 0 else w
