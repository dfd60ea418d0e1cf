"""Sweep the period count and watch the discrete solution converge.

On the zero-volatility reference instance every limit is known in closed
form, so the table shows honest errors: the value gap shrinks like 1/n and
the shape triplet (initial block, worst interior rate, terminal block)
follows suit. Pass --sigma to repeat the exercise against the stochastic
closed form, where only the value column has an exact target.
"""

import argparse
import math
import sys

import numpy as np

from ouexec import MarketState, ModelParams, continuous, discrete, zero_vol


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sigma", type=float, default=0.0)
    ap.add_argument("--phi", type=float, default=3.0)
    ap.add_argument("--z", type=float, default=1.0)
    ap.add_argument("--n", type=int, nargs="+",
                    default=[10, 30, 100, 300, 1000, 3000])
    args = ap.parse_args(argv)

    params = ModelParams(alpha=1.0, beta=1.0, sigma=args.sigma,
                         fundamental_log=0.0, horizon=1.0)
    state = MarketState(cash=0.0, holdings=args.phi, price=math.exp(args.z))

    sched = continuous.schedule(params, state, grid_points=2000)
    if args.sigma == 0.0:
        zv = zero_vol.solve(params, state)
        target = (zv.p_star, zv.zeta_star, zv.q_star)
    else:
        target = None
    print(f"closed-form value {sched.value!r}  (p*={sched.p_star:.6f}, "
          f"q*={sched.q_star:.6f})")

    print(f"{'n':>6} {'lambda_hat':>14} {'value err':>12} {'shape err':>12}")
    prev = math.inf
    for n in args.n:
        lam = discrete.solve_lambda_hat(params, state, n)
        psi = discrete.recover_psi(params, state, n, lam)
        v = discrete.discrete_value(params, state, psi, n)
        verr = abs(v - sched.value)
        if target is not None:
            p_star, zeta_star, q_star = target
            serr = (abs(psi[0] - p_star)
                    + float(np.max(np.abs(n * psi[1:-1] - zeta_star)))
                    + abs(psi[-1] - q_star))
            print(f"{n:>6} {lam:>14.10f} {verr:>12.3e} {serr:>12.3e}")
        else:
            print(f"{n:>6} {lam:>14.10f} {verr:>12.3e} {'':>12}")
        if verr > prev:
            print("  warning: value error increased", file=sys.stderr)
        prev = verr


if __name__ == "__main__":
    main()
