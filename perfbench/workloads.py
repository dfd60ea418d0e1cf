"""The three workloads: seeded instances, the timed operation, checks.

Each workload turns a seed into a fixed cycle of distinct instances. The
worker runs the cycle over and over; an operation is one instance run once.
Only the operation is timed. Its output is reduced to a SHA-256 digest of
the bytes it produced, and the first occurrence of each instance is also
checked for correctness; every later occurrence must reproduce the first
digest byte for byte (criterion 10 at benchmark scale). The package keeps
no cache between calls, so a repeated instance costs what the first did.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np


def _large(rng, t=None):
    """Large holdings: phi 10%-150% above max(z, 1 + beta)/alpha."""
    alpha, beta = rng.uniform(0.5, 2.0), rng.uniform(0.5, 1.5)
    sigma = rng.uniform(0.05, 0.4)
    y = sigma * sigma / (4.0 * beta)
    z = rng.uniform(2.0 * y + 0.2, 2.5)
    phi = max(z, 1.0 + beta) / alpha * rng.uniform(1.1, 2.5)
    return _config(rng, alpha, beta, sigma, z, phi, t)


def _zero_vol(rng, t=None):
    """sigma = 0 with phi 20%-200% above z/alpha."""
    alpha, beta = rng.uniform(0.5, 2.0), rng.uniform(0.5, 1.5)
    z = rng.uniform(0.3, 2.5)
    phi = z / alpha * rng.uniform(1.2, 3.0)
    return _config(rng, alpha, beta, 0.0, z, phi, t)


def _small(rng, t=None):
    """Small holdings: phi 10%-95% of (z - 2y)/alpha."""
    alpha, beta = rng.uniform(0.5, 2.0), rng.uniform(0.5, 1.5)
    sigma = rng.uniform(0.05, 0.4)
    y = sigma * sigma / (4.0 * beta)
    z = rng.uniform(2.0 * y + 0.3, 2.5)
    phi = (z - 2.0 * y) / alpha * rng.uniform(0.1, 0.95)
    return _config(rng, alpha, beta, sigma, z, phi, t)


def _gap(rng, t=None):
    """Between the small- and large-holdings conditions, 20%-80% across."""
    alpha, beta = rng.uniform(0.5, 2.0), rng.uniform(0.5, 1.5)
    sigma = rng.uniform(0.1, 0.4)
    y = sigma * sigma / (4.0 * beta)
    z = rng.uniform(2.0 * y + 0.3, 2.0)
    lo, hi = (z - 2.0 * y) / alpha, max(z, 1.0 + beta) / alpha
    phi = lo + (hi - lo) * rng.uniform(0.2, 0.8)
    return _config(rng, alpha, beta, sigma, z, phi, t)


def _config(rng, alpha, beta, sigma, z, phi, t):
    fund = rng.uniform(-0.5, 0.5)
    t = rng.uniform(0.5, 1.0) if t is None else t
    return {"alpha": alpha, "beta": beta, "sigma": sigma, "F": fund, "t": t,
            "w": 0.0, "phi": phi, "s": math.exp(fund + z)}


def _model(ou, cfg):
    params = ou.ModelParams(alpha=cfg["alpha"], beta=cfg["beta"], sigma=cfg["sigma"],
                            fundamental_log=cfg["F"], horizon=cfg["t"])
    state = ou.MarketState(cash=cfg["w"], holdings=cfg["phi"], price=cfg["s"])
    return params, state


class _Workload:
    instances: list[tuple[str, object]]  # (regime label, inputs)

    def regimes(self) -> list[str]:
        return [regime for regime, _ in self.instances]

    def classify(self, i: int) -> str:
        return self.instances[i][0]

    def reset(self) -> None:
        pass


class _CliWorkload(_Workload):
    """One operation is one in-process `ouexec <command>` on a config file."""

    command = ""

    def __init__(self, ou, seed: int, workdir: Path):
        self.ou = ou
        self.rng = np.random.default_rng(seed)
        self.instances = self.generate()
        self.paths = []
        for i, (_, cfg) in enumerate(self.instances):
            path = workdir / f"config-{i}.json"
            path.write_text(json.dumps(cfg))
            self.paths.append(path)
        self.out = workdir / "out"

    def classify(self, i: int) -> str:
        return self.ou.classify(*_model(self.ou, self.instances[i][1])).value

    def run(self, i: int):
        return self.ou.cli.main([self.command, "--config", str(self.paths[i]),
                                 "--out", str(self.out)])

    def reset(self) -> None:
        self.out.mkdir(exist_ok=True)
        for f in self.out.iterdir():
            f.unlink()

    def digest(self, result) -> tuple[str, int]:
        h = hashlib.sha256(repr(result).encode())
        size = 0
        for f in sorted(self.out.iterdir()):
            data = f.read_bytes()
            size += len(data)
            h.update(f.name.encode() + b"\0" + data)
        return h.hexdigest(), size

    def _doc(self, result, name):
        if result != 0:
            raise AssertionError(f"exit code {result}")
        return json.loads((self.out / name).read_text())


class DeskSolve(_CliWorkload):
    """`ouexec solve` at the default grid of 1000 points."""

    command = "solve"

    def generate(self):
        kinds = ["large_holdings"] * 76 + ["zero_vol"] * 12 + ["small_holdings"] * 12
        make = {"large_holdings": _large, "zero_vol": _zero_vol, "small_holdings": _small}
        insts = [(k, make[k](self.rng)) for k in kinds]
        # the first instance is the warm-up and stays a large-holdings one
        rest = insts[1:]
        order = self.rng.permutation(len(rest))
        return [insts[0]] + [rest[j] for j in order]

    def check(self, i: int, result) -> None:
        ou = self.ou
        doc = self._doc(result, "schedule.json")
        cfg = self.instances[i][1]
        params, state = _model(ou, cfg)
        phi = cfg["phi"]
        gap = abs(doc["p_star"] + doc["density_integral"] + doc["q_star"] - phi)
        if gap > 1e-8 * max(1.0, phi):
            raise AssertionError(f"conservation gap {gap:.3e}")
        if doc["lambda_star"] is None:  # one block: the exact evaluator prices it
            ref = ou.expected_proceeds(params, state, ou.initial_block(phi, cfg["t"]))
        else:
            ref = ou.value_flow_form(params, state, doc["lambda_star"])
        rel = abs(doc["value"] - ref) / abs(doc["value"])
        if rel > 1e-9:
            raise AssertionError(f"value forms differ by {rel:.3e} (relative)")


class VerifyXcheck(_CliWorkload):
    """`ouexec verify`: continuous, n = 1000 discrete, m = 4 brute force,
    two delta realizations and 2e4 x 1000 Monte Carlo."""

    command = "verify"

    def generate(self):
        insts = []
        for _ in range(2):
            for kind, make in (("zero_vol", _zero_vol), ("large_holdings", _large),
                               ("gap", _gap)):
                cfg = make(self.rng, t=1.0)
                cfg.update(paths=20_000, steps=1_000,
                           seed=int(self.rng.integers(0, 2**31)),
                           n_list=[4, 100, 1000], delta_list=[0.05, 0.01])
                insts.append((kind, cfg))
        return insts

    def check(self, i: int, result) -> None:
        doc = self._doc(result, "verify.json")
        if doc["monte_carlo"]["within_3_std_errors"] is not True:
            raise AssertionError("Monte Carlo mean outside 3 standard errors")
        diff, v = doc["discrete_minus_continuous"], doc["continuous_value"]
        if abs(diff) > 1e-3 * max(1.0, abs(v)):
            raise AssertionError(f"n = 1000 discrete value off by {diff:.3e}")


class ManipulateScan(_Workload):
    """`manipulation.scan` at phi = 0: 10 z points, strategy grid of 400.
    A cycle holds 6 scans."""

    def __init__(self, ou, seed: int, workdir: Path):
        self.ou = ou
        rng = np.random.default_rng(seed)
        self.instances = []
        for _ in range(6):
            sigma = rng.uniform(0.1, 0.4)
            lo = rng.uniform(0.5, 1.5)
            self.instances.append(("round_trip", {
                "sigma": sigma, "z_range": (lo, lo + rng.uniform(3.0, 5.0))}))

    def run(self, i: int):
        ou, inst = self.ou, self.instances[i][1]
        params = ou.ModelParams(alpha=1.0, beta=1.0, sigma=inst["sigma"],
                                fundamental_log=0.0, horizon=1.0)
        state = ou.MarketState(cash=0.0, holdings=0.0, price=1.0)
        return ou.manipulation.scan(params, state, inst["z_range"], points=10, grid_points=400)

    def digest(self, rep) -> tuple[str, int]:
        h = hashlib.sha256(repr(rep.first_profitable_z).encode())
        for arr in (rep.z_values, rep.l_values, rep.profit_bounds, rep.verified_profits):
            h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
        return h.hexdigest(), 0

    def check(self, i: int, rep) -> None:
        arrays = (rep.z_values, rep.l_values, rep.profit_bounds, rep.verified_profits)
        if not all(np.all(np.isfinite(a)) for a in arrays):
            raise AssertionError("non-finite scan output")
        # tolerances are those of tests/test_manipulation.py
        weak = np.exp(rep.z_values) * rep.l_values  # (s/alpha) L(z), F = 0, alpha = 1
        if np.any(rep.profit_bounds < weak - 1e-9):
            raise AssertionError("profit bound below (s/alpha) L(z)")
        b, v = rep.profit_bounds, rep.verified_profits
        if np.any(v > b + 1e-8) or np.any(v < b - 1e-6 * np.maximum(1.0, b)):
            raise AssertionError(f"verified profit off the bound by {np.max(np.abs(v - b)):.3e}")
        if rep.first_profitable_z is None:
            raise AssertionError("no certified profitable z")
        k = int(np.flatnonzero(rep.z_values == rep.first_profitable_z)[0])
        if not (b[k] > 0.0 and v[k] > 0.0):
            raise AssertionError("first profitable z is not certified both ways")


WORKLOADS = {"desk_solve": DeskSolve, "verify_xcheck": VerifyXcheck,
             "manipulate_scan": ManipulateScan}
