"""Command-line front end.

Commands: solve, converge, simulate, verify, manipulate. Each reads a
JSON config (model parameters plus command options), writes its outputs
into --out, and logs progress to stderr. Output files are pure functions
of the config: re-running a command produces byte-identical bytes, so
runs can be diffed. Timing and other incidental information never enters
the files.

Exit codes: 0 success, 1 bad configuration or I/O, 2 regime has no
closed form where one was required, 3 numerical failure. Failures print
a one-line machine-readable JSON reason to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import continuous, discrete, manipulation, montecarlo, svg
from .errors import ConfigError, NumericalError, RegimeError, check_int, check_positive
from .model import MarketState, ModelParams, Regime, classify
from .proceeds import expected_proceeds
from .strategy import period_blocks, realize_delta, to_csv

_PARAM_KEYS = ("alpha", "beta", "sigma", "F", "t", "w", "phi", "s")
_OPTION_KEYS = ("grid_points", "tol", "paths", "steps", "seed",
                "n_list", "z_range", "delta_list")


def _load_config(path: str, overrides: dict):
    """Model, state and options of a config; overrides (command-line flags) pass the same checks."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    raw.update(overrides)
    unknown = sorted(set(raw) - set(_PARAM_KEYS) - set(_OPTION_KEYS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    missing = [k for k in _PARAM_KEYS if k not in raw]
    if missing:
        raise ConfigError(f"missing config keys: {', '.join(missing)}")

    def num(key):
        v = raw[key]
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigError(f"config key {key!r} must be a number")
        return float(v)

    params = ModelParams(alpha=num("alpha"), beta=num("beta"), sigma=num("sigma"),
                         fundamental_log=num("F"), horizon=num("t"))
    state = MarketState(cash=num("w"), holdings=num("phi"), price=num("s"))

    opts = {}
    for key in _OPTION_KEYS:
        if key not in raw:
            continue
        v = raw[key]
        if key in ("grid_points", "paths", "steps", "seed"):
            check_int(f"option {key!r}", v, 0 if key == "seed" else 1)
        elif key == "tol":
            check_positive("option 'tol'", v)
            v = float(v)
        elif key == "n_list":
            if (not isinstance(v, list) or not v
                    or any(isinstance(n, bool) or not isinstance(n, int) or n < 1 for n in v)):
                raise ConfigError("config key 'n_list' must be a list of positive integers")
        elif key == "z_range":
            if (not isinstance(v, list) or len(v) != 2
                    or any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in v)
                    or not v[0] < v[1]):
                raise ConfigError("config key 'z_range' must be [lo, hi] with lo < hi")
            v = [float(v[0]), float(v[1])]
        elif key == "delta_list":
            if (not isinstance(v, list) or not v
                    or any(isinstance(x, bool) or not isinstance(x, (int, float)) or x <= 0
                           for x in v)):
                raise ConfigError("config key 'delta_list' must be a list of positive numbers")
            v = [float(x) for x in v]
        opts[key] = v
    return params, state, opts


def _write(out_dir: Path, name: str, text: str) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    path.write_text(text)
    print(f"wrote {path}", file=sys.stderr)
    return path


def _csv(header: list[str], columns) -> str:
    """CSV of equal-length columns: float arrays, or lists of Python ints, floats or text.

    str is repr for an int or a float and leaves text as it is.
    """
    cells = [map(str, c.tolist() if isinstance(c, np.ndarray) else c) for c in columns]
    return "\n".join([",".join(header), *map(",".join, zip(*cells))]) + "\n"


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _mc_agreement(mean: float, std_error: float, analytic: float) -> dict:
    """Monte Carlo mean against the analytic value: z-score (null at zero error) and 3-SE test."""
    dev = mean - analytic
    bound = 3.0 * std_error if std_error > 0 else 1e-9 * max(1.0, abs(analytic))
    return {"z_score": dev / std_error if std_error > 0 else None,
            "within_3_std_errors": bool(abs(dev) <= bound)}


def cmd_solve(params, state, opts, out_dir: Path, tol: float) -> int:
    grid_points = opts.get("grid_points", 1000)
    if classify(params, state) is Regime.GAP:
        val = continuous.value(params, state, tol=tol)
        _write(out_dir, "schedule.json", _json_text({
            "closed_form": False,
            "regime": "gap",
            "value": val,
            "fallback": f"n-period stationary allocation at n = {continuous._GAP_FALLBACK_N}",
        }))
        return 0

    sched = continuous.schedule(params, state, grid_points=grid_points, tol=tol)
    _write(out_dir, "schedule.csv",
           _csv(["r", "xi_star", "zeta_star", "eta_star", "expected_price"],
                [sched.times, sched.xi, sched.zeta, sched.eta, sched.expected_price]))
    _write(out_dir, "schedule.json", _json_text({
        "closed_form": True,
        "regime": sched.regime.value,
        "lambda_star": sched.lambda_star,
        "p_star": sched.p_star,
        "q_star": sched.q_star,
        "density_integral": sched.density_integral,
        "value": sched.value,
    }))
    _write(out_dir, "zeta.svg", svg.line_plot(
        [("zeta*", sched.times, sched.zeta)],
        "Optimal selling rate", "r", "zeta*"))
    holdings = state.holdings - sched.eta
    _write(out_dir, "holdings.svg", svg.line_plot(
        [("remaining", sched.times, holdings)],
        "Remaining holdings (blocks excluded at the edges)", "r", "phi - eta*"))
    _write(out_dir, "strategy.csv", to_csv(sched.strategy))
    return 0


def cmd_converge(params, state, opts, out_dir: Path, tol: float) -> int:
    n_list = opts.get("n_list", [10, 100, 1000])
    v_ref = continuous.value(params, state, tol=tol)
    rows = []
    errs = []
    for n in n_list:
        try:
            lam = discrete.solve_lambda_hat(params, state, n, tol=tol)
            psi = discrete.recover_psi(params, state, n, lam)
            val = discrete.discrete_value(params, state, psi, n)
            err = abs(val - v_ref)
            rows.append((lam, psi[0], psi[-1], val, err))
            errs.append((n, err))
        except NumericalError as e:
            print(f"n={n}: {e}", file=sys.stderr)
            rows.append((math.nan,) * 5)
    _write(out_dir, "convergence.csv",
           _csv(["n", "lambda_hat", "psi_0", "psi_last", "objective",
                 "err_vs_continuous"], [n_list, *np.array(rows, dtype=float).T]))
    if errs:
        ns = np.array([n for n, _ in errs], dtype=float)
        es = np.array([e for _, e in errs], dtype=float)
        _write(out_dir, "convergence.svg", svg.line_plot(
            [("|value_n - value|", ns, es)],
            "Discrete-to-continuous convergence", "n", "absolute error",
            log_x=True, log_y=True))
    return 0


def _align_steps(steps: int, cells: int) -> int:
    if steps % cells == 0:
        return steps
    aligned = -(-steps // cells) * cells
    print(f"steps {steps} rounded up to {aligned} (multiple of {cells} grid cells)",
          file=sys.stderr)
    return aligned


def cmd_simulate(params, state, opts, out_dir: Path, tol: float) -> int:
    grid_points = opts.get("grid_points", 1000)
    sched = continuous.schedule(params, state, grid_points=grid_points, tol=tol)
    steps = _align_steps(opts.get("steps", 1_000), sched.strategy.cells)
    rep = montecarlo.simulate(params, state, sched.strategy, paths=opts.get("paths", 100_000),
                              steps=steps, seed=opts.get("seed", 0))
    print(f"simulated {rep.paths} paths in {rep.elapsed:.2f}s", file=sys.stderr)
    _write(out_dir, "simulate.json", _json_text({
        "paths": rep.paths,
        "steps": steps,
        "mean_cash": rep.mean_cash,
        "std_error": rep.std_error,
        "seed": rep.seed,
        "analytic_value": sched.value,
        "abs_deviation": abs(rep.mean_cash - sched.value),
        **_mc_agreement(rep.mean_cash, rep.std_error, sched.value),
    }))
    return 0


def cmd_verify(params, state, opts, out_dir: Path, tol: float) -> int:
    n_list = opts.get("n_list", [10, 100, 1000])
    paths = opts.get("paths", 100_000)
    steps = opts.get("steps", 1_000)
    seed = opts.get("seed", 0)
    grid_points = opts.get("grid_points", 1000)

    regime = classify(params, state)
    if regime is Regime.GAP:  # no schedule: value() falls back to the n-period solver
        sched, v_cont = None, continuous.value(params, state, tol=tol)
    else:
        sched = continuous.schedule(params, state, grid_points=grid_points, tol=tol)
        v_cont = sched.value
    rows = [("continuous", v_cont, "")]
    detail = {"regime": regime.value, "continuous_value": v_cont}

    n_max = max(n_list)
    lam = discrete.solve_lambda_hat(params, state, n_max, tol=tol)
    psi = discrete.recover_psi(params, state, n_max, lam)
    v_disc = discrete.discrete_value(params, state, psi, n_max)
    rows.append(("discrete", v_disc, f"n={n_max}"))
    detail["discrete"] = {"n": n_max, "value": v_disc, "lambda_hat": lam}

    n_bf = max([n for n in n_list if n * params.horizon <= 4.0], default=None)
    if n_bf is None and 4 * params.horizon >= 1.0:
        n_bf = int(4 / params.horizon)
    if n_bf is not None:
        x_bf, v_bf = discrete.brute_force(params, state, n_bf)
        rows.append(("brute_force", v_bf, f"n={n_bf}"))
        detail["brute_force"] = {"n": n_bf, "value": v_bf,
                                 "allocation": [float(v) for v in x_bf]}

    if sched is None:
        strategy, steps = period_blocks(psi, n_max), psi.size
    else:
        strategy, steps = sched.strategy, _align_steps(steps, sched.strategy.cells)
        for delta in opts.get("delta_list", []):
            v_delta = expected_proceeds(params, state, realize_delta(strategy, delta))
            rows.append(("delta_family", v_delta, f"delta={delta!r}"))
            detail.setdefault("delta_family", []).append(
                {"delta": delta, "value": v_delta})
    rep = montecarlo.simulate(params, state, strategy, paths=paths, steps=steps, seed=seed)
    print(f"simulated {rep.paths} paths in {rep.elapsed:.2f}s", file=sys.stderr)
    rows.append(("monte_carlo", rep.mean_cash, f"se={rep.std_error!r}"))
    detail["monte_carlo"] = {"paths": rep.paths, "mean_cash": rep.mean_cash,
                             "std_error": rep.std_error, "seed": rep.seed,
                             **_mc_agreement(rep.mean_cash, rep.std_error, v_cont)}
    detail["discrete_minus_continuous"] = v_disc - v_cont

    methods, values, details = zip(*rows)
    _write(out_dir, "verify.csv", _csv(["method", "value", "detail"],
                                       [methods, np.array(values, dtype=float), details]))
    _write(out_dir, "verify.json", _json_text(detail))
    return 0


def cmd_manipulate(params, state, opts, out_dir: Path, tol: float) -> int:
    if abs(state.holdings) > 1e-12:
        raise ConfigError("manipulate analyses round trips; set phi = 0 in the config")
    z_range = tuple(opts.get("z_range", [0.0, 10.0]))
    grid_points = opts.get("grid_points", 400)
    rep = manipulation.scan(params, state, z_range, grid_points=grid_points)
    _write(out_dir, "manipulation.csv",
           _csv(["z", "L", "bound", "verified_profit"],
                [rep.z_values, rep.l_values, rep.profit_bounds, rep.verified_profits]))
    # normalize the bound by s_z/alpha so both curves live on L's scale
    s_z = np.exp(params.fundamental_log + rep.z_values)
    norm_bound = rep.profit_bounds * params.alpha / s_z
    _write(out_dir, "manipulation.svg", svg.line_plot(
        [("L(z)", rep.z_values, rep.l_values),
         ("bound * alpha / s", rep.z_values, norm_bound)],
        "Round-trip profitability", "z", "normalized profit"))
    _write(out_dir, "manipulation.json", _json_text({
        "first_profitable_z": rep.first_profitable_z,
        "points": int(len(rep.z_values)),
        "z_range": [float(z_range[0]), float(z_range[1])],
    }))
    return 0


_COMMANDS = {
    "solve": cmd_solve,
    "converge": cmd_converge,
    "simulate": cmd_simulate,
    "verify": cmd_verify,
    "manipulate": cmd_manipulate,
}


@functools.cache  # one parser per process: parse_args leaves it as it is
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ouexec",
        description="Optimal liquidation schedules under mean-reverting prices "
                    "with linear market impact")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("solve", "compute the optimal schedule and emit CSV/JSON/SVG"),
            ("converge", "run the n-period solver over n_list and chart the error"),
            ("simulate", "Monte Carlo the optimal schedule"),
            ("verify", "cross-check continuous, discrete, brute-force and MC values"),
            ("manipulate", "scan round-trip profitability over a z range")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to JSON config")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--tol", type=float, default=None,
                       help="override the solver tolerance")
        if name == "simulate":
            p.add_argument("--paths", type=int, default=None)
            p.add_argument("--steps", type=int, default=None)
            p.add_argument("--seed", type=int, default=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        flags = {k: v for k, v in vars(args).items() if k in _OPTION_KEYS and v is not None}
        params, state, opts = _load_config(args.config, flags)
        return _COMMANDS[args.command](params, state, opts, Path(args.out),
                                       opts.get("tol", 1e-10))
    except RegimeError as e:
        print(json.dumps({"kind": "regime", "error": str(e)}), file=sys.stderr)
        return 2
    except NumericalError as e:
        print(json.dumps({"kind": "numerical", "error": str(e)}), file=sys.stderr)
        return 3
    except (ConfigError, OSError) as e:
        print(json.dumps({"kind": "config", "error": str(e)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
