"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload desk_solve --seed 1 --seconds 30 --trace 0

Run from the repository root (or any copy of it holding src/ouexec). The
package is imported from ./src only, in child processes with BLAS threads
pinned to 1. With --trace 0 the run starts the workload several times to
time set-up, then runs the measured closed loop (one client, whole cycles
of instances) and reports the end-to-end metrics: latencies in reference
time (rescaled by a calibration kernel timed around every operation) in
the JSON result, and the wall-clock figures, ungated, before it. With
--trace 1 it reports the per-layer metrics from a traced pass and the
tracing overhead against an untraced pass in the same process.
Human-readable lines come first; the last line of standard output is the
JSON result. The run record is also written to
.perfbench/record-<workload>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

ROOT = HERE.parent
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# extra fresh processes started before and after the measured worker, so
# that a run's 5 set-ups are spread over it rather than caught in one
# speed phase of a shared machine
SETUP_PROBES = 2
DEADLINE_S = 170.0

END_TO_END = {"setup_s": "s", "ref_ops_per_s": "1/ref_s", "ref_op_p50_ms": "ref_ms",
              "ref_op_p90_ms": "ref_ms", "peak_rss_mb": "MB"}
# printed and recorded, not in the JSON result
EXTRA = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms", "failed_share": "share"}
# reference time is wall time rescaled to a machine on which the worker's
# calibration kernel takes this long
KERNEL_REF_S = 0.005
PER_LAYER = {
    "continuous.p_inverse.elements": "count", "continuous.p_inverse.self_s": "s",
    "continuous.h_eval.calls": "count", "continuous.h_evals_per_solve": "count",
    "continuous.solve_lambda_star.s": "s", "continuous.self_s": "s",
    "numerics.quad_nodes": "count", "numerics.self_s": "s",
    "manipulation.lambda_solves_per_point": "count", "manipulation.scan.s": "s",
    "manipulation.self_s": "s",
    "proceeds.expected_proceeds.calls": "count", "proceeds.cells": "count",
    "proceeds.self_s": "s",
    "discrete.hn_eval.calls": "count", "discrete.hn_evals_per_solve": "count",
    "discrete.fnk_inverse.elements": "count", "discrete.solve_lambda_hat.s": "s",
    "discrete.recover_psi.s": "s", "discrete.brute_force.s": "s",
    "discrete.self_s": "s", "discrete.errors": "count",
    "montecarlo.path_steps": "count", "montecarlo.path_steps_per_s": "1/s",
    "montecarlo.self_s": "s",
    "zero_vol.solve.calls": "count", "zero_vol.solve.s": "s", "zero_vol.self_s": "s",
    "strategy.self_s": "s",
    "cli.bytes_written": "count", "cli.self_s": "s",
    "svg.line_plot.s": "s", "svg.self_s": "s",
    "trace.overhead_share": "share",
}


class BenchError(Exception):
    pass


def _start(args, deadline, probe=False):
    """Start a worker; returns (set-up seconds, parsed result line or None)."""
    env = {**os.environ, **PINNED}
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if probe:
        cmd.append("--probe")
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker exceeded the run deadline")
    lines = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    if proc.returncode != 0 or not lines or "ready" not in lines[0]:
        raise BenchError(f"worker exited with code {proc.returncode}")
    result = lines[1] if len(lines) > 1 else None
    if not probe and result is None:
        raise BenchError("worker printed no result")
    return lines[0]["ready"] - t0, result


def _commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() or None


def _src_sha256():
    h = hashlib.sha256()
    for f in sorted((ROOT / "src" / "ouexec").glob("*.py")):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def _shares(labels):
    return {r: labels.count(r) / len(labels) for r in sorted(set(labels))}


def run(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "ouexec" / "__init__.py").is_file():
        raise BenchError(f"no package source at {ROOT / 'src' / 'ouexec'}")
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)

    probes = 0 if args.trace else SETUP_PROBES
    setups = [_start(args, deadline, probe=True)[0] for _ in range(probes)]
    setup, res = _start(args, deadline)
    setups.append(setup)
    setups += [_start(args, deadline, probe=True)[0] for _ in range(probes)]

    lat, kernel = res["latencies"], res["kernel"]
    ops, cycle = len(lat), res["cycle"]
    wall_ms = sorted(1000.0 * x for x in lat)
    # On a shared machine the CPU speed swings by up to 2x for seconds at a
    # time, and every statistic of wall-clock latencies follows it. The calibration
    # kernel, timed before and after each operation, slows down with it, so
    # each latency is rescaled to a machine on which the kernel takes
    # KERNEL_REF_S: reference seconds. A change to the package moves the
    # operations and not the kernel.
    ref = [x * 2.0 * KERNEL_REF_S / (kernel[i] + kernel[i + 1]) for i, x in enumerate(lat)]
    ref_ms = sorted(1000.0 * x for x in ref)
    # Ops run in whole cycles, so ref[i::cycle] are the repeats of instance i.
    inst_ms = [1000.0 * statistics.fmean(ref[i::cycle]) for i in range(cycle)]
    attempted = ops + res.get("traced_ops", 0)
    failed = res["failed"]
    regimes = res["regimes"]
    extra = {
        "ops_per_s": ops / sum(lat),
        "op_p50_ms": statistics.median(wall_ms),
        "op_p90_ms": statistics.quantiles(wall_ms, n=10, method="inclusive")[8],
        "failed_share": failed / attempted,
    }
    extra_samples = {"ops_per_s": ops, "op_p50_ms": ops, "op_p90_ms": ops,
                     "failed_share": attempted}
    if args.trace:
        metrics = {k: res["per_layer"][k] for k in PER_LAYER}
        units = PER_LAYER
        samples = dict.fromkeys(PER_LAYER, res["traced_ops"])
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "ref_ops_per_s": ops / sum(ref),
            "ref_op_p50_ms": statistics.median(inst_ms),
            "ref_op_p90_ms": statistics.quantiles(ref_ms, n=10, method="inclusive")[8],
            "peak_rss_mb": res["peak_rss_mb"],
        }
        units = END_TO_END
        samples = {"setup_s": len(setups), "ref_ops_per_s": ops, "ref_op_p50_ms": cycle,
                   "ref_op_p90_ms": ops, "peak_rss_mb": 1}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": _commit(), "src_sha256": _src_sha256(),
        "nproc": os.cpu_count(), "python": res["python"], "numpy": res["numpy"],
        "platform": platform.platform(), "thread_pinning": PINNED,
        "closed_loop_clients": 1, "distinct_instances": cycle,
        "ops_per_run": ops, "traced_ops": res.get("traced_ops"),
        "regime_shares_of_ops": _shares([regimes[i % cycle] for i in range(ops)]),
        "attempted": attempted, "failed": failed,
        "failures": res["failures"], "outputs_sha256": res["outputs_sha256"],
        "setup_samples_s": setups,
        "repeats_per_instance": ops // cycle,
        "latencies_s": lat,
        "kernel_s": kernel,
        "kernel_ref_s": KERNEL_REF_S,
        "extra": {k: {"value": v, "unit": EXTRA[k], "samples": extra_samples[k]}
                  for k, v in extra.items()},
        "metrics": {k: {"value": v, "unit": units[k], "samples": samples[k]}
                    for k, v in metrics.items()},
    }
    if args.trace:
        record["per_layer_all"] = res["per_layer"]
        record["spans_kept"], record["spans_dropped"] = res["spans_kept"], res["spans_dropped"]
    (out_dir / f"record-{args.workload}.json").write_text(json.dumps(record, indent=2) + "\n")
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    try:
        rec = run(args)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(f"{rec['workload']} seed={rec['seed']} trace={rec['trace']} "
          f"commit={rec['commit']} src_sha256={rec['src_sha256'][:16]} "
          f"nproc={rec['nproc']} python={rec['python']} numpy={rec['numpy']}")
    print(f"ops={rec['ops_per_run']} distinct={rec['distinct_instances']} "
          f"regimes={json.dumps(rec['regime_shares_of_ops'])} "
          f"outputs_sha256={rec['outputs_sha256'][:16]}")
    print(f"failed = {rec['failed']} of {rec['attempted']}")
    for f in rec["failures"]:
        print(f"  failure: {f}")
    for k, m in rec["extra"].items():
        print(f"{k} = {m['value']!r} {m['unit']} (n={m['samples']}, not gated)")
    for k, m in rec["metrics"].items():
        print(f"{k} = {m['value']!r} {m['unit']} (n={m['samples']})")
    print(json.dumps({
        "correct": rec["failed"] == 0,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in rec["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
