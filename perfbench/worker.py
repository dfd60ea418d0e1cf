"""One benchmark process: import the package, warm up, run the closed loop.

Started by run.py, never imported by it. It prints one line
{"ready": <CLOCK_MONOTONIC seconds>} once the warm-up operation is done,
so the parent can time interpreter start, import and warm-up together;
with --probe it stops there. Otherwise it runs whole cycles of the
workload's instances until the time spent inside operations reaches
--seconds, and prints one JSON line with the raw results. With --trace 1
the seconds are split between an untraced pass and a traced pass over the
same cycle, and the traced pass adds the per-layer numbers.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import warnings
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


_KX = np.linspace(0.0, 1.0, 1000)


def calibration_kernel() -> float:
    """Time a fixed piece of work (about 5 ms) that uses neither the package
    nor anything a change to it can touch: a float loop in the interpreter
    and small numpy calls, the two kinds of work the package's operations
    mix. Timed next to every operation, it tracks how fast the shared
    machine runs at that moment; 5 ms is long enough to average over the
    machine's brief fast moments and short next to an operation."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(15_000):
        acc += math.sqrt(i + 1.0) * 0.5
    for i in range(200):
        acc += float(np.sum(np.exp(-_KX * (i % 40 + 1)) * _KX))
    return time.perf_counter() - start


class Loop:
    def __init__(self, wl, sink):
        self.wl = wl
        self.sink = sink
        self.first: dict[int, str] = {}  # instance -> digest of its first run
        self.failures: list[str] = []

    def op(self, i: int, tracer: Tracer | None = None) -> tuple[float, bool, int]:
        """Run instance i once; returns (seconds, ok, output bytes)."""
        wl = self.wl
        wl.reset()
        with contextlib.redirect_stderr(self.sink):
            if tracer is not None:
                tracer.active = True
            start = time.perf_counter()
            try:
                result, error = wl.run(i), None
            except Exception as e:  # a failed operation is counted, not fatal
                result, error = None, e
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.active = False
        size = 0
        try:
            if error is not None:
                raise AssertionError(f"{type(error).__name__}: {error}")
            digest, size = wl.digest(result)
            if i not in self.first:
                wl.check(i, result)
                self.first[i] = digest
            elif digest != self.first[i]:
                raise AssertionError("output bytes differ from the first run")
            return elapsed, True, size
        except Exception as e:  # any failed check marks the operation failed
            if len(self.failures) < 10:
                self.failures.append(f"instance {i}: {e}")
            return elapsed, False, size

    def cycles(self, seconds: float, tracer: Tracer | None = None) -> dict:
        """Whole cycles until `seconds` of operation time. The calibration
        kernel runs before every operation and once after the last, so
        kernel[i] and kernel[i + 1] bracket operation i."""
        lat, kernel, failed, size = [], [], 0, 0
        n = len(self.wl.instances)
        # a broken program fails fast; stop after a few cycles instead of spinning
        while not lat or (sum(lat) < seconds and failed < 100):
            for i in range(n):
                if tracer is not None:
                    tracer.op = len(lat)
                kernel.append(calibration_kernel())
                dt, ok, b = self.op(i, tracer)
                lat.append(dt)
                failed += not ok
                size += b
        kernel.append(calibration_kernel())
        return {"latencies": lat, "kernel": kernel, "failed": failed, "bytes": size}


def _mean_in_kernels(run: dict) -> float:
    """Mean operation time in units of the calibration kernel around it, so
    that two passes compare without the machine's speed changes between them."""
    lat, k = run["latencies"], run["kernel"]
    return statistics.fmean(x * 2.0 / (k[i] + k[i + 1]) for i, x in enumerate(lat))


def _trace_metrics(tr: Tracer, ops: int, traced_op: float, base_op: float,
                   out_bytes: int) -> dict:
    c, calls, total, selfs = tr.counts, tr.calls, tr.total_s, tr.layer_self_s()

    def ratio(a, b):
        return a / b if b else 0.0

    def per_op(v):
        return v / ops

    m = {
        "continuous.p_inverse.elements": per_op(c["continuous.p_inverse.elements"]),
        "continuous.p_inverse.self_s": per_op(tr.self_s["continuous.p_inverse"]),
        "continuous.h_eval.calls": per_op(calls["continuous.h_eval"]),
        "continuous.h_evals_per_solve": ratio(
            c["continuous.h_eval@continuous.solve_lambda_star"],
            calls["continuous.solve_lambda_star"]),
        "continuous.solve_lambda_star.s": per_op(total["continuous.solve_lambda_star"]),
        "numerics.quad_nodes": per_op(c["numerics.quad_nodes"]),
        "manipulation.lambda_solves_per_point": ratio(
            c["continuous.solve_lambda_star@manipulation.scan"], c["manipulation.points"]),
        "manipulation.scan.s": per_op(total["manipulation.scan"]),
        "proceeds.expected_proceeds.calls": per_op(calls["proceeds.expected_proceeds"]),
        "proceeds.cells": per_op(c["proceeds.cells"]),
        "discrete.hn_eval.calls": per_op(calls["discrete.hn_eval"]),
        "discrete.hn_evals_per_solve": ratio(
            c["discrete.hn_eval@discrete.solve_lambda_hat"],
            calls["discrete.solve_lambda_hat"]),
        "discrete.fnk_inverse.elements": per_op(c["discrete.fnk_inverse.elements"]),
        "discrete.solve_lambda_hat.s": per_op(total["discrete.solve_lambda_hat"]),
        "discrete.recover_psi.s": per_op(total["discrete.recover_psi"]),
        "discrete.brute_force.s": per_op(total["discrete.brute_force"]),
        "montecarlo.path_steps": per_op(c["montecarlo.path_steps"]),
        "montecarlo.path_steps_per_s": ratio(c["montecarlo.path_steps"], selfs["montecarlo"]),
        "zero_vol.solve.calls": per_op(calls["zero_vol.solve"]),
        "zero_vol.solve.s": per_op(total["zero_vol.solve"]),
        "cli.bytes_written": per_op(out_bytes),
        "svg.line_plot.s": per_op(total["svg.line_plot"]),
        "trace.overhead_share": traced_op / base_op - 1.0,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = per_op(selfs[layer])
        m[f"{layer}.errors"] = per_op(tr.errors[layer])
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args(argv)

    root = Path(args.root).resolve()
    src = root / "src"
    sys.path.insert(0, str(src))
    import ouexec
    import ouexec.cli
    if Path(ouexec.__file__).resolve().parent != src / "ouexec":
        raise SystemExit(f"imported ouexec from {ouexec.__file__}, not from {src}")
    warnings.simplefilter("ignore")

    workdir = root / ".perfbench" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        with open(os.devnull, "w") as sink:
            wl = WORKLOADS[args.workload](ouexec, args.seed, workdir)
            loop = Loop(wl, sink)
            loop.op(0)  # warm-up, not counted: a failure here recurs on its first timed run
            print(json.dumps({"ready": time.monotonic()}), flush=True)
            if args.probe:
                return 0
            mislabelled = [i for i, r in enumerate(wl.regimes()) if wl.classify(i) != r]
            if mislabelled:
                raise SystemExit(f"generated instances {mislabelled} are not in their regime")

            base = loop.cycles(args.seconds / 2 if args.trace else args.seconds)
            out = {"latencies": base["latencies"], "kernel": base["kernel"],
                   "failed": base["failed"]}
            if args.trace:
                tr = Tracer()
                tr.install()
                try:
                    traced = loop.cycles(args.seconds / 2, tr)
                finally:
                    tr.uninstall()
                lat = traced["latencies"]
                out["failed"] += traced["failed"]
                out["traced_ops"] = len(lat)
                out["per_layer"] = _trace_metrics(
                    tr, len(lat), _mean_in_kernels(traced), _mean_in_kernels(base),
                    traced["bytes"])
                out["spans_kept"], out["spans_dropped"] = len(tr.spans), tr.dropped_spans
                tr.write_spans(root / ".perfbench" / f"spans-{args.workload}.jsonl")
            digests = "".join(loop.first.get(i, "-") for i in range(len(wl.instances)))
            out.update(
                failures=loop.failures,
                cycle=len(wl.instances),
                regimes=wl.regimes(),
                outputs_sha256=hashlib.sha256(digests.encode()).hexdigest(),
                peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                python=sys.version.split()[0],
                numpy=np.__version__,
            )
            print(json.dumps(out), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
