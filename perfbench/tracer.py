"""Span tracer that wraps the package's public functions from outside.

Every public function of a traced module is replaced, at every module
attribute that binds it (``continuous.adaptive_quad`` as well as
``numerics.adaptive_quad``, ``cli.expected_proceeds`` as well as
``proceeds.expected_proceeds``), by a wrapper that records a span. The
package source is not modified; `uninstall` restores every binding.

Per span name the tracer keeps calls, total and self time, where self time
is the span's duration minus the time its child spans cover. It also keeps
work counters read from call arguments, the typed errors that escape each
layer, and the first MAX_SPANS raw spans (op, id, parent, name, start,
end) for writing out at the end.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter

import numpy as np

PACKAGE = "ouexec"
MAX_SPANS = 100_000
LAYERS = ("continuous", "zero_vol", "discrete", "proceeds", "montecarlo",
          "manipulation", "numerics", "strategy", "svg", "cli")


def _cells(a):
    return a["strategy"].cells


def _paths(a):
    # a zero-volatility simulation runs one deterministic path
    return a["paths"] if a["params"].sigma > 0.0 else 1


# span name -> (counter name, amount read from the bound call arguments)
COUNTERS = {
    "continuous.p_inverse": ("continuous.p_inverse.elements",
                             lambda a: np.size(a["q"])),
    "discrete.fnk_inverse": ("discrete.fnk_inverse.elements",
                             lambda a: np.broadcast(np.asarray(a["k"]),
                                                    np.asarray(a["q"])).size),
    "numerics.fixed_quad": ("numerics.quad_nodes",
                            lambda a: a["panels"] * a["order"] if a["a"] != a["b"] else 0),
    "montecarlo.simulate": ("montecarlo.path_steps",
                            lambda a: _paths(a) * a["steps"]),
    "montecarlo.simulate_discrete": ("montecarlo.path_steps",
                                     lambda a: _paths(a) * len(a["x_alloc"])),
    "proceeds.proceeds_breakdown": ("proceeds.cells", _cells),
    "proceeds.expected_price_path": ("proceeds.cells", _cells),
    "manipulation.scan": ("manipulation.points", lambda a: a["points"]),
}

# span name -> ancestor span name; counts "<name>@<ancestor>" calls made
# while the ancestor is open, for per-solve and per-point ratios
NESTED = {
    "continuous.h_eval": "continuous.solve_lambda_star",
    "discrete.hn_eval": "discrete.solve_lambda_hat",
    "continuous.solve_lambda_star": "manipulation.scan",
}


class Tracer:
    def __init__(self):
        self.active = False
        self.op = 0
        self._stack: list[list] = []  # [name, layer, span id, child seconds]
        self._next_id = 0
        self.calls: Counter = Counter()
        self.total_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self._patched: list[tuple] = []
        self._typed = ()

    def install(self) -> None:
        errors = sys.modules[f"{PACKAGE}.errors"]
        self._typed = (errors.ConfigError, errors.RegimeError, errors.NumericalError)
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not name.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrappers[id(fn)] = self._wrap(fn, layer, f"{layer}.{name}")
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                w = wrappers.get(id(value))
                if w is not None:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, w)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def _wrap(self, fn, layer: str, name: str):
        counter = COUNTERS.get(name)
        sig = inspect.signature(fn) if counter else None
        ancestor = NESTED.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if counter:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self.counts[counter[0]] += int(counter[1](bound.arguments))
            if ancestor and any(f[0] == ancestor for f in stack):
                self.counts[f"{name}@{ancestor}"] += 1
            parent = stack[-1] if stack else None
            span_id = self._next_id
            self._next_id += 1
            frame = [name, layer, span_id, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except self._typed:
                if parent is None or parent[1] != layer:
                    self.errors[layer] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - start
                if parent is not None:
                    parent[3] += dur
                self.calls[name] += 1
                self.total_s[name] += dur
                self.self_s[name] += dur - frame[3]
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((self.op, span_id,
                                       None if parent is None else parent[2],
                                       name, start, end))
                else:
                    self.dropped_spans += 1

        return traced

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, s in self.self_s.items():
            out[name.split(".", 1)[0]] += s
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for op, span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"op": op, "id": span_id, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")
