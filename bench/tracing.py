"""Spans and counters around qal's public functions, installed from outside.

`Tracer.install()` replaces each traced function with a wrapper in every
qal module namespace that holds it by name (methods are replaced on their
class), so calls between modules and within a module both pass through the
wrapper.  qal's source is not changed.  Spans are kept in memory as flat
lists with a parent link; self time is a span's duration minus that of its
child spans, computed when the run ends.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# Spans: (module, attribute path). Each gets `<layer>.<name>.calls` and
# `<layer>.<name>.self_s`, the layer being the module's last dotted part.
SPANS = [
    ("qal.dyadic", "iv_quad_step"),
    ("qal.oracle", "ParamOracle.query"),
    ("qal.params", "critical_value_eval"),
    ("qal.params", "superstable_center"),
    ("qal.params", "epsilon_family"),
    ("qal.params", "window_endpoints"),
    ("qal.dynamics", "certify_attracting_cycle"),
    ("qal.dynamics", "iter_eval"),
    ("qal.dynamics", "isolate_periodic_points"),
    ("qal.renorm", "detect_renormalization"),
    ("qal.renorm", "principal_nest"),
    ("qal.renorm", "essential_structure"),
    ("qal.attractor", "classify"),
    ("qal.attractor", "approximate"),
    ("qal.attractor", "pixel_query"),
    ("qal.attractor", "render"),
]
# Counters only: these run millions of times and a span each would swamp
# the run.  Metric name -> (module, attribute path).
COUNTERS = {
    "dyadic.Dyadic.new": ("qal.dyadic", "Dyadic.__init__"),
    "dyadic.Dyadic.compare": ("qal.dyadic", "Dyadic._cmp"),
    "dynamics.TrackedInterval.image.calls": ("qal.dynamics", "TrackedInterval.image"),
}
STEPS = "params.critical_value_eval.steps"  # the sum of n over its calls


def _metric_base(module: str, path: str) -> str:
    layer = module.rsplit(".", 1)[1]
    # a method of the oracle base class is reported under the layer alone
    if path == "ParamOracle.query":
        return f"{layer}.query"
    return f"{layer}.{path}"


SPAN_NAMES = [_metric_base(m, p) for m, p in SPANS]


def per_layer_names() -> list:
    """Every per-layer metric the traced run reports, in a fixed order."""
    names = list(COUNTERS)
    for base in SPAN_NAMES:
        names += [f"{base}.calls", f"{base}.self_s"]
    return names + [STEPS, "oracle.units", "oracle.max_precision_bits",
                    "trace.overhead"]


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _qal_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "qal" or name.startswith("qal."))]


class Tracer:
    """Records spans into flat lists while installed."""

    def __init__(self):
        self.names: list = []  # name index per span
        self.parents: list = []  # index of the enclosing span, or -1
        self.starts: list = []
        self.ends: list = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.steps = 0
        self._stack = [-1]
        self._undo: list = []

    # -- installation ------------------------------------------------------

    def install(self):
        for idx, (module, path) in enumerate(SPANS):
            owner, attr = _resolve(module, path)
            self._replace(owner, attr, self._span_wrapper(idx, getattr(owner, attr)))
        for metric, (module, path) in COUNTERS.items():
            owner, attr = _resolve(module, path)
            self._replace(owner, attr, self._count_wrapper(metric, getattr(owner, attr)))

    def _replace(self, owner, attr: str, wrapper):
        original = getattr(owner, attr)
        if isinstance(owner, type):
            self._undo.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for mod in _qal_modules():
            if vars(mod).get(attr) is original:
                self._undo.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _span_wrapper(self, idx: int, fn):
        names, parents, starts, ends = (self.names, self.parents,
                                        self.starts, self.ends)
        stack, clock = self._stack, time.perf_counter_ns
        count_steps = fn.__name__ == "critical_value_eval"

        def traced(*args, **kwargs):
            if count_steps:
                self.steps += args[1] if len(args) > 1 else kwargs["n"]
            k = len(names)
            names.append(idx)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(k)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[k] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, metric: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- results -----------------------------------------------------------

    def mark(self) -> tuple:
        """Position to pass to summary() for the spans and counts after it."""
        return len(self.names), dict(self.counts), self.steps

    def summary(self, since: tuple = (0, None, 0)) -> dict:
        """Per-name calls and self time (s) of the spans recorded since a mark."""
        first, counts0, steps0 = since
        child = [0] * (len(self.names) - first)
        for k in range(len(self.names) - 1, first - 1, -1):
            p = self.parents[k]
            if p >= first:
                child[p - first] += self.ends[k] - self.starts[k]
        calls = [0] * len(SPANS)
        self_ns = [0] * len(SPANS)
        for k in range(first, len(self.names)):
            i = self.names[k]
            calls[i] += 1
            self_ns[i] += self.ends[k] - self.starts[k] - child[k - first]
        out = {}
        for i, base in enumerate(SPAN_NAMES):
            out[f"{base}.calls"] = calls[i]
            out[f"{base}.self_s"] = self_ns[i] / 1e9
        for metric, value in self.counts.items():
            out[metric] = value - (counts0 or {}).get(metric, 0)
        out[STEPS] = self.steps - steps0
        return out

    def write(self, path: str):
        """One JSON object per span: id, parent, name, start_ns, end_ns."""
        with open(path, "w") as fh:
            for k, i in enumerate(self.names):
                fh.write(json.dumps({"id": k, "parent": self.parents[k],
                                     "name": SPAN_NAMES[i],
                                     "start_ns": self.starts[k],
                                     "end_ns": self.ends[k]}) + "\n")

