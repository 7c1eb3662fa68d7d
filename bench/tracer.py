"""Spans around the public functions of the five vazhu layers.

The tracer lives in the benchmark, not in the program: it replaces each
public function or method with a wrapper that times the call.  A span's
self time is its duration minus the time covered by the spans of other
wrapped functions it called, so the self times of all functions add up to
the traced time without double counting.  A layer's busy time is the time
during which at least one span of that layer was open.

Span durations leave out the time spent in the Pace's timer interrupts
(pace.py), as the Gate's op times do.

Install it only in a process dedicated to one traced pass: the wrappers are
never removed.
"""

from __future__ import annotations

import sys
import time

# (layer, metric name, owner path, attribute names).  The owner path is
# "module" for a module-level function or "module:Class" for a method.
# A module-level function is patched in every vazhu module that holds it,
# because modules that import it by name call their own reference.
TARGETS = [
    ("scalar", "mul", "scalar:Scalar", ("__mul__", "__rmul__")),
    ("scalar", "add", "scalar:Scalar", ("__add__", "__radd__")),
    ("scalar", "div", "scalar:Scalar", ("__truediv__",)),
    ("enveloping", "axiom_suite", "enveloping", ("axiom_suite",)),
    ("enveloping", "nth_product", "enveloping:VertexAlgebra", ("nth_product",)),
    ("enveloping", "apply_mode", "enveloping:VertexAlgebra", ("apply_mode",)),
    ("enveloping", "translation", "enveloping:VertexAlgebra", ("translation",)),
    ("enveloping", "trim_caches", "enveloping:VertexAlgebra", ("trim_caches",)),
    ("presentation", "validate", "presentation:VaPresentation", ("validate",)),
    ("presentation", "jacobi_residual", "presentation:VaPresentation",
     ("jacobi_residual",)),
    ("presentation", "check_embedding", "presentation", ("check_embedding",)),
    ("linalg", "solve_membership", "linalg", ("solve_membership",)),
    ("linalg", "kernel", "linalg", ("kernel",)),
    ("linalg", "supercommutator", "linalg:SuperMatrix", ("supercommutator",)),
    # the contact bracket in both of its forms: on contact vector fields,
    # which the contact algebra builds use, and on generating functions
    ("linalg", "contact_bracket", "linalg:ContactDerivation", ("bracket",)),
    ("linalg", "contact_bracket", "linalg", ("contact_bracket",)),
    ("liesuper", "build_algebra", "liesuper", ("build_algebra",)),
    ("liesuper", "validate", "liesuper:LieSuperalgebra", ("validate",)),
    ("liesuper", "bracket", "liesuper:LieSuperalgebra", ("bracket",)),
    ("liesuper", "subalgebra", "liesuper:LieSuperalgebra", ("subalgebra",)),
    ("liesuper", "morphism_check", "liesuper:LieMorphism", ("check",)),
]

LAYERS = ("scalar", "enveloping", "presentation", "linalg", "liesuper")

# functions reported with calls and self time; trim_caches only as a count
TIMED = [f"{layer}.{name}" for layer, name, _, _ in TARGETS
         if name != "trim_caches"]
TIMED = list(dict.fromkeys(TIMED))

METRICS = (
    [m for name in TIMED for m in (f"{name}.calls", f"{name}.self_s")]
    + [f"{layer}.busy_s" for layer in LAYERS]
    + [
        "scalar.rational_frac",
        "enveloping.axiom_suite.checks",
        "enveloping.nth_product.empty_frac",
        "enveloping.trims",
        "trace.overhead_s",
    ]
)


class Tracer:
    """Call counts, self time and layer busy time of the wrapped functions."""

    def __init__(self, pace):
        self.pace = pace  # its interrupts are taken out of span durations
        self.stats: dict[str, list] = {}  # name -> [calls, self seconds]
        self.busy = {layer: 0.0 for layer in LAYERS}
        self.depth = {layer: 0 for layer in LAYERS}
        self.scalar_results = 0
        self.rational_results = 0
        self.products = 0
        self.empty_products = 0
        self.checks = 0
        self.trims = 0
        self._stack: list = []  # one [child seconds] cell per open span

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "vazhu" or n.startswith("vazhu.")]
        observers = {
            "scalar.mul": self._see_scalar,
            "scalar.add": self._see_scalar,
            "scalar.div": self._see_scalar,
            "enveloping.nth_product": self._see_product,
            "enveloping.axiom_suite": self._see_report,
            "enveloping.trim_caches": self._see_trim,
        }
        for layer, name, owner, attrs in TARGETS:
            metric = f"{layer}.{name}"
            observe = observers.get(metric)
            mod_name, _, cls_name = owner.partition(":")
            module = sys.modules[f"vazhu.{mod_name}"]
            if cls_name:
                cls = getattr(module, cls_name)
                for attr in attrs:
                    orig = cls.__dict__[attr]
                    setattr(cls, attr, self._wrap(layer, metric, orig, observe))
                continue
            for attr in attrs:
                orig = getattr(module, attr)
                wrapped = self._wrap(layer, metric, orig, observe)
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, key, wrapped)

    def _wrap(self, layer, metric, fn, observe):
        stat = self.stats.setdefault(metric, [0, 0.0])
        stack = self._stack
        busy, depth = self.busy, self.depth
        pace = self.pace
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            depth[layer] += 1
            paused = pace.paused
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start - (pace.paused - paused)
                stack.pop()
                depth[layer] -= 1
                stat[0] += 1
                stat[1] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if not depth[layer]:
                    busy[layer] += dur
            if observe is not None:
                observe(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _see_scalar(self, result) -> None:
        if result is not NotImplemented:
            self.scalar_results += 1
            if not result.is_polynomial():
                self.rational_results += 1

    def _see_product(self, result) -> None:
        self.products += 1
        if not result:
            self.empty_products += 1

    def _see_report(self, report) -> None:
        self.checks += report.checks

    def _see_trim(self, trimmed) -> None:
        if trimmed:
            self.trims += 1

    def metrics(self) -> dict:
        """Per-layer metrics, except trace.overhead_s which needs two passes."""
        out = {}
        for name in TIMED:
            calls, self_s = self.stats[name]
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        for layer in LAYERS:
            out[f"{layer}.busy_s"] = self.busy[layer]
        out["scalar.rational_frac"] = _frac(self.rational_results,
                                            self.scalar_results)
        out["enveloping.axiom_suite.checks"] = self.checks
        out["enveloping.nth_product.empty_frac"] = _frac(self.empty_products,
                                                         self.products)
        out["enveloping.trims"] = self.trims
        return out


def _frac(part: int, whole: int) -> float:
    return part / whole if whole else 0.0
