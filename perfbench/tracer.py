"""Spans and counters around shiftlab's public functions, installed from outside.

The layers are the package modules.  Every public function of a layer is
rebound, in every shiftlab module that holds it by name, to a wrapper that
records a span (name, start, end, parent, exception type) or, for the hot
leaves in ``LEAVES``, only bumps a call counter.  Nothing under ``src/`` is
edited: the wrappers are installed in the op's own interpreter before
``shiftlab.cli.main`` runs.
"""

from __future__ import annotations

import inspect
import sys
import time

LAYERS = ("core", "groupoid", "spectral", "symmetry", "quantum", "models", "cli")

# Called per word, per walk node or per float: a span each would dominate
# the traced run, so they get a bare counter and their time stays in the
# caller's self time.
LEAVES = {
    "core.is_admissible",
    "core.require_admissible",
    "core.conformal_measure",
    "core.parry_measure",
    "core.kms_value",
    "core.word_cap",
    "core.lexmin_extension",
    "groupoid.is_bisection_index",
    "groupoid.make_bisection",
    "groupoid.common_suffix_length",
    "spectral.eigenvalue_formula",
    "symmetry.preserves_matrix",
    "models.generator_operator",
    "models.word_op_mul",
    "models.word_op_adjoint",
    "models.word_op_norm",
    "models.word_operator",
    "models.normality_element_norm",
    "cli.round15",
}

# Work counts read off a function's return value.
RESULT_SIZES = {
    "core.enumerate_words": len,
    "spectral.spectrum": len,
    "symmetry.matrix_automorphisms": len,
    "quantum.build_constraints": lambda system: len(system.equations),
    "quantum.word_support": lambda support: len(support.words) ** 2,
    "models.relation_check": lambda report: report.words_checked,
}


class Tracer:
    """In-memory span list for one op; dumped once when the op ends."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, exc_type]
        self.stack: list[int] = []
        self.calls: dict[str, int] = {}
        self.sizes: dict[str, int] = {}

    def _span(self, name, fn):
        spans, stack, sizes = self.spans, self.stack, self.sizes
        size_of = RESULT_SIZES.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), None, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if size_of is not None:
                sizes[name] = sizes.get(name, 0) + size_of(out)
            return out

        return wrapper

    def _counter(self, name, fn):
        calls = self.calls
        calls[name] = 0

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> int:
        """Wrap every public layer function; returns the number wrapped."""
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "shiftlab"]
        wrapped = 0
        for layer in LAYERS:
            mod = sys.modules[f"shiftlab.{layer}"]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapper = (
                    self._counter(name, fn) if name in LEAVES else self._span(name, fn)
                )
                # rebind the name wherever it was imported, not only at
                # home, and in module-level dispatch tables (cli._HANDLERS)
                for other in modules:
                    for key, val in list(vars(other).items()):
                        if val is fn:
                            setattr(other, key, wrapper)
                        elif isinstance(val, dict):
                            for k, v in list(val.items()):
                                if v is fn:
                                    val[k] = wrapper
                wrapped += 1
        return wrapped

    def close_open_spans(self) -> None:
        """Give still-running spans an end time (the op is being killed)."""
        now = time.perf_counter()
        for idx in self.stack:
            self.spans[idx][2] = now
        self.stack.clear()

    def dump(self) -> dict:
        return {"spans": self.spans, "calls": self.calls, "sizes": self.sizes}


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(trace: dict) -> dict:
    """Self times per function and per layer, plus failure counts.

    A span's self time is its duration minus the durations of its direct
    children; single-threaded spans nest, so the self times of one op sum
    to the duration of its root span.
    """
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    fn_self: dict[str, float] = {}
    fn_calls: dict[str, int] = {}
    fn_failed: dict[str, int] = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    layer_failed: dict[str, dict[str, int]] = {layer: {} for layer in LAYERS}
    root_s = 0.0
    for i, (name, start, end, parent, exc) in enumerate(spans):
        self_s = (end - start) - child_time[i]
        fn_self[name] = fn_self.get(name, 0.0) + self_s
        fn_calls[name] = fn_calls.get(name, 0) + 1
        layer_self[layer_of(name)] += self_s
        if parent < 0:
            root_s += end - start
        if exc is not None:
            fn_failed[name] = fn_failed.get(name, 0) + 1
            # counted once per layer: when it leaves the layer, not at
            # every function boundary inside it
            if parent < 0 or layer_of(spans[parent][0]) != layer_of(name):
                bucket = layer_failed[layer_of(name)]
                bucket[exc] = bucket.get(exc, 0) + 1
    return {
        "fn_self_s": fn_self,
        "fn_calls": fn_calls,
        "fn_failed": fn_failed,
        "layer_self_s": layer_self,
        "layer_failed": layer_failed,
        "root_s": root_s,
        "leaf_calls": dict(trace["calls"]),
        "sizes": dict(trace["sizes"]),
    }
