"""Per-layer spans recorded by wrapping the package's public functions.

``Tracer`` replaces each function in ``LAYERS`` with a recording wrapper
wherever the package binds it: every ``spinnet.*`` module attribute that is
that function object, so calls through ``from .x import f`` bindings are
seen too.  Leaving the ``with`` block restores every binding.

A span is (name, start, end, parent span, operation id).  A function's self
time is its spans' durations minus the time covered by their direct child
spans.  Counts beyond calls are taken from arguments and results.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from collections import Counter

LAYERS = {
    "rep_core": ("wigner_entries", "invariant_vectors"),
    "tensor_engine": ("haar_project", "contract", "mc_expectation"),
    "network_model": ("canonicalize", "common_refinement", "decompose"),
    "inner_product": ("exact_inner_product", "structural_zero"),
    "diffeo_average": ("enumerate_correspondences", "transport",
                       "averaged_inner_product", "averaged_gram"),
    "blipweb": ("observation_one", "observation_two", "stabilized_inner_product"),
    "documents": ("read_network", "dumps_document"),
    "cli": ("main",),
}
FUNCTIONS = tuple(f"{m}.{f}" for m, fs in LAYERS.items() for f in fs)

# Extra counts per function, named "<module>.<function>.<count>".
EXTRA_COUNTS = {
    "rep_core.wigner_entries": ("quats",),
    "tensor_engine.haar_project": ("new_signatures", "out_mb"),
    "tensor_engine.contract": ("in_elems", "out_elems"),
    "tensor_engine.mc_expectation": ("samples",),
    "inner_product.structural_zero": ("zero",),
    "diffeo_average.enumerate_correspondences": ("found",),
}


def _arg(sig, args, kwargs, name):
    return sig.bind(*args, **kwargs).arguments[name]


class Tracer:
    """Context manager that records spans and counts while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = 0
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self._signatures: set = set()

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        targets = []
        for qualname in FUNCTIONS:
            modname, fname = qualname.split(".")
            original = getattr(importlib.import_module(f"spinnet.{modname}"), fname)
            wrapper = self._wrap(qualname, original)
            for mod in [m for n, m in sys.modules.items()
                        if n == "spinnet" or n.startswith("spinnet.")]:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        targets.append((mod, attr, original, wrapper))
        for mod, attr, original, wrapper in targets:
            setattr(mod, attr, wrapper)
            self._patched.append((mod, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    def _wrap(self, name, fn):
        count = self._counter(name, fn)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                count(args, kwargs, result)
            return result
        return wrapper

    def _counter(self, name, fn):
        c = self.counts
        sig = inspect.signature(fn)
        if name == "rep_core.wigner_entries":
            def count(args, kwargs, result):
                c[f"{name}.quats"] += math.prod(result.shape[:-2])
        elif name == "tensor_engine.haar_project":
            def count(args, kwargs, result):
                key = tuple((f.spin.twice_j, bool(f.conjugated), bool(f.inverted))
                            for f in _arg(sig, args, kwargs, "factors"))
                if key not in self._signatures:
                    self._signatures.add(key)
                    c[f"{name}.new_signatures"] += 1
                c[f"{name}.out_mb"] += result.data.nbytes / 1e6
        elif name == "tensor_engine.contract":
            def count(args, kwargs, result):
                c[f"{name}.in_elems"] += sum(t.data.size for t in
                                             _arg(sig, args, kwargs, "tensors"))
                c[f"{name}.out_elems"] += result.data.size
        elif name == "tensor_engine.mc_expectation":
            def count(args, kwargs, result):
                c[f"{name}.samples"] += _arg(sig, args, kwargs, "n_samples")
        elif name == "inner_product.structural_zero":
            def count(args, kwargs, result):
                c[f"{name}.zero"] += bool(result)
        elif name == "diffeo_average.enumerate_correspondences":
            def count(args, kwargs, result):
                c[f"{name}.found"] += len(result)
        else:
            count = None
        return count

    # -- results ------------------------------------------------------------

    def take(self) -> dict:
        """Layer metrics for everything recorded since the last take, then reset.

        Returns ``<function>.calls``, ``<function>.self_s``, the extra counts
        (zero when absent) and ``self_sum_s``, the total self time.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for fn in FUNCTIONS:
            out[f"{fn}.calls"] = 0
            out[f"{fn}.self_s"] = 0.0
            for extra in EXTRA_COUNTS.get(fn, ()):
                out[f"{fn}.{extra}"] = self.counts.get(f"{fn}.{extra}", 0)
        total = 0.0
        for k, (name, start, end, _, _) in enumerate(self.spans):
            self_s = end - start - child[k]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += self_s
            total += self_s
        out["self_sum_s"] = total
        self.spans.clear()
        self.counts.clear()
        return out
