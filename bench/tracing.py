"""Spans around btlab's public layer functions, installed from outside.

The wrappers replace attributes of the modules that *call* each layer:
``btlab.runner`` and ``btlab.semiclassics`` bind the layer functions by name
at import time, so patching ``btlab.operators.toeplitz_exact`` itself would
record nothing.  ``MatrixCache.load``/``.store`` are patched on the class.

Every span records its name, layer, thread, start, end and parent, plus the
CPU time of its thread while it was open.  A span's self time is that CPU
time minus the CPU time of its child spans (spans opened on the same thread
while it was open).  CPU time, not wall time: the two pool threads of a
sweep compete for the GIL, and a span's wall time would include its waits
for the other thread.  A layer's ``self_s`` is summed over threads, so
with two threads the layers can add up to more than ``run_s``.
``runner.other_s`` is the wall time of the run that no top-level span on
any thread covers.

Counts that need the result (kernel entries, bytes stored) are taken after
the span closes, inside a ``trace.count`` span of their own, so they show
up as tracing overhead and not as layer time.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from pathlib import Path

LAYER_FUNCTIONS = {
    "symbols": (
        "poisson_bracket",
        "laplacian",
        "average",
        "sup_norm",
        "moment_limit",
        "random_real_symbol",
        "calibrate_hamiltonian_phase",
    ),
    "starproduct": ("c1", "product_coefficients", "check_axioms", "check_equivalence", "b_map", "b_inverse"),
    "operators.assemble": ("toeplitz_exact", "prequantum_geometric"),
    "operators.linalg": ("operator_norm", "hermitian_eigenvalues", "commutator"),
    "semiclassics.fit": ("loglog_slope",),
    "runner.write_report": ("write_report",),
}
LAYERS = (*LAYER_FUNCTIONS, "cache.store", "cache.load", "trace.count")
COUNTERS = ("operators.assemble.kernel_entries", "operators.assemble.kernel_nonzero", "cache.store.bytes")


def _kernel_counts(kernel) -> tuple[int, int]:
    """(stored, nonzero) entries of an exact kernel, a tuple of rows."""
    stored = nonzero = 0
    for row in kernel:
        stored += len(row)
        nonzero += sum(1 for x in row if x)
    return stored, nonzero


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.unwrapped: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _call(self, layer: str, name: str, fn, args, kwargs):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        frame = {"id": next(self._ids), "children_cpu_s": 0.0}
        stack.append(frame)
        start, cpu_start = time.perf_counter(), time.thread_time()
        try:
            return fn(*args, **kwargs)
        finally:
            end, cpu_s = time.perf_counter(), time.thread_time() - cpu_start
            stack.pop()
            if parent is not None:
                parent["children_cpu_s"] += cpu_s
            span = {
                "id": frame["id"],
                "parent": parent["id"] if parent is not None else None,
                "name": name,
                "layer": layer,
                "thread": threading.get_ident(),
                "start": start,
                "end": end,
                "self_s": cpu_s - frame["children_cpu_s"],
            }
            with self._lock:
                self.spans.append(span)

    def wrap(self, layer: str, name: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self._call(layer, name, fn, args, kwargs)
            if after is not None:
                self._call("trace.count", name, after, (result,), {})
            return result

        return wrapper

    def _add(self, key: str, n: int) -> None:
        with self._lock:
            self.counts[key] += n

    def count_kernel(self, mat) -> None:
        if mat.kernel is None:
            return
        stored, nonzero = _kernel_counts(mat.kernel)
        self._add("operators.assemble.kernel_entries", stored)
        self._add("operators.assemble.kernel_nonzero", nonzero)

    def count_store(self, path) -> None:
        self._add("cache.store.bytes", Path(path).stat().st_size)

    def install(self) -> None:
        """Wrap the layer functions where btlab's runner and sweeps call them."""
        from btlab import runner, semiclassics
        from btlab.cache import MatrixCache

        wrapped = set()
        for module in (runner, semiclassics):
            for layer, names in LAYER_FUNCTIONS.items():
                for name in names:
                    fn = getattr(module, name, None)
                    if fn is None:
                        continue
                    after = self.count_kernel if layer == "operators.assemble" else None
                    setattr(module, name, self.wrap(layer, f"{module.__name__}.{name}", fn, after))
                    wrapped.add(name)
        self.unwrapped = sorted(n for names in LAYER_FUNCTIONS.values() for n in names if n not in wrapped)
        MatrixCache.load = self.wrap("cache.load", "MatrixCache.load", MatrixCache.load)
        MatrixCache.store = self.wrap("cache.store", "MatrixCache.store", MatrixCache.store, self.count_store)

    def summary(self, run_start: float, run_end: float) -> dict:
        """Per-layer self time and calls, counters, and uncovered run time."""
        out = {}
        for layer in LAYERS:
            spans = [s for s in self.spans if s["layer"] == layer]
            out[f"{layer}.self_s"] = sum(s["self_s"] for s in spans)
            out[f"{layer}.calls"] = len(spans)
        out.update(self.counts)
        covered, reach = 0.0, run_start
        for start, end in sorted((s["start"], s["end"]) for s in self.spans if s["parent"] is None):
            start, end = max(start, reach), min(end, run_end)
            if end > start:
                covered += end - start
                reach = end
        out["runner.other_s"] = (run_end - run_start) - covered
        return out
