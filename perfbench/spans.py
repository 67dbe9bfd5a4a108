"""In-memory span recording for the traced run.

In the traced run the harness routes every call it makes into a layer
through ``Tracer.call``; with tracing off it calls the layer directly.  Each
traced call becomes a span (name, start, end, parent span, circuit id).
``instrument`` also wraps a few public names inside the optimizer, router
and IR, so that their calls from within ``optimize``, ``route_program`` and
``gate_counts`` show up as child spans.  The wrappers are removed again when
``instrument`` exits.
"""

from __future__ import annotations

import contextlib
import functools
import json
from collections import Counter, defaultdict
from time import perf_counter


def plain_call(name, fn, *args, **kwargs):
    """Call a layer function untraced; the traced run passes ``Tracer.call`` instead."""
    return fn(*args, **kwargs)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.stack: list[int] = []
        self.circuit = -1
        self.counts: Counter = Counter()

    def call(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(None)
        self.stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.stack.pop()
            self.spans[index] = (name, start, end, parent, self.circuit)

    def wrap(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def durations(self) -> dict[str, float]:
        """Inclusive seconds per span name."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _, _ in self.spans:
            out[name] += end - start
        return out

    def calls(self) -> Counter:
        return Counter(span[0] for span in self.spans)

    def self_times(self) -> dict[str, float]:
        """Seconds per layer not covered by a child span.

        A span's layer is its name without the last dotted component, so
        ``routing.sabre_swap`` counts towards ``routing``.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), covered in zip(self.spans, child_time):
            out[name.rsplit(".", 1)[0]] += (end - start) - covered
        return out

    def write(self, path) -> None:
        """Chrome trace-event JSON: one complete event per span."""
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": start * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"circuit": circuit, "parent": parent},
            }
            for name, start, end, parent, circuit in self.spans
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events}, handle)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install span wrappers on public names the layers look up at call time."""
    from qcc import gates, ir, optimizer, routing

    def count_swaps(result) -> None:
        tracer.counts["routing.swaps_all_passes"] += result.swap_count

    patches = [
        (routing, "sabre_layout", "routing.sabre_layout", None),
        (routing, "sabre_swap", "routing.sabre_swap", count_swaps),
        (routing, "build_dag", "ir.build_dag", None),
        (optimizer, "decompose_unsupported", "optimizer.decompose_unsupported", None),
        (optimizer, "fuse_single_qubit_runs", "optimizer.fuse_single_qubit_runs", None),
        (optimizer, "select_decomposition", "optimizer.select_decomposition", None),
        (gates, "is_unitary", "gates.is_unitary", None),
        (ir, "build_dag", "ir.build_dag", None),
        (ir, "circuit_depth", "ir.circuit_depth", None),
    ]
    originals = [(module, attr, getattr(module, attr)) for module, attr, _, _ in patches]
    try:
        for module, attr, name, on_result in patches:
            setattr(module, attr, tracer.wrap(name, getattr(module, attr), on_result))
        yield tracer
    finally:
        for module, attr, fn in originals:
            setattr(module, attr, fn)
