"""Span tracer that wraps dbarlab's public functions from the outside.

Each wrapped call records one span (name, start, end, parent span, run id,
count) in memory; `dump` writes them out once the run has ended.  A function
is wrapped by rebinding its name in every dbarlab module that holds it, so
callers that did `from .grid import dz_array` are traced too.  Only the
traced run's worker installs it; timed runs never wrap anything.
"""

from __future__ import annotations

import functools
import json
import sys
import time

SPAN_FIELDS = ("name", "start_ns", "end_ns", "parent", "run_id", "count")

# Counts taken from a wrapped call's return value, summed per function.
# dz_array does one forward and one inverse FFT, each reading and writing
# an array the size of its output: 4 * nbytes (computed, not measured).
COUNTERS = {
    "grid.dz_array": lambda out: 4 * out.nbytes,
    "hormander.solve_min_norm": lambda out: out[1].iterations,
}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self._open: list = []

    def _wrap(self, name: str, fn):
        spans, open_spans, run_id = self.spans, self._open, self.run_id
        counter = COUNTERS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, open_spans[-1] if open_spans else -1, run_id, None]
            open_spans.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_spans.pop()
            if counter is not None:
                span[5] = counter(result)
            return result

        return traced

    def install(self, targets: list) -> None:
        """Wrap each `module.function` in `targets` wherever dbarlab binds it."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "dbarlab" or key.startswith("dbarlab."))]
        for target in targets:
            module_name, fn_name = target.split(".")
            original = getattr(sys.modules[f"dbarlab.{module_name}"], fn_name)
            wrapped = self._wrap(target, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": SPAN_FIELDS, "spans": self.spans}, fh)


def summarize(spans: list, targets: list) -> tuple:
    """Per function: ({metric: (value, unit)}, {function: summed count}).

    Self time is a span's duration minus the time its direct child spans
    cover; calls run on one thread, so children never overlap.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, _run, _count in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    totals = {t: [0, 0, 0, 0] for t in targets}  # calls, ns, self ns, count
    for (name, start, end, _parent, _run, count), child in zip(spans, child_ns):
        entry = totals[name]
        entry[0] += 1
        entry[1] += end - start
        entry[2] += end - start - child
        entry[3] += count or 0
    metrics = {}
    for name, (calls, ns, self_ns, _count) in totals.items():
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.s"] = (ns / 1e9, "s")
        metrics[f"{name}.self_s"] = (self_ns / 1e9, "s")
    return metrics, {name: entry[3] for name, entry in totals.items()}
