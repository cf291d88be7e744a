"""Span tracing around povmrank's layer functions, installed from outside.

The tracer replaces each traced function in every povmrank module
namespace that holds it (``povmrank.completeness.design_matrix`` and
``povmrank.cli.design_matrix`` are both looked up at call time), records
one span per call with its parent, and restores the originals on exit.
Spans stay in memory; ``write`` dumps them when the benchmark ends.
"""

from __future__ import annotations

import json
import sys
import time


def _rows(args, _result):
    return {"rows": int(args[0].shape[0])}


def _ml_counts(_args, result):
    return {"iterations": int(result.iterations), "converged": int(bool(result.converged))}


# Counts taken from a call's arguments and result, per traced name.
COUNTERS = {
    "completeness.numerical_rank": _rows,
    "tomo.ml_reconstruct": _ml_counts,
}


class Tracer:
    """Records (name, start, end, parent, counts) spans of calls to the
    functions named "<module>.<function>" (``povmrank.<module>``)."""

    def __init__(self, names):
        self.names = list(names)
        self.spans = []  # [name, start, end, parent index, self seconds, counts]
        self._stack = []  # indices of open spans
        self._child_time = []  # seconds covered by children of each open span
        self._installed = []  # (namespace, attribute, original)

    def _wrap(self, name, func):
        counter = COUNTERS.get(name)
        spans, stack, child_time = self.spans, self._stack, self._child_time
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            child_time.append(0.0)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                children = child_time.pop()
                if child_time:
                    child_time[-1] += end - start
                spans[index] = [name, start, end, parent, end - start - children, None]
            if counter is not None:
                spans[index][5] = counter(args, result)
            return result

        traced.__wrapped__ = func
        return traced

    def __enter__(self):
        namespaces = [mod for key, mod in list(sys.modules.items())
                      if key == "povmrank" or key.startswith("povmrank.")]
        for name in self.names:
            mod, fname = name.split(".")
            original = getattr(sys.modules[f"povmrank.{mod}"], fname)
            wrapper = self._wrap(name, original)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapper)
                        self._installed.append((ns, attr, original))
        return self

    def __exit__(self, *exc):
        for ns, attr, original in reversed(self._installed):
            setattr(ns, attr, original)
        self._installed.clear()
        return False

    def totals(self, first_span: int = 0) -> dict:
        """Per traced name: calls, total_s, self_s and summed counts over
        the spans recorded from index first_span on."""
        out = {}
        for name, start, end, _parent, self_s, counts in self.spans[first_span:]:
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += self_s
            for key, value in (counts or {}).items():
                agg[key] = agg.get(key, 0) + value
        return out

    def write(self, path) -> None:
        """One JSON line per span: name, start, end, parent, self_s, counts."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
