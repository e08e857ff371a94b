"""Span recording around calls into blockcluster's modules.

A traced run replaces module attributes with wrappers that record one span
per call: ``[name, start, end, parent, info]``, where ``parent`` is the index
of the enclosing span (or -1) and ``info`` holds counters read from the
call's result.  Spans stay in memory; the caller writes them out at the end.
Untraced runs never touch the modules.

Patching module attributes reaches every caller that looks the name up at
call time.  ``optimizer`` binds ``block_stats`` and ``criterion_value`` at
import, so those two are patched in ``optimizer``'s namespace; the names in
``criterion`` itself stay original, which keeps the benchmark's own
verification calls out of the trace.
"""

from __future__ import annotations

import functools
import inspect
import json
from contextlib import contextmanager
from time import perf_counter


def _fit_info(result) -> dict:
    return {
        "sweeps": len(result.sweep_trajectory),
        "moves": int(result.moves_applied),
        "converged": bool(result.converged),
    }


#: (module, attribute, span name, result -> counters)
TARGETS = (
    ("model", "generate", "model.generate", None),
    ("optimizer", "kmeans_init", "optimizer.kmeans_init", None),
    ("optimizer", "fit", "optimizer.fit", _fit_info),
    ("optimizer", "block_stats", "criterion.block_stats", None),
    ("optimizer", "criterion_value", "criterion.criterion_value", None),
    ("evaluation", "misclassification", "evaluation.misclassification", None),
    ("matrixio", "read_matrix_csv", "matrixio.read_matrix_csv", None),
    ("matrixio", "write_labels_csv", "matrixio.write_labels_csv", None),
    ("simharness", "run_plan", "simharness.run_plan", None),
    ("simharness", "write_records", "simharness.write_records", None),
    ("cli", "main", "cli.main", None),
)


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, info=None):
        """A wrapper that records a span per call.  For a generator function
        there is one span per resumption, so a pipeline stage is charged only
        for the time spent inside it."""
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    with self.span(name):
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                    yield item
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
                if info is not None:
                    rec[4] = info(out)
                return out
        return traced

    @contextmanager
    def installed(self, modules: dict):
        """Patch every target found in ``modules`` (short name -> module);
        restore the original attributes on exit."""
        saved = []
        try:
            for mod_name, attr, name, info in TARGETS:
                mod = modules.get(mod_name)
                if mod is None:
                    continue
                original = getattr(mod, attr)
                saved.append((mod, attr, original))
                setattr(mod, attr, self.wrap(name, original, info))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def extend(self, spans: list[list]) -> None:
        """Append spans recorded elsewhere (a child process), keeping their
        parent links."""
        base = len(self.spans)
        for name, start, end, parent, info in spans:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1, info])

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_totals(spans: list[list]) -> dict:
    """Per span name: calls, busy seconds, self seconds and summed counters."""
    totals: dict[str, dict] = {}
    for (name, start, end, _, info), own in zip(spans, self_times(spans)):
        t = totals.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        t["calls"] += 1
        t["busy_s"] += end - start
        t["self_s"] += own
        for key, value in (info or {}).items():
            t[key] = t.get(key, 0) + value
    return totals
