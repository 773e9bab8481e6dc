"""Spans around the calls into each acmgenera layer, installed from outside.

The wrappers go on the names that callers resolve at call time (module
attributes), so the package itself is not edited.  One span per call holds
(name, start, end, parent, op); spans stay in memory until the run writes
them out.  A span's self time is its duration minus its children's, which is
exact here because calls are single-threaded and properly nested.
"""
from __future__ import annotations

import importlib
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, span name): every name a caller resolves at call time
TARGETS = [
    ("acmgenera", "acm_genera", "search.acm_genera"),
    ("acmgenera.cli", "acm_genera", "search.acm_genera"),
    ("acmgenera", "genus_search", "search.genus_search"),
    ("acmgenera.regularity", "genus_search", "search.genus_search"),
    ("acmgenera.cli", "genus_search", "search.genus_search"),
    ("acmgenera", "min_acm_regularity", "regularity.min_acm_regularity"),
    ("acmgenera.cli", "min_acm_regularity", "regularity.min_acm_regularity"),
    ("acmgenera.search", "certain_genera", "continuity.certain_genera"),
    ("acmgenera.search", "certified_gaps", "ranges.certified_gaps"),
    ("acmgenera.search", "max_genus", "ranges.max_genus"),
    ("acmgenera.regularity", "max_genus", "ranges.max_genus"),
    ("acmgenera._kernels", "bound_table", "kernels.bound_table"),
    ("acmgenera._kernels", "search_fixed_both", "kernels.search_fixed_both"),
    ("acmgenera._kernels", "search_multiplicity", "kernels.search_multiplicity"),
    ("acmgenera._kernels", "brute_force_attained", "kernels.brute_force_attained"),
]

NAME, START, END, PARENT, OP, INFO = range(6)


class Tracer:
    """Collects spans; ``op`` is the id of the operation now running."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            if name == "search.acm_genera" and kwargs.get("timings") is None:
                kwargs["timings"] = {}  # the step timings are read back from the span
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                self._stack.pop()
            span[INFO] = _info(name, args, kwargs, result)
            return result

        return traced

    def install(self):
        for module, attr, name in TARGETS:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self.wrap(name, fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    @contextmanager
    def span(self, name: str):
        """A span the benchmark itself opens (one CLI process); yields its index."""
        index = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.op, None])
        self._stack.append(index)
        try:
            yield index
        finally:
            self.spans[index][END] = perf_counter()
            self._stack.pop()

    def adopt(self, spans: list[list], parent: int):
        """Append spans recorded in another process under the span ``parent``."""
        base = len(self.spans)
        for s in spans:
            self.spans.append(
                [s[NAME], s[START], s[END], parent if s[PARENT] < 0 else base + s[PARENT], self.op, s[INFO]]
            )


def _info(name, args, kwargs, result):
    """The few call details the per-layer metrics and per-call records need."""
    if name == "kernels.search_fixed_both":
        d, s, targets = args
        return {"d": d, "s": s, "targets": len(set(targets)), "hits": len(result)}
    if name == "search.genus_search":
        return {"found": result is not None}
    if name == "search.acm_genera":
        t = kwargs["timings"]
        return {
            "d": result.d,
            "step1": t["step1"],
            "step2": t["step2"],
            "step3": t["step3"],
            "searched": result.stats["searched"],
            "settled": result.stats["certain_genera"] + result.stats["certain_gaps"],
        }
    return None


def self_times(spans: list[list]) -> list[float]:
    """Seconds of each span not covered by its child spans."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own
