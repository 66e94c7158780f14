"""Spans around the calls into each qfmax layer, timed from outside the package.

instrument() replaces a layer's public function with a timing wrapper under
every name it is reachable by inside the package: search.py, maximizer.py
and reduction.py import their callees by name, so patching only the
defining module would miss every call.  The Tracer keeps, per span name,
calls, total time and self time (the span's duration minus that of its
direct child spans), plus counters recorded at the same boundaries.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    """Aggregates strictly nested spans of one thread.

    Children of one span never overlap, so the sum of their durations is
    exactly the part of the parent's interval they cover.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self._open: list[list] = []  # [name, start, child seconds]
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()

    def begin(self, name: str) -> None:
        self._open.append([name, self._clock(), 0.0])

    def end(self) -> None:
        name, start, child_s = self._open.pop()
        duration = self._clock() - start
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - child_s
        if self._open:
            self._open[-1][2] += duration

    @contextmanager
    def span(self, name: str):
        self.begin(name)
        try:
            yield
        finally:
            self.end()


def _count_amplitudes(tracer, args, out):
    # One step rewrites every amplitude of the state it is given.
    tracer.counts["qcore.amplitude_updates"] += args[0].dim


def _count_search_outcome(tracer, args, out):
    tracer.counts["search.budget_exhausted" if out is None else "search.found"] += 1


def _count_cells(tracer, args, out):
    tracer.counts["maximizer.local_max_at.cells"] += len(out)


def _count_rows(tracer, args, out):
    tracer.counts["holder.taylor_tableau.rows"] += out[1].shape[0]


def span_targets():
    """(span name, defining module or class, attribute, counter) per layer call."""
    from qfmax import bench, functions, holder, maximizer, qcore, reduction, search

    return (
        ("qcore.grover_iteration", qcore, "grover_iteration", _count_amplitudes),
        ("qcore.measure", qcore, "measure", None),
        ("qcore.uniform_state", qcore, "uniform_state", None),
        ("qcore.mask", qcore.MarkPredicate, "mask", None),
        ("search.qsearch", search, "qsearch", _count_search_outcome),
        ("search.find_maximum", search, "find_maximum", None),
        ("maximizer.local_max_at", maximizer, "local_max_at", _count_cells),
        ("maximizer.quantum_maximize", maximizer, "quantum_maximize", None),
        ("holder.taylor_tableau", holder, "taylor_tableau", _count_rows),
        ("holder.make_bump_family", holder, "make_bump_family", None),
        ("reduction.embed_bits", reduction, "embed_bits", None),
        ("reduction.or_trial", reduction, "or_trial", None),
        ("functions.make_function", functions, "make_function", None),
        ("bench.trial_rng", bench, "trial_rng", None),
    )


def _wrap(tracer: Tracer, name: str, fn, count):
    def traced(*args, **kwargs):
        tracer.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end()
        if count is not None:
            count(tracer, args, out)
        return out

    traced.__wrapped__ = fn
    return traced


def _lookup_sites(owner, attr: str, original):
    """Every (namespace, name) inside qfmax that holds original."""
    if isinstance(owner, type):
        # Methods are looked up through the class.
        return [(owner, attr)]
    sites = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "qfmax" or mod_name.startswith("qfmax.")):
            continue
        for name, value in list(vars(mod).items()):
            if value is original:
                sites.append((mod, name))
    return sites


@contextmanager
def instrument(tracer: Tracer):
    """Route every call into the layers' public functions through tracer."""
    patched = []
    try:
        for name, owner, attr, count in span_targets():
            original = getattr(owner, attr)
            wrapper = _wrap(tracer, name, original, count)
            for namespace, site in _lookup_sites(owner, attr, original):
                patched.append((namespace, site, original))
                setattr(namespace, site, wrapper)
        yield tracer
    finally:
        for namespace, site, original in reversed(patched):
            setattr(namespace, site, original)
