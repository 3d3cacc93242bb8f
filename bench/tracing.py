"""Span recording around quadmorph's public functions, from outside the package.

``Tracer.install`` replaces each listed function in every quadmorph module
namespace that bound it (``core.spectral_decompose`` is also
``qhm.spectral_decompose`` and ``quadmorph.spectral_decompose``), so calls
between modules are seen too.  Spans stay in memory until ``write_jsonl``.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    job: Optional[str]


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, run_lo, run_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if run_hi is None or a > run_hi:
            if run_hi is not None:
                total += run_hi - run_lo
            run_lo, run_hi = a, b
        else:
            run_hi = max(run_hi, b)
    if run_hi is not None:
        total += run_hi - run_lo
    return total


def self_times(spans) -> list:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [s.end - s.start - covered(children[i], s.start, s.end)
            for i, s in enumerate(spans)]


def children_exceeding_parent(spans, selfs) -> int:
    """Number of spans whose children's self times sum to more than the span."""
    child_self = defaultdict(float)
    for span, own in zip(spans, selfs):
        if span.parent is not None:
            child_self[span.parent] += own
    return sum(1 for i, total in child_self.items()
               if total > spans[i].end - spans[i].start + 1e-9)


class Tracer:
    """Records one span per call of each installed function.

    ``observers`` maps a function name to ``f(counts, fn, args, kwargs, result)``,
    which adds outcome counts (useful results, bytes) at the same boundary.
    """

    def __init__(self, names, observers=None):
        self.names = list(names)
        self.observers = observers or {}
        self.spans = []
        self.counts = Counter()
        self.job = None
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        observe = self.observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(), math.nan,
                        self._stack[-1] if self._stack else None, self.job)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                observe(self.counts, fn, args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "quadmorph" or key.startswith("quadmorph."))]
        for name in self.names:
            module_name, attr = name.rsplit(".", 1)
            fn = getattr(importlib.import_module(f"quadmorph.{module_name}"), attr)
            wrapper = self._wrap(name, fn)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, fn))

    def uninstall(self) -> None:
        for module, key, fn in reversed(self._patched):
            setattr(module, key, fn)
        self._patched.clear()

    def write_jsonl(self, path) -> None:
        origin = min((s.start for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps({"name": span.name, "start": span.start - origin,
                                     "end": span.end - origin, "parent": span.parent,
                                     "job": span.job}) + "\n")
