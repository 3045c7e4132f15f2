"""Span recorder that wraps functions from outside the program.

The benchmark measures layers from the outside: it replaces module
attributes (and class methods) with thin wrappers that record one span
per call, then restores them.  A span carries its name, start, end,
parent span, thread and run id, plus the counts the layer metrics need.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


class TracingError(RuntimeError):
    """A wrapped name is missing, or a layer's calls contradict the prediction."""


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    run_id: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from every thread while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = ""
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, parent: int | None = None, attrs: dict | None = None):
        """Record a span; parent defaults to the innermost open span of this thread."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        with self._lock:
            sid = next(self._ids)
        rec = Span(sid, name, 0.0, 0.0, parent, threading.get_ident(), self.run_id, attrs or {})
        stack.append(sid)
        rec.start = time.perf_counter()
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(rec)

    # -- installing wrappers -------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def patch_everywhere(self, module, attr: str, make_wrapper) -> None:
        """Replace module.attr, and every `from module import attr` copy in sumtails."""
        if not hasattr(module, attr):
            raise TracingError(f"{module.__name__}.{attr} is missing; the benchmark cannot trace it")
        original = getattr(module, attr)
        wrapper = make_wrapper(original)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if (name == "sumtails" or name.startswith("sumtails.")) and getattr(mod, attr, None) is original:
                self._patch(mod, attr, wrapper)

    def wrap(self, module, attr: str, span_name: str, counts=None) -> None:
        """Wrap module.attr; counts(args, kwargs, result) returns the span's attrs."""

        def make(original):
            def wrapper(*args, **kwargs):
                with self.span(span_name) as rec:
                    result = original(*args, **kwargs)
                    if counts is not None:
                        rec.attrs.update(counts(args, kwargs, result))
                    return result

            wrapper.__wrapped__ = original
            return wrapper

        self.patch_everywhere(module, attr, make)

    def wrap_method(self, cls, attr: str, span_name: str) -> None:
        if not hasattr(cls, attr):
            raise TracingError(f"{cls.__name__}.{attr} is missing; the benchmark cannot trace it")
        original = getattr(cls, attr)

        def wrapper(*args, **kwargs):
            with self.span(span_name, attrs={"method": attr}):
                return original(*args, **kwargs)

        self._patch(cls, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# -- arithmetic on spans ---------------------------------------------------


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Per span: its duration minus the part of it that child spans cover.

    Children from several threads may overlap one another; the union
    of their intervals, clipped to the parent, is what gets subtracted.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        kids = [(max(c.start, s.start), min(c.end, s.end)) for c in children.get(s.sid, ())]
        out[s.sid] = s.duration - covered((a, b) for a, b in kids if b > a)
    return out
