"""Span tracer that instruments the program from the outside.

The traced run patches public entry points of each layer (module
attributes and class methods) with timing wrappers, keeps every span in
memory, and restores the originals afterwards. Nothing under ``src/``
knows it is being traced, so a traced run exercises exactly the code an
untraced run does, plus the wrappers.

A span is ``(id, name, start, end, parent, run_id)``. Its parent is the
innermost open span of the same thread; spans opened on a daemon thread
with nothing open there (the service's event loop and replay executor)
hang under the innermost open span of the main thread, which is the
client request they serve. A layer's self time is its span time minus
the part of that interval its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import itertools
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Iterable


_INHERITED = object()


class Tracer:
    """In-memory span and counter store plus the patching that feeds it."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int, str]] = []
        self.counters: Counter = Counter()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.run_id = "setup"
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_ident = threading.main_thread().ident
        self._patches: list[tuple[Any, str, Any]] = []
        self._paused = False

    # -- spans -------------------------------------------------------------
    def _enter(self) -> tuple[list[int], int, int]:
        """Push a new span id; return (stack, id, parent id)."""
        if threading.get_ident() == self._main_ident:
            stack = self._main_stack
        else:
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
        if stack:
            parent = stack[-1]
        elif stack is not self._main_stack and self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = 0
        span_id = next(self._ids)
        stack.append(span_id)
        return stack, span_id, parent

    @property
    def recording(self) -> bool:
        return not self._paused

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside this block (benchmark bookkeeping)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    @contextlib.contextmanager
    def span(self, name: str):
        if self._paused:
            yield
            return
        stack, span_id, parent = self._enter()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, self.run_id))

    def wrap(self, fn: Callable, name: str) -> Callable:
        """*fn* inside a span; the per-call path avoids a context manager
        because it wraps calls made tens of thousands of times a run."""
        clock = time.perf_counter
        record = self.spans.append

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            stack, span_id, parent = self._enter()
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                record((span_id, name, start, end, parent, self.run_id))

        return traced

    def wrap_generator(self, fn: Callable, name: str) -> Callable:
        """Span covering a generator's whole consumption."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                yield from fn(*args, **kwargs)

        return traced

    # -- patching ----------------------------------------------------------
    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, replacement)

    def patch_call(self, owner: Any, attr: str, name: str) -> None:
        self.patch(owner, attr, self.wrap(getattr(owner, attr), name))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------
    def phase_spans(self, run_prefix: str) -> list[tuple]:
        return [s for s in self.spans if s[5].startswith(run_prefix)]

    def write(self, path) -> None:
        """Spans as gzipped tab-separated lines, one span per line."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tname\tstart\tend\tparent\trun\n")
            for span in self.spans:
                fh.write("\t".join(map(str, span)) + "\n")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of *intervals* clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Self time of every span: its duration minus what its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span_id, _, start, end, parent, _ in spans:
        if parent:
            children[parent].append((start, end))
    return {
        s[0]: (s[3] - s[2]) - _covered(children.get(s[0], []), s[2], s[3])
        for s in spans
    }


def outermost(spans: list[tuple], names: Iterable[str]) -> list[tuple]:
    """Spans named in *names* that have no ancestor named in *names*."""
    wanted = set(names)
    by_id = {s[0]: s for s in spans}
    out = []
    for s in spans:
        if s[1] not in wanted:
            continue
        parent = by_id.get(s[4])
        while parent is not None and parent[1] not in wanted:
            parent = by_id.get(parent[4])
        if parent is None:
            out.append(s)
    return out
