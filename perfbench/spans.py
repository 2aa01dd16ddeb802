"""In-memory spans around calls between specfield's modules.

A ``Tracer`` swaps module attributes (the names through which one layer
calls another, e.g. ``specfield.stats.generate_batch``) for timing
wrappers, records one span per call and puts every original back on
``restore``.  Nothing inside the library changes: the spans sit on the
boundaries, so a later refactor that removes a boundary makes the
benchmark report it as absent rather than fail.

Spans are kept in a list and only summarised after the traced pass.
Parents come from a per-thread stack; a span opened on a worker thread
with an empty stack gets the span that handed it the work (see
``wrap_runner``) or, failing that, the innermost open span of the thread
that created the tracer.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    note: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in clipped:
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


class Tracer:
    """Records spans at patched module boundaries; see the module docstring."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._ids = itertools.count()
        self._stacks: dict[int, list[int]] = {}
        self._home = threading.get_ident()
        self._patched: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def _stack(self) -> list[int]:
        ident = threading.get_ident()
        stack = self._stacks.get(ident)
        if stack is None:
            stack = self._stacks[ident] = []
        return stack

    def _current_parent(self):
        stack = self._stack()
        if stack:
            return stack[-1]
        home = self._stacks.get(self._home)
        return home[-1] if home else None

    @contextlib.contextmanager
    def span(self, name: str, parent=None):
        """Record a span around the body; yields the span's note dict."""
        sid = next(self._ids)
        stack = self._stack()
        par = parent if parent is not None else self._current_parent()
        stack.append(sid)
        note = {}
        start = time.perf_counter()
        try:
            yield note
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, start, end, par,
                                   threading.get_ident(), note))

    # -- patching ---------------------------------------------------------

    def _patch(self, module_name: str, attr: str, make_wrapper) -> bool:
        """Replace ``module.attr`` with ``make_wrapper(original)``.

        Returns False, and lists the boundary as absent, when the module or
        the attribute no longer exists.
        """
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        original = getattr(module, attr, None)
        if not callable(original):
            self.absent.append(f"{module_name}.{attr}")
            return False
        wrapper = make_wrapper(original)
        wrapper.__wrapped__ = original
        self._patched.append((module, attr, original))
        setattr(module, attr, wrapper)
        return True

    def wrap(self, module_name: str, attr: str, name: str, observe=None) -> bool:
        """Record a span named ``name`` around every call of ``module.attr``.

        ``observe(args, kwargs, result, note)`` may add counts to the span's
        note.
        """
        def make_wrapper(original):
            def wrapper(*args, **kwargs):
                with self.span(name) as note:
                    result = original(*args, **kwargs)
                    if observe is not None:
                        observe(args, kwargs, result, note)
                    return result
            return wrapper

        return self._patch(module_name, attr, make_wrapper)

    def wrap_runner(self, module_name: str, attr: str, name: str,
                    task_name: str) -> bool:
        """Wrap a ``runner(chunks, task)`` so each task gets its own span.

        Tasks may run on worker threads; their spans are parented to the
        runner's span, which keeps the caller's self time per layer.
        """
        def make_wrapper(original):
            def wrapper(chunks, task, *args, **kwargs):
                with self.span(name):
                    runner_sid = self._stack()[-1]

                    def traced_task(*targs, **tkwargs):
                        with self.span(task_name, parent=runner_sid):
                            return task(*targs, **tkwargs)

                    return original(chunks, traced_task, *args, **kwargs)
            return wrapper

        return self._patch(module_name, attr, make_wrapper)

    def restore(self):
        """Put every patched attribute back, last patch first."""
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- summaries --------------------------------------------------------

    def children(self) -> dict[int, list[Span]]:
        out: dict[int, list[Span]] = {}
        for sp in self.spans:
            if sp.parent is not None:
                out.setdefault(sp.parent, []).append(sp)
        return out

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its children cover."""
        kids = self.children()
        return {
            sp.sid: sp.duration - covered_length(
                [(c.start, c.end) for c in kids.get(sp.sid, [])], sp.start, sp.end)
            for sp in self.spans
        }

    def named(self, name: str) -> list[Span]:
        return [sp for sp in self.spans if sp.name == name]

    def total(self, name: str) -> float:
        return sum(sp.duration for sp in self.named(name))

    def count(self, name: str) -> int:
        return len(self.named(name))

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds (self sums threads)."""
        own = self.self_times()
        out: dict[str, dict] = {}
        for sp in self.spans:
            row = out.setdefault(sp.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += sp.duration
            row["self_s"] += own[sp.sid]
        return out

    def coverage(self, lo: float, hi: float) -> float:
        """Share of [lo, hi] covered by root spans."""
        roots = [(sp.start, sp.end) for sp in self.spans if sp.parent is None]
        return covered_length(roots, lo, hi) / (hi - lo) if hi > lo else 0.0


class NullTracer:
    """Stand-in used for untraced passes: spans cost one no-op context."""

    @contextlib.contextmanager
    def span(self, name: str, parent=None):
        yield {}
