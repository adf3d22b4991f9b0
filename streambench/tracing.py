"""Span tracing from outside the program: wrap public entry points, keep
per-thread span stacks, and accumulate self time and call counts.

A span's self time is its duration minus the time covered by its direct
child spans on the same thread.  Spans carry a label (the learner being
trained) that a span can set for itself and its children, so concurrent
cells of a grid are attributed to the right learner.  Only aggregates are
kept for fine-grained spans (one per instance or more); spans marked
``keep`` are also stored whole, with their start and end, for the
wall-clock figures of the experiment layer.
"""
from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict


class Tracer:
    """Aggregates spans by (label, name), separately for each thread."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._per_thread: list[dict] = []
        self.kept: list[tuple[str, str | None, int, float, float]] = []

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = {"stack": [], "label": None, "agg": defaultdict(lambda: [0.0, 0.0, 0])}
            self._local.state = state
            with self._lock:
                self._per_thread.append(state["agg"])
        return state

    def enter(self, name: str, label: str | None = None, keep: bool = False):
        state = self._state()
        previous = state["label"]
        if label is not None:
            state["label"] = label
        frame = [name, state["label"], previous, keep, 0.0, self.clock()]
        state["stack"].append(frame)
        return frame

    def exit(self, frame) -> float:
        """Close ``frame`` (the innermost open span); return its duration."""
        end = self.clock()
        state = self._state()
        stack = state["stack"]
        if not stack or stack[-1] is not frame:
            raise RuntimeError(f"span {frame[0]!r} closed out of order")
        stack.pop()
        name, label, previous, keep, child, start = frame
        duration = end - start
        if stack:
            stack[-1][4] += duration
        entry = state["agg"][(label, name)]
        entry[0] += duration - child
        entry[1] += duration
        entry[2] += 1
        state["label"] = previous
        if keep:
            with self._lock:
                self.kept.append((name, label, threading.get_ident(), start, end))
        return duration

    def count(self, name: str, amount: int = 1) -> None:
        """Add to a counter attributed to the current label."""
        state = self._state()
        state["agg"][(state["label"], name)][2] += amount

    def totals(self) -> dict:
        """Merge all threads: (label, name) -> [self seconds, total seconds, calls]."""
        merged: dict = defaultdict(lambda: [0.0, 0.0, 0])
        with self._lock:
            for agg in self._per_thread:
                for key, (self_s, total_s, calls) in list(agg.items()):
                    entry = merged[key]
                    entry[0] += self_s
                    entry[1] += total_s
                    entry[2] += calls
        return dict(merged)

    def reset(self) -> None:
        with self._lock:
            for agg in self._per_thread:
                agg.clear()
            self.kept.clear()


class Patches:
    """Installs span wrappers on module or class attributes and removes them."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, label_of=None, on_result=None,
             keep: bool = False) -> None:
        """Time every call of ``owner.attr`` as span ``name``.

        ``label_of(args)`` may name the label for the span and its children;
        ``on_result(result)`` runs after the span closes.  A missing target
        is reported and skipped, so its metric reads 0.
        """
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(
            owner, attr, None)
        if original is None:
            print(f"streambench: no {getattr(owner, '__name__', owner)}.{attr} to trace",
                  file=sys.stderr)
            return
        tracer = self.tracer

        @functools.wraps(original)
        def traced(*args, **kwargs):
            frame = tracer.enter(name, label_of(args) if label_of else None, keep)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.exit(frame)
            if on_result is not None:
                on_result(result)
            return result

        self._set(owner, attr, traced, original)

    def wrap_iter(self, cls, name: str) -> None:
        """Time each step of ``cls.__iter__`` as span ``name`` and count items."""
        original = cls.__dict__.get("__iter__")
        if original is None:
            print(f"streambench: no {cls.__name__}.__iter__ to trace", file=sys.stderr)
            return
        tracer = self.tracer
        items = name + ".items"

        @functools.wraps(original)
        def traced_iter(stream):
            iterator = original(stream)
            while True:
                frame = tracer.enter(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    tracer.exit(frame)
                tracer.count(items)
                yield item

        self._set(cls, "__iter__", traced_iter, original)

    def _set(self, owner, attr, replacement, original) -> None:
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, original))

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
