"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own code, around calls into
each layer's public functions: :meth:`Tracer.patched` swaps a module
or class attribute for a timing wrapper for the length of a ``with``
block and restores it afterwards.  Nothing inside the program changes.

A span is ``{"id", "name", "start", "end", "parent"}`` with
``time.perf_counter`` timestamps; the parent is the innermost span
open on the same thread.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator


class Tracer:
    """Collects spans; a disabled tracer records nothing."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._tls = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around the ``with`` body."""
        if not self.enabled:
            yield
            return
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                {"id": span_id, "name": name, "start": start,
                 "end": end, "parent": parent}
            )

    def wrap(self, func: Callable, name: str) -> Callable:
        """``func`` with every call recorded as a span ``name``."""

        @functools.wraps(func)
        def traced(*args, **kwargs):
            with self.span(name):
                return func(*args, **kwargs)

        return traced

    @contextmanager
    def patched(
        self, targets: Iterable[tuple[Any, str, str]]
    ) -> Iterator[None]:
        """Wrap ``owner.attr`` as span ``name`` for each target.

        Class attributes are read from the class ``__dict__`` so a
        wrapped method still binds like the original.
        """
        saved = []
        if self.enabled:
            for owner, attr, name in targets:
                original = (
                    owner.__dict__[attr]
                    if isinstance(owner, type)
                    else getattr(owner, attr)
                )
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name))
        try:
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- aggregation ---------------------------------------------------

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(
            s["end"] - s["start"] for s in self.spans if s["name"] == name
        )

    def count(self, name: str) -> int:
        """Number of spans called ``name``."""
        return sum(1 for s in self.spans if s["name"] == name)

    def self_time(self, name: str) -> float:
        """Summed duration of ``name`` spans minus their direct children."""
        ids = {s["id"] for s in self.spans if s["name"] == name}
        children = sum(
            s["end"] - s["start"]
            for s in self.spans
            if s["parent"] in ids
        )
        return self.total(name) - children

    def child_totals(self, name: str) -> dict[str, float]:
        """Summed duration of direct children of ``name`` spans, by name."""
        ids = {s["id"] for s in self.spans if s["name"] == name}
        out: dict[str, float] = {}
        for s in self.spans:
            if s["parent"] in ids:
                out[s["name"]] = out.get(s["name"], 0.0) + (
                    s["end"] - s["start"]
                )
        return out

    def report(self) -> list[dict[str, Any]]:
        """The spans in start order, times relative to the first span."""
        if not self.spans:
            return []
        origin = min(s["start"] for s in self.spans)
        return [
            {"id": s["id"], "name": s["name"],
             "start": s["start"] - origin, "end": s["end"] - origin,
             "parent": s["parent"]}
            for s in sorted(self.spans, key=lambda s: (s["start"], s["id"]))
        ]
