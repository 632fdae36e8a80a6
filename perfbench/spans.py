"""Span recording at module boundaries, from outside the package.

A ``Tracer`` replaces a public function, as another module sees it, with a
wrapper that records one span per call: name, start, end, the span that
caused it, and the solve it belongs to.  Spans stay in memory until the
benchmark writes them out.  A target that no longer exists, or that the
workload never reaches, raises ``TraceTargetMissing`` instead of quietly
yielding fewer spans.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable


class TraceTargetMissing(RuntimeError):
    """A wrapped name is gone, or was never called through."""


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    solve: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.solve = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._calls: dict[str, int] = {}

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), 0.0, parent, self.solve)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str,
             observe: Callable[[tuple, object], None] | None = None) -> None:
        """Record a ``name`` span around every call of ``owner.attr``.

        ``observe(args, result)`` sees each call's positional arguments and
        result, outside the span.
        """
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        original = getattr(owner, attr, None)
        if not callable(original):
            raise TraceTargetMissing(
                f"{label} no longer exists; the '{name}' spans would be lost")
        tracer = self
        self._calls[label] = 0

        @functools.wraps(original)
        def traced(*args, **kwargs):
            tracer._calls[label] += 1
            with tracer.span(name):
                result = original(*args, **kwargs)
            if observe is not None:
                observe(args, result)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def require_calls(self) -> None:
        """Fail unless every wrapped name was called at least once."""
        missing = sorted(label for label, n in self._calls.items() if not n)
        if missing:
            raise TraceTargetMissing(
                f"wrapped but never called: {', '.join(missing)}; the "
                f"package no longer calls through these names")

    def children(self, index: int) -> list[Span]:
        return [s for s in self.spans if s.parent == index]

    def self_time(self, index: int) -> float:
        """Span duration minus the time its direct children cover."""
        return (self.spans[index].duration
                - sum(c.duration for c in self.children(index)))

    def total(self, name: str, solve: int, parent: str | None = None
              ) -> float:
        """Summed duration of ``name`` spans in one solve, optionally only
        those directly under a ``parent`` span."""
        return sum(s.duration for s in self._select(name, solve, parent))

    def count(self, name: str, solve: int) -> int:
        return sum(1 for _ in self._select(name, solve, None))

    def self_total(self, name: str, solve: int) -> float:
        return sum(self.self_time(i) for i, s in enumerate(self.spans)
                   if s.name == name and s.solve == solve)

    def _select(self, name, solve, parent):
        for s in self.spans:
            if s.name != name or s.solve != solve:
                continue
            if parent is not None and (
                    s.parent is None or self.spans[s.parent].name != parent):
                continue
            yield s

    def dump(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(s) for s in self.spans]) + "\n")
