"""In-memory spans and counters for the traced benchmark run.

A span records its name, start, end, parent and problem id.  Spans stay in a
list until the run ends; `self_times` then subtracts from each span the time
its direct children cover.  Single-threaded use only: children are nested
inside their parent and never overlap.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter
from dataclasses import dataclass
from typing import Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a top-level span
    problem: str


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.problem = ""
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        ix = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.problem))
        self._stack.append(ix)
        try:
            yield
        finally:
            self.spans[ix].end = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value=1) -> None:
        self.counts[name] += value

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        out: dict[str, float] = {}
        for s, covered in zip(self.spans, child):
            out[s.name] = out.get(s.name, 0.0) + (s.end - s.start) - covered
        return out

    def top_level_seconds(self, name: Optional[str] = None) -> float:
        """Total duration of the top-level spans, or of those with the given name."""
        return sum(s.end - s.start for s in self.spans
                   if s.parent < 0 and (name is None or s.name == name))


class NullTracer:
    """Stands in for a Tracer when a run is not traced."""

    def span(self, name: str):
        return contextlib.nullcontext()

    def count(self, name: str, value=1) -> None:
        pass
