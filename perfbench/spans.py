"""In-memory spans recorded by the benchmark around its calls into ringsim.

A span has a name, a start and an end (``time.perf_counter`` seconds), the
index of the span that was open when it started (its parent) and the id of
the job it belongs to. Spans stay in memory and are written out once, when
the run ends. A span's self time is its duration minus the part of its
interval that its child spans cover.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: str
    tag: str | None = None


class Tracer:
    """Records nested spans for one single-threaded benchmark process."""

    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self.job = "-"
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, tag: str | None = None):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent, self.job, tag))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


class NullTracer:
    """Stands in for a Tracer in untraced runs: records nothing."""

    enabled = False
    _null = contextlib.nullcontext()

    def span(self, name: str, tag: str | None = None):
        return self._null


def self_times(spans: list[Span]) -> list[float]:
    """Self time of every span: its duration minus the union of its children.

    Child intervals are clipped to the parent's interval before the union is
    taken, so overlapping or overhanging children are not counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, cursor), min(b, s.end)
            if b > a:
                covered += b - a
                cursor = b
        out.append((s.end - s.start) - covered)
    return out
