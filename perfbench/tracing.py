"""In-memory spans recorded by the benchmark around its calls into cohdet.

A span is (name, start_ns, end_ns, parent), where parent is the index of
the enclosing span or -1.  Spans are kept in a list and written out once,
when the run ends, so recording costs two clock reads and an append.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

now = time.perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []

    def add(self, name: str, start: int, end: int, parent: int = -1) -> int:
        """Record a finished span; returns its index."""
        self.spans.append([name, start, end, parent])
        return len(self.spans) - 1

    @contextmanager
    def span(self, name: str, parent: int = -1):
        """Record the enclosed block as a span; yields its index."""
        index = self.add(name, now(), 0, parent)
        try:
            yield index
        finally:
            self.spans[index][2] = now()

    def seconds(self, index: int) -> float:
        _, start, end, _ = self.spans[index]
        return (end - start) * 1e-9

    def durations(self, name: str) -> list[float]:
        """Durations in seconds of every span called `name`."""
        return [(end - start) * 1e-9 for n, start, end, _ in self.spans if n == name]

    def write(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = dict(extra, spans=self.spans)
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
