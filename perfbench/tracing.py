"""In-memory spans recorded around calls into the package.

A span has a name, start and end (seconds since the tracer was created),
the id of its parent span, and the trial id it belongs to.  Spans stay in
memory and are written out once, when the benchmark ends.  Spans marked
``replayed`` were not timed directly: their duration is a replayed
per-call time multiplied by an exact call count.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._t0 = time.perf_counter()

    def _now(self) -> float:
        return time.perf_counter() - self._t0

    @contextmanager
    def span(self, name: str, trial: int | None = None):
        rec = self.add(name, self._now(), None, self._stack[-1] if self._stack else None, trial)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = self._now()

    def add(self, name, start, end, parent, trial, replayed: bool = False) -> dict:
        rec = {
            "id": len(self.spans),
            "name": name,
            "start": start,
            "end": end,
            "parent": parent,
            "trial": trial,
            "replayed": replayed,
        }
        self.spans.append(rec)
        return rec

    def total(self, name: str) -> float:
        """Summed duration of every span with this name."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def self_times(self) -> dict:
        """Per span name: call count, total duration, and self time (the
        duration minus the time covered by child spans)."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict = {}
        for s in self.spans:
            dur = s["end"] - s["start"]
            row = out.setdefault(s["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child_time[s["id"]]
        return out
