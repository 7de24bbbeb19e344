"""In-memory spans around the benchmark's own calls into each layer.

A span is ``{id, parent, request, name, start, end, ref, counts}``.  Spans
of one request share ``request``.  ``parent`` names the span that caused
this one: either real containment, or a *replay* — the benchmark calling a
lower layer's public function on the same inputs right after the call
that contained it (the library itself is not instrumented yet).  A layer's
self time is its span minus what its children cover.

Spans stay in memory and are written as JSON lines when the run ends.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

__all__ = ["Tracer", "self_seconds", "read"]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._stack: List[int] = []
        self._request = 0

    def new_request(self) -> int:
        self._request += 1
        return self._request

    @contextmanager
    def span(self, name: str, parent: Optional[int] = None,
             **counts) -> Iterator[dict]:
        """Time the body; nests under the open span unless ``parent``
        says which earlier span this one replays."""
        rec = {
            "id": len(self.spans),
            "parent": parent if parent is not None
            else (self._stack[-1] if self._stack else None),
            "request": self._request,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "counts": counts,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def record(self, name: str, start: float, end: float,
               parent: Optional[int] = None, request: Optional[int] = None,
               **counts) -> dict:
        """Add a span timed elsewhere: a ``PhaseTimer`` phase (only its
        duration is known, so it starts where its parent does) or one of
        many concurrent requests (which cannot share the nesting stack)."""
        rec = {
            "id": len(self.spans), "parent": parent,
            "request": self._request if request is None else request,
            "name": name, "start": start, "end": end, "counts": counts,
        }
        self.spans.append(rec)
        return rec

    @staticmethod
    def seconds(rec: dict) -> float:
        return rec["end"] - rec["start"]

    def record_phases(self, prefix: str, span: dict,
                      seconds: Dict[str, float]) -> None:
        """Child spans of ``span`` for the phases a ``PhaseTimer`` timed
        inside it (``timer.seconds``: durations only)."""
        for phase, sec in seconds.items():
            self.record(f"{prefix}.{phase}", span["start"],
                        span["start"] + sec, parent=span["id"])

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def self_seconds(spans: List[dict], rec: dict) -> float:
    """A span's duration minus the durations of its direct children."""
    children = sum(
        Tracer.seconds(s) for s in spans if s["parent"] == rec["id"]
    )
    return Tracer.seconds(rec) - children


def read(path: str) -> List[Dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]
