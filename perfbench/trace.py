"""Spans recorded by the benchmark around its calls into the program.

A span is ``(id, parent, name, start_ns, end_ns, attrs)`` on the
``time.perf_counter_ns`` clock, which is system-wide on Linux, so spans
from the program-side child processes and the load generator line up.
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self, prefix: str, root_parent: str | None = None) -> None:
        self.spans: list[dict] = []
        self._ids = (f"{prefix}{i}" for i in itertools.count(1))
        self._stack: list[str | None] = [root_parent]

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        record = {
            "id": next(self._ids),
            "parent": self._stack[-1],
            "name": name,
            "attrs": attrs,
        }
        self._stack.append(record["id"])
        record["start_ns"] = time.perf_counter_ns()
        try:
            yield record
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append(record)

    def add(self, name: str, start_ns: int, end_ns: int, parent: str | None, **attrs) -> dict:
        """Record a span timed elsewhere (e.g. an HTTP request in flight)."""
        record = {
            "id": next(self._ids),
            "parent": parent,
            "name": name,
            "attrs": attrs,
            "start_ns": start_ns,
            "end_ns": end_ns,
        }
        self.spans.append(record)
        return record

    @property
    def current(self) -> str | None:
        return self._stack[-1]


def duration_s(span: dict) -> float:
    return (span["end_ns"] - span["start_ns"]) / 1e9


def self_times(spans) -> dict[str, float]:
    """Total self time per span name, in seconds: each span's duration
    minus the part of its interval that its children's spans cover."""
    children = defaultdict(list)
    for span in spans:
        children[span["parent"]].append((span["start_ns"], span["end_ns"]))
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        covered, reach = 0, span["start_ns"]
        for start, end in sorted(children.get(span["id"], ())):
            start, end = max(start, reach), min(end, span["end_ns"])
            if end > start:
                covered += end - start
                reach = end
        totals[span["name"]] += (span["end_ns"] - span["start_ns"] - covered) / 1e9
    return dict(totals)


def write(spans, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for span in sorted(spans, key=lambda s: s["start_ns"]):
            handle.write(json.dumps(span, sort_keys=True) + "\n")
