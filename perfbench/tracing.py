"""In-memory spans recorded around the program's public methods.

The tracer replaces a method on one live object (an instance
attribute shadowing the class method, or a module attribute) with a
wrapper that records ``(id, name, start_ns, end_ns, parent, request,
items)``.  Nothing in ``src/`` changes: the program calls through the
attribute it always used and lands in the wrapper.  Spans stay in
memory until :meth:`Tracer.write` dumps them to one JSON file.
"""

from __future__ import annotations

import json
import math
import statistics
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional


def percentile(values, share: float) -> float:
    """Nearest-rank percentile of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, math.ceil(round(share * len(ordered), 6)))
    return ordered[rank - 1]


class Tracer:
    """Span recorder with a fixed capacity (``limit`` spans)."""

    def __init__(self, limit: int = 200_000) -> None:
        self.limit = limit
        self.spans: List[tuple] = []
        self.request = 0
        self._stack: List[int] = []
        self._next = 0

    @property
    def full(self) -> bool:
        return len(self.spans) >= self.limit

    def wrap(
        self,
        owner,
        attribute: str,
        name: str,
        *,
        suffix: Optional[Callable[[object], str]] = None,
        items: Optional[Callable[[tuple], int]] = None,
    ) -> None:
        """Record a span around every call of ``owner.attribute``.

        ``suffix(result)`` refines the span name by outcome (for
        example the cache layer that answered); it runs after the span
        has ended.  ``items(args)`` records how many queries the call
        carried, so per-query times can be derived.
        """
        original = getattr(owner, attribute)
        spans = self.spans
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            span_id = tracer._next
            tracer._next += 1
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            started = perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                ended = perf_counter_ns()
                stack.pop()
            if len(spans) < tracer.limit:
                label = name + suffix(result) if suffix else name
                count = items(args) if items else 1
                spans.append((span_id, label, started, ended, parent, tracer.request, count))
            return result

        setattr(owner, attribute, traced)

    def span(self, name: str, started: int, ended: int, items: int = 1) -> None:
        """Record a span timed by the caller (top-level client calls)."""
        if len(self.spans) < self.limit:
            parent = self._stack[-1] if self._stack else -1
            self.spans.append((self._next, name, started, ended, parent, self.request, items))
            self._next += 1

    # ------------------------------------------------------------------

    def self_times(self) -> Dict[int, int]:
        """Span id -> duration minus the time its child spans cover.

        Calls are single-threaded and nested, so children never
        overlap and their durations simply add up.
        """
        covered: Dict[int, int] = {}
        for _, _, started, ended, parent, _, _ in self.spans:
            if parent >= 0:
                covered[parent] = covered.get(parent, 0) + (ended - started)
        return {
            span_id: (ended - started) - covered.get(span_id, 0)
            for span_id, _, started, ended, _, _, _ in self.spans
        }

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: count, median/p99 duration and median self time (us)."""
        own = self.self_times()
        by_name: Dict[str, List[tuple]] = {}
        for span_id, name, started, ended, _, _, count in self.spans:
            by_name.setdefault(name, []).append((ended - started, own[span_id], count))
        table = {}
        for name, rows in sorted(by_name.items()):
            durations = [row[0] / 1e3 for row in rows]
            selfs = [row[1] / 1e3 for row in rows]
            per_item = [row[0] / 1e3 / max(row[2], 1) for row in rows]
            table[name] = {
                "count": len(rows),
                "p50_us": statistics.median(durations),
                "p99_us": percentile(durations, 0.99),
                "self_p50_us": statistics.median(selfs),
                "self_total_s": sum(selfs) / 1e6,
                "per_item_p50_us": statistics.median(per_item),
            }
        return table

    def write(self, path: str, header: Dict) -> None:
        names: Dict[str, int] = {}
        rows = []
        for span_id, name, started, ended, parent, request, count in self.spans:
            rows.append([span_id, names.setdefault(name, len(names)), started, ended, parent, request, count])
        document = dict(header)
        document["fields"] = ["id", "name", "start_ns", "end_ns", "parent", "request", "items"]
        document["names"] = list(names)
        document["spans"] = rows
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, separators=(",", ":"))


def print_table(table: Dict[str, Dict[str, float]], out) -> None:
    out.write(f"{'span':<34}{'count':>9}{'p50 us':>12}{'p99 us':>12}{'self p50':>12}{'self s':>10}\n")
    for name, row in table.items():
        out.write(
            f"{name:<34}{row['count']:>9}{row['p50_us']:>12.2f}{row['p99_us']:>12.2f}"
            f"{row['self_p50_us']:>12.2f}{row['self_total_s']:>10.3f}\n"
        )
