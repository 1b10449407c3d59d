"""In-memory spans for the traced run.

A span records a name, the operation (one recording's compile) it
belongs to, its parent span, start and end (`perf_counter_ns`) and the
counts taken at the same call. Spans are only recorded from the
benchmark's own files: around the calls it makes into each layer, plus
a few module attributes swapped for the duration of a traced run (see
`patched`) so that calls a public function makes internally get their
own child span.
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns


@dataclass(slots=True)
class Span:
    name: str
    op: int
    id: int
    parent: int | None
    start: int
    end: int = 0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> int:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; `write` dumps them when the run ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = -1

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = Span(name, self.op, len(self.spans), parent, perf_counter_ns())
        self.spans.append(record)
        self._stack.append(record.id)
        try:
            yield record
        finally:
            record.end = perf_counter_ns()
            self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        """`fn` with a span around every call made inside an open span;
        `count(args, result)` returns the counts to attach to it."""

        def traced(*args, **kwargs):
            if not self._stack:  # an untraced operation
                return fn(*args, **kwargs)
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if count is not None:
                    record.counts.update(count(args, result))
                return result

        return traced

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            [s.name, s.op, s.id, s.parent, s.start, s.end, s.counts]
            for s in self.spans
        ]
        path.write_text(
            json.dumps({"columns": ["name", "op", "id", "parent", "start_ns",
                                    "end_ns", "counts"], "spans": rows})
        )


@contextmanager
def patched(targets):
    """Swap `(module, attribute, replacement)` triples in, restore after."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in targets]
    try:
        for module, attr, replacement in targets:
            setattr(module, attr, replacement)
        yield
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)


def self_times(spans: list[Span]) -> dict[int, int]:
    """Self time (ns) per span id: duration minus what its children cover.

    Raises ValueError when a child lies outside its parent or children
    overlap, because then the self times would not add up to the root.
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        kids = sorted(children.get(span.id, ()), key=lambda s: s.start)
        cursor = span.start
        for kid in kids:
            if kid.start < cursor or kid.end > span.end:
                raise ValueError(f"span {kid.name} escapes or overlaps in {span.name}")
            cursor = kid.end
        result[span.id] = span.duration - sum(k.duration for k in kids)
    return result


def layer_report(spans: list[Span], first_pass_ops: set[int]) -> tuple[dict, dict]:
    """Per-layer medians of per-operation self time (ms), and counts.

    A layer's time is the median, over the operations in which it ran,
    of the summed self time of its spans in that operation. Counts are
    totals over the first pass of the corpus only, so they repeat
    exactly for a seed however long the run was.
    """
    selfs = self_times(spans)
    per_op: dict[str, dict[int, int]] = {}
    counts: dict[str, int] = {}
    root_of: dict[int, int] = {}
    covered: dict[int, int] = {}
    for span in spans:  # a parent is always recorded before its children
        root = root_of[span.id] = span.id if span.parent is None else root_of[span.parent]
        covered[root] = covered.get(root, 0) + selfs[span.id]
        layer = per_op.setdefault(span.name, {})
        layer[span.op] = layer.get(span.op, 0) + selfs[span.id]
        if span.op in first_pass_ops:
            for stat, value in span.counts.items():
                key = f"{span.name}.{stat}"
                counts[key] = counts.get(key, 0) + value
    for root, total in covered.items():
        if total != spans[root].duration:
            raise ValueError(f"self times under span {root} sum to {total} ns, "
                             f"its duration is {spans[root].duration} ns")
    times = {
        f"{name}.ms": statistics.median(layer.values()) / 1e6
        for name, layer in per_op.items()
    }
    return times, counts
