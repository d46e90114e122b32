"""Spans recorded around library calls, and the self-time arithmetic over them.

A `Tracer` replaces module attributes (the names one module imports from
another) with wrappers that record a span per call: name, start, end, the
enclosing span and the operation id current at entry.  Spans stay in memory
until the run writes them out.  `window` then attributes a time window, such
as one timed operation, to the spans that overlap it: each span's self time
is its clipped duration minus its clipped children's, and the part no span
covers is reported on its own, so the self times plus that remainder add up
to the window.  That sum is only meaningful when the spans nest, which
`problems` checks.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int      # index of the enclosing span in the tracer's list, -1 at top
    op: str          # operation id current when the call started
    rows: int = 0    # input rows, for layers whose work scales with them


@dataclass
class Totals:
    calls: int = 0   # calls that started inside the window
    ms: float = 0.0
    self_ms: float = 0.0
    rows: int = 0


@dataclass
class Window:
    start: float
    end: float
    by_name: dict[str, Totals] = field(default_factory=dict)
    self_s: dict[int, float] = field(default_factory=dict)  # span index -> self time
    uncovered_ms: float = 0.0

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Tracer:
    """Patches `(module, attribute)` targets with span-recording wrappers.

    `targets` maps a span name to the places that name is bound, and
    optionally the index of a positional argument whose length counts as
    the call's rows.  A name bound nowhere is listed in `absent` and never
    recorded, so a renamed function shows as missing rather than as zero.
    """

    def __init__(self, targets: dict[str, tuple[list[tuple[object, str]], int | None]]):
        self.spans: list[Span] = []
        self.op = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self.absent: list[str] = []
        for name, (places, rows_arg) in targets.items():
            found = [(mod, attr) for mod, attr in places if hasattr(mod, attr)]
            if not found:
                self.absent.append(name)
            for mod, attr in found:
                original = getattr(mod, attr)
                self._patches.append((mod, attr, original,
                                      self._wrap(name, original, rows_arg)))

    def _wrap(self, name: str, fn, rows_arg: int | None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rows = len(args[rows_arg]) if rows_arg is not None else 0
            span = Span(name, time.perf_counter(), float("nan"),
                        self._stack[-1] if self._stack else -1, self.op, rows)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
        return traced

    def install(self) -> None:
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)


def window(spans: list[Span], start: float, end: float) -> Window:
    """Clip every span to [start, end) and attribute the window's time.

    Spans nest (one thread, one call stack), so a span's children are
    disjoint and the time they cover is the sum of their clipped lengths.
    """
    out = Window(start, end)
    clipped: dict[int, float] = {}
    for i, s in enumerate(spans):
        lo, hi = max(s.start, start), min(s.end, end)
        if hi > lo or start <= s.start < end:
            clipped[i] = max(hi - lo, 0.0)
    child_s = dict.fromkeys(clipped, 0.0)
    covered = 0.0
    for i, dur in clipped.items():
        parent = spans[i].parent
        if parent in clipped:
            child_s[parent] += dur
        else:
            covered += dur
    for i, dur in clipped.items():
        s = spans[i]
        own = dur - child_s[i]
        out.self_s[i] = own
        t = out.by_name.setdefault(s.name, Totals())
        if start <= s.start < end:
            t.calls += 1
            t.rows += s.rows
        t.ms += dur * 1e3
        t.self_ms += own * 1e3
    out.uncovered_ms = (end - start - covered) * 1e3
    return out


def children(spans: list[Span], index: int, within: Window) -> list[int]:
    """Indices of the spans directly under `index` that overlap the window."""
    return [i for i in within.self_s if spans[i].parent == index]


def problems(spans: list[Span], within: Window, tol: float = 1e-9) -> list[str]:
    """What would make the window's attribution wrong: a span never closed or
    ending before it starts, a child outside its parent, siblings that overlap,
    or a negative self time or remainder (all times in seconds, up to `tol`)."""
    out = []
    siblings: dict[int, list[int]] = {}
    for i in within.self_s:
        s = spans[i]
        siblings.setdefault(s.parent, []).append(i)
        if not s.start <= s.end:
            out.append(f"{s.name} #{i} is not closed or ends before it starts")
        elif s.parent >= 0 and not (spans[s.parent].start <= s.start
                                    and s.end <= spans[s.parent].end):
            out.append(f"{s.name} #{i} is not inside its parent #{s.parent}")
        if within.self_s[i] < -tol:
            out.append(f"{s.name} #{i} has negative self time")
    for group in siblings.values():
        group.sort(key=lambda i: spans[i].start)
        for a, b in zip(group, group[1:]):
            if spans[b].start < spans[a].end:
                out.append(f"{spans[b].name} #{b} overlaps its sibling #{a}")
    if within.uncovered_ms < -tol * 1e3:
        out.append("the uncovered remainder is negative")
    return out
