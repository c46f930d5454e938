"""In-memory span recorder that wraps program functions from outside.

A wrapper is installed on the attribute a caller looks a function up
through (``tagparse.experiment.train_parser``, ``tagparse.optim.Adam.step``),
so the program itself is not edited.  Each wrapped call records a span:
name, start, end, parent span, run (repetition) and phase.  Counting
wrappers only bump a counter on the innermost open span.  Spans also carry
the number of graph tensors created while they were open, read from a
caller-supplied counter.  Everything stays in memory until ``dump``.

The tracer has two levels.  "coarse" targets (a handful of calls per
repetition) are wrapped in the timed runs that give end-to-end figures;
"full" targets are wrapped only while a traced phase runs, so untraced
code never passes through their wrappers.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional

COARSE = "coarse"
FULL = "full"


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    run: int
    phase: str
    start: float
    end: float = 0.0
    tensors: int = 0            # tensors created while open, children included
    child_time: float = 0.0
    counts: Dict[str, int] = field(default_factory=dict)  # while innermost
    meta: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        """Duration minus the part covered by child spans."""
        return self.duration - self.child_time


class Tracer:
    def __init__(self, tensor_count: Callable[[], int]):
        self.spans: List[Span] = []
        self.level: Optional[str] = None      # None, COARSE or FULL
        self.phase = "setup"
        self.run = 0
        self._tensor_count = tensor_count
        self._stack: List[Span] = []
        self._patches = []

    def _active(self, level: str) -> bool:
        return self.level == FULL or (self.level == COARSE and level == COARSE)

    def wrap_span(self, owner, attr: str, name: str, level: str = FULL,
                  meta: Optional[Callable] = None) -> None:
        """Record a span per call of owner.attr; meta(args, kwargs, result) -> dict."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not self._active(level):
                return original(*args, **kwargs)
            span = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            if meta is not None:
                span.meta.update(meta(args, kwargs, result))
            return result

        self._patch(owner, attr, original, wrapper, level)

    def wrap_count(self, owner, attr: str, name: str) -> None:
        """Count calls of owner.attr against the innermost open span."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if self.level == FULL and self._stack:
                counts = self._stack[-1].counts
                counts[name] = counts.get(name, 0) + 1
            return original(*args, **kwargs)

        self._patch(owner, attr, original, wrapper, FULL)

    def _patch(self, owner, attr, original, wrapper, level):
        self._patches.append((owner, attr, original, level))
        setattr(owner, attr, wrapper)

    def uninstall(self, level: Optional[str] = None) -> None:
        """Put back the originals of every wrapper, or of one level's."""
        kept = []
        while self._patches:
            owner, attr, original, wrapped_at = self._patches.pop()
            if level is None or wrapped_at == level:
                setattr(owner, attr, original)
            else:
                kept.append((owner, attr, original, wrapped_at))
        self._patches = kept[::-1]

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, self.run, self.phase,
                    time.perf_counter(), tensors=self._tensor_count())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        span.tensors = self._tensor_count() - span.tensors
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_time += span.duration

    def dump(self, path) -> None:
        with open(path, "w") as f:
            json.dump([asdict(s) for s in self.spans], f)


class SpanIndex:
    """Queries over recorded spans: names, ancestry and inclusive counts."""

    def __init__(self, spans: List[Span]):
        self.spans = spans
        self._by_id = {s.id: s for s in spans}
        # children open after their parent, so a reverse pass sees every
        # child before its parent
        self.inclusive: Dict[int, Dict[str, int]] = {}
        for s in reversed(spans):
            total = self.inclusive.setdefault(s.id, {})
            for key, n in s.counts.items():
                total[key] = total.get(key, 0) + n
            if s.parent is not None:
                up = self.inclusive.setdefault(s.parent, {})
                for key, n in total.items():
                    up[key] = up.get(key, 0) + n

    def named(self, name: str, **meta) -> List[Span]:
        return [s for s in self.spans
                if s.name == name and all(s.meta.get(k) == v for k, v in meta.items())]

    def has_ancestor(self, span: Span, name: str) -> bool:
        parent = span.parent
        while parent is not None:
            up = self._by_id[parent]
            if up.name == name:
                return True
            parent = up.parent
        return False

    def under(self, spans: List[Span], ancestor: Span) -> List[Span]:
        """The spans among `spans` that descend from `ancestor`."""
        out = []
        for s in spans:
            parent = s.parent
            while parent is not None and parent > ancestor.id:
                parent = self._by_id[parent].parent
            if parent == ancestor.id:
                out.append(s)
        return out

    def count(self, span: Span, key: str) -> int:
        return self.inclusive.get(span.id, {}).get(key, 0)
