"""In-memory spans around calls into wndkit.

The benchmark opens a span around every call it makes into a wndkit layer.
In a traced run it also swaps module attributes that wndkit's own code looks
up at call time (``wndkit.solver.step``, ``wndkit.solver.apply_averaged_quadratic``,
``wndkit.dissipativity.kawashima_check``, ...) for wrappers that open a span,
so the layers called from inside ``build_operators``, ``simulate``,
``cyclic_residual`` and ``analyze_dissipativity`` appear as child spans.  The
originals are restored when the traced region ends; wndkit itself is never
edited.  Spans are kept in memory and written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans of one run.

    A disabled tracer still times each span (the benchmark reads its phase
    times from them) but keeps nothing, so the untraced run pays only two
    clock reads per phase.
    """

    def __init__(self, run_id: str, enabled: bool) -> None:
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        sp = Span(len(self.spans), name, parent, attrs=attrs)
        if self.enabled:
            self.spans.append(sp)
            self._stack.append(sp.id)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            if self.enabled:
                self._stack.pop()

    def wrap(self, name: str, func: Callable, attrs_of: Callable | None = None) -> Callable:
        @functools.wraps(func)
        def traced(*args, **kwargs):
            attrs = attrs_of(*args, **kwargs) if attrs_of is not None else {}
            with self.span(name, **attrs):
                return func(*args, **kwargs)

        return traced

    @contextlib.contextmanager
    def patched(self, targets: Iterable[tuple]):
        """Swap each (module, attribute, span name, attrs_of) for a traced wrapper."""
        saved = []
        try:
            for module, attr, name, attrs_of in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, attrs_of))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def within(self, root: Span, name: str | None = None) -> list[Span]:
        """Spans opened and closed inside `root` (one thread, so nesting is by time)."""
        return [
            s for s in self.spans
            if s is not root and root.start <= s.start and s.end <= root.end
            and (name is None or s.name == name)
        ]

    def self_times(self) -> dict[int, float]:
        """Each span's duration minus the part its direct children cover.

        Children of one span run one after another, so their coverage is the
        sum of their durations.
        """
        out = {s.id: s.duration for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.duration
        return out

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        self_time = self.self_times()
        spans = [
            {
                "id": s.id,
                "run": self.run_id,
                "name": s.name,
                "parent": s.parent,
                "start": s.start,
                "end": s.end,
                "self": self_time[s.id],
                **s.attrs,
            }
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**header, "run": self.run_id, "spans": spans}, handle)


class CountingRule:
    """Resonance-rule wrapper that counts calls and the time spent inside them.

    A span per call would cost more than the rule itself (over a million
    calls per table build), so the totals are attached to the set-up span.
    """

    def __init__(self, rule: Callable) -> None:
        self.rule = rule
        self.calls = 0
        self.seconds = 0.0

    def __call__(self, *args) -> bool:
        t0 = time.perf_counter()
        hit = self.rule(*args)
        self.seconds += time.perf_counter() - t0
        self.calls += 1
        return hit
