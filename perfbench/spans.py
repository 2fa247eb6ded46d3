"""In-memory spans around the layer functions that the CLI calls.

The traced run wraps public functions of detomo's modules from the outside:
each wrapper is installed with setattr on the module the caller looks the
name up in, and removed afterwards. Spans are recorded only while a CLI step
span is open, so the benchmark's own correctness checks, which call some of
the same functions, never show up as program work.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator


@dataclass
class Span:
    span_id: int
    parent_id: int | None
    pipeline_id: int
    name: str
    layer: str
    start: float
    end: float = 0.0
    child_s: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        """Duration minus the time covered by direct children (run serially)."""
        return self.duration - self.child_s


# A hook sees the call's arguments and result and fills span attributes.
Hook = Callable[[dict, tuple, dict, Any], None]


class Tracer:
    """Collects spans of one process; not thread-safe (the benchmark is serial)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.pipeline_id = 0

    @contextlib.contextmanager
    def span(self, name: str, layer: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        s = Span(
            span_id=len(self.spans),
            parent_id=parent.span_id if parent else None,
            pipeline_id=self.pipeline_id,
            name=name,
            layer=layer,
            start=time.perf_counter(),
        )
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.child_s += s.duration

    def wrap(self, fn: Callable, name: str, layer: str, hook: Hook | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            with self.span(name, layer) as s:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(s.attrs, args, kwargs, result)
                return result

        return traced

    @contextlib.contextmanager
    def installed(self, targets: list[tuple[Any, str, str, str, Hook | None]]) -> Iterator[None]:
        """Wrap each (module, attribute, span name, layer, hook) for the block."""
        saved = []
        try:
            for module, attr, name, layer, hook in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, layer, hook))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def by_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.by_name(name))

    def layer_self(self, layer: str) -> float:
        return sum(s.self_s for s in self.spans if s.layer == layer)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [dict(asdict(s), self_s=s.self_s) for s in self.spans]
        path.write_text(json.dumps(rows) + "\n")


def wrapper_cost(calls: int = 5000) -> float:
    """Seconds one traced call adds to a plain call, measured on a no-op."""

    def noop() -> None:
        return None

    tracer = Tracer()
    traced = tracer.wrap(noop, "noop", "calibration")
    with tracer.span("calibration", "calibration"):
        t0 = time.perf_counter()
        for _ in range(calls):
            traced()
        t_traced = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    return (t_traced - (time.perf_counter() - t0)) / calls
