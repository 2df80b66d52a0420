"""Spans around the public functions of idkm, recorded from outside.

The package imports its collaborators by name (``from .solver import
solve_fixed_point``), so a function is traced by replacing the name where
it is looked up, for example ``idkm.training.solve_fixed_point``. Each call
of a replaced name becomes a span: name, start, end, parent span and the
training step it ran in. With memory tracing on, a span also records its
tracemalloc peak above the traced level at entry.

Nothing here knows about idkm; the workloads choose what to wrap.
"""

from __future__ import annotations

import functools
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    step: int | None = None
    ok: bool = True
    peak_bytes: int = 0
    child_s: float = 0.0
    info: dict = field(default_factory=dict)
    # Traced memory at entry and the highest absolute level seen while open.
    _base: int = 0
    _high: int = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        """Duration minus the part covered by direct child spans."""
        return self.seconds - self.child_s

    def record(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "step": self.step,
            "ok": self.ok,
            "peak_bytes": self.peak_bytes,
            **self.info,
        }


class Tracer:
    """Records spans for every wrapped name while it is installed.

    A call of the function named by `step_span` opens a new step id; spans
    opened inside it carry that id. Calls made while `enabled` is false run
    the original function with no bookkeeping beyond one attribute check.
    """

    def __init__(self, step_span: str):
        self.step_span = step_span
        self.spans: list[Span] = []
        self.enabled = False
        self.memory = False
        self._stack: list[int] = []
        self._step: int | None = None
        self._next_step = 0
        self._patches: list[tuple[Any, str, Any]] = []

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        info: Callable[[Any], dict] | None = None,
    ) -> None:
        """Replace owner.attr with a traced version until `remove()`."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not self.enabled:
                return original(*args, **kwargs)
            index = self._open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                self._close(index, ok=False)
                raise
            self._close(index, ok=True)
            if info is not None:
                self.spans[index].info.update(info(result))
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def start(self, memory: bool) -> None:
        """Record spans from now on; with `memory`, also tracemalloc peaks."""
        self.enabled = True
        self.memory = memory
        if memory:
            tracemalloc.start()

    def stop(self) -> None:
        if self.memory:
            tracemalloc.stop()
        self.enabled = self.memory = False

    def remove(self) -> None:
        """Restore every wrapped name, most recent first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _fold_peak(self) -> None:
        """Fold the tracemalloc peak since the last event into the open span."""
        if not (self.memory and self._stack):
            return
        peak = tracemalloc.get_traced_memory()[1]
        top = self.spans[self._stack[-1]]
        top._high = max(top._high, peak)
        tracemalloc.reset_peak()

    def _open(self, name: str) -> int:
        self._fold_peak()
        if name == self.step_span:
            self._step = self._next_step
            self._next_step += 1
        span = Span(
            name=name,
            start=0.0,
            parent=self._stack[-1] if self._stack else None,
            step=self._step,
        )
        if self.memory:
            span._base = span._high = tracemalloc.get_traced_memory()[0]
        self.spans.append(span)
        index = len(self.spans) - 1
        self._stack.append(index)
        span.start = time.perf_counter()
        return index

    def _close(self, index: int, ok: bool) -> None:
        end = time.perf_counter()
        self._fold_peak()
        self._stack.pop()
        span = self.spans[index]
        span.end = end
        span.ok = ok
        if self.memory:
            span.peak_bytes = span._high - span._base
        if span.parent is not None:
            parent = self.spans[span.parent]
            parent.child_s += span.seconds
            parent._high = max(parent._high, span._high)
        if span.name == self.step_span:
            self._step = None


def step_totals(spans: list[Span], steps: list[int], value: Callable[[Span], float]):
    """Per step, the sum of `value` over the spans that ran in it."""
    totals = dict.fromkeys(steps, 0.0)
    for span in spans:
        if span.step in totals:
            totals[span.step] += value(span)
    return [totals[s] for s in steps]


def median(values, default: float = 0.0) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else default
