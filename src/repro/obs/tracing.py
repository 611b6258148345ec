"""Zero-dependency span tracer with a thread-safe in-process collector.

A :class:`Span` is one timed operation with a name, attributes, and a
parent — nesting is tracked per thread, so spans opened inside another
span's ``with`` block become its children and a trace of one TE interval
reads as a tree (``te.interval`` > ``te.solve`` > ``te.phase.lp_solve``).

The design constraint is the solver hot path: ``MegaTEOptimizer`` derives
its ``phase_s`` stats from span durations, so a span must *measure* even
when tracing is disabled — but the disabled path must cost no more than
two clock reads (no allocation of collector state, no locking, no
thread-local traffic).  :meth:`Tracer.span` is therefore always safe to
leave in hot code; only per-flow loops stay uninstrumented.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, IO, Iterable

__all__ = ["Span", "Tracer", "get_tracer", "monotonic"]

#: The repo's one blessed monotonic clock.  Code outside ``repro.obs``
#: is lint-banned from calling ``time.perf_counter`` directly and uses
#: this alias (or spans) instead.
monotonic = time.perf_counter

_span_ids = itertools.count(1)


@dataclass
class Span:
    """One timed operation.

    Attributes:
        name: Dotted span name (``te.phase.lp_solve``).
        span_id: Process-unique id.
        parent_id: Enclosing span's id (None for a root span).
        start_s: Start time on the monotonic clock.
        end_s: End time (0.0 while the span is open).
        attributes: Free-form key/value annotations.
    """

    name: str
    span_id: int
    parent_id: int | None
    start_s: float
    end_s: float = 0.0
    attributes: dict[str, Any] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def as_dict(self) -> dict:
        """JSON-serializable event (durations in seconds)."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "attributes": self.attributes,
        }


class _SpanHandle:
    """Context manager yielded by :meth:`Tracer.span`.

    Always times the block; records a :class:`Span` into the tracer's
    collector only when tracing was enabled at entry.  ``name`` and
    ``attributes`` may be mutated inside the block (e.g. a stage-1 span
    renames itself ``delta_patch`` vs ``lp_solve`` once it knows which
    path ran).
    """

    __slots__ = (
        "_tracer", "name", "attributes", "_record",
        "start_s", "end_s", "span",
    )

    def __init__(
        self, tracer: "Tracer", name: str, attributes: dict | None
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.attributes = attributes
        self.span: Span | None = None

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def set_attribute(self, key: str, value: Any) -> None:
        if self.attributes is None:
            self.attributes = {}
        self.attributes[key] = value

    def __enter__(self) -> "_SpanHandle":
        self._record = self._tracer.enabled
        if self._record:
            stack = self._tracer._stack()
            parent = stack[-1] if stack else None
            self.span = Span(
                name=self.name,
                span_id=next(_span_ids),
                parent_id=parent.span_id if parent is not None else None,
                start_s=0.0,
            )
            stack.append(self.span)
        self.end_s = 0.0
        self.start_s = monotonic()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.end_s = monotonic()
        if self._record:
            span = self.span
            span.name = self.name
            span.start_s = self.start_s
            span.end_s = self.end_s
            if self.attributes:
                span.attributes.update(self.attributes)
            if exc_type is not None:
                span.attributes["error"] = exc_type.__name__
            stack = self._tracer._stack()
            if stack and stack[-1] is span:
                stack.pop()
            self._tracer._collect(span)


class Tracer:
    """Thread-safe span collector.

    Attributes:
        enabled: Collection switch.  Disabled spans still measure (their
            handles expose ``duration_s``) but are never stored.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._finished: list[Span] = []
        self._local = threading.local()

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _collect(self, span: Span) -> None:
        with self._lock:
            self._finished.append(span)

    def span(self, name: str, **attributes: Any) -> _SpanHandle:
        """Open a (possibly recorded) span around a ``with`` block."""
        return _SpanHandle(self, name, attributes or None)

    # -- reading -------------------------------------------------------------

    def finished_spans(self) -> list[Span]:
        """Snapshot of all collected spans, in completion order."""
        with self._lock:
            return list(self._finished)

    def __len__(self) -> int:
        with self._lock:
            return len(self._finished)

    def reset(self) -> None:
        """Drop every collected span (open spans are unaffected)."""
        with self._lock:
            self._finished.clear()

    def to_jsonl(self, handle: IO[str]) -> int:
        """Write collected spans as JSONL events; returns the count."""
        spans = self.finished_spans()
        for span in spans:
            handle.write(json.dumps(span.as_dict()) + "\n")
        return len(spans)


def iter_roots(spans: Iterable[Span]) -> list[Span]:
    """The spans with no collected parent (trace roots)."""
    ids = {span.span_id for span in spans}
    return [
        span
        for span in spans
        if span.parent_id is None or span.parent_id not in ids
    ]


_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-wide tracer every instrumented module shares."""
    return _TRACER
