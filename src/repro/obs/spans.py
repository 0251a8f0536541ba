"""Hierarchical timed spans with ambient (contextvar) propagation.

The paper sells *inspectability*: Figure 3 is a trace of plan steps,
rule firings and restarts.  This module adds the missing wall-clock
dimension.  A :class:`Tracer` records **spans** -- named, timed,
hierarchically nested intervals (synthesis > candidate > plan > step >
dc solve > ladder rung) -- the **span events** recorded inside them
(the design-trace events, on the same clock), and a
:class:`~repro.obs.metrics.MetricsRegistry` of run counters.

Propagation uses the one ambient trace position of
:mod:`repro.obs.telemetry`: :meth:`Tracer.activate` installs the
recording tracer there, and every open span makes itself the position
(so nested spans parent to it, and log lines and outgoing
``traceparent`` headers carry its W3C ids).  Instrumented code calls
the **module level** helpers :func:`span`, :func:`count`,
:func:`observe` and :func:`gauge`.  When no tracer is active those
helpers are no-ops -- :func:`span` returns a shared stateless
:data:`NULL_SPAN` singleton (one contextvar read, zero allocation), so
production code is instrumented unconditionally and observability
costs nothing when disabled.

Span lifecycle::

    tracer = Tracer()
    with tracer.activate():
        with span("synthesize", category="synthesis", styles="a,b") as s:
            ...                       # nested span() calls parent here
            s.set("winner", "a")      # attach attributes mid-flight
    tracer.spans                      # finished Span records
    tracer.events                     # (t_ms, span_id, event) records

A span that exits through an exception is finished with
``status="error"`` and the exception summary in its attributes; the
exception always propagates.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from contextvars import Token
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .metrics import MetricsRegistry, Number
from .telemetry import _POSITION, Position, TraceContext

__all__ = [
    "Span",
    "SpanHandle",
    "NullSpan",
    "NULL_SPAN",
    "Tracer",
    "current_tracer",
    "span",
    "count",
    "observe",
    "gauge",
]


def current_tracer() -> Optional["Tracer"]:
    """The ambient tracer installed by :meth:`Tracer.activate`, if any."""
    return _POSITION.get()[1]


@dataclass(frozen=True)
class Span:
    """One finished timed interval.

    Attributes:
        name: span name (``"step:partition_gain"``...).
        span_id: W3C span id (16 lowercase hex chars).
        parent_id: enclosing span's id -- or the remote hop the span
            was opened under (see :func:`repro.obs.activate_trace`);
            None when the span started a trace.
        start_ms: start time relative to the tracer epoch, milliseconds.
        duration_ms: wall-clock duration, milliseconds.
        category: coarse grouping (``"synthesis"``, ``"plan"``,
            ``"step"``, ``"sim"``, ``"ladder"``...), used as the Chrome
            trace category.
        status: ``"ok"`` or ``"error"``.
        attributes: free-form string/number annotations.
    """

    name: str
    span_id: str
    parent_id: Optional[str]
    start_ms: float
    duration_ms: float
    category: str = ""
    status: str = "ok"
    attributes: Dict[str, Any] = field(default_factory=dict)

    @property
    def end_ms(self) -> float:
        return self.start_ms + self.duration_ms

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_ms": round(self.start_ms, 3),
            "duration_ms": round(self.duration_ms, 3),
            "category": self.category,
            "status": self.status,
            "attributes": dict(self.attributes),
        }

    @classmethod
    def from_dict(cls, row: Dict[str, Any]) -> "Span":
        """Inverse of :meth:`to_dict` (lenient: missing keys default,
        extra keys are ignored)."""
        return cls(
            name=str(row.get("name", "")),
            span_id=str(row.get("span_id", "")),
            parent_id=row.get("parent_id"),
            start_ms=float(row.get("start_ms", 0.0)),
            duration_ms=float(row.get("duration_ms", 0.0)),
            category=str(row.get("category", "")),
            status=str(row.get("status", "ok")),
            attributes=dict(row.get("attributes") or {}),
        )


class NullSpan:
    """The disabled-observability span: every operation is a no-op.

    A single shared instance (:data:`NULL_SPAN`) is handed out by
    :func:`span` whenever no tracer is active.  It is stateless, hence
    safely re-entrant and shareable across threads and asyncio tasks.
    """

    __slots__ = ()

    def set(self, key: str, value: Any) -> None:
        """Discard the attribute."""

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False


#: The shared no-op span (identity-comparable in tests).
NULL_SPAN = NullSpan()


class SpanHandle(NullSpan):
    """A live span: entering it makes it the ambient trace position,
    exiting finishes it and restores the enclosing position."""

    __slots__ = (
        "_tracer",
        "name",
        "category",
        "trace_id",
        "span_id",
        "parent_id",
        "start_ms",
        "attributes",
        "status",
        "_token",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        category: str,
        trace_id: str,
        parent_id: Optional[str],
        attributes: Dict[str, Any],
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.category = category
        self.trace_id = trace_id
        self.span_id = os.urandom(8).hex()
        self.parent_id = parent_id
        self.start_ms = tracer.now_ms()
        self.attributes = attributes
        self.status = "ok"
        self._token: Optional[Token[Position]] = None

    def set(self, key: str, value: Any) -> None:
        """Attach (or overwrite) one attribute."""
        self.attributes[key] = value

    def context(self) -> TraceContext:
        """This span's position as a W3C :class:`TraceContext`."""
        return TraceContext(self.trace_id, self.span_id)

    def add_event(self, event: Any) -> None:
        """Record ``event`` on this span, timestamped on the tracer's
        clock (see :attr:`Tracer.events`)."""
        tracer = self._tracer
        tracer.events.append((tracer.now_ms(), self.span_id, event))

    def __enter__(self) -> "SpanHandle":
        self._token = _POSITION.set((None, self._tracer, self))
        return self

    def __exit__(self, *exc_info: object) -> bool:
        if self._token is None:  # double-exit guard
            return False
        _POSITION.reset(self._token)
        self._token = None
        exc = exc_info[1] if len(exc_info) > 1 else None
        if exc is not None:
            self.status = "error"
            self.attributes.setdefault(
                "error", f"{type(exc).__name__}: {exc}"
            )
        self._tracer._finish(self)
        return False


class Tracer:
    """Collects spans, span events and metrics for one observed run.

    Args:
        clock: monotonic-seconds source (injectable for tests).

    The tracer is cheap to construct and single-use by convention: one
    tracer per synthesis run keeps its trace and the metrics snapshot
    scoped to that run.  Its spans start :attr:`trace_id`, a fresh W3C
    trace -- unless the tracer is activated under an ambient trace
    context, whose trace it then joins.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self._clock = clock or time.monotonic
        self._epoch = self._clock()
        self.trace_id = os.urandom(16).hex()
        self.spans: List[Span] = []
        #: Span events, ``(t_ms, span_id, event)`` in record order: an
        #: ``event`` is any object with a ``to_dict()`` (the design
        #: trace's :class:`~repro.kb.trace.TraceEvent`).
        self.events: List[Tuple[float, str, Any]] = []
        self.metrics = MetricsRegistry()

    def now_ms(self) -> float:
        """Milliseconds since the tracer epoch."""
        return (self._clock() - self._epoch) * 1e3

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def span(
        self,
        name: str,
        category: str = "",
        attributes: Optional[Dict[str, Any]] = None,
    ) -> SpanHandle:
        """Open a span at the ambient position (closed by the ``with``
        block exit): a child of the open span or activated context, or
        the start of a new trace in :attr:`trace_id`."""
        context, _, open_span = _POSITION.get()
        parent: Union[SpanHandle, TraceContext, None] = (
            open_span if open_span is not None else context
        )
        return SpanHandle(
            self,
            name,
            category,
            self.trace_id if parent is None else parent.trace_id,
            None if parent is None else parent.span_id,
            dict(attributes or {}),
        )

    def _finish(self, handle: SpanHandle) -> None:
        self.spans.append(
            Span(
                name=handle.name,
                span_id=handle.span_id,
                parent_id=handle.parent_id,
                start_ms=handle.start_ms,
                duration_ms=self.now_ms() - handle.start_ms,
                category=handle.category,
                status=handle.status,
                attributes=handle.attributes,
            )
        )

    def spans_by_start(self) -> List[Span]:
        """Finished spans in start order (an enclosing span before the
        spans it encloses when they start on the same clock tick)."""
        return sorted(self.spans, key=lambda s: (s.start_ms, -s.end_ms))

    # ------------------------------------------------------------------
    # Ambient installation
    # ------------------------------------------------------------------
    @contextmanager
    def activate(self) -> Iterator["Tracer"]:
        """Install as the ambient recording tracer (see
        :func:`current_tracer`), joining the ambient trace if any."""
        context, _, open_span = _POSITION.get()
        if open_span is not None:
            context = open_span.context()
        if context is not None:
            self.trace_id = context.trace_id
        token = _POSITION.set((context, self, None))
        try:
            yield self
        finally:
            _POSITION.reset(token)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Tracer({len(self.spans)} spans, {len(self.events)} events, "
            f"{len(self.metrics)} metrics)"
        )


# ----------------------------------------------------------------------
# Ambient helpers: the instrumentation surface for production code.
# ----------------------------------------------------------------------
def span(name: str, category: str = "", **attributes: Any) -> NullSpan:
    """Open a span on the ambient tracer (no-op when none is active).

    Returns a context manager; the concrete type is :class:`SpanHandle`
    under an active tracer and the shared :data:`NULL_SPAN` otherwise.
    """
    tracer = _POSITION.get()[1]
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, category, attributes)


def count(name: str, n: Number = 1, **labels: str) -> None:
    """Increment a counter on the ambient tracer's metrics (no-op
    when observability is disabled)."""
    tracer = _POSITION.get()[1]
    if tracer is not None:
        tracer.metrics.inc(name, n, **labels)


def observe(
    name: str,
    value: Number,
    bounds: Optional[Sequence[float]] = None,
    **labels: str,
) -> None:
    """Record one histogram observation on the ambient metrics.

    ``bounds`` selects the bucket ladder if this call creates the
    series (e.g. :data:`repro.obs.metrics.LATENCY_BUCKETS_MS`)."""
    tracer = _POSITION.get()[1]
    if tracer is not None:
        tracer.metrics.observe(name, value, bounds, **labels)


def gauge(name: str, value: Number, **labels: str) -> None:
    """Set a gauge on the ambient metrics."""
    tracer = _POSITION.get()[1]
    if tracer is not None:
        tracer.metrics.set_gauge(name, value, **labels)
