"""W3C trace context: the one id scheme for spans, logs and hops.

Every id in the observability layer is a W3C ``traceparent`` id: a
32-hex trace id naming the whole request or run, and a 16-hex span id
naming one position inside it.

* :class:`TraceContext` -- an immutable ``(trace_id, span_id, sampled)``
  triple.  Mint one per serve request or batch run
  (:meth:`TraceContext.generate`), derive per-task children
  (:meth:`TraceContext.child`), and serialize it across any boundary as
  the single header-sized string ``00-<trace>-<span>-01``
  (:meth:`TraceContext.to_traceparent` /
  :meth:`TraceContext.from_traceparent`).
* the ambient position -- one :class:`~contextvars.ContextVar` holds
  the current trace context, the recording
  :class:`~repro.obs.spans.Tracer` and its innermost open span.
  :func:`activate_trace` and :meth:`~repro.obs.spans.Tracer.activate`
  set it, and every open span moves it.  So
  :func:`current_trace_context` inside a span returns *that span's*
  ids: log lines, outgoing ``traceparent`` headers and ``--trace-out``
  files name the same spans.

Trace ids are random (``os.urandom``), hence **volatile**: anything
carrying one into a determinism-checked record must list it in the
relevant volatile-key set (``repro.batch.engine.VOLATILE_KEYS`` does).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle (spans imports us)
    from .spans import SpanHandle, Tracer

__all__ = [
    "TraceContext",
    "activate_trace",
    "current_trace_context",
    "current_trace_id",
    "ensure_trace_context",
]

#: The only ``traceparent`` version this module emits or accepts.
TRACEPARENT_VERSION = "00"

_HEX = set("0123456789abcdef")


def _is_hex(value: str, width: int) -> bool:
    return (
        len(value) == width
        and set(value) <= _HEX
        and value != "0" * width
    )


@dataclass(frozen=True)
class TraceContext:
    """One W3C-shaped trace context: ``(trace_id, span_id, sampled)``.

    ``trace_id`` names the whole request/run (32 lowercase hex chars);
    ``span_id`` names the current hop within it (16 hex chars); the
    ``sampled`` flag rides in the traceparent flags byte.
    """

    trace_id: str
    span_id: str
    sampled: bool = True

    def __post_init__(self) -> None:
        if not _is_hex(self.trace_id, 32):
            raise ValueError(f"invalid trace_id: {self.trace_id!r}")
        if not _is_hex(self.span_id, 16):
            raise ValueError(f"invalid span_id: {self.span_id!r}")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def generate(cls, sampled: bool = True) -> "TraceContext":
        """Mint a fresh root context (random ids, ``os.urandom``)."""
        return cls(
            trace_id=os.urandom(16).hex(),
            span_id=os.urandom(8).hex(),
            sampled=sampled,
        )

    def child(self) -> "TraceContext":
        """A new hop in the same trace (fresh span id)."""
        return TraceContext(
            trace_id=self.trace_id,
            span_id=os.urandom(8).hex(),
            sampled=self.sampled,
        )

    # ------------------------------------------------------------------
    # Wire format
    # ------------------------------------------------------------------
    def to_traceparent(self) -> str:
        """``00-<trace_id>-<span_id>-<flags>`` (W3C traceparent)."""
        flags = "01" if self.sampled else "00"
        return f"{TRACEPARENT_VERSION}-{self.trace_id}-{self.span_id}-{flags}"

    @classmethod
    def from_traceparent(cls, header: Optional[str]) -> Optional["TraceContext"]:
        """Parse a traceparent string; None on any malformation.

        Lenient by design (a bad inbound header must never fail a
        request): the caller falls back to :meth:`generate`.
        """
        if not header or not isinstance(header, str):
            return None
        parts = header.strip().lower().split("-")
        if len(parts) != 4:
            return None
        version, trace_id, span_id, flags = parts
        if version != TRACEPARENT_VERSION:
            return None
        if not (_is_hex(trace_id, 32) and _is_hex(span_id, 16)):
            return None
        if len(flags) != 2 or set(flags) - _HEX:
            return None
        try:
            sampled = bool(int(flags, 16) & 0x01)
        except ValueError:
            return None
        return cls(trace_id=trace_id, span_id=span_id, sampled=sampled)


# ----------------------------------------------------------------------
# The ambient trace position
# ----------------------------------------------------------------------
#: Where the running code sits in a trace: ``(context, tracer, span)``.
#: ``span`` is the innermost open span of ``tracer`` (the position is
#: that span); otherwise the position is the bare ``context`` -- a hop
#: activated by :func:`activate_trace`, or None.  ``tracer`` is the
#: recording :class:`~repro.obs.spans.Tracer` (None when observability
#: is off).  :mod:`repro.obs.spans` reads and writes the same variable.
Position = Tuple[
    Optional[TraceContext], Optional["Tracer"], Optional["SpanHandle"]
]
_POSITION: ContextVar[Position] = ContextVar(
    "repro_trace_position", default=(None, None, None)
)


def current_trace_context() -> Optional[TraceContext]:
    """The ambient :class:`TraceContext`: the innermost open span's ids
    when a span is open, else the activated context (or None)."""
    context, _, span = _POSITION.get()
    return span.context() if span is not None else context


def current_trace_id() -> Optional[str]:
    """Shorthand: the ambient trace id (None when no context)."""
    ctx = current_trace_context()
    return ctx.trace_id if ctx is not None else None


@contextmanager
def activate_trace(ctx: TraceContext) -> Iterator[TraceContext]:
    """Make ``ctx`` the ambient position for the block (the recording
    tracer, if any, stays; spans opened inside are children of ``ctx``)."""
    token = _POSITION.set((ctx, _POSITION.get()[1], None))
    try:
        yield ctx
    finally:
        _POSITION.reset(token)


def ensure_trace_context(
    traceparent: Optional[str] = None,
) -> TraceContext:
    """Resolve the context for a new unit of work.

    Priority: an explicit (valid) ``traceparent`` string, then the
    ambient context (as a fresh child hop), then a brand-new root.
    """
    parsed = TraceContext.from_traceparent(traceparent)
    if parsed is not None:
        return parsed.child()
    ambient = current_trace_context()
    if ambient is not None:
        return ambient.child()
    return TraceContext.generate()
