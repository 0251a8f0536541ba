"""Design traces: a structured record of a synthesis run.

The paper's Figure 3 shows the plan-execution mechanism: plan steps
running in order, rules firing to patch the plan, portions of the plan
re-run with new constraints.  A :class:`DesignTrace` records exactly
those events so the process is inspectable (and so the Figure 3 bench
can regenerate the picture as text).

A trace holds only deterministic fields (sequence number, kind, block,
step, detail), so it is byte-stable across runs.  Time lives in the
observability layer: while a :class:`~repro.obs.spans.Tracer` is
active, every event is also recorded as an event of the innermost open
span, timestamped on the tracer's clock -- one timeline for spans and
events in every export.  This module owns the event-kind vocabulary
(:data:`TRACE_KIND_MARKERS`).
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..obs.telemetry import _POSITION

__all__ = ["TRACE_KIND_MARKERS", "UNKNOWN_MARKER", "TraceEvent", "DesignTrace"]

#: Event kind -> rendering marker (:meth:`DesignTrace.render`).
TRACE_KIND_MARKERS: Dict[str, str] = {
    "plan_start": ">>",
    "step": "  .",
    "rule_fired": "  !",
    "restart": " <<",
    "abort": " XX",
    "plan_done": "<<",
    "note": "  #",
    "selection": "==",
    "ladder": " ^^",
    "failure": " !!",
}

#: Marker for kinds outside the table (a trace written by a newer
#: version still renders, just anonymously).
UNKNOWN_MARKER = "  ?"


@dataclass(frozen=True)
class TraceEvent:
    """One event during synthesis.

    ``kind`` is one of the keys of :data:`TRACE_KIND_MARKERS`.  ``seq``
    is the event's position in its trace (re-stamped when traces are
    merged via :meth:`DesignTrace.extend`).
    """

    kind: str
    block: str
    detail: str
    step: str = ""
    seq: int = 0

    def to_dict(self) -> Dict[str, Any]:
        """The event as a JSON-ready dict (``step`` only when set)."""
        row: Dict[str, Any] = {
            "seq": self.seq,
            "kind": self.kind,
            "block": self.block,
            "detail": self.detail,
        }
        if self.step:
            row["step"] = self.step
        return row


class DesignTrace:
    """Append-only event log for one synthesis run."""

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _append(self, kind: str, block: str, detail: str, step: str = "") -> None:
        # Hot path: every plan step / rule firing of every designed
        # block lands here.  The frozen-dataclass __init__ (one
        # object.__setattr__ per field) was measurable in the
        # observability-disabled profile, so the event is built via
        # __dict__ directly; the disabled path costs one ContextVar.get.
        events = self.events
        event = TraceEvent.__new__(TraceEvent)
        event.__dict__.update(
            kind=kind, block=block, detail=detail, step=step, seq=len(events)
        )
        events.append(event)
        span = _POSITION.get()[2]
        if span is not None:
            span.add_event(event)

    def plan_start(self, block: str, plan_name: str) -> None:
        self._append("plan_start", block, plan_name)

    def step(self, block: str, step_name: str, detail: str = "") -> None:
        # Inlined copy of _append: step events are ~3/4 of all events
        # recorded during a synthesis run, and the extra call frame was
        # visible in the observability-disabled profile.
        events = self.events
        event = TraceEvent.__new__(TraceEvent)
        event.__dict__.update(
            kind="step", block=block, detail=detail, step=step_name,
            seq=len(events),
        )
        events.append(event)
        span = _POSITION.get()[2]
        if span is not None:
            span.add_event(event)

    def rule_fired(self, block: str, rule_name: str, detail: str) -> None:
        self._append("rule_fired", block, detail, step=rule_name)

    def restart(self, block: str, target_step: str, reason: str) -> None:
        self._append("restart", block, reason, step=target_step)

    def abort(self, block: str, reason: str) -> None:
        self._append("abort", block, reason)

    def plan_done(self, block: str, detail: str = "") -> None:
        self._append("plan_done", block, detail)

    def note(self, block: str, detail: str) -> None:
        self._append("note", block, detail)

    def selection(self, block: str, detail: str) -> None:
        self._append("selection", block, detail)

    def ladder(self, block: str, rung: str, detail: str) -> None:
        """One solver retry-ladder attempt (rung escalation history)."""
        self._append("ladder", block, detail, step=rung)

    def failure(self, block: str, detail: str) -> None:
        """An isolated failure (recorded, not raised) during selection."""
        self._append("failure", block, detail)

    def extend(self, other: "DesignTrace") -> None:
        """Adopt ``other``'s events, re-stamping their sequence numbers
        to continue this trace's.

        The events are adopted *by reference* and re-stamped in place
        (via ``__dict__``, sidestepping the frozen-dataclass setattr
        guard): extend() runs once per designed (sub-)block and cloning
        every event dominated the observability-disabled profile.  The
        sub-trace is thereby *consumed* -- its already-recorded events
        (and the span events that share them) carry the merged ``seq``.
        ``other`` itself stays usable for appending new events.
        """
        events = self.events
        for seq, event in enumerate(other.events, start=len(events)):
            event.__dict__["seq"] = seq
        events.extend(other.events)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def count(self, kind: str) -> int:
        return sum(1 for e in self.events if e.kind == kind)

    @property
    def rule_firings(self) -> List[TraceEvent]:
        return [e for e in self.events if e.kind == "rule_fired"]

    @property
    def restarts(self) -> List[TraceEvent]:
        return [e for e in self.events if e.kind == "restart"]

    def steps_for(self, block: str) -> List[TraceEvent]:
        return [e for e in self.events if e.kind == "step" and e.block == block]

    # ------------------------------------------------------------------
    # Rendering / export
    # ------------------------------------------------------------------
    def render(
        self,
        kinds: Optional[List[str]] = None,
        seq: bool = False,
    ) -> str:
        """Human-readable log, optionally filtered by event kind.

        Args:
            kinds: only render these event kinds (default: all).
            seq: prefix each line with the event's sequence number, so
                a rendered excerpt can be correlated with the JSONL
                stream (which carries the same ``seq``).
        """
        out = io.StringIO()
        for event in self.events:
            if kinds and event.kind not in kinds:
                continue
            marker = TRACE_KIND_MARKERS.get(event.kind, UNKNOWN_MARKER)
            step_part = f" [{event.step}]" if event.step else ""
            prefix = f"{event.seq:4d} " if seq else ""
            out.write(f"{prefix}{marker} {event.block}{step_part} {event.detail}\n")
        return out.getvalue()

    def to_dicts(self) -> List[Dict[str, Any]]:
        """Every event as a JSON-ready dict (see :meth:`TraceEvent.to_dict`)."""
        return [event.to_dict() for event in self.events]

    def __len__(self) -> int:
        return len(self.events)
