"""Structured JSON logging: one schema-validated line per event.

``src/repro`` had no logging at all -- failures surfaced only as
exceptions or metric counters, and nothing tied a worker subprocess's
activity back to the serve request that caused it.  This module adds a
deliberately small, stdlib-only structured logger:

* every emitted line is a single JSON object (``json.dumps`` with
  sorted keys, one ``write`` call so concurrent processes appending to
  the same file do not interleave);
* every line auto-carries the correlation fields -- ``trace_id`` /
  ``span_id`` of the ambient trace position
  (:func:`~repro.obs.telemetry.current_trace_context`: inside an
  observed span, that span's ids, the same ones ``--trace-out`` files
  carry), plus any fields bound via :func:`bound` (the serve layer
  binds ``request_id``) -- alongside ``ts``, ``level``, ``logger``,
  ``event`` and ``pid``;
* when no sink is configured every log call is a cheap no-op (one flag
  check), preserving the repo's disabled-path overhead contract;
* configuration flows through the environment (``REPRO_LOG`` =
  ``stderr`` | ``stdout`` | a file path, ``REPRO_LOG_LEVEL``) and is
  read lazily on first use, so :class:`~concurrent.futures.ProcessPoolExecutor`
  workers inherit it with zero bootstrap code.

The line shape is published as :data:`LOG_SCHEMA` and checkable with
:func:`validate_log_line` (no external jsonschema dependency); CI
validates every line emitted during the e2e serve run against it.

Log lines never go to stdout records or golden files -- they are a side
channel -- so determinism suites pass byte-identical with logging on.
"""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Dict, Iterator, List, Mapping, Optional, TextIO

from .telemetry import current_trace_context

__all__ = [
    "LOG_LEVELS",
    "LOG_SCHEMA",
    "CollectingSink",
    "StructLogger",
    "bound",
    "configure",
    "get_logger",
    "is_enabled",
    "read_log_records",
    "reset",
    "validate_log_line",
]

#: Recognized levels, least to most severe.
LOG_LEVELS = ("debug", "info", "warning", "error")

_LEVEL_NO = {name: (index + 1) * 10 for index, name in enumerate(LOG_LEVELS)}

#: The published line schema (see :func:`validate_log_line`).  ``required``
#: fields appear on every line; ``correlation`` fields appear whenever the
#: corresponding ambient context exists; everything else is free-form
#: event payload (JSON scalars preferred).
LOG_SCHEMA: Dict[str, Any] = {
    "name": "repro.obs/log/1",
    "required": {
        "ts": "number",       # unix epoch seconds (float)
        "level": "string",    # one of LOG_LEVELS
        "logger": "string",   # subsystem name ("serve", "batch", ...)
        "event": "string",    # machine-stable event name
        "pid": "integer",
    },
    "correlation": {
        "trace_id": "string",   # 32 lowercase hex
        "span_id": "string",    # 16 lowercase hex
        "request_id": "string",
    },
    "levels": LOG_LEVELS,
}

_HEX = set("0123456789abcdef")

# ----------------------------------------------------------------------
# Module state (sink + threshold), env-configured lazily.
# ----------------------------------------------------------------------
_sink: Optional[TextIO] = None
_threshold: int = _LEVEL_NO["info"]
_configured: bool = False
_owns_sink: bool = False  # we opened the file and may close it on reset

_BOUND: ContextVar[Optional[Dict[str, Any]]] = ContextVar(
    "repro_log_bound", default=None
)


def _configure_from_env() -> None:
    """One-shot env bootstrap: ``REPRO_LOG`` / ``REPRO_LOG_LEVEL``."""
    global _sink, _threshold, _configured, _owns_sink
    _configured = True
    target = os.environ.get("REPRO_LOG", "").strip()
    if not target:
        return
    level = os.environ.get("REPRO_LOG_LEVEL", "info").strip().lower()
    _threshold = _LEVEL_NO.get(level, _LEVEL_NO["info"])
    if target == "stderr":
        _sink, _owns_sink = sys.stderr, False
    elif target == "stdout":
        _sink, _owns_sink = sys.stdout, False
    else:
        try:
            # O_APPEND: single-write lines stay atomic across processes.
            _sink = open(target, "a", encoding="utf-8")
            _owns_sink = True
        except OSError:
            _sink = None  # unwritable path: logging stays off


def configure(
    stream: Optional[TextIO] = None,
    path: Optional[str] = None,
    level: str = "info",
) -> None:
    """Install a sink programmatically (tests, examples, servers).

    Exactly one of ``stream`` / ``path``; ``configure()`` with neither
    disables logging.
    """
    global _sink, _threshold, _configured, _owns_sink
    reset()
    _configured = True
    _threshold = _LEVEL_NO.get(level, _LEVEL_NO["info"])
    if stream is not None:
        _sink, _owns_sink = stream, False
    elif path is not None:
        _sink = open(path, "a", encoding="utf-8")
        _owns_sink = True


def reset() -> None:
    """Drop any sink and return to the lazy-env-config state."""
    global _sink, _threshold, _configured, _owns_sink
    if _sink is not None and _owns_sink:
        try:
            _sink.close()
        except OSError:  # pragma: no cover - best-effort close
            pass
    _sink = None
    _owns_sink = False
    _threshold = _LEVEL_NO["info"]
    _configured = False


def is_enabled(level: str = "info") -> bool:
    """Would a line at ``level`` be emitted right now?"""
    if not _configured:
        _configure_from_env()
    return _sink is not None and _LEVEL_NO.get(level, 0) >= _threshold


# ----------------------------------------------------------------------
# Ambient bound fields (request_id et al.)
# ----------------------------------------------------------------------
@contextmanager
def bound(**fields: Any) -> Iterator[None]:
    """Bind correlation fields onto every line emitted in the block.

    Nested binds merge (inner wins on key collision)."""
    current = _BOUND.get()
    merged = dict(current) if current else {}
    merged.update(fields)
    token = _BOUND.set(merged)
    try:
        yield
    finally:
        _BOUND.reset(token)


# ----------------------------------------------------------------------
# The logger handle
# ----------------------------------------------------------------------
class StructLogger:
    """A named logger; methods are no-ops until a sink is configured."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def _emit(self, level: str, event: str,
              fields: Dict[str, Any]) -> None:
        sink = _sink
        if sink is None:
            return
        record: Dict[str, Any] = {}
        bound_fields = _BOUND.get()
        if bound_fields:
            record.update(bound_fields)
        record.update(fields)
        ctx = current_trace_context()
        if ctx is not None:
            record["trace_id"] = ctx.trace_id
            record["span_id"] = ctx.span_id
        record["ts"] = time.time()
        record["level"] = level
        record["logger"] = self.name
        record["event"] = event
        record["pid"] = os.getpid()
        try:
            line = json.dumps(record, sort_keys=True, default=str)
        except (TypeError, ValueError):  # pragma: no cover - defensive
            line = json.dumps(
                {"ts": record["ts"], "level": level, "logger": self.name,
                 "event": event, "pid": record["pid"],
                 "log_error": "unserializable fields"},
                sort_keys=True,
            )
        try:
            sink.write(line + "\n")
            sink.flush()
        except (OSError, ValueError):  # pragma: no cover - closed sink
            pass

    # Per-level fronts: the disabled path is one global read + compare.
    def debug(self, event: str, **fields: Any) -> None:
        if not _configured:
            _configure_from_env()
        if _sink is not None and _threshold <= 10:
            self._emit("debug", event, fields)

    def info(self, event: str, **fields: Any) -> None:
        if not _configured:
            _configure_from_env()
        if _sink is not None and _threshold <= 20:
            self._emit("info", event, fields)

    def warning(self, event: str, **fields: Any) -> None:
        if not _configured:
            _configure_from_env()
        if _sink is not None and _threshold <= 30:
            self._emit("warning", event, fields)

    def error(self, event: str, **fields: Any) -> None:
        if not _configured:
            _configure_from_env()
        if _sink is not None and _threshold <= 40:
            self._emit("error", event, fields)


_loggers: Dict[str, StructLogger] = {}


def get_logger(name: str) -> StructLogger:
    """The (cached) logger for a subsystem name."""
    logger = _loggers.get(name)
    if logger is None:
        logger = _loggers[name] = StructLogger(name)
    return logger


# ----------------------------------------------------------------------
# Schema validation (stdlib-only)
# ----------------------------------------------------------------------
_TYPE_CHECKS = {
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
}


def validate_log_line(obj: Any) -> List[str]:
    """Problems with one parsed log line (empty list == valid)."""
    problems: List[str] = []
    if not isinstance(obj, dict):
        return [f"line is not a JSON object: {type(obj).__name__}"]
    for key, type_name in LOG_SCHEMA["required"].items():
        if key not in obj:
            problems.append(f"missing required field {key!r}")
        elif not _TYPE_CHECKS[type_name](obj[key]):
            problems.append(
                f"field {key!r} should be {type_name}, "
                f"got {type(obj[key]).__name__}"
            )
    level = obj.get("level")
    if isinstance(level, str) and level not in LOG_LEVELS:
        problems.append(f"unknown level {level!r}")
    ts = obj.get("ts")
    if isinstance(ts, (int, float)) and not isinstance(ts, bool) and ts < 0:
        problems.append(f"negative ts {ts}")
    for key, width in (("trace_id", 32), ("span_id", 16)):
        value = obj.get(key)
        if value is None:
            continue
        if not isinstance(value, str):
            problems.append(f"field {key!r} should be string")
        elif len(value) != width or set(value) - _HEX:
            problems.append(f"field {key!r} is not {width}-char hex: {value!r}")
    request_id = obj.get("request_id")
    if request_id is not None and not isinstance(request_id, str):
        problems.append("field 'request_id' should be string")
    return problems


class CollectingSink:
    """A test sink: collects lines, parses them back on demand."""

    def __init__(self) -> None:
        self._chunks: List[str] = []

    def write(self, text: str) -> int:
        self._chunks.append(text)
        return len(text)

    def flush(self) -> None:
        """File-protocol no-op."""

    def lines(self) -> List[str]:
        return [line for line in "".join(self._chunks).splitlines() if line]

    def records(self) -> List[Dict[str, Any]]:
        return [json.loads(line) for line in self.lines()]


def read_log_records(path: str) -> List[Dict[str, Any]]:
    """Parse a log file back into record dicts (skips blank lines)."""
    records: List[Dict[str, Any]] = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def bound_fields() -> Mapping[str, Any]:
    """The currently bound ambient fields (read-only view for tests)."""
    return dict(_BOUND.get() or {})
