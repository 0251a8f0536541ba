"""Exporters: JSONL event streams, Chrome trace-event files, flame text.

Renderings of one observed run (a :class:`~repro.obs.report.RunReport`
is the single source every caller passes in):

* :func:`to_jsonl` -- a line-per-record stream (``meta`` header, then
  spans and span events merged in time order, then a terminal
  ``metrics`` record).  Machine-greppable, append-friendly, and read
  back by :meth:`repro.obs.report.RunReport.from_jsonl` (``repro
  stats``, ``repro slo --trace``).
* :func:`to_chrome` -- the Chrome trace-event JSON object (complete
  ``"X"`` events for spans, instant ``"i"`` events for span events).
  Load the file in Perfetto (https://ui.perfetto.dev) or
  ``chrome://tracing`` to see where the wall-clock went.
* :func:`flame_text` / :func:`latency_table` -- the terminal views: the
  span tree with total / self milliseconds and call counts (siblings of
  the same name merged), and per-name tail latencies.

Span events cross this boundary as plain dicts (``t_ms``, ``span_id``
plus the design-trace event fields), so this module never imports
:mod:`repro.kb`.
"""

from __future__ import annotations

import io
import json
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .spans import Span

__all__ = [
    "to_jsonl",
    "to_chrome",
    "to_chrome_json",
    "flame_text",
    "render_metrics",
    "render_prometheus",
    "latency_table",
    "percentile",
    "iter_jsonl",
]


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------
def to_jsonl(
    spans: Sequence[Span],
    events: Sequence[Mapping[str, Any]] = (),
    metrics: Optional[Mapping[str, Any]] = None,
    meta: Optional[Mapping[str, Any]] = None,
) -> str:
    """One JSON record per line; parse with ``json.loads`` per line.

    Record types (``"type"`` field): ``meta`` (first line), ``span``,
    ``event`` (span events), ``metrics`` (last line).  Spans and events
    are merged by time so the stream reads chronologically; a span
    precedes the events it holds.
    """
    records: List[Tuple[float, int, int, Dict[str, Any]]] = []
    for order, s in enumerate(spans):
        row = s.to_dict()
        row["type"] = "span"
        records.append((s.start_ms, 0, order, row))
    for order, event in enumerate(events):
        row = dict(event)
        row["type"] = "event"
        records.append((float(row.get("t_ms", 0.0)), 1, order, row))
    records.sort(key=lambda item: item[:3])

    out = io.StringIO()
    header: Dict[str, Any] = {"type": "meta", "format": "repro.obs/jsonl/1"}
    header.update(meta or {})
    out.write(json.dumps(header, sort_keys=True) + "\n")
    for *_, row in records:
        out.write(json.dumps(row, sort_keys=True) + "\n")
    out.write(
        json.dumps({"type": "metrics", "metrics": dict(metrics or {})},
                   sort_keys=True)
        + "\n"
    )
    return out.getvalue()


# ----------------------------------------------------------------------
# Chrome trace-event format
# ----------------------------------------------------------------------
def to_chrome(
    spans: Sequence[Span],
    events: Sequence[Mapping[str, Any]] = (),
    metrics: Optional[Mapping[str, Any]] = None,
    process_name: str = "repro",
) -> Dict[str, Any]:
    """The Chrome trace-event JSON object (viewable in Perfetto).

    Spans become complete (``"ph": "X"``) events with microsecond
    ``ts`` / ``dur``; design-trace events become thread-scoped instant
    (``"ph": "i"``) events.  The metrics snapshot rides along under
    ``otherData`` so one file carries the whole run.
    """
    trace_events: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 1,
            "args": {"name": process_name},
        }
    ]
    for s in spans:
        args: Dict[str, Any] = {"span_id": s.span_id, "status": s.status}
        if s.parent_id is not None:
            args["parent_id"] = s.parent_id
        args.update(s.attributes)
        trace_events.append(
            {
                "name": s.name,
                "cat": s.category or "span",
                "ph": "X",
                "ts": round(s.start_ms * 1e3, 3),
                "dur": round(s.duration_ms * 1e3, 3),
                "pid": 1,
                "tid": 1,
                "args": args,
            }
        )
    for event in events:
        kind = str(event.get("kind", "event"))
        block = str(event.get("block", ""))
        trace_events.append(
            {
                "name": f"{kind}:{block}" if block else kind,
                "cat": "trace",
                "ph": "i",
                "ts": round(float(event.get("t_ms", 0.0)) * 1e3, 3),
                "pid": 1,
                "tid": 1,
                "s": "t",
                "args": {
                    k: v
                    for k, v in event.items()
                    if k not in ("t_ms", "type") and v not in ("", None)
                },
            }
        )
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"metrics": dict(metrics or {})},
    }


def to_chrome_json(
    spans: Sequence[Span],
    events: Sequence[Mapping[str, Any]] = (),
    metrics: Optional[Mapping[str, Any]] = None,
    process_name: str = "repro",
) -> str:
    """:func:`to_chrome`, serialized."""
    return json.dumps(
        to_chrome(spans, events, metrics, process_name), indent=1
    )


# ----------------------------------------------------------------------
# Flame summary (text)
# ----------------------------------------------------------------------
class _Node:
    __slots__ = ("name", "total_ms", "count", "children", "errors")

    def __init__(self, name: str) -> None:
        self.name = name
        self.total_ms = 0.0
        self.count = 0
        self.errors = 0
        self.children: Dict[str, "_Node"] = {}


def _build_tree(spans: Sequence[Span]) -> _Node:
    """Aggregate spans into a name tree (same-named siblings merged)."""
    by_id: Dict[str, Span] = {s.span_id: s for s in spans}

    def path_of(s: Span) -> Tuple[str, ...]:
        names: List[str] = [s.name]
        parent = s.parent_id
        hops = 0
        while parent is not None and hops < 64:
            ps = by_id.get(parent)
            if ps is None:
                break
            names.append(ps.name)
            parent = ps.parent_id
            hops += 1
        return tuple(reversed(names))

    root = _Node("")
    for s in spans:
        node = root
        for name in path_of(s):
            child = node.children.get(name)
            if child is None:
                child = node.children[name] = _Node(name)
            node = child
        node.total_ms += s.duration_ms
        node.count += 1
        if s.status == "error":
            node.errors += 1
    return root


def flame_text(spans: Sequence[Span], min_ms: float = 0.0) -> str:
    """Terminal flame summary: span tree with total/self ms and counts.

    Children are listed under their parent, heaviest first; ``self``
    is the parent's time not covered by its children.  Sub-trees
    entirely below ``min_ms`` are elided.
    """
    if not spans:
        return "(no spans recorded)\n"
    root = _build_tree(spans)
    grand_total = sum(c.total_ms for c in root.children.values()) or 1.0
    out = io.StringIO()
    out.write(
        f"{'span':<48} {'total ms':>9} {'self ms':>9} {'calls':>6}  share\n"
    )

    def emit(node: _Node, depth: int) -> None:
        child_ms = sum(c.total_ms for c in node.children.values())
        self_ms = max(0.0, node.total_ms - child_ms)
        label = "  " * depth + node.name
        if len(label) > 48:
            label = label[:45] + "..."
        suffix = f" ({node.errors} err)" if node.errors else ""
        out.write(
            f"{label:<48} {node.total_ms:9.1f} {self_ms:9.1f} "
            f"{node.count:>6}  {100.0 * node.total_ms / grand_total:5.1f}%"
            f"{suffix}\n"
        )
        for child in sorted(
            node.children.values(), key=lambda n: -n.total_ms
        ):
            if child.total_ms >= min_ms:
                emit(child, depth + 1)

    for top in sorted(root.children.values(), key=lambda n: -n.total_ms):
        emit(top, 0)
    return out.getvalue()


# ----------------------------------------------------------------------
# Terminal tables
# ----------------------------------------------------------------------
def render_metrics(snapshot: Mapping[str, Any]) -> str:
    """Metrics snapshot as an indented text table."""
    out = io.StringIO()
    counters = dict(snapshot.get("counters") or {})
    gauges = dict(snapshot.get("gauges") or {})
    histograms = dict(snapshot.get("histograms") or {})
    if not (counters or gauges or histograms):
        return "(no metrics recorded)\n"
    if counters:
        out.write("counters:\n")
        for key in sorted(counters):
            out.write(f"  {key:<56} {counters[key]}\n")
    if gauges:
        out.write("gauges:\n")
        for key in sorted(gauges):
            out.write(f"  {key:<56} {gauges[key]}\n")
    if histograms:
        out.write("histograms:\n")
        for key in sorted(histograms):
            h = histograms[key]
            out.write(
                f"  {key:<44} n={h.get('count', 0)} sum={h.get('sum', 0)} "
                f"min={h.get('min')} max={h.get('max')}\n"
            )
    return out.getvalue()


def percentile(values: Sequence[float], pct: float) -> Optional[float]:
    """Exact percentile with linear interpolation (None when empty).

    ``pct`` is in [0, 100]; matches numpy's default ("linear") method
    without importing numpy into the obs layer.
    """
    if not values:
        return None
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (max(0.0, min(100.0, pct)) / 100.0) * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return ordered[lo] + (ordered[hi] - ordered[lo]) * frac


def latency_table(spans: Sequence[Span]) -> str:
    """Per-span-name tail-latency table: calls, p50/p95/p99, max, errors.

    Rows sort by p99 descending (worst tail first), name as tiebreak,
    so the table is deterministic for a deterministic trace.
    """
    if not spans:
        return "(no spans recorded)\n"
    durations: Dict[str, List[float]] = {}
    errors: Dict[str, int] = {}
    for s in spans:
        durations.setdefault(s.name, []).append(s.duration_ms)
        if s.status == "error":
            errors[s.name] = errors.get(s.name, 0) + 1
    rows: List[Tuple[float, str, int, float, float, float, float]] = []
    for name, values in durations.items():
        p50 = percentile(values, 50.0) or 0.0
        p95 = percentile(values, 95.0) or 0.0
        p99 = percentile(values, 99.0) or 0.0
        rows.append(
            (p99, name, len(values), p50, p95, p99, max(values))
        )
    rows.sort(key=lambda r: (-r[0], r[1]))
    out = io.StringIO()
    out.write(
        f"{'span':<40} {'calls':>6} {'p50 ms':>9} {'p95 ms':>9} "
        f"{'p99 ms':>9} {'max ms':>9}\n"
    )
    for _, name, calls, p50, p95, p99, worst in rows:
        label = name if len(name) <= 40 else name[:37] + "..."
        suffix = f"  ({errors[name]} err)" if name in errors else ""
        out.write(
            f"{label:<40} {calls:>6} {p50:9.3f} {p95:9.3f} "
            f"{p99:9.3f} {worst:9.3f}{suffix}\n"
        )
    return out.getvalue()


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
def _prom_name(name: str) -> str:
    out = []
    for ch in name:
        out.append(ch if ch.isalnum() or ch in "_:" else "_")
    text = "".join(out)
    if text and text[0].isdigit():
        text = "_" + text
    return text


def _prom_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _prom_number(value: Any) -> str:
    v = float(value)
    if v.is_integer():
        return str(int(v))
    return repr(v)


def _split_key(key: str) -> Tuple[str, List[Tuple[str, str]]]:
    """``name{k=v,...}`` back into (name, [(k, v), ...])."""
    if "{" not in key or not key.endswith("}"):
        return key, []
    name, _, inner = key.partition("{")
    labels: List[Tuple[str, str]] = []
    for part in inner[:-1].split(","):
        if not part:
            continue
        k, _, v = part.partition("=")
        labels.append((k, v))
    return name, labels


def _prom_labels(labels: Sequence[Tuple[str, str]]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{_prom_name(k)}="{_prom_label_value(v)}"' for k, v in labels
    )
    return "{" + inner + "}"


def render_prometheus(
    snapshot: Mapping[str, Any], namespace: str = "repro"
) -> str:
    """A metrics snapshot in Prometheus text exposition format 0.0.4.

    Counters gain the conventional ``_total`` suffix; histograms expand
    into cumulative ``_bucket{le=...}`` series plus ``_sum`` /
    ``_count`` (reconstructed from the snapshot's ``bounds`` ladder).
    ``# HELP`` / ``# TYPE`` headers are emitted once per metric family;
    output is deterministic (families and series sorted).
    """
    out = io.StringIO()
    prefix = _prom_name(namespace) + "_" if namespace else ""

    def family(section: Mapping[str, Any]) -> Dict[str, List[Tuple[str, Any]]]:
        families: Dict[str, List[Tuple[str, Any]]] = {}
        for key in sorted(section):
            name, _ = _split_key(key)
            families.setdefault(name, []).append((key, section[key]))
        return families

    counters = dict(snapshot.get("counters") or {})
    for name, series in sorted(family(counters).items()):
        metric = prefix + _prom_name(name) + "_total"
        out.write(f"# HELP {metric} repro counter {name}\n")
        out.write(f"# TYPE {metric} counter\n")
        for key, value in series:
            _, labels = _split_key(key)
            out.write(f"{metric}{_prom_labels(labels)} {_prom_number(value)}\n")

    gauges = dict(snapshot.get("gauges") or {})
    for name, series in sorted(family(gauges).items()):
        metric = prefix + _prom_name(name)
        out.write(f"# HELP {metric} repro gauge {name}\n")
        out.write(f"# TYPE {metric} gauge\n")
        for key, value in series:
            _, labels = _split_key(key)
            out.write(f"{metric}{_prom_labels(labels)} {_prom_number(value)}\n")

    histograms = dict(snapshot.get("histograms") or {})
    for name, series in sorted(family(histograms).items()):
        metric = prefix + _prom_name(name)
        out.write(f"# HELP {metric} repro histogram {name}\n")
        out.write(f"# TYPE {metric} histogram\n")
        for key, snap in series:
            _, labels = _split_key(key)
            buckets = dict(snap.get("buckets") or {})
            bounds = [float(b) for b in (snap.get("bounds") or [])]
            cumulative = 0
            for bound in bounds:
                label = f"le_{int(bound) if bound.is_integer() else bound}"
                cumulative += int(buckets.get(label, 0))
                le = _prom_number(bound)
                out.write(
                    f"{metric}_bucket"
                    f"{_prom_labels([*labels, ('le', le)])} {cumulative}\n"
                )
            total_count = int(snap.get("count", 0))
            out.write(
                f"{metric}_bucket"
                f"{_prom_labels([*labels, ('le', '+Inf')])} {total_count}\n"
            )
            out.write(
                f"{metric}_sum{_prom_labels(labels)} "
                f"{_prom_number(snap.get('sum', 0))}\n"
            )
            out.write(
                f"{metric}_count{_prom_labels(labels)} {total_count}\n"
            )
    return out.getvalue()


def iter_jsonl(text: str) -> Iterable[Dict[str, Any]]:
    """Parse a JSONL stream back into record dicts (skips blanks)."""
    for line in text.splitlines():
        line = line.strip()
        if line:
            record: Dict[str, Any] = json.loads(line)
            yield record
