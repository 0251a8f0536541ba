"""Observability layer: one trace timeline, metrics, structured export.

The paper's central claim is that plan execution is *inspectable*
(Figure 3 is literally a trace); this package adds the wall-clock and
resource dimensions that flat traces miss, as **one** model:

* **one ambient position** -- a single :mod:`contextvars` variable
  holds the current W3C trace context, the recording :class:`Tracer`
  (or none) and its innermost open span (:mod:`repro.obs.telemetry`).
  The designer, style selection, plan executor, DC solver and retry
  ladder open spans without threading a tracer argument;
* **one id scheme** -- every span has a 16-hex W3C ``span_id`` in a
  32-hex ``trace_id``.  Inside an open span
  :func:`current_trace_context` returns that span's ids, so log lines
  (:mod:`repro.obs.log`), outgoing ``traceparent`` headers and
  exported spans name the same spans (:mod:`repro.obs.spans`);
* **one clock** -- design-trace events
  (:class:`~repro.kb.trace.DesignTrace`) recorded while a tracer is
  active become events of the open span, timestamped on the tracer's
  clock;
* **metrics** -- a registry of counters / gauges / histograms (Newton
  iterations per rung, rule firings per block, restarts, candidates
  explored/pruned, LU solves, budget consumption) with a deterministic
  snapshot (:mod:`repro.obs.metrics`);
* **one record** -- :meth:`RunReport.from_tracer` freezes spans, span
  events and metrics into the value carried on
  :class:`~repro.opamp.result.SynthesisResult`; JSONL, Chrome
  trace-event files (Perfetto / ``chrome://tracing``), flame and
  latency tables are all rendered from it, and
  :meth:`RunReport.from_jsonl` reads a JSONL file back into it
  (:mod:`repro.obs.report`, :mod:`repro.obs.export`).

When no tracer is active every instrumentation point is a no-op (one
contextvar read), so observability is free unless switched on --
``synthesize(..., observe=True)``, the CLI's ``--trace-out``, or an
explicitly activated :class:`Tracer`.
"""

from __future__ import annotations

from .export import (
    flame_text,
    iter_jsonl,
    latency_table,
    percentile,
    render_metrics,
    render_prometheus,
    to_chrome,
    to_chrome_json,
    to_jsonl,
)
from .log import (
    LOG_LEVELS,
    LOG_SCHEMA,
    CollectingSink,
    StructLogger,
    get_logger,
    validate_log_line,
)
from .metrics import (
    LATENCY_BUCKETS_MS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    metric_key,
)
from .report import TRACE_FORMATS, RunReport
from .slo import (
    BenchDelta,
    SloCheck,
    SloTarget,
    diff_bench,
    evaluate_snapshot,
    evaluate_trace,
    histogram_quantile,
    load_targets,
)
from .telemetry import (
    TraceContext,
    activate_trace,
    current_trace_context,
    current_trace_id,
    ensure_trace_context,
)
from .spans import (
    NULL_SPAN,
    NullSpan,
    Span,
    SpanHandle,
    Tracer,
    count,
    current_tracer,
    gauge,
    observe,
    span,
)

__all__ = [
    # spans
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
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS_MS",
    "MetricsRegistry",
    "metric_key",
    # telemetry
    "TraceContext",
    "activate_trace",
    "current_trace_context",
    "current_trace_id",
    "ensure_trace_context",
    # logging
    "LOG_LEVELS",
    "LOG_SCHEMA",
    "CollectingSink",
    "StructLogger",
    "get_logger",
    "validate_log_line",
    # slo
    "SloTarget",
    "SloCheck",
    "BenchDelta",
    "load_targets",
    "evaluate_trace",
    "evaluate_snapshot",
    "histogram_quantile",
    "diff_bench",
    # export
    "to_jsonl",
    "to_chrome",
    "to_chrome_json",
    "flame_text",
    "render_metrics",
    "render_prometheus",
    "latency_table",
    "percentile",
    "iter_jsonl",
    # report
    "RunReport",
    "TRACE_FORMATS",
]
