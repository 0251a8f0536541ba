"""Tests for the observability layer (repro.obs).

Covers the issue's acceptance surface: span nesting/ordering across
plan restarts, metrics determinism across identical runs, Chrome-trace
schema validity, and the zero-overhead no-op tracer path.
"""

import json
import time

import pytest

from repro import obs
from repro.kb.trace import (
    TRACE_KIND_MARKERS,
    UNKNOWN_MARKER,
    DesignTrace,
    TraceEvent,
)
from repro.obs import (
    NULL_SPAN,
    MetricsRegistry,
    RunReport,
    Tracer,
    metric_key,
)
from repro.obs import log as obs_log
from repro.obs.export import (
    flame_text,
    iter_jsonl,
    to_chrome,
    to_jsonl,
)
from repro.opamp.designer import design_style, synthesize
from repro.opamp.testcases import SPEC_A, SPEC_C
from repro.process import builtin_processes

CMOS_5UM = builtin_processes()["generic-5um"]


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestMetrics:
    def test_metric_key_sorts_labels(self):
        assert metric_key("a", {}) == "a"
        assert (
            metric_key("dc.newton", {"rung": "gmin", "block": "x"})
            == "dc.newton{block=x,rung=gmin}"
        )

    def test_counter_and_totals(self):
        reg = MetricsRegistry()
        reg.inc("hits", block="a")
        reg.inc("hits", 2, block="b")
        reg.inc("plain")
        assert reg.counter_value("hits", block="a") == 1
        assert reg.counter_total("hits") == 3
        assert reg.counter_value("hits") == 0.0  # unlabelled series unset
        assert reg.counter_total("plain") == 1

    def test_histogram_buckets_and_stats(self):
        reg = MetricsRegistry()
        for v in (1, 3, 7, 10000):
            reg.observe("iters", v)
        snap = reg.snapshot()["histograms"]["iters"]
        assert snap["count"] == 4
        assert snap["sum"] == 10011
        assert snap["min"] == 1 and snap["max"] == 10000
        assert snap["buckets"]["le_1"] == 1
        assert snap["buckets"]["le_5"] == 1
        assert snap["buckets"]["le_10"] == 1
        assert snap["buckets"]["gt_5000"] == 1

    def test_snapshot_sorted_and_integral(self):
        reg = MetricsRegistry()
        reg.inc("z")
        reg.inc("a", 2.0)
        reg.set_gauge("g", 3.0)
        snap = reg.snapshot()
        assert list(snap["counters"]) == ["a", "z"]
        assert snap["counters"]["a"] == 2 and isinstance(snap["counters"]["a"], int)
        assert snap["gauges"]["g"] == 3

    def test_unsorted_histogram_bounds_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.histogram("bad", bounds=(5.0, 1.0))


# ----------------------------------------------------------------------
# Spans / tracer mechanics
# ----------------------------------------------------------------------
class TestSpans:
    def test_nesting_and_parent_ids(self):
        clock = iter(range(100))
        tracer = Tracer(clock=lambda: float(next(clock)))
        with tracer.activate():
            with obs.span("outer", category="a") as outer:
                assert obs.current_trace_context().span_id == outer.span_id
                with obs.span("inner", category="b") as inner:
                    assert obs.current_trace_context().span_id == inner.span_id
                assert obs.current_trace_context().span_id == outer.span_id
                outer.set("k", "v")
        spans = tracer.spans_by_start()
        assert [s.name for s in spans] == ["outer", "inner"]
        outer_span, inner_span = spans
        assert outer_span.parent_id is None
        assert inner_span.parent_id == outer_span.span_id
        assert outer_span.start_ms < inner_span.start_ms  # start order
        for s in spans:  # W3C span ids, in the tracer's trace
            assert len(s.span_id) == 16 and int(s.span_id, 16)
        assert outer.trace_id == inner.trace_id == tracer.trace_id
        assert outer_span.attributes["k"] == "v"
        # Injected integer-seconds clock: inner strictly inside outer.
        assert outer_span.start_ms <= inner_span.start_ms
        assert inner_span.end_ms <= outer_span.end_ms

    def test_error_status_and_propagation(self):
        tracer = Tracer()
        with tracer.activate():
            with pytest.raises(RuntimeError):
                with obs.span("boom"):
                    raise RuntimeError("kaput")
        (s,) = tracer.spans
        assert s.status == "error"
        assert "RuntimeError: kaput" in s.attributes["error"]

    def test_noop_when_disabled(self):
        assert obs.current_tracer() is None
        handle = obs.span("nothing", category="x", attr=1)
        assert handle is NULL_SPAN
        with handle as h:
            h.set("ignored", True)  # must not raise
        obs.count("nothing")
        obs.observe("nothing", 3)
        obs.gauge("nothing", 5)  # all silently dropped

    def test_ambient_helpers_record_on_active_tracer(self):
        tracer = Tracer()
        with tracer.activate():
            assert obs.current_tracer() is tracer
            obs.count("c", 2, block="b")
            obs.gauge("g", 7)
            obs.observe("h", 4)
        snap = tracer.metrics.snapshot()
        assert snap["counters"]["c{block=b}"] == 2
        assert snap["gauges"]["g"] == 7
        assert snap["histograms"]["h"]["count"] == 1

    def test_current_span_id_tracks_stack(self):
        tracer = Tracer()
        assert obs.current_trace_context() is None
        with tracer.activate():
            assert obs.current_trace_context() is None
            with obs.span("a") as a:
                ctx = obs.current_trace_context()
                assert (ctx.trace_id, ctx.span_id) == (tracer.trace_id, a.span_id)
            assert obs.current_trace_context() is None

    def test_log_line_names_the_open_span(self):
        """Log lines and spans share one id scheme: a line emitted
        inside an observed span carries that span's W3C ids."""
        sink = obs_log.CollectingSink()
        obs_log.configure(stream=sink, level="debug")
        try:
            tracer = Tracer()
            with tracer.activate():
                with obs.span("outer"):
                    with obs.span("inner") as inner:
                        obs_log.get_logger("test").info("unit.joined")
        finally:
            obs_log.reset()
        (record,) = sink.records()
        assert obs_log.validate_log_line(record) == []
        assert record["trace_id"] == tracer.trace_id
        assert record["span_id"] == inner.span_id
        assert record["span_id"] in {s.span_id for s in tracer.spans}

    def test_span_under_activated_context_joins_its_trace(self):
        ctx = obs.TraceContext.generate()
        tracer = Tracer()
        with obs.activate_trace(ctx), tracer.activate():
            with obs.span("hop"):
                pass
        (s,) = tracer.spans
        assert tracer.trace_id == ctx.trace_id
        assert s.parent_id == ctx.span_id
        report = RunReport.from_tracer(tracer)
        assert report.root_spans() == [s]


# ----------------------------------------------------------------------
# Integration: spans across a real plan execution (with restarts)
# ----------------------------------------------------------------------
class TestDesignIntegration:
    def test_span_tree_across_plan_restart(self):
        tracer = Tracer()
        trace = DesignTrace()
        with tracer.activate():
            design_style("two_stage", SPEC_C, CMOS_5UM, trace=trace)
        spans = tracer.spans_by_start()
        by_id = {s.span_id: s for s in spans}
        plan_spans = [s for s in spans if s.name == "plan:two_stage_miller"]
        assert len(plan_spans) == 1
        plan = plan_spans[0]
        # Case C restarts the two-stage plan (gain patch); the restart
        # count rides on the plan span and the restart counter.
        assert plan.attributes["restarts"] >= 1
        assert tracer.metrics.counter_total("plan.restarts") >= 1
        # Steps nest under the plan span, and re-run steps appear again
        # after the restart (more step spans than unique step names).
        steps = [
            s
            for s in spans
            if s.name.startswith("step:") and s.parent_id == plan.span_id
        ]
        assert len(steps) > len({s.name for s in steps})
        for s in steps:
            assert s.start_ms >= plan.start_ms - 1e-6
            assert s.end_ms <= plan.end_ms + 1e-6
        # Every parent reference resolves and precedes the child in
        # start order.
        position = {s.span_id: i for i, s in enumerate(spans)}
        for s in spans:
            if s.parent_id is not None:
                assert s.parent_id in by_id
                assert by_id[s.parent_id].start_ms <= s.start_ms
                assert position[s.parent_id] < position[s.span_id]
        # The step counter and the trace's step events increment at the
        # same site, so they agree exactly; step *spans* additionally
        # cover attempts that aborted mid-step, so they bound it above.
        assert tracer.metrics.counter_total("plan.steps") == trace.count("step")
        all_step_spans = [s for s in spans if s.name.startswith("step:")]
        assert (
            0
            < tracer.metrics.counter_total("plan.steps")
            <= len(all_step_spans)
        )

    def test_trace_events_are_span_tagged(self):
        tracer = Tracer()
        trace = DesignTrace()
        with tracer.activate():
            design_style("one_stage", SPEC_A, CMOS_5UM, trace=trace)
        assert tracer.events, "expected span events under a tracer"
        spans = {s.span_id: s for s in tracer.spans}
        for t_ms, span_id, event in tracer.events:
            # The same event object the trace holds, on the span's clock.
            assert event in trace.events
            assert spans[span_id].start_ms <= t_ms <= spans[span_id].end_ms

    def test_events_share_the_span_clock(self):
        """Regression: design events used to carry their own epoch, so
        under a tracer activated earlier none fell inside their span."""
        tracer = Tracer()
        with tracer.activate():
            time.sleep(0.1)
            result = synthesize(SPEC_A, CMOS_5UM)
        report = result.report
        (root,) = [s for s in report.spans if s.name == "synthesize"]
        assert root.start_ms >= 100.0
        assert report.events
        assert len(report.events) == len(result.trace)
        span_ids = {s.span_id for s in report.spans}
        start, end = round(root.start_ms, 3), round(root.end_ms, 3)
        for event in report.events:  # t_ms is rounded to the microsecond
            assert start <= event["t_ms"] <= end
            assert event["span_id"] in span_ids

    def test_metrics_deterministic_across_identical_runs(self):
        def run():
            tracer = Tracer()
            with tracer.activate():
                synthesize(SPEC_A, CMOS_5UM)
            return tracer.metrics.snapshot()

        def stable(snap):
            # Wall-clock latency histograms (*_ms) legitimately vary
            # between runs; the determinism contract covers event
            # *counts*, not timings.
            out = dict(snap)
            out["histograms"] = {
                key: (
                    {"count": h["count"]}
                    if key.split("{", 1)[0].endswith("_ms")
                    else h
                )
                for key, h in snap["histograms"].items()
            }
            return out

        first, second = stable(run()), stable(run())
        assert first == second
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )
        # The snapshot actually contains the advertised families.
        counters = first["counters"]
        assert any(k.startswith("plan.steps") for k in counters)
        assert any(k.startswith("selection.feasible") for k in counters)

    def test_observe_flag_produces_report(self):
        result = synthesize(SPEC_A, CMOS_5UM, observe=True)
        report = result.report
        assert report is not None
        assert report.meta["winner"] == result.best.style
        assert report.span_coverage() >= 0.95
        assert report.counter("plan.steps") > 0
        roots = report.root_spans()
        assert [s.name for s in roots] == ["synthesize"]

    def test_no_observe_means_no_report(self):
        result = synthesize(SPEC_A, CMOS_5UM)
        assert result.report is None


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
def _observed_report():
    result = synthesize(SPEC_A, CMOS_5UM, observe=True)
    return result.report


class TestExport:
    def test_chrome_trace_schema(self):
        report = _observed_report()
        data = json.loads(report.to_chrome_json())
        assert set(data) == {"traceEvents", "displayTimeUnit", "otherData"}
        events = data["traceEvents"]
        phases = {e["ph"] for e in events}
        assert phases <= {"M", "X", "i"}
        complete = [e for e in events if e["ph"] == "X"]
        assert complete, "expected complete span events"
        for e in complete:
            assert isinstance(e["name"], str) and e["name"]
            assert e["pid"] == 1 and e["tid"] == 1
            assert e["ts"] >= 0 and e["dur"] >= 0
            assert "span_id" in e["args"]
        instants = [e for e in events if e["ph"] == "i"]
        assert instants, "expected instant design-trace events"
        assert all(e["s"] == "t" for e in instants)
        assert data["otherData"]["metrics"]["counters"]

    def test_jsonl_stream_structure(self):
        report = _observed_report()
        records = list(iter_jsonl(report.to_jsonl()))
        assert records[0]["type"] == "meta"
        assert records[0]["format"] == "repro.obs/jsonl/1"
        assert records[-1]["type"] == "metrics"
        kinds = {r["type"] for r in records}
        assert kinds == {"meta", "span", "event", "metrics"}
        # Chronological merge: non-decreasing times over spans+events.
        times = [
            r.get("start_ms", r.get("t_ms"))
            for r in records
            if r["type"] in ("span", "event")
        ]
        assert times == sorted(times)
        spans = [r for r in records if r["type"] == "span"]
        assert len(spans) == len(report.spans)

    def test_summarize_jsonl_round_trip(self):
        report = _observed_report()
        text = RunReport.from_jsonl(report.to_jsonl()).summary()
        assert "Run report:" in text
        assert "synthesize" in text
        assert "plan.steps" in text
        # The tail-latency table rides along (repro stats uses this).
        assert "tail latency (per span name):" in text
        assert "p95 ms" in text and "p99 ms" in text

    def test_from_jsonl_reads_back_the_report(self):
        report = _observed_report()
        parsed = RunReport.from_jsonl(report.to_jsonl())
        assert [(s.name, s.span_id, s.parent_id) for s in parsed.spans] == [
            (s.name, s.span_id, s.parent_id) for s in report.spans
        ]
        assert parsed.events == report.events
        assert parsed.metrics == json.loads(json.dumps(report.metrics))
        assert parsed.meta == report.meta
        assert parsed.total_ms == round(report.total_ms, 3)

    def test_flame_text_merges_siblings(self):
        report = _observed_report()
        flame = report.flame()
        lines = flame.splitlines()
        assert lines[0].split()[:2] == ["span", "total"]
        assert any(line.lstrip().startswith("synthesize") for line in lines)
        assert flame_text([]) == "(no spans recorded)\n"

    def test_render_formats_and_write(self, tmp_path):
        report = _observed_report()
        for fmt in ("jsonl", "chrome", "text"):
            path = tmp_path / f"trace.{fmt}"
            report.write(str(path), fmt)
            assert path.read_text(encoding="utf-8").strip()
        with pytest.raises(ValueError):
            report.render("svg")


# ----------------------------------------------------------------------
# Shared event vocabulary (trace <-> exporters)
# ----------------------------------------------------------------------
class TestEventVocabulary:
    def test_marker_table_covers_every_recorded_kind(self):
        trace = DesignTrace()
        trace.plan_start("b", "p")
        trace.step("b", "s")
        trace.rule_fired("b", "r", "d")
        trace.restart("b", "t", "why")
        trace.abort("b", "why")
        trace.plan_done("b")
        trace.note("b", "n")
        trace.selection("b", "s")
        trace.ladder("b", "gmin", "d")
        trace.failure("b", "f")
        assert {e.kind for e in trace.events} == set(TRACE_KIND_MARKERS)
        rendered = trace.render().splitlines()
        for event, line in zip(trace.events, rendered):
            assert line.startswith(TRACE_KIND_MARKERS[event.kind] + " ")
            assert "marker" not in event.to_dict()  # presentational only
        newer = DesignTrace()
        newer.events.append(TraceEvent("from_the_future", "b", "d"))
        assert newer.render().startswith(UNKNOWN_MARKER + " ")

    def test_render_seq_column(self):
        trace = DesignTrace()
        trace.note("blk", "first")
        trace.note("blk", "second")
        plain = trace.render()
        with_seq = trace.render(seq=True)
        assert "first" in plain and not plain.startswith("   0")
        lines = with_seq.splitlines()
        assert lines[0].startswith("   0 ")
        assert lines[1].startswith("   1 ")

    def test_extend_restamps_seq_monotonic(self):
        a = DesignTrace()
        a.note("a", "one")
        b = DesignTrace()
        b.note("b", "two")
        b.note("b", "three")
        a.extend(b)
        assert [e.seq for e in a.events] == [0, 1, 2]
        assert [e.detail for e in a.events] == ["one", "two", "three"]

    def test_to_chrome_handles_raw_event_dicts(self):
        trace = DesignTrace()
        trace.step("blk", "size_devices", "W=10u")
        data = to_chrome([], trace.to_dicts())
        instants = [e for e in data["traceEvents"] if e["ph"] == "i"]
        assert instants[0]["name"] == "step:blk"
        assert instants[0]["args"]["step"] == "size_devices"

    def test_to_jsonl_plain_spans(self):
        tracer = Tracer()
        with tracer.activate():
            with obs.span("only"):
                pass
        text = to_jsonl(tracer.spans, [], tracer.metrics.snapshot())
        records = list(iter_jsonl(text))
        assert [r["type"] for r in records] == ["meta", "span", "metrics"]
