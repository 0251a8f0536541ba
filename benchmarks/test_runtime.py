"""Section 4.3 CPU time: "usually under 2 minutes of CPU time per op amp"
on a 1987 VAX 11/785.

Times the complete synthesis (breadth-first selection over both styles,
plans, rules, netlist emission) of each test case.  The reproduction
must come in orders of magnitude under the paper's budget on modern
hardware -- we assert an aggressive 5 s per amp.

Each case runs under an observability tracer, and the bench writes
``BENCH_synth.json`` at the repo root: per-testcase wall time plus the
run's span count and deterministic metrics snapshot.  CI uploads the
file as an artifact, seeding the performance trajectory across commits.
"""

import json
import platform
import time
from pathlib import Path

from repro import CMOS_5UM, synthesize
from repro.cli import package_version
from repro.opamp.testcases import paper_test_cases

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_synth.json"


def _synthesize_all():
    timings = {}
    for label, spec in paper_test_cases().items():
        start = time.perf_counter()
        result = synthesize(spec, CMOS_5UM, observe=True)
        timings[label] = (time.perf_counter() - start, result)
    return timings


def _write_bench_json(timings):
    cases = {}
    for label, (seconds, result) in timings.items():
        report = result.report
        cases[label] = {
            "wall_ms": round(seconds * 1e3, 3),
            "style": result.style,
            "trace_events": len(result.trace),
            "spans": len(report.spans),
            "span_coverage": round(report.span_coverage(), 4),
            "dc_solves": report.counter("dc.solves"),
            "newton_iterations": report.counter("dc.newton.iterations"),
            "metrics": report.metrics,
        }
    payload = {
        "bench": "synth_runtime",
        "version": package_version(),
        "python": platform.python_version(),
        "cases": cases,
    }
    BENCH_JSON.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return payload


def test_runtime_per_opamp(once, benchmark):
    timings = once(benchmark, _synthesize_all)
    _write_bench_json(timings)
    print()
    for label, (seconds, result) in timings.items():
        print(
            f"  case {label}: {seconds * 1e3:7.1f} ms "
            f"({result.style}, {len(result.trace)} trace events, "
            f"{len(result.report.spans)} spans)"
        )
        # The paper's budget was 120 s of VAX CPU; demand < 5 s here.
        assert seconds < 5.0
    print(f"  wrote {BENCH_JSON.name}")


#: Verification phases, each timed by its ``verify:<phase>`` span.
VERIFY_PHASES = ("offset", "ac", "swing", "slew")


def _verify_run(amp, count_evaluations):
    """One traced ``verify_opamp`` call: (wall_ms, phase_ms, counters).

    MOSFET model evaluations are counted by wrapping
    ``MosfetModel.evaluate`` only when ``count_evaluations`` is set, so
    the timed run carries no wrapper overhead.
    """
    from repro.devices.mosfet import MosfetModel
    from repro.obs import Tracer
    from repro.opamp.verify import verify_opamp

    original = MosfetModel.evaluate
    evaluations = [0]

    def counted(self, *args, **kwargs):
        evaluations[0] += 1
        return original(self, *args, **kwargs)

    if count_evaluations:
        MosfetModel.evaluate = counted
    tracer = Tracer()
    try:
        start = time.perf_counter()
        with tracer.activate():
            verify_opamp(amp)
        wall_ms = (time.perf_counter() - start) * 1e3
    finally:
        MosfetModel.evaluate = original
    phase_ms = {
        phase: sum(
            s.duration_ms for s in tracer.spans if s.name == f"verify:{phase}"
        )
        for phase in VERIFY_PHASES
    }
    counters = {
        "dc_solves": tracer.metrics.counter_total("dc.solves"),
        "newton_iterations": tracer.metrics.counter_total("dc.newton.iterations"),
        "lu_solves": tracer.metrics.counter_total("dc.lu_solves"),
        "dc_failures": tracer.metrics.counter_total("dc.failures"),
    }
    if count_evaluations:
        counters["mosfet_evaluations"] = evaluations[0]
    return wall_ms, phase_ms, counters


def _verify_measurements():
    """Per paper case: a timed verification, then a counted one."""
    measurements = {}
    for label, spec in sorted(paper_test_cases().items()):
        amp = synthesize(spec, CMOS_5UM).best
        wall_ms, phase_ms, counters = _verify_run(amp, count_evaluations=False)
        _, _, counted = _verify_run(amp, count_evaluations=True)
        measurements[label] = (wall_ms, phase_ms, counters, counted)
    return measurements


def test_verify_phase_breakdown(once, benchmark):
    """Verification of cases A/B/C, phase by phase: the wall time of
    ``verify_opamp``, each phase's span time, and the DC-solver and
    device-model counters that explain them.  CI gates the counters
    against the committed baseline exactly and the ``*_ms`` leaves with
    ``repro slo --check-bench``."""
    measurements = once(benchmark, _verify_measurements)
    section = {}
    print()
    for label, (wall_ms, phase_ms, counters, counted) in measurements.items():
        # The counted rerun must take the same solver trajectory.
        assert {k: counted[k] for k in counters} == counters, label
        assert counters["dc_failures"] == 0, label
        assert counters["lu_solves"] == counters["newton_iterations"], label
        assert counted["mosfet_evaluations"] > 0, label
        assert all(spent > 0.0 for spent in phase_ms.values()), label
        assert sum(phase_ms.values()) <= wall_ms, label
        section[label] = {
            "verify_ms": round(wall_ms, 3),
            **{f"{phase}_ms": round(spent, 3) for phase, spent in phase_ms.items()},
            "dc_solves": counters["dc_solves"],
            "newton_iterations": counters["newton_iterations"],
            "lu_solves": counters["lu_solves"],
            "mosfet_evaluations": counted["mosfet_evaluations"],
        }
        print(
            f"  verify {label}: {wall_ms:7.1f} ms ("
            + ", ".join(f"{p} {phase_ms[p]:.1f}" for p in VERIFY_PHASES)
            + f"); {counters['dc_solves']:.0f} DC solves, "
            f"{counters['newton_iterations']:.0f} Newton iterations, "
            f"{counted['mosfet_evaluations']} MOSFET evaluations"
        )

    if BENCH_JSON.exists():
        data = json.loads(BENCH_JSON.read_text(encoding="utf-8"))
    else:  # ran standalone; seed the envelope
        data = {
            "bench": "synth_runtime",
            "version": package_version(),
            "python": platform.python_version(),
            "cases": {},
        }
    data["verify"] = section
    BENCH_JSON.write_text(
        json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"  merged verify into {BENCH_JSON.name}")


#: The bundled foreign decks the TOPO6xx acceptance criterion names.
BUNDLED_DECKS = ("ota_5t.sp", "comparator.sp")
FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "fixtures"


def _topology_span_ms(circuit):
    """Median ``lint.topology`` span over a few runs (PR-4 span data)."""
    import statistics

    from repro.lint import lint_topology
    from repro.obs import Tracer

    samples = []
    for _ in range(5):
        tracer = Tracer()
        with tracer.activate():
            lint_topology(circuit, process=CMOS_5UM)
        samples.append(
            sum(
                s.duration_ms
                for s in tracer.spans
                if s.name == "lint.topology"
            )
        )
    return statistics.median(samples)


def _deck_overhead():
    """Per bundled deck: the full ``repro lint`` command wall (what a
    user actually waits for) and the in-process lint pipeline wall,
    against the span-measured topology cost."""
    import subprocess
    import sys

    from repro.circuit.netlist_io import parse_deck
    from repro.lint import lint_spice_deck, lint_topology
    from repro.obs import Tracer

    measurements = {}
    for deck in BUNDLED_DECKS:
        path = FIXTURES / deck
        start = time.perf_counter()
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "analyze",
                "--netlist",
                str(path),
                "--topology",
            ],
            capture_output=True,
            text=True,
        )
        command_ms = (time.perf_counter() - start) * 1e3
        # comparator.sp intentionally warns (TOPO604); worse is a bug.
        assert proc.returncode <= 1, proc.stderr

        text = path.read_text(encoding="utf-8")
        tracer = Tracer()
        with tracer.activate():
            t0 = time.perf_counter()
            lint_spice_deck(text, name=deck, process=CMOS_5UM)
            circuit, _ = parse_deck(text, deck)
            lint_topology(circuit, process=CMOS_5UM)
            pipeline_ms = (time.perf_counter() - t0) * 1e3
        topology_ms = _topology_span_ms(circuit)
        measurements[deck] = (command_ms, pipeline_ms, topology_ms)
    return measurements


def test_topology_pass_overhead(once, benchmark):
    """Acceptance: the structural pass adds <= 10% to ``repro lint``
    wall time on the bundled decks, measured via the span data."""
    measurements = once(benchmark, _deck_overhead)
    section = {}
    print()
    for deck, (command_ms, pipeline_ms, topology_ms) in measurements.items():
        share = topology_ms / command_ms
        section[deck] = {
            "lint_command_wall_ms": round(command_ms, 3),
            "lint_pipeline_ms": round(pipeline_ms, 3),
            "topology_span_ms": round(topology_ms, 3),
            "share_of_command": round(share, 4),
            "share_of_pipeline": round(topology_ms / pipeline_ms, 4),
        }
        print(
            f"  {deck}: topology {topology_ms:6.3f} ms of "
            f"{command_ms:7.1f} ms command wall ({share:.2%}; "
            f"in-process pipeline {pipeline_ms:.2f} ms)"
        )
        assert topology_ms > 0.0, "lint.topology span not recorded"
        assert share <= 0.10, (
            f"{deck}: topology pass adds {share:.1%} to lint wall time"
        )
    if BENCH_JSON.exists():
        data = json.loads(BENCH_JSON.read_text(encoding="utf-8"))
    else:  # ran standalone; seed the envelope
        data = {
            "bench": "synth_runtime",
            "version": package_version(),
            "python": platform.python_version(),
            "cases": {},
        }
    data["topology"] = section
    BENCH_JSON.write_text(
        json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"  merged topology overhead into {BENCH_JSON.name}")
