"""Watch the planning mechanism work (the paper's Figure 3).

Run:
    python examples/design_trace.py

Designs test case C and prints the full design trace: plan steps
executing in order, rules firing to patch the plan (cascode the load
mirror, insert a level shifter, skew the gain partition), and the plan
restarting from an earlier step with new constraints -- the paper's
central mechanism, made visible.

The run executes under an observability tracer (:mod:`repro.obs`), so
the same mechanism also comes out as *data*: the example writes a JSONL
trace (timed spans + the design events recorded inside them, on one
clock + metrics) to a temp file and pretty-prints a few records, then
shows the terminal flame summary.
"""

import json
import tempfile
from pathlib import Path

from repro import CMOS_5UM
from repro.kb.trace import DesignTrace
from repro.obs import RunReport, Tracer, iter_jsonl
from repro.opamp.designer import OPAMP_CATALOG, design_style
from repro.opamp.testcases import SPEC_C


def main() -> None:
    print("The two-stage topology template (Figure 4):")
    print("===========================================")
    print(OPAMP_CATALOG["two_stage"].render())

    print("Executing the plan for test case C (100 dB, +-2.5 V swing):")
    print("===========================================================")
    tracer = Tracer()
    trace = DesignTrace()
    with tracer.activate():
        amp = design_style("two_stage", SPEC_C, CMOS_5UM, trace=trace)
    print(amp.trace.render(seq=True))

    firings = amp.trace.rule_firings
    restarts = amp.trace.restarts
    print(f"{len(firings)} rule firing(s), {len(restarts)} plan restart(s).")
    print()
    print("Final design:")
    print(amp.summary())

    # ------------------------------------------------------------------
    # The same run as machine-readable data: a JSONL trace file.
    # ------------------------------------------------------------------
    report = RunReport.from_tracer(
        tracer, meta={"label": "design_trace_example"}
    )
    out_path = Path(tempfile.mkdtemp(prefix="repro_obs_")) / "design_trace.jsonl"
    report.write(str(out_path), "jsonl")
    print(f"JSONL trace ({len(report.spans)} spans, "
          f"{len(report.events)} events) written to {out_path}")
    print()
    print("First few JSONL records (one JSON object per line):")
    text = out_path.read_text(encoding="utf-8")
    for record in list(iter_jsonl(text))[:5]:
        print("  " + json.dumps(record, sort_keys=True))
    print()
    print("Where the wall-clock went (flame summary):")
    print(report.flame(min_ms=0.01))


if __name__ == "__main__":
    main()
