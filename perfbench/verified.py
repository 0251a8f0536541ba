"""The ``verified`` workload, run in a fresh interpreter so its set-up
time starts at process start.

One thread, closed loop.  An operation is ``synthesize(spec, CMOS_5UM,
best_effort=True)`` followed by ``verify_opamp`` on the returned
design, with no result cache.  The spec stream repeats rounds of the
paper cases A/B/C, the pinned item-4 worst case, six specs of a pinned
item-4 sample and two seeded item-4 draws.

Protocol: the child prints ``ready`` once it could start its first
operation (the parent times set-up up to that line), then one JSON
line with the run's metrics.  ``--setup-only`` stops after ``ready``.

Run directly only for debugging; ``run.py`` drives it.
"""

from __future__ import annotations

import argparse
import json
import time
import traceback

import checks
import common
import inputs
import layers

#: The item-4 draws come in two groups.  A pinned sample (drawn with
#: the seed item 4 used) keeps the cost mix of every run the same, so
#: the latency median does not move with the seed; a few seeded draws
#: put fresh specs in front of the program on every run.
PINNED_SEED = 7
PINNED_DRAWS = 24
SEEDED_DRAWS = 8
#: Specs per round from each group: fixed cases, pinned, seeded.
ROUND = (4, 6, 2)


def build_groups(seed):
    """(specs, per-round count) groups; draws are kept only when
    ``synthesize`` accepts them, as item 4 sampled accepted specs."""
    from repro import CMOS_5UM, OpAmpSpec, synthesize
    from repro.opamp.testcases import paper_test_cases

    cases = paper_test_cases()
    fixed = [(label, cases[label]) for label in "ABC"]
    fixed.append(("W", OpAmpSpec(**inputs.WORST_CASE)))

    def accepted(prefix, draw_seed, count):
        kept = []
        for index, fields in enumerate(inputs.latin_hypercube(draw_seed, count)):
            spec = OpAmpSpec(**fields)
            if synthesize(spec, CMOS_5UM, best_effort=True).best is not None:
                kept.append((f"{prefix}{index:02d}", spec))
        return kept

    pinned = accepted("p", PINNED_SEED, PINNED_DRAWS)
    seeded = accepted("s", seed, SEEDED_DRAWS)
    return list(zip((fixed, pinned, seeded), ROUND))


def schedule(groups, position):
    """The (label, spec) at a stream position: rounds that take each
    group's per-round count, cycling through the group."""
    rnd, slot = divmod(position, sum(count for _, count in groups))
    for specs, count in groups:
        if slot < count:
            return specs[(rnd * count + slot) % len(specs)]
        slot -= count
    raise AssertionError("unreachable")


def run_op(synthesize, verify_opamp, process, spec):
    """One operation; returns (wall_ms, result, report, error)."""
    start = time.perf_counter()
    try:
        result = synthesize(spec, process, best_effort=True)
        report = verify_opamp(result.best) if result.best is not None else None
    except Exception:  # noqa: BLE001 - a failed operation is counted
        return common.elapsed_ms(start), None, None, traceback.format_exc(limit=3)
    return common.elapsed_ms(start), result, report, None


class Ledger:
    """Checks each completed operation and keeps what the metrics need."""

    def __init__(self, golden):
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = {}
        self.verified = 0
        self.missed = 0
        self.model_error = {"gain_db": [], "phase_margin_deg": [], "unity_gain": []}
        self.sample = None  # one good measurement, for the self-test

    def add(self, label, spec, result, report, error):
        self.attempted += 1
        problems = [error] if error else []
        if not problems and (result.best is None or report is None):
            problems.append("no design for an accepted spec")
        if not problems:
            problems += self._check(label, spec, result.best, report)
        if problems:
            self.failed += 1
            self.problems.append(f"{label}: {problems[0]}")

    def _check(self, label, spec, best, report):
        problems = []
        if label in self.golden:
            problems += checks.check_golden(best.record_json(), self.golden[label])
        problems += checks.check_measurements(report.measured)
        if problems:
            return problems
        digest = checks.measurement_digest(report.measured, report.offset_v)
        if self.digests.setdefault(label, digest) != digest:
            return ["measurements differ from an earlier run of the same spec"]
        self.sample = self.sample or report.measured
        self.verified += 1
        if checks.spec_misses(spec, report.measured, pm_exempt=label == "C"):
            self.missed += 1
        predicted, measured = best.performance, report.measured
        self.model_error["gain_db"].append(
            abs(measured["gain_db"] - predicted["gain_db"])
        )
        self.model_error["phase_margin_deg"].append(
            abs(measured["phase_margin_deg"] - predicted["phase_margin_deg"])
        )
        ugf = (measured["unity_gain_hz"], predicted["unity_gain_hz"])
        self.model_error["unity_gain"].append(max(ugf) / min(ugf))
        return []


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    common.use_source()
    from repro import CMOS_5UM
    from repro.obs import Tracer
    from repro.opamp import designer, verify

    groups = build_groups(args.seed)
    ledger = Ledger(checks.golden_records(common.ROOT, "ABC"))
    print("ready", flush=True)
    if args.setup_only:
        return 0

    # Entry points are looked up per call, so the traced run's wrappers
    # (patched onto these modules) are seen.
    def op(spec):
        return run_op(designer.synthesize, verify.verify_opamp, CMOS_5UM, spec)

    walls, completed = [], []
    clock, totals = layers.LayerClock(), layers.TracerTotals()
    traced_walls, overheads = [], []
    started = time.perf_counter()
    deadline = started + args.seconds
    position = 0
    while position == 0 or time.perf_counter() < deadline:
        label, spec = schedule(groups, position)
        position += 1
        wall, result, report, error = op(spec)
        walls.append(wall)
        completed.append((label, spec, result, report, error))
        if args.trace:
            # The same spec again, traced: the pair gives the overhead.
            tracer = Tracer()
            with clock, tracer.activate():
                traced_wall, *outcome = op(spec)
            totals.add(tracer)
            completed.append((label, spec, *outcome))
            traced_walls.append(traced_wall)
            overheads.append(traced_wall / wall - 1.0)
    loop_s = time.perf_counter() - started

    for entry in completed:
        ledger.add(*entry)
    missed_checks = checks.self_test(golden=ledger.golden["A"], measured=ledger.sample)
    result = {
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "problems": ledger.problems[:5] + missed_checks,
        "self_test_ok": ledger.sample is not None and not missed_checks,
        "reported": {
            "spec_miss_share": common.share(ledger.missed, ledger.verified)
        },
        "digests": dict(sorted(ledger.digests.items())),
    }
    if args.trace:
        result["metrics"] = _layer_metrics(
            ledger, clock, totals, traced_walls, overheads
        )
    else:
        result["walls_ms"], result["loop_s"] = walls, loop_s
    print(json.dumps(result), flush=True)
    return 0


def _layer_metrics(ledger, clock, totals, traced_walls, overheads):
    metrics = layers.layer_metrics(clock, totals, len(traced_walls))
    accounted = clock.total_ms["opamp.designer"] + sum(totals.phase_ms.values())
    metrics.update({
        "opamp.phase_accounted_share": common.share(accounted, sum(traced_walls)),
        "opamp.model_error.gain_db_p50": common.median(
            ledger.model_error["gain_db"]
        ),
        "opamp.model_error.phase_margin_deg_p50": common.median(
            ledger.model_error["phase_margin_deg"]
        ),
        "opamp.model_error.unity_gain_ratio_p50": common.median(
            ledger.model_error["unity_gain"]
        ),
        "opamp.spec_miss_share": common.share(ledger.missed, ledger.verified),
        "obs.trace_overhead_share": common.median(overheads),
    })
    return metrics


if __name__ == "__main__":
    raise SystemExit(main())
