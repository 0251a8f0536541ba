"""The repository benchmark: verified designs, served synthesis and the
cold CLI, with a traced per-layer breakdown.

Run from the root of a checkout::

    python3 perfbench/run.py --workload verified --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the same workload with wrappers around the public
entry points and the program's ``Tracer`` on, and reports the
per-layer metrics instead.  Every output is checked; the last line of
stdout is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time

import cold_cli
import common
import served

#: Set-ups per untraced run; the median is reported.
SETUP_REPEATS = 9

_NOT_VERIFIED = (
    "opamp.verify.",
    "opamp.phase_accounted_share",
    "opamp.model_error.",
    "opamp.spec_miss_share",
    "simulator.",
)
#: Per-layer metrics of the layers a workload never enters read 0.
BYPASSED = {
    "verified": ("serve.", "batch.", "cache."),
    "serve_synth": _NOT_VERIFIED,
    "cli_cold": _NOT_VERIFIED + ("serve.", "batch.", "cache."),
}


def run_verified(seed: int, seconds: float, trace: bool, setup_repeats: int) -> dict:
    """The in-process workload, in fresh interpreters (see verified.py)."""
    command = [
        sys.executable, str(common.BENCH_DIR / "verified.py"),
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    setups = [
        _ready_child(command + ["--setup-only"], seconds)[0]
        for _ in range(0 if trace else setup_repeats - 1)
    ]
    setup_s, result = _ready_child(command, seconds)
    if not trace:
        result["metrics"] = common.end_to_end(
            setups + [setup_s], result.pop("walls_ms"), result.pop("loop_s")
        )
    return result


def _ready_child(command, seconds):
    """Run a child that prints ``ready`` when set up, then optionally a
    JSON result; returns (seconds to ready, result or None)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        command, stdout=subprocess.PIPE, env=common.program_env(), cwd=common.ROOT
    )
    try:
        first = proc.stdout.readline().decode().strip()
        ready_s = time.perf_counter() - start
        if first != "ready":
            raise RuntimeError(f"workload child failed to set up: {first!r}")
        out, _ = proc.communicate(timeout=seconds + 150)
    finally:
        common.stop(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"workload child exited {proc.returncode}")
    lines = out.decode().splitlines()
    return ready_s, json.loads(lines[-1]) if lines else None


WORKLOADS = {
    "verified": run_verified,
    "serve_synth": served.run,
    "cli_cold": cold_cli.run,
}


def declared_metrics(workload: str, trace: bool, measured: dict) -> dict:
    """The metrics ``BENCHMARK.json`` declares for this mode, with their
    units.  Per-layer metrics of a bypassed layer read 0; any other
    metric the run did not measure, or did not declare, is an error."""
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if trace else "end_to_end"]
    metrics, missing = {}, []
    for entry in declared:
        name = entry["name"]
        if name in measured:
            value = measured[name]
        elif trace and name.startswith(BYPASSED[workload]):
            value = 0.0
        else:
            missing.append(name)
            continue
        metrics[name] = {"value": value, "unit": entry["unit"]}
    extra = sorted(set(measured) - {entry["name"] for entry in declared})
    if missing or extra:
        raise RuntimeError(f"metrics missing {missing}, undeclared {extra}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    common.require_source()
    common.compile_sources()
    result = WORKLOADS[args.workload](
        args.seed, args.seconds, bool(args.trace), SETUP_REPEATS
    )
    measured = result["metrics"]
    if args.trace:
        measured.update(cold_cli.cli_probes())
    metrics = declared_metrics(args.workload, bool(args.trace), measured)

    for name, entry in metrics.items():
        print(f"{name:<44} {entry['value']:>14.6g} {entry['unit']}")
    # Shares that a good run makes 0 carry no bound; they are printed
    # here, and ``failed`` / ``attempted`` carry the failures.
    reported = {
        "ops_failed_share": common.share(result["failed"], result["attempted"]),
        **result.get("reported", {}),
    }
    for name, value in reported.items():
        print(f"{name:<44} {value:>14.6g} ratio")
    print(f"{'operations':<44} {result['attempted']:>14d} count")
    for label, digest in result.get("digests", {}).items():
        print(f"sha256 {label:<8} {digest}")
    for problem in result["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0 and result["self_test_ok"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
