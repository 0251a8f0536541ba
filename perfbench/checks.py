"""Output checks, the spec-miss classifier and the measurement digest.

Every check returns a list of problems (empty = correct), so a run can
count failed operations instead of stopping at the first one.
:func:`self_test` feeds each check a corrupted copy of a good output
and fails the run when a corruption slips through.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

#: Measurements every verification must return as finite numbers.
REQUIRED_MEASUREMENTS = (
    "gain_db",
    "unity_gain_hz",
    "phase_margin_deg",
    "output_swing",
    "slew_rate",
    "offset_mv",
)

#: Served-record keys that describe the request, not the synthesis.
ENVELOPE_KEYS = ("index", "label", "corner", "process", "request_id")


def golden_records(root: Path, labels: Sequence[str]) -> Dict[str, str]:
    """The committed golden records, read in place."""
    return {
        label: (root / "tests" / "golden" / f"case_{label}.json").read_text(
            encoding="utf-8"
        )
        for label in labels
    }


def check_golden(record_json: str, golden: str) -> List[str]:
    """A sized record must equal its golden file byte for byte (the
    canonical form the golden-run tests compare)."""
    if record_json == golden:
        return []
    return ["sized record differs from its golden file"]


def check_measurements(measured: Mapping[str, float]) -> List[str]:
    problems = []
    for key in REQUIRED_MEASUREMENTS:
        value = measured.get(key)
        if not isinstance(value, float) or not math.isfinite(value):
            problems.append(f"verification returned no finite {key}: {value!r}")
    return problems


def sanitize(obj: Any) -> Any:
    """NaN/inf -> None, recursively: served records are strict JSON."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: sanitize(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize(value) for value in obj]
    return obj


def expected_served(result: Any) -> Dict[str, Any]:
    """What a served synthesis record must hold, from the in-process
    ``synthesize(..., best_effort=True)`` result for the same spec."""
    best = result.best
    expected = {
        "ok": result.ok,
        "style": best.style if best is not None else None,
        "feasible_styles": result.feasible_styles(),
        "design": sanitize(best.to_record()) if best is not None else None,
        "failures": [
            {
                "kind": str(failure.kind),
                "message": failure.message,
                "style": failure.style,
                "recoverable": failure.recoverable,
            }
            for failure in result.failures
        ],
        "measured": None,
    }
    # Through JSON, as the wire carries it (tuples become lists).
    return json.loads(json.dumps(expected))


def check_served(
    record: Mapping[str, Any],
    expected: Mapping[str, Any],
    volatile_keys: Sequence[str],
) -> List[str]:
    """A served record equals the in-process one, modulo the volatile
    keys and the request envelope."""
    ignored = set(volatile_keys) | set(ENVELOPE_KEYS)
    served = {k: v for k, v in record.items() if k not in ignored}
    if served == dict(expected):
        return []
    differing = sorted(
        k for k in set(served) | set(expected) if served.get(k) != expected.get(k)
    )
    return [f"served record differs from in-process synthesis in {differing}"]


def check_cli(returncode: int, stdout: bytes, expected: bytes) -> List[str]:
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    if stdout != expected:
        problems.append("stdout differs from in-process repro.cli.main")
    return problems


# ----------------------------------------------------------------------
# Simulated correctness: the ROADMAP item-4 miss bounds.  Never widen
# a bound to turn a miss into a pass.
# ----------------------------------------------------------------------
GAIN_DB_SLACK = 0.5
PHASE_MARGIN_DEG_SLACK = 3.0
RELATIVE_SLACK = 0.10


def spec_misses(
    spec: Any, measured: Mapping[str, float], pm_exempt: bool = False
) -> List[str]:
    """The metrics on which a simulated design misses its spec.

    ``pm_exempt`` is the paper's declared soft miss (case C's phase
    margin, "acceptable for a first-cut design")."""
    misses = []
    if measured["gain_db"] < spec.gain_db - GAIN_DB_SLACK:
        misses.append("gain_db")
    if not pm_exempt and (
        measured["phase_margin_deg"]
        < spec.phase_margin_deg - PHASE_MARGIN_DEG_SLACK
    ):
        misses.append("phase_margin_deg")
    for key, target in (
        ("unity_gain_hz", spec.unity_gain_hz),
        ("slew_rate", spec.slew_rate),
        ("output_swing", spec.output_swing),
    ):
        if measured[key] < (1.0 - RELATIVE_SLACK) * target:
            misses.append(key)
    if measured["offset_mv"] > spec.offset_max_mv:
        misses.append("offset_mv")
    return misses


def measurement_digest(measured: Mapping[str, float], offset_v: float) -> str:
    """SHA-256 over every measured value's float ``repr``: equal
    digests mean bit-identical measurements."""
    text = ";".join(f"{key}={measured[key]!r}" for key in sorted(measured))
    return hashlib.sha256(f"{text};offset_v={offset_v!r}".encode()).hexdigest()


# ----------------------------------------------------------------------
# Self-test: each check must reject a corrupted copy of a good output.
# ----------------------------------------------------------------------
def _flip_digit(text: str) -> str:
    for i in range(len(text) - 1, -1, -1):
        if text[i].isdigit():
            digit = "1" if text[i] != "1" else "2"
            return text[:i] + digit + text[i + 1:]
    return text + "0"


def self_test(
    golden: Optional[str] = None,
    served: Optional[Tuple[Mapping[str, Any], Mapping[str, Any]]] = None,
    cli: Optional[Tuple[int, bytes, bytes]] = None,
    measured: Optional[Mapping[str, float]] = None,
    volatile_keys: Sequence[str] = (),
) -> List[str]:
    """Corrupt a good output of each kind given (the run's own) and
    return the corruptions the checks failed to catch."""
    missed = []
    if golden is not None and not check_golden(_flip_digit(golden), golden):
        missed.append("corrupted golden record")
    if served is not None:
        record, expected = served
        bad = copy.deepcopy(dict(record))
        if bad.get("design"):
            bad["design"]["area_m2"] *= 1.5
        else:
            bad["style"] = "corrupted"
        if not check_served(bad, expected, volatile_keys):
            missed.append("corrupted served record")
    if cli is not None:
        returncode, stdout, expected = cli
        if not check_cli(returncode, stdout[:-1] + b"#", expected):
            missed.append("corrupted CLI stdout")
        if not check_cli(1, stdout, expected):
            missed.append("failing CLI exit code")
    if measured is not None and not check_measurements(
        {**measured, "gain_db": math.nan}
    ):
        missed.append("non-finite verification measurement")
    return missed
