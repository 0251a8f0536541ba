"""Shared helpers: checkout paths, the program's environment, statistics.

Nothing here imports the program; the load generator and the parent
process stay import-free so their own start-up never shows in a
measurement.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Mapping, Optional, Sequence

#: The checkout the benchmark runs in (its current directory).
ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent


def require_source() -> None:
    """Exit 2 without a result when the program's source is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program source at {SRC}/repro; run from the "
            "root of a checkout",
            file=sys.stderr,
        )
        raise SystemExit(2)


def use_source() -> None:
    """Make ``import repro`` load the checkout's source tree."""
    require_source()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def program_env() -> Dict[str, str]:
    """Environment for program subprocesses: the checkout's source on
    the path and every ``REPRO_*`` switch cleared, so the program runs
    in its default configuration whatever the caller exported."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def compile_sources() -> None:
    """Byte-compile the program once, so no timed import pays for it
    (a user's installed copy is compiled too)."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC)],
        env=program_env(),
        stdout=subprocess.DEVNULL,
        check=True,
        timeout=120,
    )


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (NaN for no values)."""
    if not values:
        return math.nan
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def histogram_quantile(snapshot: Mapping, q: float) -> float:
    """Quantile of a ``MetricsRegistry`` histogram snapshot, linear
    within the bucket it falls in (Prometheus ``histogram_quantile``)."""
    count = snapshot.get("count") or 0
    if not count:
        return 0.0
    bounds = [float(b) for b in snapshot["bounds"]]
    buckets = snapshot["buckets"]
    counts = [buckets.get(f"le_{_label(b)}", 0) for b in bounds]
    target = q * count
    seen = 0.0
    lower = 0.0
    for bound, n in zip(bounds, counts):
        if n and seen + n >= target:
            return lower + (bound - lower) * (target - seen) / n
        seen += n
        lower = bound
    return float(snapshot.get("max") or bounds[-1])


def _label(bound: float):
    return int(bound) if bound.is_integer() else bound


def stop(proc: subprocess.Popen, grace_s: float = 20.0) -> Optional[int]:
    """Terminate a child and wait until it has ended."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=grace_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=grace_s)
    return proc.returncode


def elapsed_ms(start: float) -> float:
    return (time.perf_counter() - start) * 1e3


def end_to_end(
    setups_s: Sequence[float], walls_ms: Sequence[float], loop_s: float
) -> Dict[str, float]:
    """The end-to-end metrics of an untraced run: median set-up, the
    per-operation latency percentiles and operations per second."""
    return {
        "setup_s": median(setups_s),
        "latency_ms_p50": median(walls_ms),
        "latency_ms_p90": quantile(walls_ms, 0.9),
        "throughput_ops_s": len(walls_ms) / loop_s,
    }
