"""SLO evaluation: declarative latency / error-rate targets.

The repo can now *produce* latency data three ways -- JSONL traces
(span durations), metrics snapshots (histogram buckets, via
``GET /metrics?format=json`` or a merged batch registry) and
``BENCH_synth.json`` (benchmark walls).  This module is the consumer:
it turns "are we fast enough?" from a judgement call into a checked,
CI-gateable comparison.

* :class:`SloTarget` -- one declarative objective: a span name or
  histogram metric, optional p50/p95/p99 millisecond ceilings, and an
  optional error-rate ceiling.  Targets load from a plain JSON file
  (:func:`load_targets`) so services version them next to their code.
* :func:`evaluate_trace` -- exact percentiles over span durations in a
  JSONL trace read by :meth:`repro.obs.report.RunReport.from_jsonl`
  (:func:`repro.obs.export.percentile`), error rate = errored spans /
  spans.
* :func:`evaluate_snapshot` -- bucket-interpolated quantiles from a
  metrics snapshot's histograms (:func:`histogram_quantile`, the
  ``histogram_quantile()`` PromQL estimator), error rate from a
  numerator/denominator counter pair.
* :func:`diff_bench` -- the regression mode: compare every ``*_ms``
  leaf of two ``BENCH_synth.json`` payloads and flag relative growth
  beyond a threshold (with an absolute floor so microsecond jitter on
  sub-millisecond walls cannot fail CI).

``repro slo`` is the CLI front; every function here is pure so the
evaluation itself is unit-testable without a server.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from .export import percentile
from .report import RunReport

__all__ = [
    "SloCheck",
    "SloTarget",
    "BenchDelta",
    "diff_bench",
    "evaluate_snapshot",
    "evaluate_trace",
    "histogram_quantile",
    "load_targets",
    "render_checks",
    "render_deltas",
]

_PERCENTILE_FIELDS = (("p50_ms", 50.0), ("p95_ms", 95.0), ("p99_ms", 99.0))


@dataclass(frozen=True)
class SloTarget:
    """One objective.

    Attributes:
        name: span name (``kind="span"``) or histogram metric name
            (``kind="histogram"``, labels via ``labels``).
        kind: ``"span"`` or ``"histogram"``.
        labels: label filter for histogram targets (exact match on the
            canonical snapshot key).
        p50_ms / p95_ms / p99_ms: latency ceilings (None = unchecked).
        max_error_rate: ceiling on errored fraction.  Spans count
            ``status == "error"``; snapshots divide the
            ``error_counter`` series total by the ``total_counter``
            series total.
        error_counter / total_counter: counter names for the snapshot
            error rate (required there when ``max_error_rate`` is set).
    """

    name: str
    kind: str = "span"
    labels: Dict[str, str] = field(default_factory=dict)
    p50_ms: Optional[float] = None
    p95_ms: Optional[float] = None
    p99_ms: Optional[float] = None
    max_error_rate: Optional[float] = None
    error_counter: Optional[str] = None
    total_counter: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in ("span", "histogram"):
            raise ValueError(
                f"target {self.name!r}: kind must be 'span' or "
                f"'histogram', got {self.kind!r}"
            )


@dataclass(frozen=True)
class SloCheck:
    """One evaluated objective dimension (e.g. ``p95_ms``)."""

    target: str
    metric: str
    observed: Optional[float]
    limit: float
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class BenchDelta:
    """One ``*_ms`` leaf compared across two bench payloads."""

    path: str
    baseline_ms: float
    current_ms: float
    delta_pct: float
    regressed: bool


# ----------------------------------------------------------------------
# Target files
# ----------------------------------------------------------------------
def load_targets(path: str) -> List[SloTarget]:
    """Targets from a JSON file: ``{"targets": [{...}, ...]}``."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    rows = payload.get("targets") if isinstance(payload, dict) else payload
    if not isinstance(rows, list):
        raise ValueError(f"{path}: expected a 'targets' list")
    targets: List[SloTarget] = []
    for row in rows:
        if not isinstance(row, dict) or "name" not in row:
            raise ValueError(f"{path}: every target needs a 'name': {row!r}")
        known = {
            "name", "kind", "labels", "p50_ms", "p95_ms", "p99_ms",
            "max_error_rate", "error_counter", "total_counter",
        }
        unknown = set(row) - known
        if unknown:
            raise ValueError(
                f"{path}: unknown target fields {sorted(unknown)} "
                f"on {row['name']!r}"
            )
        targets.append(SloTarget(**row))
    return targets


# ----------------------------------------------------------------------
# Trace-based evaluation (exact percentiles over span durations)
# ----------------------------------------------------------------------
def evaluate_trace(text: str, targets: Sequence[SloTarget]) -> List[SloCheck]:
    """Evaluate span-kind targets against a JSONL trace."""
    durations: Dict[str, List[float]] = {}
    errors: Dict[str, int] = {}
    for span in RunReport.from_jsonl(text).spans:
        durations.setdefault(span.name, []).append(span.duration_ms)
        if span.status == "error":
            errors[span.name] = errors.get(span.name, 0) + 1
    checks: List[SloCheck] = []
    for target in targets:
        if target.kind != "span":
            continue
        values = durations.get(target.name, [])
        for attr, pct in _PERCENTILE_FIELDS:
            limit = getattr(target, attr)
            if limit is None:
                continue
            observed = percentile(values, pct)
            checks.append(
                SloCheck(
                    target=target.name,
                    metric=attr,
                    observed=observed,
                    limit=float(limit),
                    ok=observed is not None and observed <= float(limit),
                    detail=f"{len(values)} spans",
                )
            )
        if target.max_error_rate is not None:
            n = len(values)
            rate = (errors.get(target.name, 0) / n) if n else None
            checks.append(
                SloCheck(
                    target=target.name,
                    metric="error_rate",
                    observed=rate,
                    limit=float(target.max_error_rate),
                    ok=rate is not None and rate <= float(target.max_error_rate),
                    detail=f"{errors.get(target.name, 0)}/{n} errored",
                )
            )
    return checks


# ----------------------------------------------------------------------
# Snapshot-based evaluation (bucket-interpolated quantiles)
# ----------------------------------------------------------------------
def histogram_quantile(snap: Mapping[str, Any], pct: float) -> Optional[float]:
    """The PromQL ``histogram_quantile`` estimator over one histogram
    snapshot: linear interpolation within the bucket that crosses the
    quantile rank (the final open bucket reports its lower bound)."""
    count = int(snap.get("count", 0))
    bounds = [float(b) for b in (snap.get("bounds") or [])]
    if not count or not bounds:
        return None
    buckets = dict(snap.get("buckets") or {})

    def bucket_n(bound: float) -> int:
        label = f"le_{int(bound) if bound.is_integer() else bound}"
        return int(buckets.get(label, 0))

    rank = (max(0.0, min(100.0, pct)) / 100.0) * count
    cumulative = 0
    previous_bound = 0.0
    for bound in bounds:
        n = bucket_n(bound)
        if n and cumulative + n >= rank:
            inside = max(0.0, rank - cumulative)
            return previous_bound + (bound - previous_bound) * (
                inside / n
            )
        cumulative += n
        previous_bound = bound
    return bounds[-1]  # rank falls in the gt_* overflow bucket


def _counter_total(counters: Mapping[str, Any], name: str) -> float:
    prefix = name + "{"
    return float(
        sum(
            v
            for k, v in counters.items()
            if k == name or k.startswith(prefix)
        )
    )


def evaluate_snapshot(
    snapshot: Mapping[str, Any], targets: Sequence[SloTarget]
) -> List[SloCheck]:
    """Evaluate histogram-kind targets against a metrics snapshot."""
    from .metrics import metric_key

    histograms = dict(snapshot.get("histograms") or {})
    counters = dict(snapshot.get("counters") or {})
    checks: List[SloCheck] = []
    for target in targets:
        if target.kind != "histogram":
            continue
        key = metric_key(target.name, target.labels)
        snap = histograms.get(key)
        for attr, pct in _PERCENTILE_FIELDS:
            limit = getattr(target, attr)
            if limit is None:
                continue
            observed = (
                histogram_quantile(snap, pct) if snap is not None else None
            )
            checks.append(
                SloCheck(
                    target=key,
                    metric=attr,
                    observed=observed,
                    limit=float(limit),
                    ok=observed is not None and observed <= float(limit),
                    detail=(
                        f"{int(snap.get('count', 0))} observations"
                        if snap is not None
                        else "no such histogram"
                    ),
                )
            )
        if target.max_error_rate is not None:
            numerator = target.error_counter
            denominator = target.total_counter
            rate: Optional[float] = None
            detail = "error_counter/total_counter not set"
            if numerator and denominator:
                total = _counter_total(counters, denominator)
                bad = _counter_total(counters, numerator)
                rate = (bad / total) if total else None
                detail = f"{bad:g}/{total:g}"
            checks.append(
                SloCheck(
                    target=key,
                    metric="error_rate",
                    observed=rate,
                    limit=float(target.max_error_rate),
                    ok=rate is not None
                    and rate <= float(target.max_error_rate),
                    detail=detail,
                )
            )
    return checks


# ----------------------------------------------------------------------
# Bench regression diff
# ----------------------------------------------------------------------
def _ms_leaves(node: Any, path: str = "") -> List[Tuple[str, float]]:
    leaves: List[Tuple[str, float]] = []
    if isinstance(node, Mapping):
        for key in sorted(node):
            child_path = f"{path}.{key}" if path else str(key)
            value = node[key]
            if (
                str(key).endswith("_ms")
                and isinstance(value, (int, float))
                and not isinstance(value, bool)
            ):
                leaves.append((child_path, float(value)))
            else:
                leaves.extend(_ms_leaves(value, child_path))
    return leaves


def diff_bench(
    baseline: Mapping[str, Any],
    current: Mapping[str, Any],
    max_regress_pct: float = 100.0,
    min_ms: float = 0.5,
) -> List[BenchDelta]:
    """Compare every ``*_ms`` leaf of two bench payloads.

    A leaf regresses when it grew more than ``max_regress_pct`` percent
    over the baseline *and* the current value exceeds ``min_ms`` (the
    floor keeps sub-millisecond timer jitter from failing a gate).
    Leaves present on only one side are skipped -- a new benchmark is
    not a regression.
    """
    base = dict(_ms_leaves(baseline))
    deltas: List[BenchDelta] = []
    for path, value in _ms_leaves(current):
        if path not in base:
            continue
        reference = base[path]
        if reference <= 0.0:
            continue
        delta_pct = 100.0 * (value - reference) / reference
        regressed = (
            delta_pct > max_regress_pct and value > min_ms
        )
        deltas.append(
            BenchDelta(
                path=path,
                baseline_ms=reference,
                current_ms=value,
                delta_pct=delta_pct,
                regressed=regressed,
            )
        )
    return deltas


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def render_checks(checks: Sequence[SloCheck]) -> str:
    """The ``repro slo`` check table."""
    if not checks:
        return "(no applicable SLO targets)\n"
    lines = [
        f"{'target':<40} {'metric':<11} {'observed':>10} {'limit':>10}  "
        f"verdict"
    ]
    for check in checks:
        observed = (
            f"{check.observed:.3f}" if check.observed is not None else "n/a"
        )
        verdict = "ok" if check.ok else "VIOLATION"
        suffix = f"  ({check.detail})" if check.detail else ""
        lines.append(
            f"{check.target:<40} {check.metric:<11} {observed:>10} "
            f"{check.limit:>10.3f}  {verdict}{suffix}"
        )
    failed = sum(1 for c in checks if not c.ok)
    lines.append("")
    lines.append(
        f"{len(checks)} check(s), {failed} violation(s)"
    )
    return "\n".join(lines) + "\n"


def render_deltas(
    deltas: Sequence[BenchDelta], max_regress_pct: float
) -> str:
    """The ``repro slo --check-bench`` diff table."""
    if not deltas:
        return "(no comparable *_ms leaves between the two payloads)\n"
    lines = [
        f"{'benchmark':<52} {'base ms':>10} {'now ms':>10} {'delta':>8}"
    ]
    for delta in deltas:
        marker = "  REGRESSION" if delta.regressed else ""
        lines.append(
            f"{delta.path:<52} {delta.baseline_ms:>10.3f} "
            f"{delta.current_ms:>10.3f} {delta.delta_pct:>+7.1f}%{marker}"
        )
    regressed = sum(1 for d in deltas if d.regressed)
    lines.append("")
    lines.append(
        f"{len(deltas)} leaf timing(s) compared, {regressed} regression(s) "
        f"beyond +{max_regress_pct:g}%"
    )
    return "\n".join(lines) + "\n"
