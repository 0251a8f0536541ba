"""Feasibility analysis: FEAS4xx / RULE5xx diagnostics over plans.

This pass abstractly executes every topology template's translation
plan over interval-valued specifications (see :mod:`repro.lint.absint`)
and turns the evidence into :class:`~repro.lint.diagnostics.Diagnostic`
findings:

* ``FEAS401`` -- a step may divide by an interval containing zero;
* ``FEAS402`` -- a physically non-negative variable (width, length,
  current, overdrive...) is bound to an entirely negative range;
* ``FEAS403`` -- the specification is infeasible for *every* design
  style (error when provable, warning when merely unprovable);
* ``FEAS404`` -- numeric hazards: overflow, domain errors (``sqrt`` /
  ``log`` of a negative range), empty intervals;
* ``FEAS405`` -- informational pruning: a style is statically
  infeasible for the spec, or the spec is nominally feasible but not
  provable across the process-corner spread;
* ``RULE501`` -- dead rule: consulted by the abstract executor but its
  condition is never satisfiable over any reachable abstract state;
* ``RULE502`` -- a restart cycle reached a widened fixpoint while its
  rule still wanted to fire: potential non-termination modulo budgets;
* ``RULE503`` -- an on-failure rule is scoped to steps that provably
  cannot raise :class:`~repro.errors.SynthesisError`, so it can never
  fire.

Severity follows the evidence grade: only *definite* claims on
*approximation-free* paths become errors, so a spec that merely
*might* fail is reported as a warning -- the pass never errors on a
feasible specification (the "zero false positives" contract, enforced
by ``tests/test_feasibility.py`` over every built-in template and
test case).

The pass never invokes the concrete
:class:`~repro.kb.plans.PlanExecutor`; a full three-template analysis
runs in a few milliseconds, which is what lets
:func:`repro.opamp.designer.synthesize` use :func:`precheck_styles`
as a fast-fail front door.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..kb.plans import Plan
from ..kb.rules import Rule
from ..kb.specs import OpAmpSpec
from ..kb.templates import TopologyTemplate
from ..process.parameters import ProcessParameters
from .absint import (
    DEFAULT_CORNER,
    AbstractEvent,
    AbstractRun,
    Interval,
    interpret_template,
)
from .diagnostics import Diagnostic, LintReport, Severity
from .kblint import parse_callable
from .registry import CheckerRegistry

__all__ = [
    "FEAS_REGISTRY",
    "FeasibilityTarget",
    "FeasibilityContext",
    "lint_feasibility",
    "precheck_styles",
    "PrecheckResult",
    "render_analysis",
    "builtin_spec_suite",
    "default_templates",
]

#: Interval feasibility / rule reachability checks over the registered
#: topology templates.  Subject: :class:`FeasibilityTarget`; context:
#: :class:`FeasibilityContext`.
FEAS_REGISTRY = CheckerRegistry("feasibility")

#: Map from abstract event kinds to the diagnostic codes they feed.
_EVENT_CODES: Dict[str, str] = {
    "div_by_zero": "FEAS401",
    "negative": "FEAS402",
    "overflow": "FEAS404",
    "domain": "FEAS404",
    "empty": "FEAS404",
}


# ----------------------------------------------------------------------
# Subject and context
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FeasibilityTarget:
    """What one feasibility pass analyzes.

    Attributes:
        templates: the topology templates under analysis.
        specs: ``(label, spec)`` pairs; the pass runs every template
            over every spec.
        process: the fabrication process the plans size against.
        corner: relative process-corner spread applied to every
            positive spec field (``0.05`` = +-5 %).
    """

    templates: Tuple[TopologyTemplate, ...]
    specs: Tuple[Tuple[str, OpAmpSpec], ...]
    process: ProcessParameters
    corner: float = DEFAULT_CORNER


class FeasibilityContext:
    """Run cache: each ``(style, spec, corner)`` abstract run executes
    exactly once no matter how many checkers consult it."""

    def __init__(self, target: FeasibilityTarget):
        self.target = target
        self._cache: Dict[Tuple[str, str, float], AbstractRun] = {}

    def run(
        self,
        template: TopologyTemplate,
        label: str,
        spec: OpAmpSpec,
        corner: float,
    ) -> AbstractRun:
        key = (template.style, label, corner)
        if key not in self._cache:
            self._cache[key] = interpret_template(
                template,
                spec,
                self.target.process,
                corner=corner,
                spec_label=label,
            )
        return self._cache[key]

    def runs(
        self, corners: Optional[Sequence[float]] = None
    ) -> Iterator[Tuple[TopologyTemplate, str, float, AbstractRun]]:
        """Every (template, spec label, corner, run) combination."""
        if corners is None:
            corners = (self.target.corner, 0.0)
        for template in self.target.templates:
            for label, spec in self.target.specs:
                for corner in dict.fromkeys(corners):
                    yield (
                        template,
                        label,
                        corner,
                        self.run(template, label, spec, corner),
                    )


def _event_severity(event: AbstractEvent) -> Severity:
    """Evidence-graded severity: proofs are errors, possibilities on
    clean paths are warnings, possibilities behind approximations are
    informational."""
    if event.definite and event.path_clean:
        return Severity.ERROR
    if event.definite or event.path_clean:
        return Severity.WARNING
    return Severity.INFO


def _provably_failed(run: AbstractRun) -> bool:
    return run.failed and run.failure is not None and run.failure.definite


# ----------------------------------------------------------------------
# FEAS403 / FEAS405: whole-spec feasibility over the style catalogue
# ----------------------------------------------------------------------
@FEAS_REGISTRY.register(
    "spec-feasibility",
    ["FEAS403", "FEAS405"],
)
def check_spec_feasibility(
    target: FeasibilityTarget, context: FeasibilityContext
) -> Iterator[Diagnostic]:
    """Specification feasibility across every design style."""
    for label, spec in target.specs:
        corner_runs = {
            template.style: context.run(template, label, spec, target.corner)
            for template in target.templates
        }
        # Per-style static pruning evidence (point mode mirrors the
        # concrete executor exactly, so a definite point failure is a
        # proof the style cannot design this spec).
        point_runs: Dict[str, AbstractRun] = {}
        for template in target.templates:
            if corner_runs[template.style].completed:
                continue
            point_runs[template.style] = context.run(template, label, spec, 0.0)
        for style, run in point_runs.items():
            if _provably_failed(run) and run.failure is not None:
                yield Diagnostic(
                    "FEAS405",
                    Severity.INFO,
                    f"spec {label}: style {style!r} statically pruned at "
                    f"step {run.failure.step!r}: {run.failure.message}",
                    location=run.block,
                )
        if any(run.completed for run in corner_runs.values()):
            continue  # robustly feasible: some style survives the corners
        nominal_ok = [s for s, run in point_runs.items() if run.completed]
        if nominal_ok:
            yield Diagnostic(
                "FEAS405",
                Severity.INFO,
                f"spec {label}: nominally feasible via "
                f"{', '.join(sorted(nominal_ok))} but not provable across "
                f"the +-{target.corner:.0%} process-corner spread",
                location=f"spec/{label}",
            )
            continue
        provable = all(_provably_failed(run) for run in point_runs.values())
        reasons = "; ".join(
            f"{style}: {run.failure.message}"
            if run.failure is not None
            else f"{style}: inconclusive"
            for style, run in sorted(point_runs.items())
        )
        if provable:
            yield Diagnostic(
                "FEAS403",
                Severity.ERROR,
                f"spec {label} is provably infeasible for every design "
                f"style ({reasons})",
                location=f"spec/{label}",
                suggestion="relax the failing specification or target a "
                "faster process",
            )
        else:
            yield Diagnostic(
                "FEAS403",
                Severity.WARNING,
                f"spec {label}: no design style can be shown feasible "
                f"({reasons})",
                location=f"spec/{label}",
                suggestion="relax the failing specification or target a "
                "faster process",
            )


# ----------------------------------------------------------------------
# FEAS401 / FEAS402 / FEAS404: per-step interval hazards
# ----------------------------------------------------------------------
@FEAS_REGISTRY.register(
    "interval-hazards",
    ["FEAS401", "FEAS402", "FEAS404"],
)
def check_interval_hazards(
    target: FeasibilityTarget, context: FeasibilityContext
) -> Iterator[Diagnostic]:
    """Division-by-zero, negative-physical and numeric-range hazards."""
    seen: set[Tuple[str, str, str, Severity]] = set()
    for template, label, _corner, run in context.runs():
        for step, event in run.events():
            code = _EVENT_CODES.get(event.kind)
            if code is None:
                continue
            severity = _event_severity(event)
            location = event.location or f"{run.block}/{step}"
            key = (code, location, event.kind, severity)
            if key in seen:
                continue
            seen.add(key)
            grade = "will" if event.definite else "may"
            yield Diagnostic(
                code,
                severity,
                f"spec {label}: step {step!r} {grade} hit "
                f"{event.kind.replace('_', '-')}: {event.detail}",
                location=location,
            )


# ----------------------------------------------------------------------
# RULE501: dead rules over the abstract reachable states
# ----------------------------------------------------------------------
@FEAS_REGISTRY.register("dead-rules", ["RULE501"])
def check_dead_rules(
    target: FeasibilityTarget, context: FeasibilityContext
) -> Iterator[Diagnostic]:
    """Rules whose condition is never satisfiable when consulted."""
    for template in target.templates:
        rules = template.build_rules()
        if not rules:
            continue
        offered: Dict[str, int] = {rule.name: 0 for rule in rules}
        possible: Dict[str, int] = {rule.name: 0 for rule in rules}
        fired: Dict[str, int] = {rule.name: 0 for rule in rules}
        opaque: Dict[str, bool] = {rule.name: False for rule in rules}
        consulted_runs = 0
        for tmpl, _label, _corner, run in context.runs():
            if tmpl.style != template.style:
                continue
            consulted_runs += 1
            for name, obs in run.rule_stats.items():
                if name not in offered:
                    continue
                offered[name] += obs.offered
                possible[name] += obs.possibly_applicable
                fired[name] += obs.fired
                opaque[name] = opaque[name] or obs.condition_opaque
        block = f"{template.block_type}/{template.style}"
        for rule in rules:
            name = rule.name
            if (
                offered[name] > 0
                and possible[name] == 0
                and fired[name] == 0
                and not opaque[name]
            ):
                yield Diagnostic(
                    "RULE501",
                    Severity.WARNING,
                    f"rule {name!r} was consulted {offered[name]} time(s) "
                    f"across {consulted_runs} abstract run(s) but its "
                    "condition is never satisfiable over any reachable "
                    "abstract state (dead rule)",
                    location=f"{block}/{name}",
                    suggestion="loosen the condition or delete the rule",
                )


# ----------------------------------------------------------------------
# RULE502: restart cycles without narrowing
# ----------------------------------------------------------------------
@FEAS_REGISTRY.register("restart-cycles", ["RULE502"])
def check_restart_cycles(
    target: FeasibilityTarget, context: FeasibilityContext
) -> Iterator[Diagnostic]:
    """Restart loops that reach a widened fixpoint and keep firing."""
    seen: set[Tuple[str, str, str]] = set()
    for template, label, _corner, run in context.runs():
        for cycle in run.cycles:
            key = (template.style, cycle.rule, cycle.target)
            if key in seen:
                continue
            seen.add(key)
            yield Diagnostic(
                "RULE502",
                Severity.WARNING,
                f"spec {label}: rule {cycle.rule!r} restarts at "
                f"{cycle.target!r} without narrowing the design state "
                f"({cycle.visits} widened visits reached a fixpoint with "
                "the rule still applicable): potential non-termination "
                "bounded only by the firing budget",
                location=f"{run.block}/{cycle.rule}",
                suggestion="make the rule's action change a variable its "
                "condition tests, or tighten max_firings",
            )


# ----------------------------------------------------------------------
# RULE503: on-failure rules scoped to steps that cannot raise
# ----------------------------------------------------------------------
#: Calls that provably cannot raise SynthesisError: pure builtins plus
#: methods on the blackboard / trace and the math module (whose own
#: errors are ValueError/OverflowError, which the plan executor does
#: not treat as a step failure).
_SAFE_CALL_NAMES = frozenset(
    {
        "min",
        "max",
        "abs",
        "sum",
        "len",
        "float",
        "int",
        "round",
        "sorted",
        "format",
        "bool",
        "str",
        "tuple",
        "list",
        "dict",
        "print",
    }
)
_SAFE_CALL_OBJECTS = frozenset({"state", "trace", "math"})


def _is_safe_call(func: ast.expr) -> bool:
    if isinstance(func, ast.Name):
        return func.id in _SAFE_CALL_NAMES
    if isinstance(func, ast.Attribute):
        return (
            isinstance(func.value, ast.Name)
            and func.value.id in _SAFE_CALL_OBJECTS
        )
    return False


def _cannot_raise(action: Callable[..., object]) -> bool:
    """True only when ``action``'s source provably contains no way to
    raise :class:`~repro.errors.SynthesisError`: no ``raise``, no
    ``assert``, and only whitelisted calls.  Anything unanalyzable is
    conservatively assumed to raise."""
    parsed = parse_callable(action)
    if parsed is None:
        return False
    for node in ast.walk(parsed[1]):
        if isinstance(node, (ast.Raise, ast.Assert)):
            return False
        if isinstance(node, ast.Call) and not _is_safe_call(node.func):
            return False
    return True


def _scoped_steps(plan: Plan, rule: Rule) -> List[Tuple[str, object]]:
    """The plan steps an on-failure rule is scoped to (name, action)."""
    if rule.on_failure_steps is None:
        names = [step.name for step in plan.steps]
    else:
        names = list(rule.on_failure_steps)
    found: List[Tuple[str, object]] = []
    by_name = {step.name: step for step in plan.steps}
    for name in names:
        step = by_name.get(name)
        if step is not None:  # unknown names are PLAN2xx territory
            found.append((name, step.action))
    return found


@FEAS_REGISTRY.register("unraisable-failure-rules", ["RULE503"])
def check_unraisable_failure_rules(
    target: FeasibilityTarget, context: FeasibilityContext
) -> Iterator[Diagnostic]:
    """On-failure rules watching steps that provably cannot fail."""
    for template in target.templates:
        plan = template.build_plan()
        block = f"{template.block_type}/{template.style}"
        for rule in template.build_rules():
            if not rule.on_failure:
                continue
            scoped = _scoped_steps(plan, rule)
            if not scoped:
                continue
            unraisable = [
                name for name, action in scoped if _cannot_raise(action)
            ]
            if len(unraisable) == len(scoped):
                yield Diagnostic(
                    "RULE503",
                    Severity.WARNING,
                    f"on-failure rule {rule.name!r} is scoped to "
                    f"{', '.join(repr(n) for n in unraisable)}, which "
                    "provably cannot raise SynthesisError: the rule can "
                    "never fire",
                    location=f"{block}/{rule.name}",
                    suggestion="scope the rule to a step that can fail, "
                    "or delete it",
                )
            elif unraisable:
                yield Diagnostic(
                    "RULE503",
                    Severity.INFO,
                    f"on-failure rule {rule.name!r} watches step(s) "
                    f"{', '.join(repr(n) for n in unraisable)} that "
                    "provably cannot raise SynthesisError",
                    location=f"{block}/{rule.name}",
                )


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def default_templates() -> Tuple[TopologyTemplate, ...]:
    """Every registered op amp topology template."""
    from ..opamp.designer import OPAMP_CATALOG

    return tuple(OPAMP_CATALOG)


def builtin_spec_suite() -> Tuple[Tuple[str, OpAmpSpec], ...]:
    """The paper's Table 2 test cases as (label, spec) pairs."""
    from ..opamp.testcases import paper_test_cases

    return tuple(paper_test_cases().items())


def _default_process() -> ProcessParameters:
    from ..process import builtin_processes

    return builtin_processes()["generic-5um"]


def lint_feasibility(
    spec: Optional[OpAmpSpec] = None,
    *,
    specs: Optional[Iterable[Tuple[str, OpAmpSpec]]] = None,
    templates: Optional[Iterable[TopologyTemplate]] = None,
    process: Optional[ProcessParameters] = None,
    corner: float = DEFAULT_CORNER,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> LintReport:
    """Run the FEAS/RULE feasibility pass.

    With ``spec`` given, analyzes that one specification (the
    ``repro lint --feasibility`` path); with neither ``spec`` nor
    ``specs``, analyzes the built-in test-case suite (the
    ``--self-check --feasibility`` / CI path).
    """
    if process is None:
        process = _default_process()
    if specs is None:
        pairs = (
            (("user", spec),) if spec is not None else builtin_spec_suite()
        )
    else:
        pairs = tuple(specs)
    chosen = (
        tuple(templates) if templates is not None else default_templates()
    )
    target = FeasibilityTarget(
        templates=chosen, specs=pairs, process=process, corner=corner
    )
    context = FeasibilityContext(target)
    return FEAS_REGISTRY.run(target, context, select=select, ignore=ignore)


@dataclass(frozen=True)
class PrecheckResult:
    """The outcome of the fast-fail feasibility gate.

    Attributes:
        viable: styles the gate could not rule out (design these).
        pruned: style -> abstract run proving the style infeasible.
        elapsed_ms: total analysis wall time.
    """

    viable: Tuple[str, ...]
    pruned: Dict[str, AbstractRun]
    elapsed_ms: float

    def reason(self, style: str) -> str:
        run = self.pruned[style]
        if run.failure is None:  # pragma: no cover - pruned implies failure
            return "statically infeasible"
        return (
            f"statically infeasible at step {run.failure.step!r}: "
            f"{run.failure.message}"
        )


def precheck_styles(
    spec: OpAmpSpec,
    process: ProcessParameters,
    styles: Sequence[str],
) -> PrecheckResult:
    """Statically prune styles that provably cannot design ``spec``.

    Runs the abstract interpreter in point mode (corner ``0.0``), where
    it mirrors the concrete :class:`~repro.kb.plans.PlanExecutor`
    exactly but several orders of magnitude faster; a style is pruned
    only on a *definite*, approximation-free failure, so the gate never
    prunes a style the concrete executor could design.
    """
    import time

    from ..opamp.designer import OPAMP_CATALOG

    start = time.perf_counter()
    viable: List[str] = []
    pruned: Dict[str, AbstractRun] = {}
    for style in styles:
        template = OPAMP_CATALOG[style]
        run = interpret_template(template, spec, process, corner=0.0)
        if _provably_failed(run):
            pruned[style] = run
        else:
            viable.append(style)
    elapsed_ms = (time.perf_counter() - start) * 1e3
    return PrecheckResult(
        viable=tuple(viable), pruned=pruned, elapsed_ms=elapsed_ms
    )


def render_analysis(
    spec: OpAmpSpec,
    process: Optional[ProcessParameters] = None,
    corner: float = DEFAULT_CORNER,
    templates: Optional[Iterable[TopologyTemplate]] = None,
) -> str:
    """Human-readable range report for ``repro analyze``."""
    if process is None:
        process = _default_process()
    chosen = (
        tuple(templates) if templates is not None else default_templates()
    )
    lines: List[str] = [
        f"Feasibility analysis (+-{corner:.0%} process-corner spread)",
        "=" * 58,
    ]
    for template in chosen:
        corner_run = interpret_template(template, spec, process, corner=corner)
        point_run = interpret_template(template, spec, process, corner=0.0)
        lines.append("")
        lines.append(f"style {template.style}")
        lines.append(f"  corner:  {corner_run.describe()}")
        lines.append(f"  nominal: {point_run.describe()}")
        lines.append(
            f"  steps={len(corner_run.outcomes)} "
            f"restarts={corner_run.restarts} "
            f"elapsed={corner_run.elapsed_ms + point_run.elapsed_ms:.1f} ms"
        )
        ranges = [
            (name, value)
            for name, value in sorted(corner_run.final_vars.items())
            if isinstance(value, Interval) and not value.is_point
        ]
        for name, value in ranges[:12]:
            lines.append(f"    {name:<24} {value:.4g}")
        if len(ranges) > 12:
            lines.append(f"    ... and {len(ranges) - 12} more ranges")
    return "\n".join(lines)
