"""DC operating-point solver: damped Newton-Raphson with homotopy.

The solve strategy mirrors SPICE2 practice: :func:`operating_point`
climbs the fixed escalation sequence :data:`RUNGS`, cheapest first:

1. *plain* Newton-Raphson from the initial guess, undamped, with a
   short iteration cap and early divergence bail -- the cheap
   quadratic-convergence path for *warm* starts (sweep continuation,
   transient restarts).  From a cold flat start undamped NR mostly
   oscillates, so this rung runs only when a non-zero initial guess
   was supplied;
2. *damped* Newton-Raphson: per-iteration voltage-step limiting;
3. on failure, *gmin stepping*: converge with a large gmin shunt on
   every node, then relax gmin decade by decade, re-converging each
   time;
4. on failure, *source stepping*: ramp all independent sources from 0
   to 100 % in increments, converging at each level.

Each rung runs in a ``rung:<name>`` span and is counted in the
``ladder.*`` metrics; a failed rung logs ``ladder.rung_failed``.  A
rung's failure is chained (``__cause__``) into the next rung's, the
terminal :class:`~repro.errors.ConvergenceError` carries the
*cumulative* iteration count across every rung, and the escalation
history of a solve that needed more than one rung is recorded into the
caller's :class:`~repro.kb.trace.DesignTrace` as ``ladder`` events.

:func:`newton_solve` is the simulator's one DC Newton loop: each
iteration assembles through :meth:`MnaSystem.assemble_dc` (so the solver
is model-agnostic) and makes one dense ``np.linalg.solve``.  The loop
carries only the unknown vector; a converged solve's device records are
built once, by :meth:`MnaSystem.package_result`.  The solver
cooperates with the resilience layer: an ambient
:class:`~repro.resilience.Budget` is charged per Newton iteration, and
the ``dc.newton`` / ``dc.newton.nan`` fault points make every
escalation path exercisable in tests (see :mod:`repro.resilience.faults`).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..cache import circuit_key, content_key, current_cache, process_key
from ..circuit.netlist import Circuit
from ..devices.mosfet import MosfetOperatingPoint, Region
from ..errors import ConvergenceError
from ..kb.trace import DesignTrace
from ..obs.log import get_logger
from ..obs.metrics import LATENCY_BUCKETS_MS
from ..obs.spans import count as metric_count
from ..obs.spans import observe as metric_observe
from ..obs.spans import span as obs_span
from ..process.parameters import ProcessParameters
from ..resilience import Budget, current_budget
from ..resilience.faults import fault_point
from .mna import MnaSystem, MosfetOperatingPoint, OperatingPointResult

__all__ = ["operating_point", "newton_solve"]

_log = get_logger("resilience")

#: Absolute voltage tolerance, volts.
VTOL = 1e-9
#: Relative tolerance.
RELTOL = 1e-6
#: Residual current tolerance, amps.
ITOL = 1e-12
#: Largest allowed Newton voltage update per iteration, volts.
MAX_STEP = 1.0
#: Iteration cap for the cheap undamped first rung.
PLAIN_ITERATION_CAP = 25
#: Consecutive residual-norm increases before the plain rung bails.
DIVERGE_AFTER = 5
#: The escalation sequence :func:`operating_point` climbs, cheapest
#: first ("plain" only from a warm start).
RUNGS = ("plain", "damped", "gmin", "source")


def newton_solve(
    system: MnaSystem,
    x0: np.ndarray,
    gmin: float,
    source_scale: float,
    max_iterations: int = 150,
    max_step: Optional[float] = MAX_STEP,
    diverge_after: Optional[int] = None,
    budget: Optional[Budget] = None,
    block: str = "dc",
):
    """(Optionally damped) NR iteration at fixed gmin / source level.

    Args:
        max_step: largest voltage move per iteration (None = undamped).
        diverge_after: bail out early after this many *consecutive*
            iterations of growing residual norm (None = never; used by
            the cheap plain rung so divergence fails fast).
        budget: explicit iteration/wall budget; when None the ambient
            budget installed by :meth:`repro.resilience.Budget.active`
            is charged instead, so a synthesis-level deadline reaches
            this inner loop without parameter threading.
        block: context for budget errors.

    Returns:
        (x, iterations); the caller builds the device records once from
        the converged ``x``.

    Raises:
        ConvergenceError: if the iteration limit is reached, the
            Jacobian is numerically singular, or the update goes
            non-finite.
        BudgetExceeded: when the governing budget trips mid-iteration.
    """
    fault_point("dc.newton")
    if budget is None:
        budget = current_budget()
    x = x0.copy()
    n_nodes = system.n_nodes
    growth_streak = 0
    last_norm = np.inf
    for iteration in range(1, max_iterations + 1):
        if budget is not None:
            budget.charge_newton(1, block=block, step="newton")
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            residual, jacobian = system.assemble_dc(x, gmin, source_scale)
            try:
                delta = np.linalg.solve(jacobian, -residual)
            except np.linalg.LinAlgError as exc:
                raise ConvergenceError(
                    f"singular Jacobian: {exc}", iteration
                ) from exc
            if fault_point("dc.newton.nan") is not None:
                delta = delta * np.nan
            if not np.all(np.isfinite(delta)):
                raise ConvergenceError("non-finite Newton update", iteration)

            # Damp: limit the largest voltage move per iteration.
            v_delta = delta[:n_nodes]
            worst = np.max(np.abs(v_delta)) if n_nodes else 0.0
            if max_step is not None and worst > max_step:
                delta = delta * (max_step / worst)
            x = x + delta

            v_converged = np.all(
                np.abs(delta[:n_nodes]) <= VTOL + RELTOL * np.abs(x[:n_nodes])
            )
            # Residual check on the freshly updated point (no Jacobian
            # work: only the residual entries are evaluated).
            residual_new = system.assemble_dc_residual(x, gmin, source_scale)
            kcl_converged = np.all(
                np.abs(residual_new[:n_nodes]) <= ITOL * 10 + 1e-9
            )
            if v_converged and kcl_converged:
                return x, iteration

            if diverge_after is not None:
                norm = float(np.max(np.abs(residual_new[:n_nodes]))) if n_nodes else 0.0
                if not np.isfinite(norm) or norm > last_norm:
                    growth_streak += 1
                    if growth_streak >= diverge_after:
                        raise ConvergenceError(
                            f"diverging: residual grew {growth_streak} "
                            f"iterations in a row",
                            iteration,
                        )
                else:
                    growth_streak = 0
                last_norm = norm if np.isfinite(norm) else last_norm
    raise ConvergenceError(
        f"no convergence in {max_iterations} NR iterations "
        f"(gmin={gmin:g}, scale={source_scale:g})",
        max_iterations,
    )


def _run_rung(
    rung: str,
    system: MnaSystem,
    x0: np.ndarray,
    max_iterations: int,
    budget: Optional[Budget],
    block: str,
):
    """Run one escalation strategy from ``x0``.

    Returns ``(x, iterations)``; raises ConvergenceError on failure.  The homotopy rungs chain their inner Newton failure.
    """
    if rung == "plain":
        return newton_solve(
            system,
            x0,
            1e-12,
            1.0,
            min(max_iterations, PLAIN_ITERATION_CAP),
            max_step=None,
            diverge_after=DIVERGE_AFTER,
            budget=budget,
            block=block,
        )
    if rung == "damped":
        return newton_solve(
            system, x0, 1e-12, 1.0, max_iterations, budget=budget, block=block
        )
    if rung == "gmin":
        steps = [(10.0 ** (-exponent), 1.0) for exponent in range(3, 13)]
        steps.append((1e-12, 1.0))
    else:
        steps = [(1e-12, float(scale)) for scale in np.linspace(0.1, 1.0, 19)]
    x = x0.copy()
    total = 0
    try:
        for gmin, scale in steps:
            x, used = newton_solve(
                system, x, gmin, scale, max_iterations, budget=budget, block=block
            )
            total += used
    except ConvergenceError as exc:
        if rung == "gmin":
            where = f"gmin stepping stalled at gmin={gmin:g}"
        else:
            where = f"source stepping stalled at {scale * 100:.0f} % drive"
        raise ConvergenceError(
            f"{where}: {exc}", total + exc.iterations, rung=rung
        ) from exc
    return x, total


def _climb(
    rungs: Tuple[str, ...],
    system: MnaSystem,
    x0: np.ndarray,
    max_iterations: int,
    budget: Optional[Budget],
    block: str,
):
    """Try ``rungs`` in order until one converges.

    Returns ``(x, attempts)`` where ``attempts`` lists
    ``(rung, iterations, error)`` per rung tried (``error`` is ``""``
    on the rung that converged).  A rung's error gets the previous
    rung's as ``__cause__`` unless it already chains its own; when
    every rung fails the terminal error carries the cumulative
    iteration count.  Anything but ConvergenceError (a
    :class:`~repro.errors.BudgetExceeded`, a bug) propagates at once.
    """
    attempts: List[Tuple[str, int, str]] = []
    last_error: Optional[ConvergenceError] = None
    for rung in rungs:
        began = time.monotonic()
        error: Optional[ConvergenceError] = None
        try:
            with obs_span(
                f"rung:{rung}", category="ladder", rung=rung, attempt=1
            ):
                x, iterations = _run_rung(
                    rung, system, x0, max_iterations, budget, block
                )
        except ConvergenceError as exc:
            if last_error is not None and exc.__cause__ is None:
                exc.__cause__ = last_error
            last_error = error = exc
            iterations = exc.iterations
        elapsed_ms = (time.monotonic() - began) * 1e3
        attempts.append((rung, iterations, "" if error is None else str(error)))
        metric_count(
            "ladder.attempts", rung=rung, outcome="ok" if error is None else "failed"
        )
        metric_observe(
            "ladder.rung_ms", elapsed_ms, bounds=LATENCY_BUCKETS_MS, rung=rung
        )
        if error is not None:
            _log.warning(
                "ladder.rung_failed",
                rung=rung,
                attempt=1,
                iterations=iterations,
                elapsed_ms=round(elapsed_ms, 3),
                error=str(error),
            )
        if iterations:
            metric_count("ladder.iterations", n=iterations, rung=rung)
        if error is None:
            return x, attempts
    total = sum(iterations for _, iterations, _ in attempts)
    raise ConvergenceError(
        f"{block}: DC operating point failed after {' -> '.join(rungs)} "
        f"({total} total iterations): {last_error}",
        total,
        rung=rungs[-1],
    ) from last_error


# ----------------------------------------------------------------------
# Operating-point memoization (repro.cache hook)
# ----------------------------------------------------------------------
def _op_cache_key(
    circuit: Circuit,
    process: ProcessParameters,
    initial_guess: Optional[Dict[str, float]],
    max_iterations: int,
    vth_shifts: Optional[Dict[str, float]],
) -> str:
    """Content address of one DC solve: netlist + process + solver
    inputs.  Solver *strategy* (the ladder) is not part of the key: a
    converged operating point is a property of the circuit, not of the
    homotopy that found it."""
    return content_key(
        "operating_point",
        circuit_key(circuit),
        process_key(process),
        dict(initial_guess or {}),
        max_iterations,
        dict(vth_shifts or {}),
    )


def _op_to_payload(result: OperatingPointResult) -> Dict[str, object]:
    """Serialize a converged operating point for the cache."""
    return {
        "voltages": dict(result.voltages),
        "source_currents": dict(result.source_currents),
        "iterations": result.iterations,
        "device_ops": {
            name: {
                "region": op.region.value,
                "ids": op.ids,
                "vgs": op.vgs,
                "vds": op.vds,
                "vbs": op.vbs,
                "vth": op.vth,
                "vdsat": op.vdsat,
                "gm": op.gm,
                "gds": op.gds,
                "gmbs": op.gmbs,
                "cgs": op.cgs,
                "cgd": op.cgd,
                "cgb": op.cgb,
                "cbd": op.cbd,
                "cbs": op.cbs,
                "reversed_mode": op.reversed_mode,
            }
            for name, op in result.device_ops.items()
        },
    }


def _op_from_payload(
    payload: Dict[str, object], circuit: Circuit
) -> OperatingPointResult:
    """Rebuild a fresh :class:`OperatingPointResult` from cached JSON
    (fresh dicts every time: cached state is never aliased).  The
    result's voltage-source backrefs (``total_power`` needs them) are
    re-bound to the *caller's* circuit, which hashes identically to the
    one that produced the entry."""
    device_ops = {
        str(name): MosfetOperatingPoint(
            region=Region(fields.pop("region")),
            **fields,
        )
        for name, fields in (
            (n, dict(f)) for n, f in dict(payload["device_ops"]).items()  # type: ignore[arg-type]
        )
    }
    from ..circuit.elements import VoltageSource

    result = OperatingPointResult(
        voltages={str(k): float(v) for k, v in dict(payload["voltages"]).items()},  # type: ignore[arg-type]
        source_currents={
            str(k): float(v)
            for k, v in dict(payload["source_currents"]).items()  # type: ignore[arg-type]
        },
        device_ops=device_ops,
        iterations=int(payload["iterations"]),  # type: ignore[arg-type]
    )
    result._sources_by_name = {
        element.name.lower(): element
        for element in circuit.elements
        if isinstance(element, VoltageSource)
    }
    return result


def operating_point(
    circuit: Circuit,
    process: ProcessParameters,
    initial_guess: Optional[Dict[str, float]] = None,
    max_iterations: int = 150,
    vth_shifts: Optional[Dict[str, float]] = None,
    strict: bool = False,
    budget: Optional[Budget] = None,
    trace: Optional[DesignTrace] = None,
) -> OperatingPointResult:
    """Solve the DC operating point of ``circuit``.

    Args:
        circuit: the netlist (validated by the caller or here).
        process: process parameters providing the MOSFET models.
        initial_guess: optional node-voltage seeds (unlisted nodes start
            at 0 V).
        max_iterations: NR budget per homotopy step.
        vth_shifts: optional per-device threshold perturbations, volts
            (Monte Carlo mismatch hook; see :class:`MnaSystem`).
        strict: additionally run the full ERC lint pass and raise
            :class:`~repro.errors.LintError` on any error-severity
            finding (rather than discovering the problem as a singular
            matrix mid-solve).
        budget: explicit resilience budget charged per Newton
            iteration; defaults to the ambient budget, if any.
        trace: optional design trace; the ladder escalation history is
            recorded into it as ``ladder`` events.

    Returns:
        A converged :class:`OperatingPointResult` whose ``iterations``
        is the cumulative count across every ladder rung attempted.

    Raises:
        ConvergenceError: if all ladder rungs fail; ``iterations`` is
            cumulative across rungs and the per-rung history is
            available via the ``__cause__`` chain.
        LintError: in strict mode, when the circuit fails ERC.
        BudgetExceeded: when the governing budget trips mid-solve.
    """
    if strict:
        from ..lint import assert_erc_clean  # local: avoid import cycle

        assert_erc_clean(circuit, process=process, context="operating_point")
    circuit.validate()

    # Deterministic memoization: with an ambient ResultCache, identical
    # (netlist, process, guess, mismatch) solves are answered from the
    # cache.
    cache = current_cache()
    op_key = ""
    if cache is not None:
        op_key = _op_cache_key(
            circuit, process, initial_guess, max_iterations, vth_shifts
        )
        cached = cache.get("op", op_key)
        if cached is not None:
            metric_count("dc.cache_hits")
            return _op_from_payload(cached, circuit)

    system = MnaSystem(circuit, process, vth_shifts=vth_shifts)
    x0 = np.zeros(system.size)
    if initial_guess:
        for node, voltage in initial_guess.items():
            if node in system.node_index:
                x0[system.node_index[node]] = voltage

    block = f"dc/{circuit.name}"
    rungs = RUNGS
    if not (initial_guess and np.any(x0)):
        # Cold start: undamped NR from a flat guess mostly oscillates
        # its full cap away before the damped rung redoes the work, so
        # the cheap rung only pays for itself on warm starts.
        rungs = RUNGS[1:]
    solve_started = time.perf_counter()
    with obs_span(
        f"dc:{circuit.name}", category="sim",
        block=block, nodes=system.n_nodes,
    ) as solve_span:
        try:
            x, attempts = _climb(
                rungs, system, x0, max_iterations, budget, block
            )
        except ConvergenceError as exc:
            metric_count("dc.failures")
            metric_count("dc.newton.iterations", n=exc.iterations, rung="failed")
            metric_observe(
                "dc.solve_ms",
                (time.perf_counter() - solve_started) * 1e3,
                bounds=LATENCY_BUCKETS_MS,
                status="failed",
            )
            if trace is not None:
                trace.ladder(block, exc.rung or "?", f"exhausted: {exc}")
            raise
        total = sum(iterations for _, iterations, _ in attempts)
        solve_span.set("iterations", total)
        solve_span.set("rung", attempts[-1][0])
        metric_count("dc.solves")
        # One LU factor-and-solve per Newton iteration (the single
        # np.linalg.solve in the inner loop).
        metric_count("dc.lu_solves", n=total)
        metric_observe("dc.iterations_per_solve", total)
        metric_observe(
            "dc.solve_ms",
            (time.perf_counter() - solve_started) * 1e3,
            bounds=LATENCY_BUCKETS_MS,
            status="ok",
        )
        for rung, iterations, _ in attempts:
            metric_count("dc.newton.iterations", n=iterations, rung=rung)
    if trace is not None and len(attempts) > 1:
        for rung, iterations, error in attempts:
            outcome = f"failed ({error})" if error else "converged"
            trace.ladder(
                block,
                rung,
                f"attempt 1: {outcome} after {iterations} iterations",
            )
    result = system.package_result(x, total)
    if cache is not None:
        cache.put("op", op_key, _op_to_payload(result))
    return result
