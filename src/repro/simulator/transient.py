"""Transient analysis with LTE-controlled trapezoidal integration.

Used by the verification layer to measure slew rate and settling of
synthesized op amps (unity-gain step response), standing in for the
paper's SPICE transient runs.

Capacitors (explicit elements and the MOSFET intrinsic/junction
capacitances evaluated quasi-statically at each accepted timepoint) are
replaced by their trapezoidal companion models; the resulting nonlinear
system is solved by the same damped NR as the DC solver.

The step size follows the local truncation error (LTE), as in SPICE2.
The trapezoidal LTE of a node voltage is ``h**3 / 12`` times its third
time derivative, estimated from the third divided difference of the
last three accepted points and the candidate point.  A step is accepted
when that estimate is at most ``TRTOL * (RELTOL * |v| + VNTOL)`` on
every node; the next step is scaled by ``0.9 * err**(-1/3)``, clamped
to [1/4, 2] and to the caller's ``t_step``.  A step whose Newton solve
fails is cut by 8 and retried.  Rejected attempts leave the companion
state and the device capacitances untouched.  There is no breakpoint
protocol: the error test itself rejects a step across a stimulus edge.

Voltage and current sources may be driven by arbitrary waveforms via
``stimuli``: a mapping from source name to ``f(t) -> value``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from dataclasses import replace as dc_replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..circuit.elements import GROUND, CurrentSource, VoltageSource
from ..circuit.netlist import Circuit
from ..errors import ConvergenceError, SimulationError
from ..obs.spans import count as metric_count
from ..obs.spans import span as obs_span
from ..process.parameters import ProcessParameters
from .dc import MAX_STEP, VTOL, operating_point
from .dc import RELTOL as NEWTON_RELTOL
from .mna import MnaSystem

__all__ = ["TransientResult", "transient_analysis", "step_waveform"]

#: LTE tolerance factor (SPICE2's TRTOL).
TRTOL = 7.0
#: Relative node-voltage tolerance of the LTE test (SPICE2's RELTOL).
RELTOL = 1e-3
#: Absolute node-voltage tolerance of the LTE test, volts (SPICE2's VNTOL).
VNTOL = 1e-6


@dataclass
class TransientResult:
    """Waveforms from a transient run.

    Attributes:
        times: the accepted timepoints, seconds, ascending and unevenly
            spaced, from exactly 0 to exactly ``t_stop``.
        waveforms: node name -> voltage array aligned with ``times``.
    """

    times: np.ndarray
    waveforms: Dict[str, np.ndarray]

    def voltage(self, node: str) -> np.ndarray:
        if node == GROUND:
            return np.zeros_like(self.times)
        try:
            return self.waveforms[node]
        except KeyError:
            raise SimulationError(f"no node named {node!r} in transient result") from None


def step_waveform(
    low: float, high: float, t_step: float, t_rise: float = 1e-9
) -> Callable[[float], float]:
    """A step from ``low`` to ``high`` at ``t_step`` with linear rise."""

    def wave(t: float) -> float:
        if t <= t_step:
            return low
        if t >= t_step + t_rise:
            return high
        return low + (high - low) * (t - t_step) / t_rise

    return wave


class _CompanionBank:
    """Struct-of-arrays trapezoidal companion state for all capacitor
    branches at once (explicit caps first, then the five MOSFET cap
    branches per device)."""

    def __init__(
        self, node_a: List[int], node_b: List[int], caps: List[float]
    ):
        self.node_a = np.asarray(node_a, dtype=np.intp)
        self.node_b = np.asarray(node_b, dtype=np.intp)
        self.cap = np.asarray(caps, dtype=float)
        self.v_prev = np.zeros(self.cap.size)
        self.i_prev = np.zeros(self.cap.size)

    def branch_voltages(self, x: np.ndarray) -> np.ndarray:
        xe = np.append(x, 0.0)  # ground (-1) reads 0 V
        return xe[self.node_a] - xe[self.node_b]

    def stamp(
        self,
        residual: np.ndarray,
        jacobian: np.ndarray,
        x: np.ndarray,
        h: float,
    ) -> None:
        """Companion stamps for every live (C > 0) branch."""
        live = np.flatnonzero(self.cap > 0.0)
        if not live.size:
            return
        a = self.node_a[live]
        b = self.node_b[live]
        geq = 2.0 * self.cap[live] / h
        ieq = geq * self.v_prev[live] + self.i_prev[live]
        current = geq * self.branch_voltages(x)[live] - ieq
        a_live = a >= 0
        b_live = b >= 0
        both = a_live & b_live
        np.add.at(residual, a[a_live], current[a_live])
        np.add.at(residual, b[b_live], -current[b_live])
        np.add.at(jacobian, (a[a_live], a[a_live]), geq[a_live])
        np.add.at(jacobian, (b[b_live], b[b_live]), geq[b_live])
        np.add.at(jacobian, (a[both], b[both]), -geq[both])
        np.add.at(jacobian, (b[both], a[both]), -geq[both])

    def accept(self, x_next: np.ndarray, h: float) -> None:
        """Trapezoidal history update after a converged timestep."""
        v_new = self.branch_voltages(x_next)
        geq = 2.0 * self.cap / h
        self.i_prev = geq * (v_new - self.v_prev) - self.i_prev
        self.v_prev = v_new


def _device_cap_branches(system: MnaSystem) -> List[Tuple[int, int]]:
    """Terminal pairs carrying MOSFET capacitances, in the order of
    :meth:`MnaSystem.mosfet_capacitances`: per device, cgs (g-s), cgd
    (g-d), cgb (g-b), cbd (b-d) and cbs (b-s)."""
    branches = []
    for element in system.circuit.mosfets:
        d = system.index_of(element.drain)
        g = system.index_of(element.gate)
        s = system.index_of(element.source)
        b = system.index_of(element.bulk)
        branches.extend([(g, s), (g, d), (g, b), (b, d), (b, s)])
    return branches


def _companion_bank(
    system: MnaSystem, initial: Circuit, x: np.ndarray
) -> Tuple[_CompanionBank, int]:
    """The companion bank at the initial condition ``x``, and the number
    of explicit capacitors (the MOSFET cap branches follow them)."""
    node_a: List[int] = []
    node_b: List[int] = []
    caps: List[float] = []
    for cap in initial.capacitors:
        node_a.append(system.index_of(cap.node_a))
        node_b.append(system.index_of(cap.node_b))
        caps.append(cap.capacitance)
    explicit_count = len(caps)
    for a, b in _device_cap_branches(system):
        node_a.append(a)
        node_b.append(b)
    caps.extend(system.mosfet_capacitances(x))
    bank = _CompanionBank(node_a, node_b, caps)
    bank.v_prev = bank.branch_voltages(x)
    return bank, explicit_count


def transient_analysis(
    circuit: Circuit,
    process: ProcessParameters,
    t_stop: float,
    t_step: float,
    stimuli: Optional[Dict[str, Callable[[float], float]]] = None,
    max_iterations: int = 100,
    strict: bool = False,
) -> TransientResult:
    """Run a trapezoidal transient whose step follows the local
    truncation error (see the module docstring for the error test and
    its constants :data:`TRTOL`, :data:`RELTOL` and :data:`VNTOL`).

    The initial condition is the DC operating point with all stimuli
    evaluated at t=0.  The first step is ``t_step / 4``.

    Args:
        circuit / process: netlist and process.
        t_stop: final time, seconds; the last timepoint is exactly this.
        t_step: the largest step the integrator may take, seconds
            (SPICE's TMAX).  The accepted timepoints in ``times`` are
            not evenly spaced.
        stimuli: optional waveform per voltage- or current-source name;
            sources not listed hold their DC value.
        max_iterations: NR budget per timestep.
        strict: additionally run the full ERC lint pass and raise
            :class:`~repro.errors.LintError` on any error-severity
            finding before integrating.

    Returns:
        :class:`TransientResult`.

    Raises:
        SimulationError: for a bad time range, or a ``stimuli`` key that
            names no voltage or current source; both before the DC
            solve.
        ConvergenceError: when a step's Newton solve still fails once
            the step has been cut below ``t_step * 1e-9``.
    """
    if strict:
        from ..lint import assert_erc_clean  # local: avoid import cycle

        assert_erc_clean(circuit, process=process, context="transient_analysis")
    if (
        not (math.isfinite(t_stop) and math.isfinite(t_step))
        or t_stop <= 0
        or t_step <= 0
        or t_step > t_stop
    ):
        raise SimulationError(f"bad transient range t_stop={t_stop}, t_step={t_step}")
    stimuli = {k.lower(): v for k, v in (stimuli or {}).items()}
    sources = {
        element.name.lower()
        for element in circuit.elements
        if isinstance(element, (VoltageSource, CurrentSource))
    }
    unknown = sorted(set(stimuli) - sources)
    if unknown:
        raise SimulationError(
            f"stimuli {', '.join(map(repr, unknown))} name no voltage or "
            f"current source of circuit {circuit.name!r}"
        )

    # Initial condition: DC solve with t=0 stimulus values.
    initial = Circuit(circuit.name)
    for element in circuit.elements:
        key = element.name.lower()
        if key in stimuli:
            initial.add(dc_replace(element, dc=float(stimuli[key](0.0))))
        else:
            initial.add(element)
    op0 = operating_point(initial, process)

    system = MnaSystem(initial, process)
    x = np.zeros(system.size)
    for node, index in system.node_index.items():
        x[index] = op0.voltages[node]
    for pos, source in enumerate(system.vsources):
        x[system.branch_index(pos)] = op0.source_currents[source.name.lower()]

    with obs_span(f"transient:{circuit.name}", category="sim") as tran_span:
        times, history = _integrate(
            system, initial, x, t_stop, t_step, stimuli, max_iterations
        )
        tran_span.set("timesteps", len(times) - 1)
        metric_count("transient.analyses")
        metric_count("transient.timesteps", n=len(times) - 1)

    stacked = np.vstack(history)
    waveforms = {
        node: stacked[:, index] for node, index in system.node_index.items()
    }
    return TransientResult(times=np.asarray(times), waveforms=waveforms)


def _lte_ratio(
    times: Sequence[float],
    history: Sequence[np.ndarray],
    t_next: float,
    x_next: np.ndarray,
    n_nodes: int,
) -> float:
    """Largest ratio, over the node voltages, of the trapezoidal LTE
    estimate to its tolerance ``TRTOL * (RELTOL * |v| + VNTOL)``.

    The third time derivative is six times the third divided difference
    through the last three accepted points and ``(t_next, x_next)``, so
    the LTE ``h**3 / 12 * x'''`` is ``h**3 / 2`` times that difference.
    """
    points = (*times[-3:], t_next)
    diffs = [state[:n_nodes] for state in history[-3:]] + [x_next[:n_nodes]]
    for order in (1, 2, 3):
        diffs = [
            (diffs[k + 1] - diffs[k]) / (points[k + order] - points[k])
            for k in range(len(diffs) - 1)
        ]
    h = t_next - points[2]
    lte = h**3 / 2.0 * np.abs(diffs[0])
    tolerance = TRTOL * (RELTOL * np.abs(x_next[:n_nodes]) + VNTOL)
    return float(np.max(lte / tolerance))


def _integrate(
    system: MnaSystem,
    initial: Circuit,
    x: np.ndarray,
    t_stop: float,
    t_step: float,
    stimuli: Dict[str, Callable[[float], float]],
    max_iterations: int,
):
    """LTE-controlled integration from the initial condition ``x``;
    returns the accepted ``(times, history)``.

    Only an accepted step updates the companion bank and refreshes the
    device capacitances; a rejected attempt just stamps from them.
    """
    bank, explicit_count = _companion_bank(system, initial, x)
    n_nodes = system.n_nodes
    h_floor = t_step * 1e-9

    times = [0.0]
    history = [x.copy()]

    t = 0.0
    h = t_step / 4.0
    while t < t_stop:
        if t_stop - (t + h) <= h_floor:  # land on t_stop, leave no sliver
            h = t_stop - t
            t_next = t_stop
        else:
            t_next = t + h
        try:
            x_next = _solve_timestep(
                system, x, t_next, h, stimuli, bank, max_iterations
            )
        except ConvergenceError:
            h /= 8.0
            if h < h_floor:
                raise
            continue
        factor = 1.0  # the first two steps have no history to test
        if len(times) >= 3:
            err = _lte_ratio(times, history, t_next, x_next, n_nodes)
            factor = (
                min(2.0, max(0.25, 0.9 * err ** (-1.0 / 3.0))) if err > 0.0 else 2.0
            )
            if err > 1.0:
                h *= factor
                continue
        bank.accept(x_next, h)
        # Refresh device capacitance values quasi-statically, at the
        # accepted timepoint.
        bank.cap[explicit_count:] = system.mosfet_capacitances(x_next)
        x = x_next
        t = t_next
        times.append(t)
        history.append(x.copy())
        h = min(h * factor, t_step)
    return times, history


def _stimulus_values(system: MnaSystem, stimuli, t: float):
    """Waveform values at ``t`` for driven voltage/current sources."""
    source_values = {}
    for source in system.vsources:
        key = source.name.lower()
        if key in stimuli:
            source_values[key] = float(stimuli[key](t))
    isource_values = {}
    for element in system.circuit.elements:
        if isinstance(element, CurrentSource):
            key = element.name.lower()
            if key in stimuli:
                isource_values[key] = (element, float(stimuli[key](t)))
    return source_values, isource_values


def _solve_timestep(
    system: MnaSystem,
    x_prev: np.ndarray,
    t: float,
    h: float,
    stimuli,
    bank: _CompanionBank,
    max_iterations: int,
):
    """Damped NR for one timestep over the companion bank."""
    x = x_prev.copy()
    n_nodes = system.n_nodes
    source_values, isource_values = _stimulus_values(system, stimuli, t)

    for iteration in range(1, max_iterations + 1):
        residual, jacobian = system.assemble_dc(x, 1e-12, 1.0)

        # Override voltage-source branch equations with waveform values.
        for pos, source in enumerate(system.vsources):
            key = source.name.lower()
            if key in source_values:
                row = system.branch_index(pos)
                p = system.index_of(source.positive)
                n = system.index_of(source.negative)
                vp = 0.0 if p < 0 else x[p]
                vn = 0.0 if n < 0 else x[n]
                residual[row] = vp - vn - source_values[key]

        # Adjust current-source injections for waveform values (the
        # assemble already stamped the DC value; add the difference).
        for element, value in isource_values.values():
            extra = value - element.dc
            p = system.index_of(element.positive)
            n = system.index_of(element.negative)
            if p >= 0:
                residual[p] += extra
            if n >= 0:
                residual[n] -= extra

        bank.stamp(residual, jacobian, x, h)

        try:
            delta = np.linalg.solve(jacobian, -residual)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(
                f"transient singular Jacobian at t={t:g}: {exc}", iteration
            ) from exc
        worst = np.max(np.abs(delta[:n_nodes])) if n_nodes else 0.0
        if worst > MAX_STEP:
            delta = delta * (MAX_STEP / worst)
        x = x + delta
        if np.all(
            np.abs(delta[:n_nodes])
            <= VTOL * 100 + NEWTON_RELTOL * np.abs(x[:n_nodes])
        ):
            return x
    raise ConvergenceError(
        f"transient NR failed at t={t:g} ({max_iterations} iterations)",
        max_iterations,
    )
