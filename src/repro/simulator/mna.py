"""Modified nodal analysis: unknown numbering, model binding, stamping.

The MNA unknown vector is ``[node voltages..., vsource branch currents...]``
with ground eliminated.  :class:`MnaSystem` binds a :class:`~repro.circuit.
netlist.Circuit` to a :class:`~repro.process.parameters.ProcessParameters`
(creating one :class:`~repro.devices.mosfet.MosfetModel` per transistor)
and provides the residual/Jacobian assembly used by the DC solver and the
complex-matrix assembly used by the AC and noise solvers.  Every assembly
goes through the system's compiled :class:`~repro.simulator.assembly.
StampPlan`; the scalar element-walk stampers that specify it live in
``tests/mna_reference.py`` as the differential-testing oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..circuit.elements import GROUND, VoltageSource
from ..circuit.netlist import Circuit
from ..devices.mosfet import MosfetModel, MosfetOperatingPoint
from ..errors import SimulationError
from ..process.parameters import ProcessParameters
from .assembly import StampPlan

__all__ = ["MnaSystem", "OperatingPointResult"]


@dataclass
class OperatingPointResult:
    """A converged DC operating point.

    Attributes:
        voltages: node name -> DC voltage (ground implicit at 0).
        source_currents: voltage-source name -> branch current (flowing
            from the positive terminal through the source).
        device_ops: MOSFET name -> :class:`MosfetOperatingPoint`.
        iterations: NR iterations used (total across homotopy steps).
    """

    voltages: Dict[str, float]
    source_currents: Dict[str, float]
    device_ops: Dict[str, MosfetOperatingPoint]
    iterations: int = 0

    def voltage(self, node: str) -> float:
        if node == GROUND:
            return 0.0
        try:
            return self.voltages[node]
        except KeyError:
            raise SimulationError(f"no node named {node!r} in result") from None

    def device(self, name: str) -> MosfetOperatingPoint:
        try:
            return self.device_ops[name.lower()]
        except KeyError:
            raise SimulationError(f"no MOSFET named {name!r} in result") from None

    def supply_current(self, source_name: str) -> float:
        try:
            return self.source_currents[source_name.lower()]
        except KeyError:
            raise SimulationError(f"no source named {source_name!r}") from None

    def total_power(self) -> float:
        """Total power delivered by all voltage sources, watts (positive =
        dissipated in the circuit)."""
        power = 0.0
        for name, current in self.source_currents.items():
            # P = V * I with I flowing out of the + terminal through the
            # circuit; our branch current convention makes delivered power
            # -V*I_branch.
            source = self._sources_by_name[name]
            power += -source.dc * current
        return power

    # populated by MnaSystem when constructing the result
    _sources_by_name: Dict[str, VoltageSource] = field(default_factory=dict, repr=False)


class MnaSystem:
    """Numbering, model binding and matrix assembly for one circuit.

    Args:
        circuit / process: the netlist and its process.
        vth_shifts: optional per-device threshold perturbations, volts
            (instance name -> delta applied to ``vto``) -- the hook the
            Monte Carlo mismatch analysis uses to model random Vth
            variation without editing the netlist.
    """

    def __init__(
        self,
        circuit: Circuit,
        process: ProcessParameters,
        vth_shifts: Optional[Dict[str, float]] = None,
    ):
        from dataclasses import replace as dc_replace

        self.circuit = circuit
        self.process = process
        self.nodes: List[str] = circuit.internal_nodes()
        self.node_index: Dict[str, int] = {n: i for i, n in enumerate(self.nodes)}
        self.vsources: List[VoltageSource] = [
            e for e in circuit.elements if isinstance(e, VoltageSource)
        ]
        self.n_nodes = len(self.nodes)
        self.size = self.n_nodes + len(self.vsources)
        shifts = {k.lower(): v for k, v in (vth_shifts or {}).items()}
        self.models: Dict[str, MosfetModel] = {}
        for mosfet in circuit.mosfets:
            params = process.device(mosfet.polarity)
            key = mosfet.name.lower()
            if key in shifts:
                params = dc_replace(params, vto=params.vto + shifts[key])
            self.models[key] = MosfetModel(
                params,
                mosfet.effective_width,
                mosfet.length,
                process.min_drain_width,
                process.cox,
            )
        self._stamp_plan: Optional[StampPlan] = None

    # ------------------------------------------------------------------
    # Index helpers
    # ------------------------------------------------------------------
    def index_of(self, node: str) -> int:
        """MNA index of a node, or -1 for ground."""
        if node == GROUND:
            return -1
        return self.node_index[node]

    def branch_index(self, source_position: int) -> int:
        return self.n_nodes + source_position

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    @property
    def stamp_plan(self) -> StampPlan:
        """The compiled per-system stamp pattern (built lazily, shared
        by every assembly this system performs -- including every
        Newton iteration and retry-ladder rung)."""
        if self._stamp_plan is None:
            self._stamp_plan = StampPlan(self)
        return self._stamp_plan

    def assemble_dc(
        self,
        x: np.ndarray,
        gmin: float = 1e-12,
        source_scale: float = 1.0,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Residual F(x) and dense Jacobian J(x) of the DC system.

        The residual convention is KCL: F[node] = sum of currents *leaving*
        the node through elements minus injected source currents; voltage
        source rows hold ``V(p) - V(n) - Vdc``.

        Args:
            x: current unknown vector.
            gmin: conductance from every node to ground (homotopy aid).
            source_scale: multiplies all independent sources (source
                stepping).
        """
        return self.stamp_plan.assemble_dc(x, gmin, source_scale)

    def assemble_dc_residual(
        self,
        x: np.ndarray,
        gmin: float = 1e-12,
        source_scale: float = 1.0,
    ) -> np.ndarray:
        """Residual only (no Jacobian work) -- the post-update
        convergence check of the Newton loop."""
        return self.stamp_plan.assemble_dc_residual(x, gmin, source_scale)

    def device_ops(self, x: np.ndarray) -> Dict[str, MosfetOperatingPoint]:
        """MOSFET name -> :class:`MosfetOperatingPoint` at ``x``; built
        once per converged solve, never inside the Newton loop."""
        return self.stamp_plan.device_ops(x)

    def mosfet_capacitances(self, x: np.ndarray) -> List[float]:
        """``cgs, cgd, cgb, cbd, cbs`` of every MOSFET at ``x``, in
        circuit order, without building operating-point records."""
        return self.stamp_plan.mosfet_capacitances(x)

    def assemble_ac_sweep(
        self,
        omegas: np.ndarray,
        device_ops: Dict[str, MosfetOperatingPoint],
        source_overrides: Optional[Dict[str, complex]] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Complex MNA matrices at every angular frequency, and the
        excitation vector.

        Args:
            omegas: angular frequencies, rad/s.
            device_ops: converged DC operating points (for gm/gds/caps).
            source_overrides: optional map source-name -> complex AC
                amplitude, replacing the elements' own ``ac`` values (used
                for CMRR/PSRR-style analyses without netlist edits).

        Returns:
            (Y, rhs): a ``(len(omegas), size, size)`` matrix stack and a
            ``(size,)`` vector, with the DC system's unknown ordering.
        """
        overrides = {k.lower(): v for k, v in (source_overrides or {}).items()}
        return self.stamp_plan.assemble_ac(
            np.asarray(omegas, dtype=float), device_ops, overrides
        )

    def assemble_ac(
        self,
        omega: float,
        device_ops: Dict[str, MosfetOperatingPoint],
        source_overrides: Optional[Dict[str, complex]] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Complex MNA matrix and excitation vector at one ``omega``
        (see :meth:`assemble_ac_sweep`)."""
        stack, rhs = self.assemble_ac_sweep(
            np.array([omega]), device_ops, source_overrides
        )
        return stack[0], rhs

    # ------------------------------------------------------------------
    # Result packaging
    # ------------------------------------------------------------------
    def package_result(self, x: np.ndarray, iterations: int) -> OperatingPointResult:
        """The :class:`OperatingPointResult` of a solve converged at ``x``."""
        voltages = {node: float(x[i]) for node, i in self.node_index.items()}
        currents = {
            source.name.lower(): float(x[self.branch_index(pos)])
            for pos, source in enumerate(self.vsources)
        }
        result = OperatingPointResult(
            voltages=voltages,
            source_currents=currents,
            device_ops=self.device_ops(x),
            iterations=iterations,
        )
        result._sources_by_name = {
            source.name.lower(): source for source in self.vsources
        }
        return result
