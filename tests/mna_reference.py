"""Scalar reference MNA stampers: the differential-testing oracle.

These walk ``circuit.elements`` one device at a time and accumulate into
dense matrices through Python closures -- obvious, auditable, and the
specification the vectorized :class:`~repro.simulator.assembly.StampPlan`
must reproduce bit for bit.  They are not part of the library: the
simulator has a single assembly path, and tests swap these in to check
it.

* :func:`assemble_dc_reference` / :func:`assemble_ac_reference` compare
  entrywise against the plan (``tests/test_numeric_oracle.py``).
* :func:`install` replaces the assembly methods of
  :class:`~repro.simulator.mna.MnaSystem` so whole solves, records and
  cache payloads can be produced under the reference.  In a test, pass
  ``monkeypatch.setattr`` (or use the ``reference_mna`` fixture from
  ``tests/conftest.py``); a child interpreter calls ``install()`` to
  patch for its whole life.
"""

from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.circuit.elements import (
    Capacitor,
    CurrentSource,
    Mosfet,
    Resistor,
    VoltageSource,
)
from repro.devices.mosfet import MosfetOperatingPoint
from repro.errors import SimulationError
from repro.simulator.mna import MnaSystem

__all__ = [
    "assemble_dc_reference",
    "assemble_ac_reference",
    "install",
]


def assemble_dc_reference(
    system: MnaSystem,
    x: np.ndarray,
    gmin: float = 1e-12,
    source_scale: float = 1.0,
) -> Tuple[np.ndarray, np.ndarray, Dict[str, MosfetOperatingPoint]]:
    """Scalar DC stamper: ``(F, J, device_ops)`` at ``x``.

    The residual convention is KCL: F[node] = sum of currents *leaving*
    the node through elements minus injected source currents; voltage
    source rows hold ``V(p) - V(n) - Vdc``.
    """
    size = system.size
    residual = np.zeros(size)
    jacobian = np.zeros((size, size))
    device_ops: Dict[str, MosfetOperatingPoint] = {}

    def volt(idx: int) -> float:
        return 0.0 if idx < 0 else float(x[idx])

    def add_j(row: int, col: int, value: float) -> None:
        if row >= 0 and col >= 0:
            jacobian[row, col] += value

    def add_f(row: int, value: float) -> None:
        if row >= 0:
            residual[row] += value

    # gmin to ground on every node keeps the matrix non-singular.
    for i in range(system.n_nodes):
        residual[i] += gmin * x[i]
        jacobian[i, i] += gmin

    for element in system.circuit.elements:
        if isinstance(element, Resistor):
            a = system.index_of(element.node_a)
            b = system.index_of(element.node_b)
            g = 1.0 / element.resistance
            v = volt(a) - volt(b)
            add_f(a, g * v)
            add_f(b, -g * v)
            add_j(a, a, g)
            add_j(a, b, -g)
            add_j(b, a, -g)
            add_j(b, b, g)
        elif isinstance(element, Capacitor):
            continue  # open at DC
        elif isinstance(element, CurrentSource):
            p = system.index_of(element.positive)
            n = system.index_of(element.negative)
            i_dc = element.dc * source_scale
            # Current flows from positive node through the source to
            # negative node: it *leaves* the positive node.
            add_f(p, i_dc)
            add_f(n, -i_dc)
        elif isinstance(element, Mosfet):
            _stamp_mosfet_dc(system, element, device_ops, volt, add_f, add_j)
        elif isinstance(element, VoltageSource):
            pass  # handled below with branch rows
        else:
            raise SimulationError(f"unsupported element {type(element).__name__}")

    for position, source in enumerate(system.vsources):
        row = system.branch_index(position)
        p = system.index_of(source.positive)
        n = system.index_of(source.negative)
        i_branch = float(x[row])
        # KCL: branch current leaves the positive node.
        add_f(p, i_branch)
        add_f(n, -i_branch)
        add_j(p, row, 1.0)
        add_j(n, row, -1.0)
        # Branch equation.
        residual[row] = volt(p) - volt(n) - source.dc * source_scale
        add_j(row, p, 1.0)
        add_j(row, n, -1.0)

    return residual, jacobian, device_ops


def _stamp_mosfet_dc(system, element, device_ops, volt, add_f, add_j) -> None:
    model = system.models[element.name.lower()]
    d = system.index_of(element.drain)
    g = system.index_of(element.gate)
    s = system.index_of(element.source)
    b = system.index_of(element.bulk)
    vgs = volt(g) - volt(s)
    vds = volt(d) - volt(s)
    vbs = volt(b) - volt(s)
    op = model.evaluate(vgs, vds, vbs)
    device_ops[element.name.lower()] = op

    # Drain current op.ids enters the drain and exits the source.
    add_f(d, op.ids)
    add_f(s, -op.ids)
    # Partials: dId/dVg = gm, dId/dVd = gds, dId/dVb = gmbs,
    # dId/dVs = -(gm + gds + gmbs).
    gm, gds, gmbs = op.gm, op.gds, op.gmbs
    g_s = -(gm + gds + gmbs)
    add_j(d, g, gm)
    add_j(d, d, gds)
    add_j(d, b, gmbs)
    add_j(d, s, g_s)
    add_j(s, g, -gm)
    add_j(s, d, -gds)
    add_j(s, b, -gmbs)
    add_j(s, s, -g_s)


def assemble_dc_residual_reference(
    system: MnaSystem,
    x: np.ndarray,
    gmin: float = 1e-12,
    source_scale: float = 1.0,
) -> Tuple[np.ndarray, Dict[str, MosfetOperatingPoint]]:
    residual, _, device_ops = assemble_dc_reference(system, x, gmin, source_scale)
    return residual, device_ops


def assemble_ac_reference(
    system: MnaSystem,
    omega: float,
    device_ops: Dict[str, MosfetOperatingPoint],
    source_overrides: Optional[Dict[str, complex]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Scalar AC stamper: complex ``(Y, rhs)`` at one ``omega``."""
    size = system.size
    matrix = np.zeros((size, size), dtype=complex)
    rhs = np.zeros(size, dtype=complex)
    overrides = {k.lower(): v for k, v in (source_overrides or {}).items()}

    def add(row: int, col: int, value: complex) -> None:
        if row >= 0 and col >= 0:
            matrix[row, col] += value

    def add_rhs(row: int, value: complex) -> None:
        if row >= 0:
            rhs[row] += value

    def stamp_admittance(a: int, b: int, y: complex) -> None:
        add(a, a, y)
        add(b, b, y)
        add(a, b, -y)
        add(b, a, -y)

    for element in system.circuit.elements:
        if isinstance(element, Resistor):
            stamp_admittance(
                system.index_of(element.node_a),
                system.index_of(element.node_b),
                1.0 / element.resistance,
            )
        elif isinstance(element, Capacitor):
            stamp_admittance(
                system.index_of(element.node_a),
                system.index_of(element.node_b),
                1j * omega * element.capacitance,
            )
        elif isinstance(element, CurrentSource):
            amplitude = overrides.get(element.name.lower(), element.ac)
            p = system.index_of(element.positive)
            n = system.index_of(element.negative)
            add_rhs(p, -amplitude)
            add_rhs(n, amplitude)
        elif isinstance(element, Mosfet):
            _stamp_mosfet_ac(system, element, device_ops, omega, add, stamp_admittance)
        elif isinstance(element, VoltageSource):
            pass
        else:
            raise SimulationError(f"unsupported element {type(element).__name__}")

    for position, source in enumerate(system.vsources):
        row = system.branch_index(position)
        p = system.index_of(source.positive)
        n = system.index_of(source.negative)
        add(p, row, 1.0)
        add(n, row, -1.0)
        add(row, p, 1.0)
        add(row, n, -1.0)
        rhs[row] = overrides.get(source.name.lower(), source.ac)

    return matrix, rhs


def _stamp_mosfet_ac(system, element, device_ops, omega, add, stamp_admittance):
    name = element.name.lower()
    try:
        op = device_ops[name]
    except KeyError:
        raise SimulationError(
            f"device {element.name} missing from operating point"
        ) from None
    d = system.index_of(element.drain)
    g = system.index_of(element.gate)
    s = system.index_of(element.source)
    b = system.index_of(element.bulk)
    gm, gds, gmbs = op.gm, op.gds, op.gmbs
    # VCCS: i_d = gm*vgs + gds*vds + gmbs*vbs; exits the source.
    g_s = -(gm + gds + gmbs)
    add(d, g, gm)
    add(d, d, gds)
    add(d, b, gmbs)
    add(d, s, g_s)
    add(s, g, -gm)
    add(s, d, -gds)
    add(s, b, -gmbs)
    add(s, s, -g_s)
    # Capacitances at the operating point.
    stamp_admittance(g, s, 1j * omega * op.cgs)
    stamp_admittance(g, d, 1j * omega * op.cgd)
    stamp_admittance(g, b, 1j * omega * op.cgb)
    stamp_admittance(b, d, 1j * omega * op.cbd)
    stamp_admittance(b, s, 1j * omega * op.cbs)


def assemble_ac_sweep_reference(
    system: MnaSystem,
    omegas: np.ndarray,
    device_ops: Dict[str, MosfetOperatingPoint],
    source_overrides: Optional[Dict[str, complex]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """The reference AC stamper applied per frequency, stacked."""
    stack = np.zeros((len(omegas), system.size, system.size), dtype=complex)
    rhs = np.zeros(system.size, dtype=complex)
    for k, omega in enumerate(omegas):
        stack[k], rhs = assemble_ac_reference(
            system, float(omega), device_ops, source_overrides
        )
    return stack, rhs


#: MnaSystem method name -> reference replacement.
REFERENCE_METHODS = {
    "assemble_dc": assemble_dc_reference,
    "assemble_dc_residual": assemble_dc_residual_reference,
    "assemble_ac_sweep": assemble_ac_sweep_reference,
}


def install(set_attr: Callable[[object, str, object], None] = setattr) -> None:
    """Route every :class:`MnaSystem` assembly through the reference.

    ``set_attr`` is ``monkeypatch.setattr`` in a test (undone at
    teardown) and the builtin ``setattr`` in a child interpreter.
    ``MnaSystem.assemble_ac`` delegates to ``assemble_ac_sweep``, so it
    follows.
    """
    for name, function in REFERENCE_METHODS.items():
        set_attr(MnaSystem, name, function)
