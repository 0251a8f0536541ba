"""DC transfer sweeps: re-solve the operating point over a source's values.

A general-purpose analysis (inverter and buffer transfer curves).  The
op-amp output-swing measurement in :mod:`repro.opamp.verify` runs its
own loop instead, because it skips points that fail to converge.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Sequence

import numpy as np

from ..circuit.elements import VoltageSource
from ..circuit.netlist import Circuit
from ..errors import ConvergenceError, SimulationError
from ..process.parameters import ProcessParameters
from .dc import operating_point
from .mna import OperatingPointResult

__all__ = ["SweepResult", "dc_sweep"]


@dataclass
class SweepResult:
    """Result of a DC source sweep.

    Attributes:
        values: swept source values (volts).
        points: one converged operating point per value (a failed
            point aborts the sweep, see :func:`dc_sweep`).
    """

    source: str
    values: np.ndarray
    points: List[OperatingPointResult]

    def voltages(self, node: str) -> np.ndarray:
        return np.array([p.voltage(node) for p in self.points])

    def __len__(self) -> int:
        return len(self.points)


def dc_sweep(
    circuit: Circuit,
    process: ProcessParameters,
    source_name: str,
    values: Sequence[float],
) -> SweepResult:
    """Sweep a voltage source's DC value, re-solving the OP at each point.

    Each point warm-starts from the previous solution for speed and
    convergence robustness (continuation).

    Raises:
        SimulationError: if ``source_name`` is not a voltage source.
        ConvergenceError: at the first point that fails to converge,
            naming the source value; the solver's error is chained as
            ``__cause__``.
    """
    element = circuit[source_name]
    if not isinstance(element, VoltageSource):
        raise SimulationError(f"{source_name!r} is not a voltage source")

    points: List[OperatingPointResult] = []
    guess: Dict[str, float] = {}
    swept = np.asarray(list(values), dtype=float)
    for value in swept:
        modified = Circuit(circuit.name)
        for existing in circuit.elements:
            if existing.name.lower() == element.name.lower():
                modified.add(replace(existing, dc=float(value)))
            else:
                modified.add(existing)
        try:
            op = operating_point(modified, process, initial_guess=guess)
        except ConvergenceError as exc:
            raise ConvergenceError(
                f"sweep of {source_name} failed at {value:g} V: {exc}",
                exc.iterations,
            ) from exc
        points.append(op)
        guess = dict(op.voltages)
    return SweepResult(source=source_name, values=swept, points=points)
