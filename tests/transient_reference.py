"""Fixed-step trapezoidal integrator: the transient oracle.

Every step has the same length, so on a fine enough grid it converges
to the exact trajectory without any error control -- the obvious
specification the library's LTE-controlled integrator is checked
against.  It is not part of the library: the simulator has a single
integration loop, and tests swap this one in.

:func:`integrate_fixed` has the signature of
``repro.simulator.transient._integrate``, with ``t_step`` the fixed
step.  :func:`install` routes :func:`~repro.simulator.transient_analysis`
through it; in a test, pass ``monkeypatch.setattr``.  The Newton solve of
each step and the companion bank are the library's own.
"""

from typing import Callable, Dict

import numpy as np

from repro.circuit.netlist import Circuit
from repro.simulator import transient
from repro.simulator.mna import MnaSystem

__all__ = ["integrate_fixed", "install"]


def integrate_fixed(
    system: MnaSystem,
    initial: Circuit,
    x: np.ndarray,
    t_stop: float,
    t_step: float,
    stimuli: Dict[str, Callable[[float], float]],
    max_iterations: int,
):
    """Fixed-step integration: ``(times, history)`` on the grid
    ``0, t_step, 2*t_step, ...`` with a last step that ends at
    ``t_stop``."""
    bank, explicit_count = transient._companion_bank(system, initial, x)

    times = [0.0]
    history = [x.copy()]

    t = 0.0
    while t < t_stop - 1e-15:
        h = min(t_step, t_stop - t)
        t_next = t + h
        x_next = transient._solve_timestep(
            system, x, t_next, h, stimuli, bank, max_iterations
        )
        bank.accept(x_next, h)
        bank.cap[explicit_count:] = system.mosfet_capacitances(x_next)
        x = x_next
        t = t_next
        times.append(t)
        history.append(x.copy())
    return times, history


def install(set_attr: Callable[[object, str, object], None]) -> None:
    """Make :func:`~repro.simulator.transient_analysis` integrate with
    :func:`integrate_fixed` (``set_attr`` is ``monkeypatch.setattr``)."""
    set_attr(transient, "_integrate", integrate_fixed)
