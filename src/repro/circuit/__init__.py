"""Circuit (netlist) representation.

A :class:`~repro.circuit.netlist.Circuit` is a flat graph of primitive
elements over named nodes.  Hierarchy from the synthesis side is recorded
through dotted instance-name prefixes written by the
:class:`~repro.circuit.builder.CircuitBuilder` (e.g. ``stage1.mirror.m1``),
matching the way OASYS composes a flat transistor schematic from
hierarchical templates.
"""

from .elements import (
    Capacitor,
    CurrentSource,
    Element,
    Mosfet,
    Resistor,
    VoltageSource,
    GROUND,
)
from .netlist import Circuit
from .builder import CircuitBuilder
from .netlist_io import to_spice, from_spice
from .schematic import schematic_report
from .graph import (
    CanonicalForm,
    canonical_form,
    element_terminals,
    wl_fingerprint,
)

__all__ = [
    "GROUND",
    "Element",
    "Mosfet",
    "Resistor",
    "Capacitor",
    "VoltageSource",
    "CurrentSource",
    "Circuit",
    "CircuitBuilder",
    "to_spice",
    "from_spice",
    "schematic_report",
    "CanonicalForm",
    "canonical_form",
    "element_terminals",
    "wl_fingerprint",
]
