"""Canonical ordering of a circuit's labeled device-net graph.

A :class:`~repro.circuit.netlist.Circuit` is structurally a bipartite
graph: device vertices on one side, net vertices on the other, edges
labeled with the terminal role (``d``/``g``/``s``/``b`` for MOSFETs,
``+``/``-`` for sources, an unordered ``t`` for two-terminal passives).
This module derives a *canonical ordering* of that graph
(:func:`canonical_form`) without materialising it: a total order over
devices and nets that depends only on circuit structure and element
values -- never on the names chosen for devices or nets, nor on
declaration order.  Two circuits that differ only by a relabeling
produce byte-identical canonical signatures.

The algorithm is classic color refinement (1-dimensional
Weisfeiler-Leman) with individualization:

1. devices start colored by (kind, polarity, values), nets by
   ground/non-ground;
2. colors are refined to a fixpoint by hashing each vertex with the
   multiset of (edge role, neighbour color) pairs;
3. while any color class holds more than one vertex, one member is
   *individualized* (given a fresh color) and refinement re-runs; every
   member of the tied class is tried and the branch with the
   lexicographically smallest signature wins, which keeps the result
   invariant under relabeling even across non-trivial automorphisms
   (e.g. the two halves of a differential pair -- either choice yields
   the same signature).

Circuits here are tens of devices, so the search is cheap; the
refinement-only fingerprint (:func:`wl_fingerprint`) is cheaper still
and is what the topology lint pass embeds in its reports.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .elements import (
    GROUND,
    Capacitor,
    CurrentSource,
    Element,
    Mosfet,
    Resistor,
    VoltageSource,
)
from .netlist import Circuit

__all__ = [
    "element_terminals",
    "CanonicalForm",
    "canonical_form",
    "wl_fingerprint",
]

#: Color-rank maps: vertex name -> integer color.
_Ranks = Dict[str, int]


def element_terminals(element: Element) -> Tuple[Tuple[str, str], ...]:
    """(role, net) pairs for an element's terminals.

    Two-terminal passives use the same role ``"t"`` for both ends (a
    resistor or capacitor is electrically symmetric); every other
    element's roles are distinct.
    """
    if isinstance(element, Mosfet):
        return (
            ("d", element.drain),
            ("g", element.gate),
            ("s", element.source),
            ("b", element.bulk),
        )
    if isinstance(element, (Resistor, Capacitor)):
        return (("t", element.node_a), ("t", element.node_b))
    if isinstance(element, (VoltageSource, CurrentSource)):
        return (("+", element.positive), ("-", element.negative))
    raise TypeError(f"unknown element type {type(element).__name__}")


# Terminal roles as small ints for the refinement inner loop; the table
# is enumerated in sorted role order, so int comparisons agree with the
# role-string ordering.
_ROLE_INT: Dict[str, int] = {
    role: i for i, role in enumerate(("+", "-", "b", "d", "g", "s", "t"))
}


def _kind_key(element: Element) -> Tuple[object, ...]:
    """The relabeling-invariant initial color of a device vertex: its
    kind plus every value parameter (names excluded by construction)."""
    if isinstance(element, Mosfet):
        return (
            "mosfet",
            element.polarity,
            float(element.width),
            float(element.length),
            int(element.multiplier),
        )
    if isinstance(element, Resistor):
        return ("resistor", float(element.resistance))
    if isinstance(element, Capacitor):
        return ("capacitor", float(element.capacitance))
    if isinstance(element, VoltageSource):
        return ("vsource", float(element.dc), float(element.ac))
    if isinstance(element, CurrentSource):
        return ("isource", float(element.dc), float(element.ac))
    raise TypeError(f"unknown element type {type(element).__name__}")


@dataclass(frozen=True)
class CanonicalForm:
    """The canonical ordering of a circuit's device-net graph.

    Attributes:
        devices: element names in canonical order.
        nets: net names in canonical order.
        signature: relabeling-invariant canonical text -- byte-identical
            for any renaming of devices/nets (ground aside) and any
            declaration order.
    """

    devices: Tuple[str, ...]
    nets: Tuple[str, ...]
    signature: str

    def digest(self) -> str:
        """Short hex digest of the signature (stable across processes)."""
        return hashlib.sha256(self.signature.encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------------
# Color refinement
# ----------------------------------------------------------------------
def _compress(signatures: Dict[str, object]) -> _Ranks:
    """Rank-compress color signatures.

    Signatures within one call are homogeneous tuples (kind keys share
    a leading kind string; refinement signatures are
    ``(rank, ((role, rank), ...))``), so plain tuple ordering is total
    -- no ``repr`` detour needed.
    """
    distinct = sorted(set(signatures.values()))  # type: ignore[type-var]
    rank_of = {s: i for i, s in enumerate(distinct)}
    return {name: rank_of[sig] for name, sig in signatures.items()}


def _rank_list(sigs: List[object]) -> List[int]:
    """Rank-compress a positional signature list."""
    rank_of = {s: i for i, s in enumerate(sorted(set(sigs)))}  # type: ignore[type-var]
    return [rank_of[s] for s in sigs]


class _GraphIndex:
    """Terminal incidence index shared by every refinement pass.

    Vertices are integer-indexed internally (device/net position) so
    the refinement inner loop touches lists, not string-keyed dicts;
    the public ``initial``/``refine`` API stays name-keyed for the
    individualization search.
    """

    def __init__(self, circuit: Circuit) -> None:
        self.elements: Tuple[Element, ...] = circuit.elements
        self.nets: Tuple[str, ...] = tuple(circuit.nodes)
        self.terminals: Dict[str, Tuple[Tuple[str, str], ...]] = {
            e.name: element_terminals(e) for e in self.elements
        }
        self._dev_names: Tuple[str, ...] = tuple(e.name for e in self.elements)
        net_pos = {net: i for i, net in enumerate(self.nets)}
        # Device terminals positionally: the role layout is fixed per
        # element kind and the kind is already in the initial color, so
        # device signatures need only the neighbor net index per slot.
        # Net incidence keeps the role, mapped to a small int (the
        # mapping is a fixed global table, hence label-independent).
        self._dev_terms: List[Tuple[int, ...]] = [
            tuple(net_pos[net] for _role, net in self.terminals[name])
            for name in self._dev_names
        ]
        inc: List[List[Tuple[int, int]]] = [[] for _ in self.nets]
        for dev_i, name in enumerate(self._dev_names):
            for role, net in self.terminals[name]:
                inc[net_pos[net]].append((_ROLE_INT[role], dev_i))
        self._net_inc: List[Tuple[Tuple[int, int], ...]] = [
            tuple(pairs) for pairs in inc
        ]
        # A device's terminal tuple already has a fixed, declaration-
        # independent role order (d/g/s/b, +/-) -- only same-role
        # passives ("t"/"t") need their neighbor ranks sorted to stay
        # order-independent.
        self._needs_sort: List[bool] = [
            isinstance(e, (Resistor, Capacitor)) for e in self.elements
        ]

    def initial(self) -> Tuple[_Ranks, _Ranks]:
        dev_sigs: Dict[str, object] = {
            e.name: _kind_key(e) for e in self.elements
        }
        net_sigs: Dict[str, object] = {
            n: ("ground" if n == GROUND else "net",) for n in self.nets
        }
        return _compress(dev_sigs), _compress(net_sigs)

    def refine(
        self, dev_ranks: _Ranks, net_ranks: _Ranks
    ) -> Tuple[_Ranks, _Ranks]:
        """Refine both colorings to a joint fixpoint.

        Each round's signature embeds the previous rank, so the new
        partition always refines the old one -- an unchanged count of
        distinct colors on both sides *is* the fixpoint test.
        """
        dev_r = [dev_ranks[name] for name in self._dev_names]
        net_r = [net_ranks[net] for net in self.nets]
        dev_terms = self._dev_terms
        net_inc = self._net_inc
        needs_sort = self._needs_sort
        dev_classes = len(set(dev_r))
        net_classes = len(set(net_r))
        while True:
            dev_sigs: List[object] = []
            for i, terms in enumerate(dev_terms):
                ranks = tuple(net_r[ni] for ni in terms)
                if needs_sort[i]:
                    ranks = tuple(sorted(ranks))
                dev_sigs.append((dev_r[i], ranks))
            net_sigs: List[object] = [
                (
                    net_r[i],
                    tuple(sorted((role, dev_r[di]) for role, di in pairs_in)),
                )
                for i, pairs_in in enumerate(net_inc)
            ]
            new_dev = _rank_list(dev_sigs)
            new_net = _rank_list(net_sigs)
            new_dev_classes = len(set(new_dev))
            new_net_classes = len(set(new_net))
            if (
                new_dev_classes == dev_classes
                and new_net_classes == net_classes
            ):
                return (
                    dict(zip(self._dev_names, new_dev)),
                    dict(zip(self.nets, new_net)),
                )
            dev_r, net_r = new_dev, new_net
            dev_classes, net_classes = new_dev_classes, new_net_classes


def _multi_groups(ranks: _Ranks) -> List[Tuple[int, List[str]]]:
    """Color classes holding more than one vertex, smallest color first."""
    groups: Dict[int, List[str]] = {}
    for name, rank in ranks.items():
        groups.setdefault(rank, []).append(name)
    return sorted(
        (rank, sorted(members))
        for rank, members in groups.items()
        if len(members) > 1
    )


def _individualized(ranks: _Ranks, chosen: str) -> _Ranks:
    """A copy of ``ranks`` with ``chosen`` split into a fresh color."""
    out = dict(ranks)
    out[chosen] = max(ranks.values()) + 1
    return out


def _discrete_signature(
    index: _GraphIndex, dev_ranks: _Ranks, net_ranks: _Ranks
) -> Tuple[str, Tuple[str, ...], Tuple[str, ...]]:
    """Render the canonical text once every color class is a singleton."""
    dev_order = sorted(index.terminals, key=lambda n: dev_ranks[n])
    net_order = sorted(index.nets, key=lambda n: net_ranks[n])
    net_index = {net: i for i, net in enumerate(net_order)}
    by_name = {e.name: e for e in index.elements}
    payload = []
    for name in dev_order:
        element = by_name[name]
        payload.append(
            [
                list(_kind_key(element)),
                sorted(
                    [role, net_index[net]]
                    for role, net in index.terminals[name]
                ),
            ]
        )
    signature = json.dumps(payload, separators=(",", ":"))
    return signature, tuple(dev_order), tuple(net_order)


def _canonicalize(
    index: _GraphIndex, dev_ranks: _Ranks, net_ranks: _Ranks
) -> Tuple[str, Tuple[str, ...], Tuple[str, ...]]:
    """Individualization-refinement search for the minimal signature."""
    dev_groups = _multi_groups(dev_ranks)
    net_groups = _multi_groups(net_ranks)
    if not dev_groups and not net_groups:
        return _discrete_signature(index, dev_ranks, net_ranks)
    best: Optional[Tuple[str, Tuple[str, ...], Tuple[str, ...]]] = None
    if dev_groups:
        _rank, members = dev_groups[0]
        for name in members:
            trial = index.refine(_individualized(dev_ranks, name), net_ranks)
            candidate = _canonicalize(index, *trial)
            if best is None or candidate[0] < best[0]:
                best = candidate
    else:
        _rank, members = net_groups[0]
        for net in members:
            trial = index.refine(dev_ranks, _individualized(net_ranks, net))
            candidate = _canonicalize(index, *trial)
            if best is None or candidate[0] < best[0]:
                best = candidate
    assert best is not None
    return best


def canonical_form(circuit: Circuit) -> CanonicalForm:
    """Canonicalize a circuit's device-net graph.

    The returned ordering is deterministic and *relabeling-invariant*:
    renaming devices or nets (ground excluded -- ``"0"`` is semantic,
    not a label) or permuting declaration order leaves ``signature``
    byte-identical.  Automorphic vertices (a perfectly symmetric pair)
    are ordered by an arbitrary-but-consistent branch choice; either
    choice yields the same signature.
    """
    if len(circuit) == 0:
        return CanonicalForm(devices=(), nets=(), signature="[]")
    index = _GraphIndex(circuit)
    dev_ranks, net_ranks = index.refine(*index.initial())
    signature, devices, nets = _canonicalize(index, dev_ranks, net_ranks)
    return CanonicalForm(devices=devices, nets=nets, signature=signature)


def wl_fingerprint(circuit: Circuit) -> str:
    """Cheap relabeling-invariant fingerprint (refinement only).

    The sorted multiset of stable colors after color refinement --
    sufficient to distinguish any two circuits the refinement can tell
    apart, at a fraction of :func:`canonical_form`'s cost.  Used by the
    topology pass to stamp reports.
    """
    if len(circuit) == 0:
        return hashlib.sha256(b"[]").hexdigest()[:16]
    index = _GraphIndex(circuit)
    dev_ranks, net_ranks = index.refine(*index.initial())
    dev_sigs: Dict[str, object] = {
        e.name: (_kind_key(e), dev_ranks[e.name]) for e in index.elements
    }
    colors = sorted(repr(s) for s in dev_sigs.values())
    colors.extend(
        f"net:{rank}" for rank in sorted(net_ranks[n] for n in index.nets)
    )
    blob = json.dumps(colors, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]
