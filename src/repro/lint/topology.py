"""Pass 4: structural topology analysis and the TOPO6xx checkers.

Per-device ERC cannot see that two transistors *are* a differential
pair; this pass can, and checks what only structure reveals.  It runs
the motif library (:mod:`repro.lint.motifs`) over a circuit, derives
the layout constraint set (:mod:`repro.lint.constraints`), stamps the
result with a relabeling-invariant fingerprint
(:func:`repro.circuit.graph.wl_fingerprint`), and then runs a third
checker family over the recognized structure.

Code map (namespace ``TOPO6xx``):

======= ======== =========================================================
code    severity finding
======= ======== =========================================================
TOPO601 warning  device cluster matched no motif (unrecognized structure)
TOPO602 error    differential-pair halves with mismatched W / L / m
TOPO603 warning  mirror ratio inconsistent with the implied current ratio
                 (pair-spanning load not 1:1, unbalanced mirror chain,
                 cascode leg tracking its bottom at a different ratio)
TOPO604 warning  differential tail net shared with unmatched branches
                 (extra source / gate terminals on the tail)
======= ======== =========================================================

The synthesized schematics double as a structural regression oracle:
every style the designer emits must be *fully* recognized
(``coverage == 1.0``), which ``repro lint --self-check --topology`` and
the test suite both enforce.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..circuit.graph import element_terminals, wl_fingerprint
from ..circuit.netlist import Circuit, component
from ..obs import count, span
from ..process.parameters import ProcessParameters
from .constraints import ConstraintSet, derive_constraints
from .diagnostics import Diagnostic, LintReport, Severity
from .motifs import (
    BlockInstance,
    TopologyView,
    _w_over_l,
    recognize_blocks,
)
from .registry import CheckerRegistry

__all__ = [
    "TOPO_REGISTRY",
    "TopologyContext",
    "TopologyAnalysis",
    "analyze_topology",
    "lint_topology",
]

#: Relative tolerance for ratio-consistency findings (1 %).
_RATIO_TOL = 0.01

#: Relative tolerance for exact geometry matching.
_GEOM_TOL = 1e-6

#: Structural topology checks over a recognized circuit.
TOPO_REGISTRY = CheckerRegistry("topology")

#: Mirror block kinds, in recognition-priority order.
_MIRROR_KINDS = ("simple_mirror", "cascode_mirror", "wide_swing_mirror")


@dataclass(frozen=True)
class TopologyAnalysis:
    """The full output of one topology pass.

    Attributes:
        circuit_name: name of the analyzed circuit.
        blocks: recognized sub-blocks, in recognition order.
        unrecognized: MOSFET names no motif claimed, sorted.
        device_count: total MOSFETs in the circuit.
        constraints: the derived layout constraint set.
        view: the working view (claim map included) for the checkers.
    """

    circuit_name: str
    blocks: Tuple[BlockInstance, ...]
    unrecognized: Tuple[str, ...]
    device_count: int
    constraints: ConstraintSet
    view: TopologyView
    _circuit: Circuit = field(repr=False)
    _fingerprint: Optional[str] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def fingerprint(self) -> str:
        """Relabeling-invariant structural fingerprint.

        Computed on first access and cached: the WL refinement behind
        it is the costliest part of the pass, and only report rendering
        (``render_text`` / ``to_json``) consumes it -- the TOPO6xx
        checkers run on the recognized structure alone.  Access it
        before mutating the analyzed circuit.
        """
        if self._fingerprint is None:
            object.__setattr__(
                self, "_fingerprint", wl_fingerprint(self._circuit)
            )
        assert self._fingerprint is not None
        return self._fingerprint

    @property
    def recognized_count(self) -> int:
        return self.device_count - len(self.unrecognized)

    @property
    def coverage(self) -> float:
        """Fraction of MOSFETs claimed by some block (1.0 when empty)."""
        if self.device_count == 0:
            return 1.0
        return self.recognized_count / self.device_count

    def blocks_of(self, kind: str) -> Tuple[BlockInstance, ...]:
        return tuple(b for b in self.blocks if b.kind == kind)

    def to_dict(self) -> Dict[str, object]:
        return {
            "circuit": self.circuit_name,
            "fingerprint": self.fingerprint,
            "device_count": self.device_count,
            "recognized_count": self.recognized_count,
            "coverage": round(self.coverage, 6),
            "blocks": [b.to_dict() for b in self.blocks],
            "unrecognized": list(self.unrecognized),
            "constraints": self.constraints.to_dict(),
        }

    def to_json(self) -> str:
        """Canonical bytes: sorted keys, two-space indent, newline."""
        import json

        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def render_text(self) -> str:
        lines = [
            f"topology of {self.circuit_name}: "
            f"{self.recognized_count}/{self.device_count} devices "
            f"recognized ({self.coverage:.0%}), "
            f"fingerprint {self.fingerprint}"
        ]
        for block in self.blocks:
            if block.kind == "passive":
                continue
            nets = ", ".join(f"{k}={v}" for k, v in block.nets)
            lines.append(f"  {block.name}  [{nets}]")
        passives = [b for b in self.blocks if b.kind == "passive"]
        if passives:
            parts = ", ".join(
                f"{b.devices[0]}:{b.attr('function')}" for b in passives
            )
            lines.append(f"  passives: {parts}")
        if self.unrecognized:
            lines.append(
                f"  unrecognized: {', '.join(self.unrecognized)}"
            )
        lines.append(
            f"  constraints: {len(self.constraints.symmetric_pairs)} "
            f"symmetric pairs, "
            f"{len(self.constraints.matched_groups)} matched groups, "
            f"{len(self.constraints.common_centroid)} common-centroid "
            f"candidates"
        )
        return "\n".join(lines)


def analyze_topology(circuit: Circuit) -> TopologyAnalysis:
    """Recognize sub-blocks and derive constraints for one circuit."""
    with span("lint.topology", category="lint", circuit=circuit.name):
        view = recognize_blocks(circuit)
        constraints = derive_constraints(view)
        unrecognized = view.unrecognized()
        count("lint.topology.blocks", len(view.blocks))
        count("lint.topology.unrecognized", len(unrecognized))
        return TopologyAnalysis(
            circuit_name=circuit.name,
            blocks=tuple(view.blocks),
            unrecognized=unrecognized,
            device_count=len(view.mosfets),
            constraints=constraints,
            view=view,
            _circuit=circuit,
        )


@dataclass(frozen=True)
class TopologyContext:
    """Context handed to every TOPO checker.

    Attributes:
        analysis: the completed topology analysis (blocks, claim map).
        process: optional process parameters (reserved for future
            geometry-aware structure checks).
    """

    analysis: TopologyAnalysis
    process: Optional[ProcessParameters] = None


def _loc(circuit: Circuit, detail: str) -> str:
    return f"{circuit.name}:{detail}"


# ----------------------------------------------------------------------
# TOPO6xx checkers
# ----------------------------------------------------------------------
@TOPO_REGISTRY.register("unrecognized-cluster", ["TOPO601"])
def check_unrecognized_clusters(
    circuit: Circuit, context: TopologyContext
) -> Iterator[Diagnostic]:
    """Connected clusters of devices that matched no motif."""
    view = context.analysis.view
    leftover = view.unclaimed()
    graph: Dict[str, Set[str]] = {mosfet.name: set() for mosfet in leftover}
    net_members: Dict[str, List[str]] = {}
    for mosfet in leftover:
        for net in set(mosfet.nodes):
            if net in view.rails:
                continue
            net_members.setdefault(net, []).append(mosfet.name)
    for names in net_members.values():
        for other in names[1:]:
            graph[names[0]].add(other)
            graph[other].add(names[0])
    # Walking names in sorted order starts each cluster at its first
    # member, so the clusters come out ordered by first member.
    seen: Set[str] = set()
    for name in sorted(graph):
        if name in seen:
            continue
        members = sorted(component(graph, name))
        seen.update(members)
        yield Diagnostic(
            "TOPO601",
            Severity.WARNING,
            f"unrecognized device cluster: {', '.join(members)} "
            f"matched no topology motif",
            location=_loc(circuit, members[0]),
            suggestion="check the wiring against a known sub-block, or "
            "register a custom motif (docs/EXTENDING.md)",
        )


@TOPO_REGISTRY.register("asymmetric-diff-pair", ["TOPO602"])
def check_diff_pair_symmetry(
    circuit: Circuit, context: TopologyContext
) -> Iterator[Diagnostic]:
    """Differential-pair halves must be geometrically identical."""
    for pair in context.analysis.blocks_of("diff_pair"):
        a = circuit.mosfet(pair.role("a"))
        b = circuit.mosfet(pair.role("b"))
        mismatches = []
        if abs(a.width - b.width) > _GEOM_TOL * a.width:
            mismatches.append(
                f"W {a.width * 1e6:.2f} um vs {b.width * 1e6:.2f} um"
            )
        if abs(a.length - b.length) > _GEOM_TOL * a.length:
            mismatches.append(
                f"L {a.length * 1e6:.2f} um vs {b.length * 1e6:.2f} um"
            )
        if a.multiplier != b.multiplier:
            mismatches.append(f"m {a.multiplier} vs {b.multiplier}")
        if mismatches:
            yield Diagnostic(
                "TOPO602",
                Severity.ERROR,
                f"asymmetric differential pair {a.name}/{b.name}: "
                f"{'; '.join(mismatches)} -- the halves see different "
                f"gm and capacitance, so offset and CMRR suffer",
                location=_loc(circuit, a.name),
                suggestion="size both halves identically (same W, L and "
                "multiplier)",
            )


def _mirror_blocks(analysis: TopologyAnalysis) -> List[BlockInstance]:
    blocks: List[BlockInstance] = []
    for kind in _MIRROR_KINDS:
        blocks.extend(analysis.blocks_of(kind))
    return sorted(blocks, key=lambda b: b.name)


def _mirror_outputs(
    block: BlockInstance,
) -> List[Tuple[int, str, float]]:
    """(leg index, output net, ratio) triples for a mirror block."""
    outputs = []
    for role, net in block.nets:
        if role.startswith("output["):
            index = int(role[len("output[") : -1])
            ratio = float(block.attr(f"ratio[{index}]") or "1")
            outputs.append((index, net, ratio))
    return sorted(outputs)


def _mirror_on_input(
    analysis: TopologyAnalysis, net: Optional[str]
) -> Optional[BlockInstance]:
    if net is None:
        return None
    for block in _mirror_blocks(analysis):
        if block.net("input") == net:
            return block
    return None


def _net_has_foreign_terminal(
    circuit: Circuit, net: str, devices: Iterable[str]
) -> bool:
    """True if ``net`` carries a terminal of any device outside ``devices``.

    Used to detect current injection into a cascode's mid node (the
    folded-cascode case): once a foreign branch lands there, the bottom
    and cascode devices carry different currents by design.
    """
    owned = set(devices)
    for element in circuit.elements:
        if element.name in owned:
            continue
        for _role, terminal in element_terminals(element):
            if terminal == net:
                return True
    return False


@TOPO_REGISTRY.register("mirror-current-ratio", ["TOPO603"])
def check_mirror_ratios(
    circuit: Circuit, context: TopologyContext
) -> Iterator[Diagnostic]:
    """Mirror W/L ratios must match the current ratio the structure
    implies: pair-spanning loads are 1:1, mirror chains around a pair
    balance, cascode legs track their bottoms."""
    analysis = context.analysis
    mirrors = _mirror_blocks(analysis)
    for pair in analysis.blocks_of("diff_pair"):
        drain_a, drain_b = pair.net("out_a"), pair.net("out_b")
        # (a) one mirror spanning both drains carries equal branch
        # currents: its ratio must be 1.
        for mirror in mirrors:
            input_net = mirror.net("input")
            if input_net not in (drain_a, drain_b):
                continue
            other = drain_b if input_net == drain_a else drain_a
            for index, net, ratio in _mirror_outputs(mirror):
                if net == other and abs(ratio - 1.0) > _RATIO_TOL:
                    yield Diagnostic(
                        "TOPO603",
                        Severity.WARNING,
                        f"{mirror.name}: spans both drains of "
                        f"{pair.name} but leg {index} mirrors at "
                        f"{ratio:.4g}:1 -- the pair halves carry equal "
                        f"current, so the load must be 1:1",
                        location=_loc(circuit, mirror.role("ref")),
                        suggestion="equalize the mirror device widths "
                        "(the branch currents are equal by symmetry)",
                    )
        # (b) left/right mirror chains re-converging must balance:
        # ratio(left) == ratio(right) * ratio(turnaround).
        left = _mirror_on_input(analysis, drain_a)
        right = _mirror_on_input(analysis, drain_b)
        if left is not None and right is not None and left is not right:
            for _il, net_l, ratio_l in _mirror_outputs(left):
                for _ir, net_r, ratio_r in _mirror_outputs(right):
                    turnaround = _mirror_on_input(analysis, net_r)
                    if turnaround is None or turnaround is left:
                        continue
                    for _it, net_t, ratio_t in _mirror_outputs(
                        turnaround
                    ):
                        if net_t != net_l:
                            continue
                        implied = ratio_r * ratio_t
                        if abs(ratio_l - implied) > _RATIO_TOL * max(
                            ratio_l, implied
                        ):
                            yield Diagnostic(
                                "TOPO603",
                                Severity.WARNING,
                                f"unbalanced mirror chain around "
                                f"{pair.name}: {left.name} injects "
                                f"{ratio_l:.4g}x into {net_l!r} but "
                                f"{right.name} -> {turnaround.name} "
                                f"returns {implied:.4g}x -- the "
                                f"systematic offset is the difference",
                                location=_loc(
                                    circuit, left.role("ref")
                                ),
                                suggestion="match the load ratio to the "
                                "product of the turnaround chain "
                                "ratios",
                            )
    # (c) cascode legs must track their bottom devices -- but only
    # when the mid node carries nothing else.  A foreign branch on the
    # mid node (a folded cascode's pair drain) injects current there,
    # so the bottom and cascode legitimately differ.
    for mirror in mirrors:
        if mirror.kind == "simple_mirror":
            continue
        ref_cascode = circuit.mosfet(mirror.role("ref_cascode"))
        if _net_has_foreign_terminal(
            circuit, ref_cascode.source, mirror.devices
        ):
            continue
        for role, device in mirror.roles_like("out_cascode["):
            index = int(role[len("out_cascode[") : -1])
            mid = circuit.mosfet(device).source
            if _net_has_foreign_terminal(circuit, mid, mirror.devices):
                continue
            bottom_ratio = float(mirror.attr(f"ratio[{index}]") or "1")
            top_ratio = _w_over_l(circuit.mosfet(device)) / _w_over_l(
                ref_cascode
            )
            if abs(top_ratio - bottom_ratio) > _RATIO_TOL * max(
                top_ratio, bottom_ratio
            ):
                yield Diagnostic(
                    "TOPO603",
                    Severity.WARNING,
                    f"{mirror.name}: cascode leg {index} is ratioed "
                    f"{top_ratio:.4g}:1 over its reference but the "
                    f"bottom mirrors at {bottom_ratio:.4g}:1 -- the "
                    f"cascode saturates at a different overdrive than "
                    f"its bottom device",
                    location=_loc(circuit, device),
                    suggestion="ratio the cascode devices identically "
                    "to the bottom devices",
                )


@TOPO_REGISTRY.register("shared-tail", ["TOPO604"])
def check_shared_tail(
    circuit: Circuit, context: TopologyContext
) -> Iterator[Diagnostic]:
    """A differential tail net must carry only the pair's sources and
    its current providers' drains."""
    for pair in context.analysis.blocks_of("diff_pair"):
        tail = pair.net("tail")
        if tail is None:
            continue
        offenders = sorted(
            mosfet.name
            for mosfet in circuit.mosfets
            if mosfet.name not in pair.devices
            and (mosfet.source == tail or mosfet.gate == tail)
        )
        if offenders:
            yield Diagnostic(
                "TOPO604",
                Severity.WARNING,
                f"tail net {tail!r} of {pair.name} also carries "
                f"source/gate terminals of {', '.join(offenders)} -- "
                f"branches outside the pair steal tail current and "
                f"unbalance it",
                location=_loc(circuit, tail),
                suggestion="give each branch its own tail device, or "
                "confirm the sharing is intentional (e.g. a latch)",
            )


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def lint_topology(
    circuit: Circuit,
    process: Optional[ProcessParameters] = None,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
    analysis: Optional[TopologyAnalysis] = None,
) -> Tuple[TopologyAnalysis, LintReport]:
    """Run the topology pass over a circuit.

    Returns the analysis (blocks, constraints, fingerprint) together
    with the TOPO6xx report; the report's
    :meth:`~repro.lint.diagnostics.LintReport.exit_code` is the CLI
    contract.
    """
    if analysis is None:
        analysis = analyze_topology(circuit)
    report = TOPO_REGISTRY.run(
        circuit,
        TopologyContext(analysis=analysis, process=process),
        select=select,
        ignore=ignore,
    )
    return analysis, report
