"""End-to-end tests over foreign (hand-written) SPICE decks.

The hand-written fixtures under ``tests/fixtures/`` exercise the
parse -> ERC -> topology pipeline on circuits with styles the designer
never produces (diode loads feeding a latch, cross-coupled pairs,
subckt hierarchies with shared bias).  ``fd_cmfb.sp`` is the exception:
it is the frozen output of the former fully differential designer, and
``test_lint_erc.py`` and ``test_topology.py`` lint it.
"""

from pathlib import Path

import pytest

from repro.circuit.netlist_io import parse_deck, scan_duplicate_names
from repro.errors import NetlistError
from repro.lint import analyze_topology, lint_spice_deck, lint_topology

FIXTURES = Path(__file__).parent / "fixtures"


def _fixture(name: str) -> str:
    return (FIXTURES / name).read_text()


class TestOta5Deck:
    def test_parses_and_flattens(self) -> None:
        circuit, subckts = parse_deck(_fixture("ota_5t.sp"), name="ota_5t")
        assert "ota5" in subckts
        mosfets = [e.name for e in circuit.elements if e.name.startswith("m")]
        assert len(mosfets) == 6
        assert "mxamp.mn1" in mosfets  # hierarchy prefix survives flattening

    def test_erc_clean(self) -> None:
        report = lint_spice_deck(_fixture("ota_5t.sp"), name="ota_5t")
        assert report.exit_code() == 0, report.render("text")

    def test_fully_recognized(self) -> None:
        circuit, _ = parse_deck(_fixture("ota_5t.sp"), name="ota_5t")
        analysis = analyze_topology(circuit)
        assert analysis.coverage == 1.0
        kinds = {block.kind for block in analysis.blocks}
        assert {"diff_pair", "simple_mirror"} <= kinds

    def test_topology_clean(self) -> None:
        circuit, _ = parse_deck(_fixture("ota_5t.sp"), name="ota_5t")
        _, report = lint_topology(circuit)
        assert report.exit_code() == 0, report.render("text")

    def test_constraints_cover_pair_and_mirrors(self) -> None:
        circuit, _ = parse_deck(_fixture("ota_5t.sp"), name="ota_5t")
        analysis = analyze_topology(circuit)
        paired = {
            frozenset((p.a, p.b)) for p in analysis.constraints.symmetric_pairs
        }
        assert frozenset(("mxamp.mn1", "mxamp.mn2")) in paired
        grouped = {g.devices for g in analysis.constraints.matched_groups}
        assert ("mxamp.mp1", "mxamp.mp2") in grouped

    def test_seeded_mirror_defect_fires_topo603(self) -> None:
        text = _fixture("ota_5t.sp").replace(
            "mp2 out d1 vdd vdd pmos W=20u L=10u",
            "mp2 out d1 vdd vdd pmos W=34u L=10u",
        )
        circuit, _ = parse_deck(text, name="ota_bad_mirror")
        analysis, report = lint_topology(circuit)
        assert analysis.coverage == 1.0  # still recognized, just mis-sized
        codes = {d.code for d in report}
        assert "TOPO603" in codes

    def test_seeded_pair_defect_fires_topo602(self) -> None:
        text = _fixture("ota_5t.sp").replace(
            "mn2 out inn tail vss nmos W=40u L=5u",
            "mn2 out inn tail vss nmos W=52u L=5u",
        )
        circuit, _ = parse_deck(text, name="ota_bad_pair")
        _, report = lint_topology(circuit)
        errors = [d for d in report if d.code == "TOPO602"]
        assert errors and report.exit_code() == 2


class TestComparatorDeck:
    def test_parses_two_subckts(self) -> None:
        circuit, subckts = parse_deck(_fixture("comparator.sp"), name="comparator")
        assert {"preamp", "latch"} <= set(subckts)
        mosfets = [e.name for e in circuit.elements if e.name.startswith("m")]
        assert len(mosfets) == 13

    def test_erc_clean(self) -> None:
        report = lint_spice_deck(_fixture("comparator.sp"), name="comparator")
        assert report.exit_code() == 0, report.render("text")

    def test_fully_recognized(self) -> None:
        circuit, _ = parse_deck(_fixture("comparator.sp"), name="comparator")
        analysis = analyze_topology(circuit)
        assert analysis.coverage == 1.0
        kinds = {block.kind for block in analysis.blocks}
        assert "cross_coupled_pair" in kinds
        assert "diff_pair" in kinds
        assert "tail_source" in kinds
        assert "diode_load" in kinds

    def test_latch_tail_sharing_fires_topo604(self) -> None:
        circuit, _ = parse_deck(_fixture("comparator.sp"), name="comparator")
        _, report = lint_topology(circuit)
        warnings = [d for d in report if d.code == "TOPO604"]
        assert len(warnings) == 1
        assert "x2.tail" in warnings[0].message
        # A warning, not an error: latches legitimately share tails.
        assert report.exit_code() == 1


class TestDuplicateNameRegression:
    """ERC111: flattening must not silently merge same-named elements."""

    DECK = """\
.subckt inv a y vdd
mp y a vdd vdd pmos W=10u L=5u
mn y a 0 0 nmos W=5u L=5u
.ends
x1 in mid vdd inv
x1 mid out vdd inv
vdd vdd 0 DC 5
vin in 0 DC 2.5
cl out 0 1p
.end
"""

    def test_scan_reports_scope_and_lines(self) -> None:
        dups = scan_duplicate_names(self.DECK)
        assert dups == [("the top level", "x1", 5, 6)]

    def test_parse_deck_refuses_duplicates(self) -> None:
        with pytest.raises(NetlistError, match="duplicate name 'x1'"):
            parse_deck(self.DECK, name="dup")

    def test_lint_reports_erc111(self) -> None:
        report = lint_spice_deck(self.DECK, name="dup")
        diags = [d for d in report if d.code == "ERC111"]
        assert len(diags) == 1
        assert "x1" in diags[0].message
        assert report.exit_code() == 2

    def test_duplicate_inside_subckt_scope(self) -> None:
        deck = self.DECK.replace(
            "mn y a 0 0 nmos W=5u L=5u",
            "mp y a 0 0 nmos W=5u L=5u",
        ).replace("x1 mid out vdd inv", "x2 mid out vdd inv")
        dups = scan_duplicate_names(deck)
        assert dups == [(".subckt inv", "mp", 2, 3)]
        report = lint_spice_deck(deck, name="dup_sub")
        assert any(d.code == "ERC111" for d in report)

    def test_distinct_names_across_scopes_are_fine(self) -> None:
        # Same device name in two different subckts is legal.
        deck = """\
.subckt a p q
m1 p q 0 0 nmos W=5u L=5u
.ends
.subckt b p q
m1 p q 0 0 nmos W=5u L=5u
.ends
v1 n1 0 DC 1
r1 n1 n2 1k
r2 n2 0 1k
.end
"""
        assert scan_duplicate_names(deck) == []
