"""Differential-testing oracle: scalar reference vs. the stamp plan.

The vectorized stamping plan (:mod:`repro.simulator.assembly`) is only
trustworthy if it is *indistinguishable* from the scalar element walk
it replaced, which lives in ``tests/mna_reference.py``.  This suite pits
the two against each other on every circuit the repo can produce -- the
paper's synthesized test cases, the foreign fixture decks, a flattened
ADC sub-hierarchy, and hypothesis-generated random circuits -- and
asserts:

* bit-exact agreement of the DC residual/Jacobian and the complex AC
  matrix/rhs (the plan replays the scalar accumulation order);
* field-by-field agreement of a converged solve's device records with
  the scalar model's at the same point;
* end-to-end ``operating_point`` parity with the reference installed,
  including the Newton iteration count;
* solver-counter parity (``dc.lu_solves``, ``dc.newton.iterations``) so
  the plan provably drives the *same* Newton trajectory, not merely a
  nearby one.

Whole solves run under the reference through
:func:`tests.mna_reference.install`, applied with a scoped monkeypatch.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import GROUND, Circuit
from repro.circuit.netlist_io import parse_deck
from repro.errors import ConvergenceError
from repro.obs import Tracer
from repro.opamp.designer import synthesize
from repro.opamp.testcases import paper_test_cases
from repro.process import CMOS_5UM
from repro.simulator import operating_point
from repro.simulator.mna import MnaSystem

from .mna_reference import (
    assemble_ac_reference,
    assemble_dc_reference,
    device_ops_reference,
    install,
)
from .test_foreign_decks import _fixture

# ---------------------------------------------------------------------------
# Circuit corpus: every bundled deck, fixture and hierarchy level.
# ---------------------------------------------------------------------------


def _adc_preamp() -> Circuit:
    from repro.adc.sar import SarAdcSpec, design_sar_adc

    spec = SarAdcSpec(bits=8, sample_rate=20e3, v_full_scale=5.0)
    return design_sar_adc(spec, CMOS_5UM).comparator.preamp.standalone_circuit()


def _corpus() -> "dict":
    circuits = {}
    for label, spec in paper_test_cases().items():
        circuits[f"testcase_{label}"] = synthesize(
            spec, CMOS_5UM
        ).best.standalone_circuit()
    for deck in ("ota_5t", "comparator"):
        circuit, _subckts = parse_deck(_fixture(f"{deck}.sp"), name=deck)
        circuits[f"fixture_{deck}"] = circuit
    circuits["adc_preamp"] = _adc_preamp()
    return circuits


@pytest.fixture(scope="module")
def corpus():
    return _corpus()


CORPUS_KEYS = (
    "testcase_A",
    "testcase_B",
    "testcase_C",
    "fixture_ota_5t",
    "fixture_comparator",
    "adc_preamp",
)


def _random_states(system: MnaSystem, count: int = 5):
    rng = np.random.default_rng(20260808)
    for _ in range(count):
        yield rng.uniform(-5.0, 5.0, size=system.size)


# ---------------------------------------------------------------------------
# Assembly agreement: reference walk vs. vectorized scatter, entrywise.
# ---------------------------------------------------------------------------


class TestDcAssemblyAgreement:
    @pytest.mark.parametrize("key", CORPUS_KEYS)
    def test_dense_plan_bit_identical(self, corpus, key):
        system = MnaSystem(corpus[key], CMOS_5UM)
        for x in _random_states(system):
            for gmin, scale in ((1e-12, 1.0), (1e-9, 0.7)):
                ref_f, ref_j = assemble_dc_reference(system, x, gmin, scale)
                vec_f, vec_j = system.assemble_dc(x, gmin, scale)
                assert np.array_equal(ref_f, vec_f)
                assert np.array_equal(ref_j, vec_j)

    @pytest.mark.parametrize("key", CORPUS_KEYS)
    def test_residual_only_path_agrees(self, corpus, key):
        system = MnaSystem(corpus[key], CMOS_5UM)
        for x in _random_states(system, count=3):
            ref_f, _ = assemble_dc_reference(system, x, 1e-12, 1.0)
            res_f = system.assemble_dc_residual(x, 1e-12, 1.0)
            assert np.array_equal(ref_f, res_f)

    @pytest.mark.parametrize("key", CORPUS_KEYS)
    def test_converged_device_ops_match_oracle(self, corpus, key):
        """A converged solve's records equal the scalar model's at the
        solution, field by field and bit for bit."""
        circuit = corpus[key]
        op = operating_point(circuit, CMOS_5UM)
        system = MnaSystem(circuit, CMOS_5UM)
        x = np.zeros(system.size)
        for node, index in system.node_index.items():
            x[index] = op.voltages[node]
        reference = device_ops_reference(system, x)
        assert reference.keys() == op.device_ops.keys()
        for name, ref_op in reference.items():
            for field in dataclasses.fields(ref_op):
                got = getattr(op.device_ops[name], field.name)
                want = getattr(ref_op, field.name)
                if isinstance(want, float):
                    assert got.hex() == want.hex(), (name, field.name)
                else:
                    assert got == want, (name, field.name)


class TestAcAssemblyAgreement:
    OMEGAS = (0.0, 2.0 * np.pi * 1e3, 2.0 * np.pi * 1e7)

    @pytest.mark.parametrize("key", CORPUS_KEYS)
    def test_ac_matrix_and_rhs_bit_identical(self, corpus, key):
        circuit = corpus[key]
        op = operating_point(circuit, CMOS_5UM)
        system = MnaSystem(circuit, CMOS_5UM)
        for omega in self.OMEGAS:
            ref_y, ref_rhs = assemble_ac_reference(system, omega, op.device_ops)
            vec_y, vec_rhs = system.assemble_ac(omega, op.device_ops)
            assert np.array_equal(ref_y, vec_y)
            assert np.array_equal(ref_rhs, vec_rhs)

    @pytest.mark.parametrize("key", ("testcase_A", "fixture_ota_5t"))
    def test_ac_sweep_stack_agrees(self, corpus, key):
        circuit = corpus[key]
        op = operating_point(circuit, CMOS_5UM)
        system = MnaSystem(circuit, CMOS_5UM)
        stack, _ = system.assemble_ac_sweep(np.array(self.OMEGAS), op.device_ops)
        for i, omega in enumerate(self.OMEGAS):
            ref_y, _ = assemble_ac_reference(system, omega, op.device_ops)
            assert np.array_equal(ref_y, stack[i])

    def test_ac_source_overrides_agree(self, corpus):
        circuit = corpus["testcase_A"]
        op = operating_point(circuit, CMOS_5UM)
        system = MnaSystem(circuit, CMOS_5UM)
        overrides = {"vdd": 1.0 + 0.0j}
        omega = 2.0 * np.pi * 1e4
        ref_y, ref_rhs = assemble_ac_reference(
            system, omega, op.device_ops, overrides
        )
        vec_y, vec_rhs = system.assemble_ac(omega, op.device_ops, overrides)
        assert np.array_equal(ref_y, vec_y)
        assert np.array_equal(ref_rhs, vec_rhs)


# ---------------------------------------------------------------------------
# End-to-end operating-point parity across backends.
# ---------------------------------------------------------------------------


def _solve_with_backend(circuit, reference: bool):
    with pytest.MonkeyPatch.context() as mp:
        if reference:
            install(mp.setattr)
        return operating_point(circuit, CMOS_5UM)


class TestOperatingPointParity:
    @pytest.mark.parametrize("key", CORPUS_KEYS)
    def test_bundled_circuits_bit_identical(self, corpus, key):
        """The plan shares the scalar accumulation order, so even the
        floating-point noise is identical: voltages, branch currents and
        iteration counts must match bit-for-bit."""
        circuit = corpus[key]
        reference = _solve_with_backend(circuit, reference=True)
        vectorized = _solve_with_backend(circuit, reference=False)
        assert reference.voltages == vectorized.voltages
        assert reference.source_currents == vectorized.source_currents
        assert reference.iterations == vectorized.iterations
        for name, ref_op in reference.device_ops.items():
            assert vectorized.device_ops[name].ids == ref_op.ids


class TestSolverCounterParity:
    """The vectorized core must take the *same* Newton trajectory: the
    LU-solve and per-rung iteration counters agree exactly between
    backends -- not just the converged answer."""

    COUNTERS = ("dc.lu_solves", "dc.newton.iterations", "dc.solves")

    def _counters_for(self, circuit, reference):
        tracer = Tracer()
        with tracer.activate():
            _solve_with_backend(circuit, reference)
        return {
            name: tracer.metrics.counter_total(name) for name in self.COUNTERS
        }

    @pytest.mark.parametrize("key", ("testcase_A", "testcase_C", "adc_preamp"))
    def test_dense_sized_counter_parity(self, corpus, key):
        ref = self._counters_for(corpus[key], reference=True)
        vec = self._counters_for(corpus[key], reference=False)
        assert ref == vec
        assert ref["dc.lu_solves"] > 0


# ---------------------------------------------------------------------------
# Hypothesis: random circuits.
# ---------------------------------------------------------------------------


@st.composite
def random_circuits(draw):
    """Random connected R/C/V/I/MOSFET circuits, 2-6 internal nodes.

    A resistor ring through every node and ground guarantees the
    structural-validation invariants (no dangling node, everything
    reachable from ground); the extra randomly-drawn elements then
    exercise arbitrary stamp interleavings without breaking validity.
    """
    n_nodes = draw(st.integers(min_value=2, max_value=6))
    nodes = [f"n{i}" for i in range(n_nodes)]
    ring = [GROUND, *nodes]
    c = Circuit("hyp")
    for i, a in enumerate(ring):
        b = ring[(i + 1) % len(ring)]
        value = draw(st.floats(min_value=100.0, max_value=1e6))
        c.add_resistor(f"rring{i}", a, b, value)

    pick = st.sampled_from(ring)
    n_extra = draw(st.integers(min_value=1, max_value=6))
    for k in range(n_extra):
        kind = draw(st.sampled_from(("r", "c", "v", "i", "m")))
        a = draw(pick)
        b = draw(pick.filter(lambda n, a=a: n != a))
        if kind == "r":
            c.add_resistor(
                f"rx{k}", a, b, draw(st.floats(min_value=10.0, max_value=1e7))
            )
        elif kind == "c":
            c.add_capacitor(
                f"cx{k}", a, b, draw(st.floats(min_value=1e-15, max_value=1e-9))
            )
        elif kind == "v":
            c.add_vsource(
                f"vx{k}", a, b, dc=draw(st.floats(min_value=-5.0, max_value=5.0))
            )
        elif kind == "i":
            c.add_isource(
                f"ix{k}", a, b, dc=draw(st.floats(min_value=-1e-3, max_value=1e-3))
            )
        else:
            g = draw(pick)
            c.add_mosfet(
                f"mx{k}",
                a,
                g,
                b,
                GROUND,
                draw(st.sampled_from(("nmos", "pmos"))),
                width=draw(st.floats(min_value=5e-6, max_value=500e-6)),
                length=draw(st.floats(min_value=5e-6, max_value=50e-6)),
            )
    return c


class TestHypothesisOracle:
    @given(circuit=random_circuits(), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_random_assembly_agreement(self, circuit, seed):
        system = MnaSystem(circuit, CMOS_5UM)
        rng = np.random.default_rng(seed)
        x = rng.uniform(-5.0, 5.0, size=system.size)
        ref_f, ref_j = assemble_dc_reference(system, x, 1e-12, 1.0)
        vec_f, vec_j = system.assemble_dc(x, 1e-12, 1.0)
        np.testing.assert_allclose(vec_f, ref_f, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(vec_j, ref_j, rtol=0.0, atol=1e-12)
        # The dense plan replays the scalar accumulation order, so the
        # agreement is in fact exact, not merely within tolerance.
        assert np.array_equal(ref_f, vec_f)
        assert np.array_equal(ref_j, vec_j)

    @given(circuit=random_circuits())
    @settings(max_examples=25, deadline=None)
    def test_random_operating_point_same_outcome(self, circuit):
        """Both backends converge to the same point with the same
        iteration count, or both fail with ConvergenceError."""
        try:
            reference = _solve_with_backend(circuit, reference=True)
        except ConvergenceError:
            reference = None
        try:
            vectorized = _solve_with_backend(circuit, reference=False)
        except ConvergenceError:
            vectorized = None
        if reference is None:
            assert vectorized is None
        else:
            assert vectorized is not None
            assert reference.voltages == vectorized.voltages
            assert reference.iterations == vectorized.iterations
