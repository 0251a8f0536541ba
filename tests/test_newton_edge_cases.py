"""Newton solver edge cases, DC escalation, and determinism properties.

Covers the failure modes that the escalation ladder must convert into
structured, chained :class:`~repro.errors.ConvergenceError`s --
singular Jacobians, non-finite updates, zero-iteration budgets -- the
order in which :func:`operating_point` climbs its rungs (plain, damped,
gmin, source), plus hypothesis properties that the whole solve path is
deterministic: the same circuit solved twice yields bit-identical
voltages, identical iteration counts, and an identical rung history.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import GROUND, Circuit
from repro.errors import BudgetExceeded, ConvergenceError
from repro.kb.trace import DesignTrace
from repro.obs.spans import Tracer
from repro.process import CMOS_5UM
from repro.resilience import Budget, inject
from repro.simulator import operating_point
from repro.simulator.dc import newton_solve


class _FakeSystem:
    """Minimal stand-in for MnaSystem: scripted residual/Jacobian."""

    def __init__(self, assemble, n_nodes=2):
        self._assemble = assemble
        self.n_nodes = n_nodes
        self.size = n_nodes

    def assemble_dc(self, x, gmin, source_scale):
        return self._assemble(x, gmin, source_scale)

    def assemble_dc_residual(self, x, gmin, source_scale):
        return self._assemble(x, gmin, source_scale)[0]


class TestNewtonEdgeCases:
    def test_singular_jacobian_raises_convergence_error(self):
        def assemble(x, gmin, scale):
            return np.ones(2), np.zeros((2, 2))

        system = _FakeSystem(assemble)
        with pytest.raises(ConvergenceError, match="singular Jacobian"):
            newton_solve(system, np.zeros(2), 1e-12, 1.0)

    def test_singular_jacobian_chains_linalg_error(self):
        def assemble(x, gmin, scale):
            return np.ones(2), np.zeros((2, 2))

        system = _FakeSystem(assemble)
        with pytest.raises(ConvergenceError) as excinfo:
            newton_solve(system, np.zeros(2), 1e-12, 1.0)
        assert isinstance(excinfo.value.__cause__, np.linalg.LinAlgError)
        assert excinfo.value.iterations == 1

    def test_non_finite_update_raises(self):
        def assemble(x, gmin, scale):
            return np.array([np.inf, 0.0]), np.eye(2)

        system = _FakeSystem(assemble)
        with pytest.raises(ConvergenceError, match="non-finite"):
            newton_solve(system, np.zeros(2), 1e-12, 1.0)

    def test_nan_residual_raises(self):
        def assemble(x, gmin, scale):
            return np.array([np.nan, np.nan]), np.eye(2)

        system = _FakeSystem(assemble)
        with pytest.raises(ConvergenceError, match="non-finite"):
            newton_solve(system, np.zeros(2), 1e-12, 1.0)

    def test_zero_iteration_budget_fails_immediately(self):
        def assemble(x, gmin, scale):  # pragma: no cover - never called
            raise AssertionError("assemble_dc must not run with 0 iterations")

        system = _FakeSystem(assemble)
        with pytest.raises(ConvergenceError, match="no convergence in 0"):
            newton_solve(system, np.zeros(2), 1e-12, 1.0, max_iterations=0)

    def test_zero_iteration_error_carries_zero_count(self):
        system = _FakeSystem(lambda x, g, s: (np.zeros(2), np.eye(2)))
        with pytest.raises(ConvergenceError) as excinfo:
            newton_solve(system, np.zeros(2), 1e-12, 1.0, max_iterations=0)
        assert excinfo.value.iterations == 0

    def test_divergence_bail_is_early(self):
        """A residual that grows every iteration trips the streak bail."""

        def assemble(x, gmin, scale):
            # Push the solution point further out each call; the
            # residual at the updated point keeps growing.
            r = np.array([10.0 * (1.0 + abs(float(x[0]))), 0.0])
            return r, np.eye(2)

        system = _FakeSystem(assemble)
        with pytest.raises(ConvergenceError, match="diverging") as excinfo:
            newton_solve(
                system,
                np.zeros(2),
                1e-12,
                1.0,
                max_iterations=100,
                max_step=None,
                diverge_after=3,
            )
        assert excinfo.value.iterations < 100

    def test_zero_newton_budget_trips_budget_exceeded(self):
        c = Circuit("divider")
        c.add_vsource("vin", "a", GROUND, dc=10.0)
        c.add_resistor("r1", "a", "mid", 1e3)
        c.add_resistor("r2", "mid", GROUND, 1e3)
        budget = Budget(newton_iterations=0, label="edge")
        budget.start()
        with pytest.raises(BudgetExceeded) as excinfo:
            operating_point(c, CMOS_5UM, budget=budget)
        assert excinfo.value.step == "newton"

    def test_max_iterations_zero_exhausts_whole_ladder(self):
        c = Circuit("divider")
        c.add_vsource("vin", "a", GROUND, dc=10.0)
        c.add_resistor("r1", "a", "mid", 1e3)
        c.add_resistor("r2", "mid", GROUND, 1e3)
        with pytest.raises(ConvergenceError) as excinfo:
            operating_point(c, CMOS_5UM, max_iterations=0)
        # Terminal error names the escalation path and chains causes.
        assert "damped" in str(excinfo.value)
        assert excinfo.value.__cause__ is not None


def _mos_testbench(w=50e-6, l=10e-6, vgs=3.0, vdd=5.0):
    c = Circuit("nmos_tb")
    c.add_vsource("vdd", "d", GROUND, dc=vdd)
    c.add_vsource("vg", "g", GROUND, dc=vgs)
    c.add_resistor("rd", "d", "drain", 10e3)
    c.add_mosfet("m1", "drain", "g", GROUND, GROUND, "nmos", width=w, length=l)
    return c


class TestLadderDeterminism:
    """The solve path is a pure function of (circuit, process, guess)."""

    @given(
        r1=st.floats(min_value=100.0, max_value=1e6),
        r2=st.floats(min_value=100.0, max_value=1e6),
        vin=st.floats(min_value=-10.0, max_value=10.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_linear_solve_bitwise_deterministic(self, r1, r2, vin):
        def solve():
            c = Circuit("divider")
            c.add_vsource("vin", "a", GROUND, dc=vin)
            c.add_resistor("r1", "a", "mid", r1)
            c.add_resistor("r2", "mid", GROUND, r2)
            return operating_point(c, CMOS_5UM)

        first, second = solve(), solve()
        assert first.voltage("mid") == second.voltage("mid")  # bitwise
        assert first.iterations == second.iterations

    @given(
        w=st.floats(min_value=5e-6, max_value=500e-6),
        vgs=st.floats(min_value=0.0, max_value=5.0),
    )
    @settings(max_examples=15, deadline=None)
    def test_nonlinear_solve_bitwise_deterministic(self, w, vgs):
        first = operating_point(_mos_testbench(w=w, vgs=vgs), CMOS_5UM)
        second = operating_point(_mos_testbench(w=w, vgs=vgs), CMOS_5UM)
        assert first.voltage("drain") == second.voltage("drain")
        assert first.iterations == second.iterations

    def test_ladder_escalation_history_deterministic(self):
        """With the first rungs fault-failed, both runs climb the same
        rungs in the same order with identical iteration counts."""

        def climb_once():
            trace = DesignTrace()
            with inject("dc.newton", at_hit=1, times=2):
                op = operating_point(_mos_testbench(), CMOS_5UM, trace=trace)
            return op, trace

        (op_a, trace_a), (op_b, trace_b) = climb_once(), climb_once()
        assert [e.step for e in trace_a.events] == ["damped", "gmin", "source"]
        assert trace_a.to_dicts() == trace_b.to_dicts()
        assert op_a.iterations == op_b.iterations
        assert op_a.voltages == op_b.voltages

    @given(at_hit=st.integers(min_value=1, max_value=3))
    @settings(max_examples=6, deadline=None)
    def test_fault_hit_position_reproducible(self, at_hit):
        """Firing the nan fault at the same hit index twice produces the
        same escalation record -- fault injection is deterministic."""

        def run():
            with inject("dc.newton.nan", at_hit=at_hit) as injector:
                op = operating_point(_mos_testbench(), CMOS_5UM)
            return op, list(injector.fired)

        (op_a, fired_a), (op_b, fired_b) = run(), run()
        assert fired_a == fired_b
        assert op_a.iterations == op_b.iterations
        assert op_a.voltage("drain") == op_b.voltage("drain")


#: Node seed that makes a solve warm (the plain rung runs first).
WARM = {"drain": 1.0}


def _solve_recording(initial_guess=None, **fault):
    """Solve the MOSFET bench with ``dc.newton`` armed per ``fault``.

    Returns (rungs tried in order, design trace, result or error).
    """
    tracer = Tracer()
    trace = DesignTrace()
    armed = inject("dc.newton", **fault) if fault else contextlib.nullcontext()
    with tracer.activate(), armed:
        try:
            outcome = operating_point(
                _mos_testbench(), CMOS_5UM, initial_guess, trace=trace
            )
        except ConvergenceError as exc:
            outcome = exc
    rungs = [
        s.attributes["rung"]
        for s in tracer.spans_by_start()
        if s.name.startswith("rung:")
    ]
    return rungs, trace, outcome


class TestDcEscalation:
    """operating_point climbs plain -> damped -> gmin -> source."""

    @pytest.mark.parametrize(
        "guess, fault, tried, converged",
        [
            # A clean cold solve tries one rung.
            pytest.param(None, {}, ["damped"], True, id="cold-clean"),
            # Failures escalate damped -> gmin -> source.
            pytest.param(None, {"times": 1}, ["damped", "gmin"], True, id="cold-1"),
            pytest.param(
                None, {"times": 2}, ["damped", "gmin", "source"], True, id="cold-2"
            ),
            pytest.param(
                None,
                {"times": -1},
                ["damped", "gmin", "source"],
                False,
                id="cold-exhausted",
            ),
            # The plain rung runs only from a non-zero initial guess.
            pytest.param(WARM, {}, ["plain"], True, id="warm-clean"),
            pytest.param(WARM, {"times": 1}, ["plain", "damped"], True, id="warm-1"),
            pytest.param(
                WARM,
                {"times": -1},
                ["plain", "damped", "gmin", "source"],
                False,
                id="warm-exhausted",
            ),
            pytest.param({"drain": 0.0}, {}, ["damped"], True, id="zero-guess"),
        ],
    )
    def test_rung_order(self, guess, fault, tried, converged):
        rungs, trace, outcome = _solve_recording(guess, **fault)
        assert rungs == tried
        ladder = [e for e in trace.events if e.kind == "ladder"]
        if not converged:
            assert isinstance(outcome, ConvergenceError)
            assert outcome.rung == "source"
            assert f"after {' -> '.join(tried)} (" in str(outcome)
            assert [e.detail.split(":")[0] for e in ladder] == ["exhausted"]
        elif len(tried) == 1:
            # A one-rung solve records no ladder events.
            assert ladder == []
        else:
            assert [e.step for e in ladder] == tried
            assert ladder[-1].detail.startswith("attempt 1: converged")
            assert outcome.iterations == sum(
                int(e.detail.rsplit("after ", 1)[1].split()[0]) for e in ladder
            )

    def test_causes_chain_and_iterations_sum_on_exhaustion(self):
        injected = []

        def refuse():
            injected.append(ConvergenceError("injected", iterations=7))
            return injected[-1]

        rungs, _, exc = _solve_recording(WARM, times=-1, error=refuse)
        assert isinstance(exc, ConvergenceError)
        # One injected Newton failure per rung.
        plain, damped, gmin_inner, source_inner = injected
        # A rung's error has the previous rung's as __cause__ ...
        assert damped.__cause__ is plain
        # ... unless it chains its own: the homotopy rungs wrap the inner
        # Newton failure that stalled them.
        source = exc.__cause__
        assert source.rung == "source"
        assert source.__cause__ is source_inner
        assert "source stepping stalled" in str(source)
        # The terminal error sums the iterations of every rung tried.
        assert exc.iterations == 7 * len(rungs) == 28

    def test_budget_exceeded_propagates_without_later_rungs(self):
        tracer = Tracer()
        budget = Budget(newton_iterations=0, label="edge").start()
        with tracer.activate():
            with pytest.raises(BudgetExceeded):
                operating_point(_mos_testbench(), CMOS_5UM, budget=budget)
        rungs = [s.name for s in tracer.spans if s.name.startswith("rung:")]
        assert rungs == ["rung:damped"]
