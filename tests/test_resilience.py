"""Unit tests for the resilience layer: budgets, failure taxonomy, and the
fault-injection harness itself.  The DC escalation ladder is tested in
``tests/test_newton_edge_cases.py``."""

import pytest

from repro.errors import (
    BudgetExceeded,
    ConvergenceError,
    FaultInjected,
    PlanError,
    SynthesisError,
)
from repro.resilience import (
    Budget,
    FailureKind,
    FailureReport,
    FaultSpec,
    classify_exception,
    current_budget,
    inject,
    registered_sites,
)
from repro.resilience.faults import FaultInjector, active_injector, fault_point


class FakeClock:
    """A manually advanced monotonic clock (seconds)."""

    def __init__(self):
        self.t = 100.0

    def __call__(self):
        return self.t

    def advance_ms(self, ms):
        self.t += ms / 1e3


# ----------------------------------------------------------------------
# Budget
# ----------------------------------------------------------------------
class TestBudget:
    def test_inert_until_started(self):
        budget = Budget(wall_ms=0)
        budget.check(block="b", step="s")  # no raise: not started
        assert not budget.started
        assert budget.elapsed_ms() == 0.0

    def test_zero_wall_budget_trips_immediately(self):
        budget = Budget(wall_ms=0, clock=FakeClock()).start()
        # Any elapsed time > 0 trips; force 1 ms.
        budget._clock.advance_ms(1)
        with pytest.raises(BudgetExceeded) as excinfo:
            budget.check(block="opamp/one_stage", step="partition_gain")
        err = excinfo.value
        assert err.block == "opamp/one_stage"
        assert err.step == "partition_gain"
        assert err.limit_ms == 0
        assert err.elapsed_ms > 0

    def test_unbounded_budget_never_trips(self):
        clock = FakeClock()
        budget = Budget(clock=clock).start()
        clock.advance_ms(1e9)
        budget.check()
        budget.charge_newton(10**6)

    def test_elapsed_and_remaining(self):
        clock = FakeClock()
        budget = Budget(wall_ms=100, clock=clock).start()
        clock.advance_ms(30)
        assert budget.elapsed_ms() == pytest.approx(30, abs=1)
        assert budget.remaining_ms() == pytest.approx(70, abs=1)

    def test_newton_iteration_budget(self):
        budget = Budget(newton_iterations=3).start()
        budget.charge_newton(1)
        budget.charge_newton(1)
        with pytest.raises(BudgetExceeded) as excinfo:
            budget.charge_newton(1, block="dc/tb", step="newton")
        assert "iteration budget" in str(excinfo.value)
        assert excinfo.value.block == "dc/tb"
        assert budget.exhausted()

    def test_style_scope_trips_without_touching_global(self):
        clock = FakeClock()
        budget = Budget(wall_ms=1000, style_ms=10, clock=clock).start()
        with pytest.raises(BudgetExceeded) as excinfo:
            with budget.style_scope("two_stage", block="opamp/two_stage"):
                clock.advance_ms(50)
        assert excinfo.value.scope == "style:two_stage"
        assert not budget.exhausted()  # global still has headroom

    def test_step_scope_checked_by_inner_checks(self):
        clock = FakeClock()
        budget = Budget(step_ms=5, clock=clock).start()
        with pytest.raises(BudgetExceeded) as excinfo:
            with budget.step_scope("size_devices", block="opamp"):
                clock.advance_ms(20)
                budget.check(block="opamp", step="size_devices")  # inner
        assert excinfo.value.scope == "step:size_devices"

    def test_scope_removed_after_exit(self):
        clock = FakeClock()
        budget = Budget(style_ms=10, clock=clock).start()
        with budget.style_scope("a"):
            pass
        clock.advance_ms(50)
        budget.check()  # old scope must not linger

    def test_ambient_installation(self):
        budget = Budget(wall_ms=1000)
        assert current_budget() is None
        with budget.active() as installed:
            assert installed is budget
            assert current_budget() is budget
        assert current_budget() is None

    def test_clock_skew_fault(self):
        budget = Budget(wall_ms=10).start()
        with inject("budget.clock", skew_ms=1e6):
            with pytest.raises(BudgetExceeded):
                budget.check(block="opamp", step="x")

    def test_start_idempotent(self):
        clock = FakeClock()
        budget = Budget(wall_ms=100, clock=clock).start()
        clock.advance_ms(60)
        budget.start()  # must not reset the baseline
        assert budget.elapsed_ms() == pytest.approx(60, abs=1)


# ----------------------------------------------------------------------
# Failure taxonomy
# ----------------------------------------------------------------------
class TestFailureReports:
    def test_classification(self):
        assert classify_exception(ConvergenceError("x")) is FailureKind.CONVERGENCE
        assert classify_exception(BudgetExceeded("x")) is FailureKind.BUDGET
        assert classify_exception(SynthesisError("x")) is FailureKind.PLAN
        assert classify_exception(PlanError("x")) is FailureKind.PLAN
        assert classify_exception(ValueError("x")) is FailureKind.INTERNAL
        assert classify_exception(FaultInjected("x")) is FailureKind.INTERNAL

    def test_harvests_context_from_synthesis_error(self):
        exc = SynthesisError("too slow", block="opamp/two_stage", step="comp")
        report = FailureReport.from_exception(exc, style="two_stage")
        assert report.kind is FailureKind.PLAN
        assert report.block == "opamp/two_stage"
        assert report.step == "comp"
        assert report.style == "two_stage"
        assert report.traceback == ""  # only internal errors keep one

    def test_internal_errors_keep_traceback_and_chain(self):
        try:
            try:
                raise ConvergenceError("inner")
            except ConvergenceError as inner:
                raise RuntimeError("outer bug") from inner
        except RuntimeError as exc:
            report = FailureReport.from_exception(exc)
        assert report.kind is FailureKind.INTERNAL
        assert "outer bug" in report.traceback
        assert any("inner" in link for link in report.chain)

    def test_render(self):
        report = FailureReport.from_exception(
            ConvergenceError("diverged", iterations=42, rung="gmin"),
            style="one_stage",
        )
        text = report.render()
        assert "[convergence]" in text
        assert "one_stage" in text
        assert "diverged" in text


# ----------------------------------------------------------------------
# Fault harness
# ----------------------------------------------------------------------
class TestFaultHarness:
    def test_disarmed_is_none(self):
        assert fault_point("plan.step") is None

    def test_registry_is_populated(self):
        sites = registered_sites()
        for expected in (
            "dc.newton",
            "dc.newton.nan",
            "plan.step",
            "plan.rule",
            "selection.candidate",
            "opamp.package",
            "analysis.measure",
            "budget.clock",
        ):
            assert expected in sites, expected

    def test_unknown_site_rejected(self):
        with pytest.raises(FaultInjected):
            FaultInjector([FaultSpec(site="no.such.site")])

    def test_raise_fault_fires_once_by_default(self):
        with inject("plan.step") as injector:
            with pytest.raises(FaultInjected) as excinfo:
                fault_point("plan.step")
            assert excinfo.value.site == "plan.step"
            assert fault_point("plan.step") is None  # second visit clean
        assert injector.fired == [("plan.step", "raise")]

    def test_at_hit_and_times(self):
        with inject("plan.step", at_hit=2, times=2) as injector:
            assert fault_point("plan.step") is None
            with pytest.raises(FaultInjected):
                fault_point("plan.step")
            with pytest.raises(FaultInjected):
                fault_point("plan.step")
            assert fault_point("plan.step") is None
        assert len(injector.fired) == 2

    def test_unlimited_times(self):
        with inject("plan.step", times=-1):
            for _ in range(5):
                with pytest.raises(FaultInjected):
                    fault_point("plan.step")

    def test_default_error_for_dc_newton_is_convergence(self):
        with inject("dc.newton"):
            with pytest.raises(ConvergenceError):
                fault_point("dc.newton")

    def test_nan_fault_returns_action(self):
        with inject("dc.newton.nan"):
            action = fault_point("dc.newton.nan")
        assert action is not None and action.kind == "nan"

    def test_nested_injectors_shadow(self):
        with inject("plan.step"):
            with inject("plan.rule") as inner:
                # Outer spec is shadowed while the inner one is active.
                assert fault_point("plan.step") is None
                with pytest.raises(FaultInjected):
                    fault_point("plan.rule")
            assert inner.fired_sites() == ["plan.rule"]

    def test_env_activation(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "plan.step=2")
        injector = active_injector()
        assert injector is not None
        assert fault_point("plan.step") is None  # hit 1 (below at_hit)
        with pytest.raises(FaultInjected):
            fault_point("plan.step")
        monkeypatch.delenv("REPRO_FAULTS")
        assert active_injector() is None

    def test_env_all(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "all")
        with pytest.raises(FaultInjected):
            fault_point("plan.step")
        # Per-site accounting: another site still fires its own first hit.
        with pytest.raises(FaultInjected):
            fault_point("plan.rule")
