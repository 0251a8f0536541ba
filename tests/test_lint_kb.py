"""KB/plan lint pass: one positive trigger per diagnostic code, the
knowledge-base self-check over every registered template, the static
usage analysis itself, and the checker-registry contract."""

import inspect
from collections import Counter

import pytest

from repro.errors import LintError
from repro.kb.plans import DesignState, Plan, PlanStep
from repro.kb.rules import Restart, Rule
from repro.kb.templates import TopologyTemplate
from repro.lint import (
    KB_REGISTRY,
    CheckerRegistry,
    Diagnostic,
    Severity,
    analyze_callable,
    kblint,
    lint_dataflow,
    lint_feasibility,
    lint_knowledge_base,
    lint_plan,
    lint_template,
    lint_units,
)
from repro.lint.kblint import DEFAULT_PRESETS
from repro.opamp.designer import OPAMP_CATALOG


# ----------------------------------------------------------------------
# Plan fixtures (module level so inspect.getsourcelines works)
# ----------------------------------------------------------------------
def _set_x(state: DesignState):
    state.set("x", 1.0)


def _set_y_from_x(state: DesignState):
    state.set("y", state.get("x") + 1.0)


def _read_missing(state: DesignState):
    return state.get("never_set")


def _soft_read_missing(state: DesignState):
    return state.get_or("never_set", 0.0)


def _restart_ghost(state: DesignState):
    return Restart("no_such_step")


def _restart_second(state: DesignState):
    return Restart("second")


def _choose_ghost_slot(state: DesignState):
    state.choose("ghost_slot", "simple")


def _helper_sets_z(state: DesignState):
    state.set("z", 2.0)


def _step_via_helper(state: DesignState):
    _helper_sets_z(state)
    return state


# A helper chain one level longer than the analysis follows from its head.
def _chain_e(state: DesignState):
    state.set("e_out", 1.0)


def _chain_d(state: DesignState):
    _chain_e(state)


def _chain_c(state: DesignState):
    _chain_d(state)


def _chain_b(state: DesignState):
    _chain_c(state)


def _chain_a(state: DesignState):
    _chain_b(state)


def _two_step_plan():
    return Plan("p", [PlanStep("first", _set_x), PlanStep("second", _set_y_from_x)])


def _always(state) -> bool:
    return True


# ----------------------------------------------------------------------
# Usage analysis
# ----------------------------------------------------------------------
class TestAnalyzeCallable:
    def test_reads_and_writes(self):
        usage = analyze_callable(_set_y_from_x)
        assert usage.writes == {"y"}
        assert usage.reads == {"x"}
        assert usage.resolved

    def test_soft_reads_are_separate(self):
        usage = analyze_callable(_soft_read_missing)
        assert usage.soft_reads == {"never_set"}
        assert usage.reads == set()

    def test_restart_literals(self):
        assert analyze_callable(_restart_ghost).restart_targets == ["no_such_step"]

    def test_follows_state_taking_helpers(self):
        assert "z" in analyze_callable(_step_via_helper).writes

    def test_unanalysable_builtin(self):
        assert not analyze_callable(print).resolved

    def test_choices(self):
        usage = analyze_callable(_choose_ghost_slot)
        assert usage.choices_written == {"ghost_slot"}

    def test_helper_usage_does_not_depend_on_call_order(self, monkeypatch):
        monkeypatch.setattr(kblint, "_ANALYSIS_CACHE", {})
        assert analyze_callable(_chain_a).writes == set()  # e is too deep
        # _chain_b was reached above with the depth cut-off applied; a
        # direct call must still see its full chain.
        assert analyze_callable(_chain_b).writes == {"e_out"}


class TestSourceParseCache:
    def test_kb_passes_read_each_callable_once(self, monkeypatch):
        monkeypatch.setattr(kblint, "_SOURCE_CACHE", {})
        monkeypatch.setattr(kblint, "_ANALYSIS_CACHE", {})
        reads: Counter = Counter()
        getsourcelines = inspect.getsourcelines

        def counting(obj):
            reads[obj] += 1
            return getsourcelines(obj)

        # inspect.getsource reads through getsourcelines, so this counts both.
        monkeypatch.setattr(inspect, "getsourcelines", counting)
        lint_knowledge_base()
        lint_dataflow()
        lint_units()
        lint_feasibility()
        assert reads, "the KB passes read no source at all"
        twice = {obj.__qualname__: n for obj, n in reads.items() if n > 1}
        assert not twice, twice


# ----------------------------------------------------------------------
# One positive trigger per code
# ----------------------------------------------------------------------
class TestKbTriggers:
    def test_plan201_read_before_set(self):
        plan = Plan("p", [PlanStep("only", _read_missing)])
        report = lint_plan(plan)
        assert report.codes() == ["PLAN201"]
        assert report.has_errors

    def test_plan201_not_fired_for_soft_reads(self):
        plan = Plan("p", [PlanStep("only", _soft_read_missing)])
        assert lint_plan(plan).codes() == []

    def test_plan201_not_fired_when_earlier_step_sets(self):
        assert lint_plan(_two_step_plan()).codes() == []

    def test_plan201_preset_variables_count_as_set(self):
        plan = Plan("p", [PlanStep("only", _read_missing)])
        report = lint_plan(plan, preset=frozenset({"never_set"}))
        assert report.codes() == []

    def test_plan202_nonexistent_target(self):
        rule = Rule("patch", condition=_always, action=_restart_ghost)
        report = lint_plan(_two_step_plan(), [rule])
        assert report.codes() == ["PLAN202"]
        assert report.has_errors

    def test_plan202_target_after_patched_step(self):
        rule = Rule(
            "patch",
            condition=_always,
            action=_restart_second,
            on_failure=True,
            on_failure_steps=("first",),
        )
        report = lint_plan(_two_step_plan(), [rule])
        assert report.codes() == ["PLAN202"]
        assert report.max_severity() is Severity.ERROR

    def test_plan202_target_after_some_patched_steps_warns(self):
        rule = Rule(
            "patch",
            condition=_always,
            action=_restart_second,
            on_failure=True,
            on_failure_steps=("first", "second"),
        )
        report = lint_plan(_two_step_plan(), [rule])
        assert report.codes() == ["PLAN202"]
        assert report.max_severity() is Severity.WARNING

    def test_plan203_unknown_failure_step(self):
        rule = Rule(
            "patch",
            condition=_always,
            action=_set_x,
            on_failure=True,
            on_failure_steps=("ghost",),
        )
        assert lint_plan(_two_step_plan(), [rule]).codes() == ["PLAN203"]

    def test_plan204_unanalysable_step(self):
        plan = Plan("p", [PlanStep("opaque", print)])
        report = lint_plan(plan)
        assert report.codes() == ["PLAN204"]
        assert report.max_severity() is Severity.INFO

    def test_kb301_unknown_choice_slot(self):
        rule = Rule("patch", condition=_always, action=_choose_ghost_slot)
        report = lint_plan(_two_step_plan(), [rule])
        assert report.codes() == ["KB301"]
        assert report.max_severity() is Severity.WARNING

    def test_kb302_unproduced_sub_block(self):
        template = TopologyTemplate(
            block_type="opamp",
            style="fixture",
            build_plan=_two_step_plan,
            build_rules=list,
            sub_blocks=(("phantom_block", "current_mirror"),),
        )
        report = lint_template(template)
        assert report.codes() == ["KB302"]

    def test_kb303_broken_factory(self):
        def boom():
            raise RuntimeError("factory exploded")

        template = TopologyTemplate(
            block_type="opamp",
            style="fixture",
            build_plan=boom,
            build_rules=list,
        )
        report = lint_template(template)
        assert report.codes() == ["KB303"]
        assert "factory exploded" in report.errors[0].message


# ----------------------------------------------------------------------
# The shipped knowledge base is clean
# ----------------------------------------------------------------------
class TestKnowledgeBaseSelfCheck:
    def test_self_check_zero_findings(self):
        report = lint_knowledge_base()
        assert len(report) == 0, report.render_text()

    @pytest.mark.parametrize(
        "style", [t.style for t in OPAMP_CATALOG]
    )
    def test_each_registered_template_clean(self, style):
        template = OPAMP_CATALOG[style]
        report = lint_template(template)
        assert len(report) == 0, report.render_text()

    def test_opamp_preset_documented(self):
        assert DEFAULT_PRESETS["opamp"] == frozenset({"opamp_spec", "trace"})


# ----------------------------------------------------------------------
# Registry contract
# ----------------------------------------------------------------------
class TestRegistryContract:
    def test_duplicate_checker_name_rejected(self):
        registry = CheckerRegistry("test")

        @registry.register("one", ["T100"])
        def check_one(subject, context):
            return ()

        with pytest.raises(LintError, match="duplicate checker"):

            @registry.register("one", ["T101"])
            def check_one_again(subject, context):
                return ()

    def test_duplicate_code_rejected(self):
        registry = CheckerRegistry("test")

        @registry.register("one", ["T100"])
        def check_one(subject, context):
            return ()

        with pytest.raises(LintError, match="already claimed"):

            @registry.register("two", ["T100"])
            def check_two(subject, context):
                return ()

    def test_undeclared_emission_rejected(self):
        registry = CheckerRegistry("test")

        @registry.register("sneaky", ["T100"])
        def check_sneaky(subject, context):
            yield Diagnostic("T999", Severity.ERROR, "undeclared")

        with pytest.raises(LintError, match="undeclared code"):
            registry.run(object(), None)

    def test_code_owners_map(self):
        owners = KB_REGISTRY.code_owners()
        assert owners["PLAN201"] == "read-before-set"
        assert owners["KB303"] == "template-integrity"

    def test_unknown_checker_lookup(self):
        with pytest.raises(LintError, match="no checker named"):
            KB_REGISTRY["nonexistent"]

    def test_checker_metadata(self):
        checker = KB_REGISTRY["template-integrity"]
        assert checker.structural
        assert checker.doc  # first docstring line captured
