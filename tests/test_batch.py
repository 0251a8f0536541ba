"""Batch engine contract: grids, equivalence, retries, metrics merge.

The batch engine exists to run *exactly what single-shot synthesis
runs*, in bulk.  The headline properties:

* ``synthesize_many([spec])[0].record["design"]`` is byte-equal to a
  direct ``synthesize(spec).best.to_record()`` -- with and without the
  result cache, inline and on a process pool;
* output order is grid order for any jobs count;
* a crashed worker retries, then degrades to an error record -- never a
  lost task, never a raised exception.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.batch import (
    BatchTask,
    VOLATILE_KEYS,
    build_tasks,
    expand_sweeps,
    grid_from_config,
    parse_sweep,
    run_batch,
    synthesize_many,
    sweep_values,
)
from repro.batch.engine import _run_task
from repro.cache import ResultCache, cache_scope
from repro.errors import SpecificationError
from repro.kb.specs import OpAmpSpec
from repro.obs import Tracer
from repro.opamp.designer import synthesize
from repro.opamp.testcases import paper_test_cases
from repro.process import CMOS_5UM
from repro.resilience.faults import inject


CASES = paper_test_cases()
SPEC_A = CASES["A"]


def _base_spec(**overrides) -> OpAmpSpec:
    fields = dict(
        gain_db=60.0,
        unity_gain_hz=1e6,
        phase_margin_deg=60.0,
        slew_rate=2e6,
        load_capacitance=1e-11,
        output_swing=3.0,
    )
    fields.update(overrides)
    return OpAmpSpec(**fields)


def _round_trip(obj):
    return json.loads(json.dumps(obj))


# ----------------------------------------------------------------------
# Grid construction
# ----------------------------------------------------------------------
class TestSweepParsing:
    def test_range_list_and_scalar(self):
        assert parse_sweep("gain=60:70:5") == ("gain_db", [60.0, 65.0, 70.0])
        assert parse_sweep("slew=1e6,3e6") == ("slew_rate", [1e6, 3e6])
        assert parse_sweep("load=10p") == ("load_capacitance", [1e-11])

    def test_spice_suffixes_in_ranges(self):
        field, values = parse_sweep("load=5p:15p:5p")
        assert field == "load_capacitance"
        assert values == pytest.approx([5e-12, 1e-11, 1.5e-11])

    @pytest.mark.parametrize(
        "bad",
        ["gain", "gain=", "unknown=1:2:1", "gain=5:1:1", "gain=1:9:0", "gain=1:2"],
    )
    def test_rejects_malformed_sweeps(self, bad):
        with pytest.raises(SpecificationError):
            parse_sweep(bad)

    def test_sweep_values_accepts_lists(self):
        assert sweep_values([1, 2.5]) == [1.0, 2.5]
        assert sweep_values("1:3:1") == [1.0, 2.0, 3.0]


class TestGridExpansion:
    def test_cross_product_order_is_deterministic(self):
        labeled = expand_sweeps(
            _base_spec(),
            {"gain_db": [60.0, 70.0], "slew_rate": [1e6, 2e6]},
        )
        assert [label for label, _ in labeled] == [
            "gain_db=60,slew_rate=1e+06",
            "gain_db=60,slew_rate=2e+06",
            "gain_db=70,slew_rate=1e+06",
            "gain_db=70,slew_rate=2e+06",
        ]
        assert labeled[2][1].gain_db == 70.0
        assert labeled[2][1].slew_rate == 1e6

    def test_no_sweeps_is_the_base_spec(self):
        assert expand_sweeps(_base_spec(), {}) == [("spec", _base_spec())]

    def test_build_tasks_crosses_corners(self):
        tasks = build_tasks(
            [("s", _base_spec())], CMOS_5UM, corners=("typical", "slow")
        )
        assert [t.label for t in tasks] == ["s", "s@slow"]
        assert [t.index for t in tasks] == [0, 1]
        assert tasks[1].process.name != tasks[0].process.name or (
            tasks[1].process != tasks[0].process
        )

    def test_grid_from_config(self):
        tasks = grid_from_config(
            {
                "testcases": ["A"],
                "base": {
                    "gain_db": 60,
                    "unity_gain_hz": 1e6,
                    "phase_margin_deg": 60,
                    "slew_rate": 2e6,
                    "load_capacitance": 1e-11,
                    "output_swing": 3.0,
                },
                "sweeps": {"gain_db": "60:65:5"},
                "corners": ["typical", "slow"],
            },
            CMOS_5UM,
        )
        assert len(tasks) == (1 + 2) * 2

    @pytest.mark.parametrize(
        "config",
        [
            {},
            {"testcases": ["Z"]},
            {"sweeps": {"gain_db": [60]}},
            {"testcases": ["A"], "corners": ["weird"]},
            {"base": {"nope": 1}},
        ],
    )
    def test_grid_config_validation(self, config):
        with pytest.raises(SpecificationError):
            grid_from_config(config, CMOS_5UM)

    def test_tasks_are_picklable(self):
        import pickle

        tasks = build_tasks([("s", _base_spec())], CMOS_5UM)
        clone = pickle.loads(pickle.dumps(tasks[0]))
        assert clone == tasks[0]


# ----------------------------------------------------------------------
# Engine equivalence (the satellite-1 property)
# ----------------------------------------------------------------------
class TestSingleShotEquivalence:
    def test_batch_record_equals_direct_synthesis(self):
        direct = synthesize(SPEC_A, CMOS_5UM, best_effort=True)
        [result] = synthesize_many([SPEC_A], CMOS_5UM)
        assert result.ok
        assert result.record["design"] == _round_trip(direct.best.to_record())
        assert result.record["style"] == direct.best.style

    def test_cache_on_and_off_agree(self, tmp_path):
        [plain] = synthesize_many([SPEC_A], CMOS_5UM)
        [cold] = synthesize_many(
            [SPEC_A], CMOS_5UM, use_cache=True, cache_dir=str(tmp_path)
        )
        [warm] = synthesize_many(
            [SPEC_A], CMOS_5UM, use_cache=True, cache_dir=str(tmp_path)
        )
        assert cold.record["cache"] == "miss"
        assert warm.record["cache"] == "hit"
        assert plain.canonical() == cold.canonical() == warm.canonical()

    @given(
        gain=st.floats(min_value=40.0, max_value=75.0),
        slew=st.floats(min_value=5e5, max_value=5e6),
    )
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_equivalence_over_the_spec_space(self, gain, slew):
        spec = _base_spec(gain_db=gain, slew_rate=slew)
        direct = synthesize(spec, CMOS_5UM, best_effort=True)
        with cache_scope(ResultCache()):
            [batched] = synthesize_many([spec], CMOS_5UM, use_cache=True)
        assert batched.ok == direct.ok
        if direct.ok:
            assert batched.record["design"] == _round_trip(
                direct.best.to_record()
            )
        else:
            assert batched.record["design"] is None
            assert batched.record["failures"]

    def test_infeasible_spec_contained(self):
        hopeless = _base_spec(gain_db=400.0, unity_gain_hz=1e12)
        [result] = synthesize_many([hopeless], CMOS_5UM)
        assert not result.ok
        assert result.record["failures"]
        assert result.record["design"] is None


class TestGridOrderAndJobs:
    def _specs(self):
        return [(label, CASES[label]) for label in sorted(CASES)]

    def test_results_in_grid_order(self):
        results = synthesize_many(
            self._specs(), CMOS_5UM, corners=("typical", "slow")
        )
        assert [r.index for r in results] == list(range(6))
        assert [r.label for r in results] == [
            "A", "A@slow", "B", "B@slow", "C", "C@slow",
        ]

    def test_jobs_count_never_changes_canonical_records(self):
        # collect_trace=True: the design trace is part of the canonical
        # record, so it must be byte-stable too (no timestamps).
        inline = synthesize_many(
            self._specs(), CMOS_5UM, jobs=1, collect_trace=True
        )
        pooled = synthesize_many(
            self._specs(), CMOS_5UM, jobs=4, collect_trace=True
        )
        assert [r.canonical() for r in pooled] == [
            _round_trip(r.canonical()) for r in inline
        ]

    def test_volatile_keys_are_the_only_difference(self):
        [a] = synthesize_many([SPEC_A], CMOS_5UM)
        [b] = synthesize_many([SPEC_A], CMOS_5UM)
        for key in set(a.record) - set(VOLATILE_KEYS):
            assert a.record[key] == b.record[key], key

    def test_unlabeled_specs_get_positional_labels(self):
        results = synthesize_many([SPEC_A, CASES["B"]], CMOS_5UM)
        assert [r.label for r in results] == ["spec0", "spec1"]


# ----------------------------------------------------------------------
# Resilience
# ----------------------------------------------------------------------
class TestWorkerCrashContainment:
    def _task(self, **options) -> BatchTask:
        [task] = build_tasks([("t", SPEC_A)], CMOS_5UM, **options)
        return task

    def test_crash_retries_to_success_inline(self):
        with inject("worker.crash") as injector:
            [result] = list(run_batch([self._task()], jobs=1, retries=1))
        assert injector.fired_sites() == ["worker.crash"]
        assert result.ok
        assert result.attempts == 2

    def test_persistent_crash_degrades_to_error_record(self):
        with inject("worker.crash", times=-1):
            [result] = list(run_batch([self._task()], jobs=1, retries=2))
        assert not result.ok
        assert result.attempts == 3
        assert result.record["failures"][0]["kind"] == "worker"
        assert not result.record["failures"][0]["recoverable"]

    def test_crash_only_costs_the_crashed_task(self):
        tasks = build_tasks(
            [(label, CASES[label]) for label in sorted(CASES)], CMOS_5UM
        )
        with inject("worker.crash", at_hit=2, times=1):
            results = sorted(
                run_batch(tasks, jobs=1, retries=1), key=lambda r: r.index
            )
        assert [r.ok for r in results] == [True, True, True]
        assert [r.attempts for r in results] == [1, 2, 1]

    def test_clean_records_are_stamped_with_attempts(self):
        [result] = list(run_batch([self._task()], jobs=1, retries=1))
        assert result.record["attempts"] == 1
        assert "attempts" not in result.canonical()

    def test_broken_pool_resubmits_and_stamps_attempts(self, monkeypatch):
        """The BrokenProcessPool path directly: the first pool dies on
        its first result, the replacement finishes every casualty, and
        each record carries the true attempt count."""
        from concurrent.futures import Future

        from concurrent.futures.process import BrokenProcessPool

        from repro.batch import engine

        pools = []

        class FlakyPool:
            """Pool #1 breaks every future; replacements run inline."""

            def __init__(self, max_workers=None):
                pools.append(self)
                self.broken = len(pools) == 1

            def submit(self, fn, *args):
                future = Future()
                if self.broken:
                    future.set_exception(BrokenProcessPool("worker died"))
                else:
                    future.set_result(fn(*args))
                return future

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        monkeypatch.setattr(engine, "ProcessPoolExecutor", FlakyPool)
        tasks = build_tasks(
            [("a", SPEC_A), ("b", CASES["B"])], CMOS_5UM
        )
        tracer = Tracer()
        with tracer.activate():
            results = sorted(
                run_batch(tasks, jobs=2, retries=1), key=lambda r: r.index
            )
        assert len(pools) == 2, "the dead pool was not replaced"
        assert [r.ok for r in results] == [True, True]
        # Every task rode the broken pool once, then succeeded: the
        # resubmission must show up in the record *and* the metrics.
        assert [r.attempts for r in results] == [2, 2]
        assert [r.record["attempts"] for r in results] == [2, 2]
        counters = tracer.metrics.snapshot()["counters"]
        assert counters.get("batch.resubmitted") == 2
        assert counters.get("batch.retries") == 2

    def test_broken_pool_exhausts_retries_to_error_records(self, monkeypatch):
        from concurrent.futures import Future

        from concurrent.futures.process import BrokenProcessPool

        from repro.batch import engine

        class AlwaysBrokenPool:
            def __init__(self, max_workers=None):
                pass

            def submit(self, fn, *args):
                future = Future()
                future.set_exception(BrokenProcessPool("worker died"))
                return future

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        monkeypatch.setattr(engine, "ProcessPoolExecutor", AlwaysBrokenPool)
        [result] = list(run_batch([self._task()], jobs=2, retries=2))
        assert not result.ok
        assert result.attempts == 3
        assert result.record["attempts"] == 3
        assert result.record["failures"][0]["kind"] == "worker"


class TestObservability:
    def test_worker_metrics_merge_into_ambient_tracer(self):
        tracer = Tracer()
        with tracer.activate():
            results = synthesize_many([SPEC_A, CASES["B"]], CMOS_5UM, observe=True)
        assert all(r.ok for r in results)
        counters = tracer.metrics.snapshot()["counters"]
        assert counters.get("batch.tasks{status=ok}") == 2
        # Designer-level counters crossed the merge too.
        assert any(key.startswith("selection.") for key in counters)

    def test_inline_and_pooled_merges_agree(self):
        specs = [SPEC_A, CASES["B"]]
        snaps = []
        for jobs in (1, 2):
            tracer = Tracer()
            with tracer.activate():
                synthesize_many(specs, CMOS_5UM, observe=True, jobs=jobs)
            snaps.append(tracer.metrics.snapshot()["counters"])
        assert snaps[0] == snaps[1]

    def test_unobserved_records_carry_no_metrics(self):
        [result] = synthesize_many([SPEC_A], CMOS_5UM)
        assert "metrics" not in result.record

    def test_collect_trace(self):
        [result] = synthesize_many([SPEC_A], CMOS_5UM, collect_trace=True)
        kinds = {event["kind"] for event in result.record["trace"]}
        assert "plan_start" in kinds or "step" in kinds


class TestWorkerInternals:
    def test_run_task_record_is_strict_json(self):
        [task] = build_tasks([("t", SPEC_A)], CMOS_5UM, verify=False)
        record = _run_task(task)
        text = json.dumps(record, allow_nan=False)  # raises on NaN/inf
        assert json.loads(text)["label"] == "t"

    def test_budgeted_task_reports_budget_failures(self):
        [task] = build_tasks(
            [("t", SPEC_A)], CMOS_5UM, budget_wall_ms=0.0
        )
        record = _run_task(task)
        assert not record["ok"]
        assert any("budget" in f["kind"] for f in record["failures"])
