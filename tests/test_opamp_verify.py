"""Integration tests: synthesized op amps measured with the simulator.

These are the repro's stand-in for the paper's SPICE verification runs:
every design the synthesizer emits must bias up, amplify, and roughly
match its predicted performance.
"""

import pytest

from repro import CMOS_5UM, OpAmpSpec, synthesize, verify_opamp
from repro.errors import ConvergenceError
from repro.opamp import verify
from repro.opamp.designer import design_style
from repro.opamp.testcases import SPEC_A, SPEC_B, SPEC_C
from repro.obs.spans import Tracer
from repro.opamp.verify import open_loop_response
from repro.simulator import transient
from repro.simulator.analysis import crossover_frequency

from .transient_reference import install as install_fixed_step


def easy_spec(**overrides):
    base = dict(
        gain_db=45.0,
        unity_gain_hz=1e6,
        phase_margin_deg=60.0,
        slew_rate=2e6,
        load_capacitance=10e-12,
        output_swing=3.5,
    )
    base.update(overrides)
    return OpAmpSpec(**base)


@pytest.fixture(scope="module")
def amp_a():
    return synthesize(SPEC_A, CMOS_5UM).best


@pytest.fixture(scope="module")
def amp_b():
    return synthesize(SPEC_B, CMOS_5UM).best


@pytest.fixture(scope="module")
def amp_c():
    return synthesize(SPEC_C, CMOS_5UM).best


class TestOpenLoop:
    def test_case_a_gain_matches_prediction(self, amp_a):
        response = open_loop_response(amp_a)
        assert response.dc_gain_db == pytest.approx(
            amp_a.performance["gain_db"], abs=3.0
        )

    def test_case_b_gain_matches_prediction(self, amp_b):
        response = open_loop_response(amp_b)
        assert response.dc_gain_db == pytest.approx(
            amp_b.performance["gain_db"], abs=3.0
        )

    def test_case_c_meets_100db(self, amp_c):
        response = open_loop_response(amp_c)
        assert response.dc_gain_db >= 99.0

    def test_unity_gain_frequency_near_spec(self, amp_a):
        response = open_loop_response(amp_a)
        f_unity = crossover_frequency(response)
        assert f_unity == pytest.approx(SPEC_A.unity_gain_hz, rel=0.5)
        assert f_unity >= SPEC_A.unity_gain_hz * 0.95


class TestVerifyReports:
    def test_offset_searched_once(self, amp_a):
        """A full verification bisects for the offset once: it opens as
        many open-loop DC solves as one open_loop_response call."""

        def open_loop_solves(run):
            tracer = Tracer()
            with tracer.activate():
                run()
            return sum(s.name == "dc:ol_tb" for s in tracer.spans)

        alone = open_loop_solves(lambda: open_loop_response(amp_a))
        full = open_loop_solves(
            lambda: verify_opamp(
                amp_a, measure_rejections=True, measure_noise=True
            )
        )
        assert alone > 2
        assert full == alone

    def test_case_a_report(self, amp_a):
        report = verify_opamp(amp_a, measure_swing=False, measure_slew=False)
        assert report.get("gain_db") >= SPEC_A.gain_db
        assert report.get("phase_margin_deg") >= SPEC_A.phase_margin_deg
        assert report.get("power") > 0

    def test_case_a_one_stage_offset_visible(self, amp_a):
        """The inherent systematic offset of the one-stage style is
        milli-volt scale in simulation (and within its relaxed spec)."""
        report = verify_opamp(amp_a, measure_swing=False, measure_slew=False)
        offset = report.get("offset_mv")
        assert 1.0 < offset < SPEC_A.offset_max_mv

    def test_case_b_two_stage_offset_small(self, amp_b):
        """The balanced two-stage nulls systematic offset to within the
        tight case-B spec -- the discriminator the paper describes."""
        report = verify_opamp(amp_b, measure_swing=False, measure_slew=False)
        assert report.get("offset_mv") < SPEC_B.offset_max_mv

    def test_case_c_phase_margin_soft_shortfall(self, amp_c):
        """The paper: '45 deg of phase margin was specified, whereas 32
        deg was achieved.  However, this is acceptable for a first-cut
        design.'  The reproduction shows the same qualitative shortfall:
        stable (PM > 20 deg) but below the requested 45 deg."""
        report = verify_opamp(amp_c, measure_swing=False, measure_slew=False)
        pm = report.get("phase_margin_deg")
        assert 20.0 < pm < SPEC_C.phase_margin_deg

    def test_case_a_slew_rate(self, amp_a):
        report = verify_opamp(amp_a, measure_swing=False, measure_slew=True)
        assert report.get("slew_rate") >= SPEC_A.slew_rate * 0.9

    def test_case_a_swing(self, amp_a):
        report = verify_opamp(amp_a, measure_swing=True, measure_slew=False)
        assert report.get("output_swing") >= SPEC_A.output_swing * 0.95


class TestSlewTransient:
    @pytest.mark.parametrize("spec", [SPEC_A, SPEC_B, SPEC_C], ids="ABC")
    def test_slew_matches_fixed_step_oracle(self, monkeypatch, spec):
        """The measured slew rate is within 2% of the same bench run by
        the fixed-step oracle on a grid of duration / 6000."""
        amp = synthesize(spec, CMOS_5UM).best
        report = verify_opamp(amp)
        install_fixed_step(monkeypatch.setattr)
        adaptive = verify.transient_analysis

        def fine_grid(circuit, process, t_stop, t_step, **kwargs):
            return adaptive(circuit, process, t_stop, t_stop / 6000.0, **kwargs)

        monkeypatch.setattr(verify, "transient_analysis", fine_grid)
        oracle, _ = verify._measure_slew(amp, report.get("output_swing"))
        assert report.get("slew_rate") == pytest.approx(oracle, rel=0.02)

    def test_case_a_step_count(self, amp_a):
        tracer = Tracer()
        with tracer.activate():
            verify_opamp(amp_a)
        assert tracer.metrics.counter_total("transient.analyses") == 1
        assert tracer.metrics.counter_total("transient.timesteps") <= 150

    def test_newton_failure_becomes_note(self, monkeypatch, amp_a):
        def always_fail(system, x_prev, t, *args):
            raise ConvergenceError(f"transient NR failed at t={t:g}", 100)

        monkeypatch.setattr(transient, "_solve_timestep", always_fail)
        report = verify_opamp(amp_a, measure_swing=False)
        assert "slew_rate" not in report.measured
        assert report.notes["slew_rate"].startswith(
            "transient failed: transient NR failed"
        )


class TestPredictionAccuracy:
    """First-cut predictions must land near simulation ('close enough to
    apply other optimization tools')."""

    @pytest.mark.parametrize("style", ["one_stage", "two_stage"])
    def test_gain_prediction_within_3db(self, style):
        amp = design_style(style, easy_spec(), CMOS_5UM)
        response = open_loop_response(amp)
        assert response.dc_gain_db == pytest.approx(
            amp.performance["gain_db"], abs=3.0
        )

    def test_power_prediction_within_20_percent(self, amp_b):
        report = verify_opamp(amp_b, measure_swing=False, measure_slew=False)
        assert report.get("power") == pytest.approx(
            amp_b.performance["power"], rel=0.2
        )
