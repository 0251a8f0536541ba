"""Tests for the noise analysis ('input noise' is a paper-named spec
parameter) and the designers' thermal-noise estimates."""

import math

import numpy as np
import pytest

from repro import CMOS_5UM, OpAmpSpec
from repro.circuit import GROUND, Circuit
from repro.errors import SimulationError, SynthesisError
from repro.opamp.common import KT, thermal_input_noise_nv
from repro.opamp.designer import design_style
from repro.opamp.verify import measure_input_noise
from repro.simulator import noise_analysis, operating_point
from repro.simulator.ac import solve_sweep


def spec(**overrides):
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


class TestResistorNoise:
    def test_single_resistor_matches_4ktr(self):
        """Output noise of an RC network equals 4kTR at low frequency
        (the resistor's full thermal noise appears across the node)."""
        c = Circuit("rc")
        c.add_vsource("vin", "in", GROUND, dc=0.0)
        c.add_resistor("r1", "in", "out", 10e3)
        c.add_capacitor("c1", "out", GROUND, 1e-12)
        op = operating_point(c, CMOS_5UM)
        result = noise_analysis(c, CMOS_5UM, op, [10.0], "out")
        expected = 4.0 * KT * 10e3
        assert result.output_psd[0] == pytest.approx(expected, rel=1e-3)

    def test_rc_noise_rolls_off(self):
        c = Circuit("rc")
        c.add_vsource("vin", "in", GROUND, dc=0.0)
        c.add_resistor("r1", "in", "out", 10e3)
        c.add_capacitor("c1", "out", GROUND, 1e-12)
        op = operating_point(c, CMOS_5UM)
        f_c = 1.0 / (2 * math.pi * 10e3 * 1e-12)
        result = noise_analysis(c, CMOS_5UM, op, [f_c / 100, f_c * 100], "out")
        assert result.output_psd[1] < result.output_psd[0] / 100

    def test_ktc_integral(self):
        """Integrating the RC output noise over a wide band approaches
        the kT/C limit."""
        c = Circuit("rc")
        c.add_vsource("vin", "in", GROUND, dc=0.0)
        c.add_resistor("r1", "in", "out", 10e3)
        c.add_capacitor("c1", "out", GROUND, 1e-12)
        op = operating_point(c, CMOS_5UM)
        freqs = np.linspace(1.0, 1e10, 4000)
        result = noise_analysis(c, CMOS_5UM, op, freqs, "out")
        v_rms = result.integrated_output_rms()
        assert v_rms == pytest.approx(math.sqrt(KT / 1e-12), rel=0.05)


class TestMosfetNoise:
    def cs_amp(self):
        c = Circuit("cs")
        c.add_vsource("vdd", "vdd", GROUND, dc=5.0)
        c.add_vsource("vin", "g", GROUND, dc=1.5)
        c.add_resistor("rl", "vdd", "d", 100e3)
        c.add_mosfet("m1", "d", "g", GROUND, GROUND, "nmos", 10e-6, 5e-6)
        return c

    def test_channel_thermal_noise_at_output(self):
        c = self.cs_amp()
        op = operating_point(c, CMOS_5UM)
        dev = op.device("m1")
        result = noise_analysis(c, CMOS_5UM, op, [1e6], "d")
        # At 1 MHz flicker is small; device share ~ 4kT(2/3)gm * Rout^2.
        r_out = 1.0 / (1.0 / 100e3 + dev.gds)
        expected = 4.0 * KT * (2.0 / 3.0) * dev.gm * r_out**2
        assert result.contributions["m1"][0] == pytest.approx(expected, rel=0.02)

    def test_flicker_dominates_low_frequency(self):
        c = self.cs_amp()
        op = operating_point(c, CMOS_5UM)
        result = noise_analysis(c, CMOS_5UM, op, [1.0, 1e7], "d")
        m1 = result.contributions["m1"]
        assert m1[0] > 10 * m1[1]  # 1/f rise at 1 Hz

    def test_contributions_sum_to_total(self):
        c = self.cs_amp()
        op = operating_point(c, CMOS_5UM)
        result = noise_analysis(c, CMOS_5UM, op, [1e3], "d")
        total = sum(v[0] for v in result.contributions.values())
        assert total == pytest.approx(result.output_psd[0], rel=1e-9)

    def test_dominant_contributor(self):
        c = self.cs_amp()
        op = operating_point(c, CMOS_5UM)
        result = noise_analysis(c, CMOS_5UM, op, [10.0], "d")
        assert result.dominant_contributor(0) == "m1"


class TestValidation:
    def test_ground_output_rejected(self):
        c = Circuit("r")
        c.add_vsource("v1", "a", GROUND, dc=1.0)
        c.add_resistor("r1", "a", GROUND, 1e3)
        op = operating_point(c, CMOS_5UM)
        with pytest.raises(SimulationError):
            noise_analysis(c, CMOS_5UM, op, [1e3], GROUND)

    def test_bad_frequencies(self):
        c = Circuit("r")
        c.add_vsource("v1", "a", GROUND, dc=1.0)
        c.add_resistor("r1", "a", GROUND, 1e3)
        op = operating_point(c, CMOS_5UM)
        with pytest.raises(SimulationError):
            noise_analysis(c, CMOS_5UM, op, [], "a")

    @pytest.mark.parametrize(
        "frequencies",
        [[float("nan")], [1e3, float("inf")]],
        ids=["nan", "inf"],
    )
    def test_non_finite_frequency_rejected(self, frequencies):
        c = Circuit("r")
        c.add_vsource("v1", "a", GROUND, dc=1.0)
        c.add_resistor("r1", "a", "b", 1e3)
        c.add_resistor("r2", "b", GROUND, 1e3)
        op = operating_point(c, CMOS_5UM)
        with pytest.raises(SimulationError, match="finite positive"):
            noise_analysis(c, CMOS_5UM, op, frequencies, "b")

    def test_singular_point_names_frequency_and_chains_cause(self):
        # Every matrix of the stack has an all-zero row, so the batched
        # solve fails; the per-point re-solve must name the first
        # frequency and chain numpy's LinAlgError.
        stack = np.zeros((2, 2, 2), dtype=complex)
        stack[:, 0, 0] = 1.0
        freqs = np.array([10.0, 20.0])
        with pytest.raises(SimulationError, match="failed at 10 Hz") as info:
            solve_sweep(stack, np.ones((2, 1), dtype=complex), freqs, "noise")
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


class TestOpAmpNoise:
    def test_estimate_close_to_measured_thermal(self):
        """The designer's first-order thermal estimate must land within
        ~30 % of the simulator's 100 kHz measurement."""
        amp = design_style("one_stage", spec(), CMOS_5UM)
        predicted = amp.performance["input_noise_nv"]
        measured = measure_input_noise(amp)["input_noise_nv_100k"]
        assert predicted == pytest.approx(measured, rel=0.3)

    def test_flicker_raises_1k_density(self):
        amp = design_style("one_stage", spec(), CMOS_5UM)
        results = measure_input_noise(amp)
        assert results["input_noise_nv_1k"] > results["input_noise_nv_100k"]

    def test_input_pair_dominates(self):
        amp = design_style("two_stage", spec(), CMOS_5UM)
        dominant = measure_input_noise(amp)["noise_dominant_element"]
        # The dominant device is one of the input pair (names m1/m2).
        assert dominant.endswith("m1") or dominant.endswith("m2")

    def test_noise_spec_enforced(self):
        """An aggressive input-noise ceiling disqualifies a style whose
        thermal estimate exceeds it."""
        with pytest.raises(SynthesisError, match="input_noise"):
            design_style("one_stage", spec(input_noise_max_nv=5.0), CMOS_5UM)

    def test_loose_noise_spec_passes(self):
        amp = design_style("one_stage", spec(input_noise_max_nv=200.0), CMOS_5UM)
        assert amp.performance["input_noise_nv"] <= 200.0

    def test_helper_formula(self):
        # Two pair devices only: S = (16kT/3) * 2 / gm1.
        gm1 = 100e-6
        expected = math.sqrt((16 * KT / 3) * 2 / gm1) * 1e9
        assert thermal_input_noise_nv(gm1, []) == pytest.approx(expected, rel=1e-9)

    def test_helper_rejects_bad_gm(self):
        with pytest.raises(SynthesisError):
            thermal_input_noise_nv(0.0, [])
