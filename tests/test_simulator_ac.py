"""AC analysis tests against analytically solvable circuits."""

import math

import numpy as np
import pytest

from repro.circuit import GROUND, Circuit
from repro.errors import SimulationError
from repro.process import CMOS_5UM
from repro.simulator import ac_analysis, operating_point
from repro.simulator.ac import log_frequencies


def rc_lowpass(r=1e3, c=1e-9):
    circuit = Circuit("rc")
    circuit.add_vsource("vin", "in", GROUND, dc=0.0, ac=1.0)
    circuit.add_resistor("r1", "in", "out", r)
    circuit.add_capacitor("c1", "out", GROUND, c)
    return circuit


class TestRcFilter:
    def test_corner_frequency(self):
        circuit = rc_lowpass()
        op = operating_point(circuit, CMOS_5UM)
        f_c = 1.0 / (2 * math.pi * 1e3 * 1e-9)  # ~159 kHz
        result = ac_analysis(circuit, CMOS_5UM, op, [f_c])
        assert abs(result.voltage("out")[0]) == pytest.approx(1 / math.sqrt(2), rel=1e-3)

    def test_dc_passthrough(self):
        circuit = rc_lowpass()
        op = operating_point(circuit, CMOS_5UM)
        result = ac_analysis(circuit, CMOS_5UM, op, [1.0])
        assert abs(result.voltage("out")[0]) == pytest.approx(1.0, rel=1e-4)

    def test_high_frequency_rolloff_20db_per_decade(self):
        circuit = rc_lowpass()
        op = operating_point(circuit, CMOS_5UM)
        result = ac_analysis(circuit, CMOS_5UM, op, [10e6, 100e6])
        mags = result.magnitude_db("out")
        assert mags[0] - mags[1] == pytest.approx(20.0, abs=0.5)

    def test_phase_at_corner_is_minus_45(self):
        circuit = rc_lowpass()
        op = operating_point(circuit, CMOS_5UM)
        f_c = 1.0 / (2 * math.pi * 1e3 * 1e-9)
        result = ac_analysis(circuit, CMOS_5UM, op, [f_c])
        assert result.phase_deg("out")[0] == pytest.approx(-45.0, abs=0.5)

    def test_exact_transfer_function(self):
        circuit = rc_lowpass()
        op = operating_point(circuit, CMOS_5UM)
        freqs = log_frequencies(1e3, 1e7, 5)
        result = ac_analysis(circuit, CMOS_5UM, op, freqs)
        measured = result.voltage("out")
        expected = 1.0 / (1.0 + 2j * np.pi * freqs * 1e3 * 1e-9)
        assert np.allclose(measured, expected, rtol=1e-6)


class TestSourceHandling:
    def test_ac_current_source(self):
        circuit = Circuit("norton")
        circuit.add_isource("iin", GROUND, "out", dc=0.0, ac=1e-3)
        circuit.add_resistor("r1", "out", GROUND, 2e3)
        op = operating_point(circuit, CMOS_5UM)
        result = ac_analysis(circuit, CMOS_5UM, op, [1e3])
        assert abs(result.voltage("out")[0]) == pytest.approx(2.0, rel=1e-6)

    def test_source_override(self):
        circuit = rc_lowpass()
        op = operating_point(circuit, CMOS_5UM)
        result = ac_analysis(
            circuit, CMOS_5UM, op, [1.0], source_overrides={"vin": 2.0}
        )
        assert abs(result.voltage("out")[0]) == pytest.approx(2.0, rel=1e-4)

    def test_override_silences_source(self):
        circuit = rc_lowpass()
        op = operating_point(circuit, CMOS_5UM)
        result = ac_analysis(
            circuit, CMOS_5UM, op, [1.0], source_overrides={"vin": 0.0}
        )
        assert abs(result.voltage("out")[0]) == pytest.approx(0.0, abs=1e-12)


class TestMosfetAc:
    def test_common_source_gain_matches_gm_times_load(self):
        """CS amplifier with ideal current-source load degenerates to
        gm*rout; here a resistor load gives gain ~ gm*(RL || ro)."""
        circuit = Circuit("cs")
        circuit.add_vsource("vdd", "vdd", GROUND, dc=5.0)
        circuit.add_vsource("vin", "g", GROUND, dc=1.5, ac=1.0)
        circuit.add_resistor("rl", "vdd", "d", 100e3)
        circuit.add_mosfet("m1", "d", "g", GROUND, GROUND, "nmos", 10e-6, 5e-6)
        op = operating_point(circuit, CMOS_5UM)
        dev = op.device("m1")
        expected_gain = dev.gm * (100e3 * dev.output_resistance()) / (
            100e3 + dev.output_resistance()
        )
        result = ac_analysis(circuit, CMOS_5UM, op, [100.0])
        measured = abs(result.voltage("d")[0])
        assert measured == pytest.approx(expected_gain, rel=0.01)

    def test_cs_amplifier_inverts(self):
        circuit = Circuit("cs")
        circuit.add_vsource("vdd", "vdd", GROUND, dc=5.0)
        circuit.add_vsource("vin", "g", GROUND, dc=1.5, ac=1.0)
        circuit.add_resistor("rl", "vdd", "d", 100e3)
        circuit.add_mosfet("m1", "d", "g", GROUND, GROUND, "nmos", 10e-6, 5e-6)
        op = operating_point(circuit, CMOS_5UM)
        result = ac_analysis(circuit, CMOS_5UM, op, [100.0])
        phase = math.degrees(np.angle(result.voltage("d")[0]))
        assert abs(abs(phase) - 180.0) < 1.0

    def test_gate_capacitance_creates_input_pole(self):
        """Driving a big MOSFET gate through a big resistor must show a
        visible pole from cgs."""
        circuit = Circuit("pole")
        circuit.add_vsource("vdd", "vdd", GROUND, dc=5.0)
        circuit.add_vsource("vin", "in", GROUND, dc=1.5, ac=1.0)
        circuit.add_resistor("rg", "in", "g", 1e6)
        circuit.add_resistor("rl", "vdd", "d", 10e3)
        circuit.add_mosfet("m1", "d", "g", GROUND, GROUND, "nmos", 1000e-6, 5e-6)
        op = operating_point(circuit, CMOS_5UM)
        low = ac_analysis(circuit, CMOS_5UM, op, [10.0])
        dev = op.device("m1")
        c_in = dev.cgs + dev.cgb  # Miller on cgd adds more
        f_pole = 1.0 / (2 * math.pi * 1e6 * c_in)
        high = ac_analysis(circuit, CMOS_5UM, op, [f_pole * 100])
        assert abs(high.voltage("g")[0]) < 0.05 * abs(low.voltage("g")[0])


class TestValidation:
    def test_empty_frequencies_rejected(self):
        circuit = rc_lowpass()
        op = operating_point(circuit, CMOS_5UM)
        with pytest.raises(SimulationError):
            ac_analysis(circuit, CMOS_5UM, op, [])

    def test_negative_frequency_rejected(self):
        circuit = rc_lowpass()
        op = operating_point(circuit, CMOS_5UM)
        with pytest.raises(SimulationError):
            ac_analysis(circuit, CMOS_5UM, op, [-1.0])

    @pytest.mark.parametrize(
        "frequencies",
        [[float("nan")], [1e3, float("inf")], [1e3, float("-inf")]],
        ids=["nan", "inf", "-inf"],
    )
    def test_non_finite_frequency_rejected(self, frequencies):
        # Used to return NaN phasors with no error.
        circuit = rc_lowpass()
        op = operating_point(circuit, CMOS_5UM)
        with pytest.raises(SimulationError, match="finite positive"):
            ac_analysis(circuit, CMOS_5UM, op, frequencies)

    def test_log_frequencies_span(self):
        freqs = log_frequencies(1.0, 1e6, 10)
        assert freqs[0] == pytest.approx(1.0)
        assert freqs[-1] == pytest.approx(1e6)
        assert len(freqs) == 61

    def test_log_frequencies_bad_range(self):
        with pytest.raises(SimulationError):
            log_frequencies(10.0, 1.0)

    def test_unknown_node_in_result(self):
        circuit = rc_lowpass()
        op = operating_point(circuit, CMOS_5UM)
        result = ac_analysis(circuit, CMOS_5UM, op, [1e3])
        with pytest.raises(SimulationError):
            result.voltage("bogus")

    def test_ground_phasor_is_zero(self):
        circuit = rc_lowpass()
        op = operating_point(circuit, CMOS_5UM)
        result = ac_analysis(circuit, CMOS_5UM, op, [1e3])
        assert np.all(result.voltage(GROUND) == 0)

    def test_transfer_ratio(self):
        circuit = rc_lowpass()
        op = operating_point(circuit, CMOS_5UM)
        result = ac_analysis(circuit, CMOS_5UM, op, [1e3])
        ratio = result.transfer("out", "in")
        assert abs(ratio[0]) <= 1.0
