"""Transient analysis and DC sweep tests."""

import math

import numpy as np
import pytest

from repro.circuit import GROUND, Circuit
from repro.errors import SimulationError
from repro.process import CMOS_5UM
from repro.simulator import dc_sweep, transient_analysis
from repro.simulator.transient import step_waveform


class TestStepWaveform:
    def test_levels(self):
        wave = step_waveform(0.0, 1.0, t_step=1e-6, t_rise=1e-9)
        assert wave(0.0) == 0.0
        assert wave(1e-6) == 0.0
        assert wave(1e-6 + 1e-9) == 1.0
        assert wave(1.0) == 1.0

    def test_linear_rise(self):
        wave = step_waveform(0.0, 2.0, t_step=0.0, t_rise=1e-6)
        assert wave(0.5e-6) == pytest.approx(1.0)


class TestRcTransient:
    def test_rc_charging_curve(self):
        """RC step response must match the analytic exponential."""
        circuit = Circuit("rc")
        circuit.add_vsource("vin", "in", GROUND, dc=0.0)
        circuit.add_resistor("r1", "in", "out", 1e3)
        circuit.add_capacitor("c1", "out", GROUND, 1e-9)
        tau = 1e-6
        result = transient_analysis(
            circuit,
            CMOS_5UM,
            t_stop=5e-6,
            t_step=5e-9,
            stimuli={"vin": step_waveform(0.0, 1.0, t_step=0.0, t_rise=1e-9)},
        )
        v_out = result.voltage("out")
        times = result.times
        # Compare at 1, 2, 3 tau.
        for n_tau in (1.0, 2.0, 3.0):
            k = np.argmin(np.abs(times - n_tau * tau))
            expected = 1.0 - math.exp(-times[k] / tau)
            assert v_out[k] == pytest.approx(expected, abs=0.02)

    def test_initial_condition_from_dc(self):
        circuit = Circuit("rc")
        circuit.add_vsource("vin", "in", GROUND, dc=2.0)
        circuit.add_resistor("r1", "in", "out", 1e3)
        circuit.add_capacitor("c1", "out", GROUND, 1e-9)
        result = transient_analysis(circuit, CMOS_5UM, t_stop=1e-7, t_step=1e-9)
        assert result.voltage("out")[0] == pytest.approx(2.0, abs=1e-3)

    def test_times_monotone(self):
        circuit = Circuit("rc")
        circuit.add_vsource("vin", "in", GROUND, dc=1.0)
        circuit.add_resistor("r1", "in", "out", 1e3)
        circuit.add_capacitor("c1", "out", GROUND, 1e-9)
        result = transient_analysis(circuit, CMOS_5UM, t_stop=1e-7, t_step=1e-9)
        assert np.all(np.diff(result.times) > 0)
        assert result.times[-1] == pytest.approx(1e-7, rel=1e-6)

    def test_bad_time_range_rejected(self):
        circuit = Circuit("rc")
        circuit.add_vsource("vin", "in", GROUND, dc=1.0)
        circuit.add_resistor("r1", "in", GROUND, 1e3)
        with pytest.raises(SimulationError):
            transient_analysis(circuit, CMOS_5UM, t_stop=-1.0, t_step=1e-9)
        with pytest.raises(SimulationError):
            transient_analysis(circuit, CMOS_5UM, t_stop=1e-9, t_step=1e-6)

    @pytest.mark.parametrize(
        "t_stop, t_step",
        [
            (float("nan"), 1e-9),  # used to return a 1-point waveform
            (float("inf"), 1e-9),  # used to step forever
            (1e-7, float("nan")),  # used to burn the Newton budget
        ],
        ids=["t_stop_nan", "t_stop_inf", "t_step_nan"],
    )
    def test_non_finite_times_rejected_before_dc_solve(
        self, monkeypatch, t_stop, t_step
    ):
        def no_dc_solve(*args, **kwargs):
            raise AssertionError("DC solve ran before the time check")

        monkeypatch.setattr(
            "repro.simulator.transient.operating_point", no_dc_solve
        )
        circuit = Circuit("rc")
        circuit.add_vsource("vin", "in", GROUND, dc=1.0)
        circuit.add_resistor("r1", "in", GROUND, 1e3)
        with pytest.raises(SimulationError, match="bad transient range"):
            transient_analysis(circuit, CMOS_5UM, t_stop=t_stop, t_step=t_step)


class TestMosfetTransient:
    def test_inverter_switches(self):
        circuit = Circuit("inv")
        circuit.add_vsource("vdd", "vdd", GROUND, dc=5.0)
        circuit.add_vsource("vin", "in", GROUND, dc=0.0)
        circuit.add_mosfet("mp", "out", "in", "vdd", "vdd", "pmos", 30e-6, 5e-6)
        circuit.add_mosfet("mn", "out", "in", GROUND, GROUND, "nmos", 10e-6, 5e-6)
        circuit.add_capacitor("cl", "out", GROUND, 1e-12)
        result = transient_analysis(
            circuit,
            CMOS_5UM,
            t_stop=2e-7,
            t_step=5e-10,
            stimuli={"vin": step_waveform(0.0, 5.0, t_step=2e-8, t_rise=1e-9)},
        )
        v_out = result.voltage("out")
        assert v_out[0] == pytest.approx(5.0, abs=0.1)   # input low -> out high
        assert v_out[-1] == pytest.approx(0.0, abs=0.1)  # input high -> out low

    def test_current_source_slew_on_capacitor(self):
        """A current step into a capacitor ramps linearly: dV/dt = I/C."""
        circuit = Circuit("ramp")
        circuit.add_isource("i1", GROUND, "out", dc=0.0)
        circuit.add_capacitor("c1", "out", GROUND, 1e-9)
        circuit.add_resistor("r1", "out", GROUND, 1e9)  # DC path
        result = transient_analysis(
            circuit,
            CMOS_5UM,
            t_stop=1e-4,
            t_step=1e-6,
            stimuli={"i1": step_waveform(0.0, 1e-6, t_step=0.0, t_rise=1e-9)},
        )
        v_out = result.voltage("out")
        slope = (v_out[-1] - v_out[50]) / (result.times[-1] - result.times[50])
        assert slope == pytest.approx(1e-6 / 1e-9, rel=0.01)


class TestDcSweep:
    def test_inverter_transfer_curve(self):
        circuit = Circuit("inv")
        circuit.add_vsource("vdd", "vdd", GROUND, dc=5.0)
        circuit.add_vsource("vin", "in", GROUND, dc=0.0)
        circuit.add_mosfet("mp", "out", "in", "vdd", "vdd", "pmos", 30e-6, 5e-6)
        circuit.add_mosfet("mn", "out", "in", GROUND, GROUND, "nmos", 10e-6, 5e-6)
        circuit.add_resistor("rl", "out", GROUND, 1e9)
        sweep = dc_sweep(circuit, CMOS_5UM, "vin", np.linspace(0, 5, 21))
        v_out = sweep.voltages("out")
        assert v_out[0] == pytest.approx(5.0, abs=0.05)
        assert v_out[-1] == pytest.approx(0.0, abs=0.05)
        # Monotone non-increasing transfer curve.
        assert np.all(np.diff(v_out) <= 1e-6)

    def test_sweep_non_source_rejected(self):
        circuit = Circuit("x")
        circuit.add_vsource("vin", "a", GROUND, dc=1.0)
        circuit.add_resistor("r1", "a", GROUND, 1e3)
        with pytest.raises(SimulationError):
            dc_sweep(circuit, CMOS_5UM, "r1", [0.0, 1.0])

    def test_sweep_length(self):
        circuit = Circuit("x")
        circuit.add_vsource("vin", "a", GROUND, dc=1.0)
        circuit.add_resistor("r1", "a", GROUND, 1e3)
        sweep = dc_sweep(circuit, CMOS_5UM, "vin", [0.0, 0.5, 1.0])
        assert len(sweep) == 3
        assert sweep.voltages("a")[1] == pytest.approx(0.5, rel=1e-6)
