"""Transient analysis and DC sweep tests."""

import math

import numpy as np
import pytest

from repro.circuit import GROUND, Circuit
from repro.errors import ConvergenceError, SimulationError
from repro.process import CMOS_5UM
from repro.simulator import dc_sweep, transient, transient_analysis
from repro.simulator.transient import step_waveform

from .transient_reference import install as install_fixed_step


def rc_circuit():
    circuit = Circuit("rc")
    circuit.add_vsource("vin", "in", GROUND, dc=0.0)
    circuit.add_resistor("r1", "in", "out", 1e3)
    circuit.add_capacitor("c1", "out", GROUND, 1e-9)
    return circuit


def rc_step_response(t_step=5e-8):
    """The RC step response over 5 tau = 5 us, input edge at 0.1 us."""
    return transient_analysis(
        rc_circuit(),
        CMOS_5UM,
        t_stop=5e-6,
        t_step=t_step,
        stimuli={"vin": step_waveform(0.0, 1.0, t_step=1e-7, t_rise=1e-9)},
    )


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

    def test_device_capacitances_refreshed_at_accepted_timepoints(
        self, monkeypatch
    ):
        """The quasi-static MOSFET capacitances of each step come from
        the accepted solution, not from a Newton iterate before it."""
        from repro.simulator.mna import MnaSystem

        original = MnaSystem.mosfet_capacitances
        points = []

        def recorded(self, x):
            points.append(np.array(x[: self.n_nodes]))
            return original(self, x)

        monkeypatch.setattr(MnaSystem, "mosfet_capacitances", recorded)
        circuit = Circuit("inv")
        circuit.add_vsource("vdd", "vdd", GROUND, dc=5.0)
        circuit.add_vsource("vin", "in", GROUND, dc=0.0)
        circuit.add_mosfet("mp", "out", "in", "vdd", "vdd", "pmos", 30e-6, 5e-6)
        circuit.add_mosfet("mn", "out", "in", GROUND, GROUND, "nmos", 10e-6, 5e-6)
        circuit.add_capacitor("cl", "out", GROUND, 1e-12)
        result = transient_analysis(
            circuit,
            CMOS_5UM,
            t_stop=5e-8,
            t_step=5e-10,
            stimuli={"vin": step_waveform(0.0, 5.0, t_step=1e-8, t_rise=1e-9)},
        )
        system = MnaSystem(circuit, CMOS_5UM)
        accepted = np.column_stack(
            [result.voltage(node) for node in system.nodes]
        )
        # One refresh for the initial condition, then one per step.
        assert len(points) == len(result.times)
        for point, row in zip(points, accepted):
            assert np.array_equal(point, row)

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


class TestStimuliNames:
    """A stimulus must drive a voltage or current source; any other key
    is refused before the DC solve."""

    @pytest.fixture(autouse=True)
    def no_dc_solve(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("DC solve ran before the stimuli check")

        monkeypatch.setattr(transient, "operating_point", refuse)

    def test_key_naming_no_element_rejected(self):
        # Used to be ignored: the run returned a flat 0 V waveform.
        wave = step_waveform(0.0, 1.0, t_step=0.0)
        with pytest.raises(SimulationError, match="'vinn'"):
            transient_analysis(
                rc_circuit(), CMOS_5UM, 1e-6, 1e-8, stimuli={"vinn": wave}
            )

    def test_key_naming_a_resistor_rejected(self):
        # Used to escape as a bare TypeError from dataclasses.replace.
        wave = step_waveform(0.0, 1.0, t_step=0.0)
        with pytest.raises(SimulationError, match="'r1'"):
            transient_analysis(
                rc_circuit(), CMOS_5UM, 1e-6, 1e-8, stimuli={"R1": wave}
            )


class TestStepControl:
    def test_steps_bounded_and_end_on_t_stop(self):
        result = rc_step_response()
        steps = np.diff(result.times)
        assert result.times[0] == 0.0
        assert result.times[-1] == 5e-6
        assert np.all(steps > 0)
        assert np.all(steps <= 5e-8 * (1 + 1e-12))

    def test_agrees_with_fixed_step_oracle(self, monkeypatch):
        """The adaptive waveform, interpolated onto a fine fixed-step
        oracle grid, matches it to well under 1% of the step."""
        adaptive = rc_step_response()
        install_fixed_step(monkeypatch.setattr)
        oracle = rc_step_response(t_step=5e-10)
        resampled = np.interp(
            oracle.times, adaptive.times, adaptive.voltage("out")
        )
        assert np.max(np.abs(resampled - oracle.voltage("out"))) < 5e-3

    def test_newton_failure_retries_on_smaller_step(self, monkeypatch):
        original = transient._solve_timestep
        calls = []

        def fail_fifth(system, x_prev, t, h, *args):
            calls.append((t, h))
            if len(calls) == 5:
                raise ConvergenceError("injected", 1)
            return original(system, x_prev, t, h, *args)

        monkeypatch.setattr(transient, "_solve_timestep", fail_fifth)
        result = rc_step_response()
        (t_failed, h_failed), (t_retry, h_retry) = calls[4], calls[5]
        assert h_retry == h_failed / 8.0
        assert t_retry < t_failed
        assert t_failed not in result.times
        assert t_retry in result.times
        assert result.times[-1] == 5e-6

    def test_newton_failure_everywhere_raises(self, monkeypatch):
        calls = []

        def always_fail(system, x_prev, t, h, *args):
            calls.append(h)
            raise ConvergenceError(f"transient NR failed at t={t:g}", 100)

        monkeypatch.setattr(transient, "_solve_timestep", always_fail)
        with pytest.raises(ConvergenceError, match="transient NR failed"):
            rc_step_response()
        # Cut by 8 from t_step / 4 until below the t_step * 1e-9 floor.
        assert calls[0] == 5e-8 / 4.0
        assert calls[-1] >= 5e-8 * 1e-9 > calls[-1] / 8.0
        assert len(calls) == 10


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
