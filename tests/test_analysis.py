"""Tests for measurement utilities (repro.simulator.analysis)."""

import math

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.simulator.analysis import (
    FrequencyResponse,
    bandwidth_3db,
    crossover_frequency,
    gain_margin_db,
    phase_margin_deg,
    settling_time,
    slew_rate_from_waveform,
)


def single_pole(a0=1000.0, f_pole=1e3, f_lo=1.0, f_hi=1e8, n=400):
    freqs = np.logspace(math.log10(f_lo), math.log10(f_hi), n)
    response = a0 / (1 + 1j * freqs / f_pole)
    return FrequencyResponse(freqs, response)


def two_pole(a0=1000.0, f1=1e3, f2=1e6, f_lo=1.0, f_hi=1e9, n=600):
    freqs = np.logspace(math.log10(f_lo), math.log10(f_hi), n)
    response = a0 / ((1 + 1j * freqs / f1) * (1 + 1j * freqs / f2))
    return FrequencyResponse(freqs, response)


class TestFrequencyResponse:
    def test_dc_gain(self):
        resp = single_pole(a0=100.0)
        assert resp.dc_gain == pytest.approx(100.0, rel=1e-3)
        assert resp.dc_gain_db == pytest.approx(40.0, abs=0.05)

    def test_validation_length_mismatch(self):
        with pytest.raises(SimulationError):
            FrequencyResponse(np.array([1.0, 2.0]), np.array([1.0]))

    def test_validation_monotone(self):
        with pytest.raises(SimulationError):
            FrequencyResponse(np.array([2.0, 1.0]), np.array([1.0, 1.0]))

    def test_validation_too_short(self):
        with pytest.raises(SimulationError):
            FrequencyResponse(np.array([1.0]), np.array([1.0]))


class TestCrossover:
    def test_single_pole_gbw(self):
        # For a0 >> 1 single pole, unity crossing ~ a0 * f_pole.
        resp = single_pole(a0=1000.0, f_pole=1e3)
        f_unity = crossover_frequency(resp)
        assert f_unity == pytest.approx(1e6, rel=0.01)

    def test_no_crossover_returns_none(self):
        resp = single_pole(a0=0.5)  # never above unity
        assert crossover_frequency(resp) is None

    def test_sweep_too_short_returns_none(self):
        resp = single_pole(a0=1000.0, f_pole=1e3, f_hi=1e4)
        assert crossover_frequency(resp) is None


class TestPhaseMargin:
    def test_single_pole_is_90(self):
        resp = single_pole(a0=1000.0, f_pole=1e3)
        assert phase_margin_deg(resp) == pytest.approx(90.0, abs=2.0)

    def test_two_pole_reduced_margin(self):
        # With f2 = a0*f1 the magnitude dip pulls the crossover to
        # ~0.786*f2; analytic PM = 180 - atan(786) - atan(0.786) ~ 52 deg.
        resp = two_pole(a0=1000.0, f1=1e3, f2=1e6)
        pm = phase_margin_deg(resp)
        assert pm == pytest.approx(51.9, abs=2.0)

    def test_widely_spaced_poles_high_margin(self):
        resp = two_pole(a0=1000.0, f1=1e3, f2=1e8)
        assert phase_margin_deg(resp) > 80.0

    def test_none_without_crossover(self):
        assert phase_margin_deg(single_pole(a0=0.1)) is None


class TestGainMargin:
    def test_two_pole_never_reaches_180(self):
        # Two poles asymptote to -180 but never cross it.
        assert gain_margin_db(two_pole()) is None

    def test_three_pole_has_margin(self):
        freqs = np.logspace(0, 9, 800)
        response = 1000.0 / (
            (1 + 1j * freqs / 1e3) * (1 + 1j * freqs / 1e6) * (1 + 1j * freqs / 1e7)
        )
        gm = gain_margin_db(FrequencyResponse(freqs, response))
        assert gm is not None
        assert gm > 0  # stable system: magnitude below unity at -180


class TestBandwidth:
    def test_single_pole_3db(self):
        resp = single_pole(a0=1000.0, f_pole=1e3)
        assert bandwidth_3db(resp) == pytest.approx(1e3, rel=0.02)

    def test_none_if_flat(self):
        freqs = np.logspace(0, 6, 100)
        resp = FrequencyResponse(freqs, np.ones_like(freqs) * 10.0)
        assert bandwidth_3db(resp) is None


class TestSlewRate:
    def test_linear_ramp(self):
        times = np.linspace(0, 1e-6, 101)
        voltages = 5e6 * times  # 5 V/us
        assert slew_rate_from_waveform(times, voltages) == pytest.approx(5e6, rel=1e-3)

    def test_exponential_underestimates_slope_at_origin(self):
        tau = 1e-6
        times = np.linspace(0, 10e-6, 1001)
        voltages = 1.0 - np.exp(-times / tau)
        rate = slew_rate_from_waveform(times, voltages)
        # 20-80% average slope of an exponential: ln(0.8/0.2)/tau * dV ...
        t20 = -tau * math.log(0.8)
        t80 = -tau * math.log(0.2)
        expected = 0.6 / (t80 - t20)
        assert rate == pytest.approx(expected, rel=0.02)

    def test_falling_edge(self):
        times = np.linspace(0, 1e-6, 101)
        voltages = 5.0 - 5e6 * times
        assert slew_rate_from_waveform(times, voltages) == pytest.approx(5e6, rel=1e-3)

    def test_flat_waveform_raises(self):
        times = np.linspace(0, 1e-6, 11)
        with pytest.raises(SimulationError):
            slew_rate_from_waveform(times, np.ones_like(times))

    def test_short_record_raises(self):
        with pytest.raises(SimulationError):
            slew_rate_from_waveform(np.array([0.0, 1.0]), np.array([0.0, 1.0]))


class TestSettlingTime:
    def test_exponential_settling(self):
        tau = 1e-6
        times = np.linspace(0, 20e-6, 2001)
        voltages = 1.0 - np.exp(-times / tau)
        t_settle = settling_time(times, voltages, tolerance=0.01)
        # 1% settling of an exponential ~ 4.6 tau (relative to final value
        # at the end of a 20-tau record the residual shifts it slightly).
        assert t_settle == pytest.approx(4.6 * tau, rel=0.1)

    def test_uneven_grid_interpolates_band_entry(self):
        """Coarse samples after the band entry must not push the answer
        out to the next sample (6.0 here); the exact time is 4.60."""
        times = np.concatenate([np.linspace(0, 4.6, 47), [6.0, 8.0, 10.0]])
        voltages = 1.0 - np.exp(-times)
        t_settle = settling_time(times, voltages, tolerance=0.01)
        assert t_settle == pytest.approx(4.605, rel=0.01)

    def test_never_settles(self):
        times = np.linspace(0, 1e-6, 101)
        voltages = np.sin(times * 2e7) + times * 1e6
        assert settling_time(times, voltages, tolerance=0.001) is None

    def test_already_settled(self):
        times = np.linspace(0, 1e-6, 11)
        voltages = np.ones_like(times) * 2.0
        assert settling_time(times, voltages) == pytest.approx(0.0)
