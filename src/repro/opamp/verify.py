"""Simulator-based verification of synthesized op amps.

"SPICE simulations are used to estimate the resulting performance of
these circuits."  This module is that verification step, run on the
in-repo MNA simulator:

* **offset**: the differential input voltage that centres the output,
  found by a warm-started regula falsi search on DC operating points
  (this *is* the measured input-referred offset, systematic effects
  included);
  :func:`offset_nulled_bench` runs that search once and returns the
  open-loop testbench and operating point at the offset;
* **gain / UGF / phase margin**: open-loop AC analysis at the
  offset-nulled operating point;
* **output swing**: a unity-gain buffer swept across the rails; the
  swing is where the buffer stops tracking;
* **slew rate** and 1% **settling time**: large-signal step response of
  the unity-gain buffer, one transient whose step follows the local
  truncation error;
* **power**: total supply power at the quiescent point;
* optionally **CMRR / PSRR** and **input-referred noise**, from the
  same offset-nulled operating point.

:func:`verify_opamp` searches for the offset once and takes offset,
power, AC, rejection and noise from that one bench.  The public
single-measurement entry points (:func:`open_loop_response`,
:func:`measure_rejection`, :func:`input_noise_spectrum`,
:func:`measure_input_noise`) each run their own search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from ..circuit.builder import CircuitBuilder
from ..circuit.netlist import Circuit
from ..errors import ConvergenceError, SimulationError
from ..kb.trace import DesignTrace
from ..obs.spans import count as metric_count
from ..obs.spans import span as obs_span
from ..simulator.ac import ac_analysis, log_frequencies
from ..simulator.analysis import (
    FrequencyResponse,
    crossover_frequency,
    phase_margin_deg,
    settling_time,
    slew_rate_from_waveform,
)
from ..simulator.dc import operating_point
from ..simulator.mna import OperatingPointResult
from ..simulator.transient import step_waveform, transient_analysis
from .result import DesignedOpAmp

__all__ = ["VerificationReport", "verify_opamp", "open_loop_response"]


@dataclass
class VerificationReport:
    """Measured (simulated) performance of a synthesized op amp.

    ``measured`` uses the same keys as the designer's predictions so the
    two can be tabulated side by side (the repo's Table 2).
    """

    measured: Dict[str, float] = field(default_factory=dict)
    offset_v: float = 0.0
    notes: Dict[str, str] = field(default_factory=dict)

    def get(self, key: str, default: float = math.nan) -> float:
        return self.measured.get(key, default)


def _open_loop_testbench(amp: DesignedOpAmp, vin_offset: float) -> Circuit:
    """Amp driven differentially at inp, inn grounded, load attached."""
    builder = CircuitBuilder("ol_tb", amp.process)
    builder.supplies()
    builder.vsource("in", "inp", "0", dc=vin_offset, ac=1.0)
    builder.vsource("inn", "inn", "0", dc=0.0)
    builder.capacitor("load", "out", "0", amp.spec.load_capacitance)
    builder.resistor("leak", "out", "0", 1e12)  # defines the DC level
    amp.emit(builder, "inp", "inn", "out")
    return builder.build()


def offset_nulled_bench(
    amp: DesignedOpAmp,
    vth_shifts: Optional[Dict[str, float]] = None,
    centre: float = 0.0,
) -> Tuple[float, Circuit, OperatingPointResult]:
    """Find the differential input that centres the output at 0 V.

    The search is Illinois regula falsi over the window ``centre +- 0.3``
    volts: each step solves at the secant root of the bracket, and an
    end that survives two steps in a row has its output halved, so the
    bracket closes from both sides.  It stops once the output is within
    1 mV of 0 V (or after 40 steps).  Every solve after the first starts
    from the previous operating point.  ``vth_shifts`` perturbs the
    device thresholds (the Monte Carlo mismatch hook).  Every open-loop
    measurement starts from the bench this returns, so one verification
    searches for the offset once.

    Returns:
        ``(offset, circuit, op)``: the offset voltage, the open-loop
        testbench driven at it, and its operating point.  That last
        solve threads ``amp.trace``, so a solve that needed the retry
        ladder leaves its escalation history next to the plan events.

    Raises:
        SimulationError: when the output cannot be centred within the
            window (the amp is broken or railed).
    """
    guess: Dict[str, float] = {}

    def solve(
        vin: float, trace: Optional[DesignTrace] = None
    ) -> Tuple[Circuit, OperatingPointResult]:
        circuit = _open_loop_testbench(amp, vin)
        op = operating_point(
            circuit,
            amp.process,
            initial_guess=guess,
            vth_shifts=vth_shifts,
            trace=trace,
        )
        guess.update(op.voltages)
        return circuit, op

    def output_at(vin: float) -> float:
        return solve(vin)[1].voltage("out")

    search = 0.3
    lo, hi = centre - search, centre + search
    v_lo = output_at(lo)
    v_hi = output_at(hi)
    if v_lo > 0 or v_hi < 0:
        raise SimulationError(
            f"output does not cross 0 V within +-{search} V differential "
            f"input (got {v_lo:.2f} V .. {v_hi:.2f} V); amplifier polarity "
            f"or bias is broken"
        )
    mid = centre
    kept = 0  # +1 / -1: the low / high end survived the last step
    for _ in range(40):
        mid = lo - v_lo * (hi - lo) / (v_hi - v_lo)
        v_mid = output_at(mid)
        if abs(v_mid) < 1e-3:
            break
        if v_mid > 0:
            hi, v_hi = mid, v_mid
            if kept > 0:
                v_lo *= 0.5
            kept = 1
        else:
            lo, v_lo = mid, v_mid
            if kept < 0:
                v_hi *= 0.5
            kept = -1
    circuit, op = solve(mid, trace=amp.trace)
    return mid, circuit, op


def _open_loop_ac(
    amp: DesignedOpAmp,
    circuit: Circuit,
    op: OperatingPointResult,
    f_start: float = 1.0,
    f_stop: Optional[float] = None,
    points_per_decade: int = 15,
) -> FrequencyResponse:
    if f_stop is None:
        f_stop = max(10.0 * amp.spec.unity_gain_hz, 1e7)
    freqs = log_frequencies(f_start, f_stop, points_per_decade)
    ac = ac_analysis(circuit, amp.process, op, freqs)
    return FrequencyResponse(freqs, ac.voltage("out"))


def open_loop_response(
    amp: DesignedOpAmp,
    f_start: float = 1.0,
    f_stop: Optional[float] = None,
    points_per_decade: int = 15,
) -> FrequencyResponse:
    """Open-loop differential transfer function of the amp.

    The DC point is offset-nulled first so every device is in its
    intended region.
    """
    _, circuit, op = offset_nulled_bench(amp)
    return _open_loop_ac(amp, circuit, op, f_start, f_stop, points_per_decade)


def _buffer_testbench(amp: DesignedOpAmp, vin: float) -> Circuit:
    """Unity-gain buffer: inn tied to out."""
    builder = CircuitBuilder("buf_tb", amp.process)
    builder.supplies()
    builder.vsource("in", "inp", "0", dc=vin)
    builder.capacitor("load", "out", "0", amp.spec.load_capacitance)
    builder.resistor("leak", "out", "0", 1e12)
    amp.emit(builder, "inp", "out", "out")
    return builder.build()


def _measure_swing(amp: DesignedOpAmp, tracking_error: float = 0.25) -> float:
    """Sweep the unity-gain buffer and report the symmetric range over
    which it tracks within ``tracking_error`` volts."""
    half = amp.process.supply_span / 2.0
    values = np.linspace(-half, half, 41)
    reach_pos = 0.0
    reach_neg = 0.0
    guess: Dict[str, float] = {}
    for vin in values:
        circuit = _buffer_testbench(amp, float(vin))
        try:
            op = operating_point(circuit, amp.process, initial_guess=guess)
        except ConvergenceError:
            continue
        guess = dict(op.voltages)
        if abs(op.voltage("out") - vin) <= tracking_error:
            if vin >= 0:
                reach_pos = max(reach_pos, float(vin))
            else:
                reach_neg = min(reach_neg, float(vin))
    return min(reach_pos, -reach_neg)


def _measure_slew(amp: DesignedOpAmp, swing: float):
    """Step the unity-gain buffer across most of the verified swing;
    returns (slew_rate, settling_time_1pct_or_None) from one transient.

    The run spans four times the predicted transition, with the input
    edge at 5% of it.  Its step is controlled by local truncation error
    and capped at 1/50 of the span, SPICE2's default TMAX, so the
    timepoints are uneven: about 90 on the paper cases.
    """
    step = max(0.5, 0.6 * swing)
    expected = amp.performance.get("slew_rate", amp.spec.slew_rate)
    duration = 4.0 * (2.0 * step) / expected
    t_step = duration / 50.0
    builder = CircuitBuilder("slew_tb", amp.process)
    builder.supplies()
    builder.vsource("in", "inp", "0", dc=-step)
    builder.capacitor("load", "out", "0", amp.spec.load_capacitance)
    builder.resistor("leak", "out", "0", 1e12)
    amp.emit(builder, "inp", "out", "out")
    circuit = builder.build()
    result = transient_analysis(
        circuit,
        amp.process,
        t_stop=duration,
        t_step=t_step,
        stimuli={"vin": step_waveform(-step, step, t_step=duration * 0.05)},
    )
    # The input source name got scope-qualified to "vin" by the builder.
    waveform = result.voltage("out")
    slew = slew_rate_from_waveform(result.times, waveform)
    t_settle = settling_time(result.times, waveform, tolerance=0.01)
    if t_settle is not None:
        # Reference settling to the step instant, not t=0.
        t_settle = max(0.0, t_settle - duration * 0.05)
    return slew, t_settle


def measure_rejection(
    amp: DesignedOpAmp, frequency: float = 100.0
) -> Dict[str, float]:
    """Measure CMRR and PSRR at a low frequency, decibels.

    Three extra single-frequency AC solves around the offset-nulled
    operating point: differential drive (Adm), common-mode drive (Acm),
    and supply drive (Avdd / Avss), using the simulator's source
    overrides so the netlist is not edited.

    Returns:
        ``{"cmrr_db", "psrr_vdd_db", "psrr_vss_db"}`` (a PSRR key is
        omitted when the circuit has no corresponding supply source).
    """
    _, circuit, op = offset_nulled_bench(amp)
    return _rejection(amp, circuit, op, frequency)


def _rejection(
    amp: DesignedOpAmp,
    circuit: Circuit,
    op: OperatingPointResult,
    frequency: float = 100.0,
) -> Dict[str, float]:
    def out_amplitude(overrides: Dict[str, complex]) -> float:
        base = {"vin": 0.0, "vinn": 0.0, "vdd": 0.0, "vss": 0.0}
        base.update(overrides)
        present = {k: v for k, v in base.items() if k in circuit}
        ac = ac_analysis(circuit, amp.process, op, [frequency], present)
        return float(abs(ac.voltage("out")[0]))

    a_dm = out_amplitude({"vin": 0.5, "vinn": -0.5})
    if a_dm <= 0:
        raise SimulationError("no differential gain at the rejection frequency")
    results: Dict[str, float] = {}
    a_cm = out_amplitude({"vin": 1.0, "vinn": 1.0})
    results["cmrr_db"] = 20.0 * math.log10(a_dm / max(a_cm, 1e-15))
    for source, key in (("vdd", "psrr_vdd_db"), ("vss", "psrr_vss_db")):
        if source in circuit:
            a_ps = out_amplitude({source: 1.0})
            results[key] = 20.0 * math.log10(a_dm / max(a_ps, 1e-15))
    return results


def input_noise_spectrum(amp: DesignedOpAmp, frequencies):
    """Input-referred noise density over a frequency grid.

    Returns:
        (density_nv, noise_result): the input-referred density in
        nV/sqrt(Hz) aligned with ``frequencies``, and the underlying
        :class:`~repro.simulator.noise.NoiseResult` with per-element
        attribution.
    """
    _, circuit, op = offset_nulled_bench(amp)
    return _noise_spectrum(amp, circuit, op, list(frequencies))


def _noise_spectrum(
    amp: DesignedOpAmp, circuit: Circuit, op: OperatingPointResult, freqs: list
):
    from ..simulator.noise import noise_analysis

    ac = ac_analysis(circuit, amp.process, op, freqs)
    gain = np.abs(ac.voltage("out"))
    noise = noise_analysis(circuit, amp.process, op, freqs, "out")
    return noise.input_referred_density(gain) * 1e9, noise


def measure_input_noise(
    amp: DesignedOpAmp, frequencies: Optional[list] = None
) -> Dict[str, float]:
    """Measure the input-referred noise density, nV/sqrt(Hz).

    Runs the simulator's noise analysis at the offset-nulled operating
    point and refers the output noise through the measured differential
    gain.  Reports the density at 1 kHz (where flicker usually shows)
    and at 100 kHz (thermal floor for these bandwidths).

    Returns:
        ``{"input_noise_nv_1k", "input_noise_nv_100k",
        "noise_dominant_element"}``.
    """
    _, circuit, op = offset_nulled_bench(amp)
    return _input_noise(amp, circuit, op, frequencies)


def _input_noise(
    amp: DesignedOpAmp,
    circuit: Circuit,
    op: OperatingPointResult,
    frequencies: Optional[list] = None,
) -> Dict[str, float]:
    freqs = frequencies or [1e3, 1e5]
    density_nv, noise = _noise_spectrum(amp, circuit, op, list(freqs))
    results = {
        "input_noise_nv_1k": float(density_nv[0]),
        "noise_dominant_element": noise.dominant_contributor(0),
    }
    if len(freqs) > 1:
        results["input_noise_nv_100k"] = float(density_nv[1])
    return results


def verify_opamp(
    amp: DesignedOpAmp,
    measure_swing: bool = True,
    measure_slew: bool = True,
    measure_rejections: bool = False,
    measure_noise: bool = False,
) -> VerificationReport:
    """Measure a synthesized op amp with the simulator.

    Args:
        amp: a designed op amp.
        measure_swing / measure_slew: the DC-sweep and transient
            measurements dominate runtime; benches that only need AC
            numbers can skip them.  The slew transient gives
            ``slew_rate`` and ``settling_time_1pct``; if it fails to
            converge, the failure becomes ``notes["slew_rate"]``.
        measure_rejections: also measure CMRR and PSRR (keys
            ``cmrr_db``, ``psrr_vdd_db``, ``psrr_vss_db``); a failure
            becomes ``notes["rejection"]``.
        measure_noise: also measure input-referred noise (keys
            ``input_noise_nv_1k``, ``input_noise_nv_100k``, with the
            dominant contributor in ``notes["noise_dominant_element"]``);
            a failure becomes ``notes["noise"]``.

    Returns:
        A :class:`VerificationReport` whose ``measured`` dict mirrors the
        designer's performance keys.
    """
    report = VerificationReport()

    with obs_span(
        f"verify:{amp.style}", category="verify", style=amp.style
    ) as verify_span:
        with obs_span("verify:offset", category="verify"):
            offset, circuit, op = offset_nulled_bench(amp)
        report.offset_v = offset
        report.measured["offset_mv"] = abs(offset) * 1e3
        report.measured["power"] = abs(op.total_power())
        metric_count("verify.measurements", phase="offset")

        with obs_span("verify:ac", category="verify"):
            response = _open_loop_ac(amp, circuit, op)
        metric_count("verify.measurements", phase="ac")
        report.measured["gain_db"] = response.dc_gain_db
        f_unity = crossover_frequency(response)
        if f_unity is not None:
            report.measured["unity_gain_hz"] = f_unity
            pm = phase_margin_deg(response)
            if pm is not None:
                report.measured["phase_margin_deg"] = pm
        else:
            report.notes["unity_gain_hz"] = "no 0 dB crossing in sweep"

        if measure_swing:
            with obs_span("verify:swing", category="verify"):
                swing = _measure_swing(amp)
            metric_count("verify.measurements", phase="swing")
            report.measured["output_swing"] = swing
        else:
            swing = amp.spec.output_swing

        if measure_slew:
            try:
                with obs_span("verify:slew", category="verify"):
                    slew, t_settle = _measure_slew(amp, swing)
                metric_count("verify.measurements", phase="slew")
                report.measured["slew_rate"] = slew
                if t_settle is not None:
                    report.measured["settling_time_1pct"] = t_settle
            except (ConvergenceError, SimulationError) as exc:
                report.notes["slew_rate"] = f"transient failed: {exc}"
                metric_count("verify.failures", phase="slew")

        if measure_rejections:
            try:
                with obs_span("verify:rejection", category="verify"):
                    report.measured.update(_rejection(amp, circuit, op))
                metric_count("verify.measurements", phase="rejection")
            except (ConvergenceError, SimulationError) as exc:
                report.notes["rejection"] = f"CMRR/PSRR failed: {exc}"
                metric_count("verify.failures", phase="rejection")

        if measure_noise:
            try:
                with obs_span("verify:noise", category="verify"):
                    results = _input_noise(amp, circuit, op)
                report.notes["noise_dominant_element"] = results.pop(
                    "noise_dominant_element"
                )
                report.measured.update(results)
                metric_count("verify.measurements", phase="noise")
            except (ConvergenceError, SimulationError) as exc:
                report.notes["noise"] = f"noise analysis failed: {exc}"
                metric_count("verify.failures", phase="noise")

        verify_span.set("measured_keys", len(report.measured))

    return report
