"""Measurement utilities over simulation results.

These functions compute the performance numbers that appear in the
paper's Table 2 from raw AC / transient data: DC gain, unity-gain
frequency, phase margin, gain margin, -3 dB bandwidth, slew rate and
settling time.  They operate on plain arrays so they are usable with any
data source (our simulator, or imported SPICE results).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..errors import SimulationError
from ..resilience.faults import fault_point

__all__ = [
    "FrequencyResponse",
    "crossover_frequency",
    "phase_margin_deg",
    "gain_margin_db",
    "bandwidth_3db",
    "slew_rate_from_waveform",
    "settling_time",
]


@dataclass
class FrequencyResponse:
    """A complex transfer function sampled on a frequency grid.

    Attributes:
        frequencies: hertz, ascending.
        response: complex H(f), same length.
    """

    frequencies: np.ndarray
    response: np.ndarray

    def __post_init__(self) -> None:
        self.frequencies = np.asarray(self.frequencies, dtype=float)
        self.response = np.asarray(self.response, dtype=complex)
        if self.frequencies.ndim != 1 or self.frequencies.size < 2:
            raise SimulationError("need at least two frequency points")
        if self.frequencies.size != self.response.size:
            raise SimulationError("frequency/response length mismatch")
        if np.any(np.diff(self.frequencies) <= 0):
            raise SimulationError("frequencies must be strictly ascending")
        # Reject corrupted sweeps up front: a NaN that slips into the
        # crossover search would silently poison every derived measure
        # (phase margin, bandwidth...) instead of failing one solve.
        if not np.all(np.isfinite(self.frequencies)):
            raise SimulationError("non-finite frequency grid")
        if not np.all(np.isfinite(self.response)):
            bad = int(np.count_nonzero(~np.isfinite(self.response)))
            raise SimulationError(
                f"non-finite response samples ({bad} of {self.response.size}); "
                f"the underlying solve likely diverged"
            )

    @property
    def magnitude(self) -> np.ndarray:
        return np.abs(self.response)

    @property
    def magnitude_db(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return 20.0 * np.log10(self.magnitude)

    @property
    def phase_deg(self) -> np.ndarray:
        return np.degrees(np.unwrap(np.angle(self.response)))

    @property
    def dc_gain(self) -> float:
        """Magnitude at the lowest sampled frequency."""
        return float(self.magnitude[0])

    @property
    def dc_gain_db(self) -> float:
        gain = self.dc_gain
        return -math.inf if gain <= 0 else 20.0 * math.log10(gain)


def _log_interp(x0: float, x1: float, y0: float, y1: float, y_target: float) -> float:
    """Interpolate x (log scale) where y crosses y_target."""
    if y1 == y0:
        return x0
    fraction = (y_target - y0) / (y1 - y0)
    return 10.0 ** (math.log10(x0) + fraction * (math.log10(x1) - math.log10(x0)))


def crossover_frequency(resp: FrequencyResponse) -> Optional[float]:
    """Unity-gain (0 dB) crossover frequency, hertz.

    Returns None if the magnitude never crosses unity within the sweep
    (e.g. gain < 1 everywhere, or the sweep stops too early).
    """
    fault_point("analysis.measure")
    mag_db = resp.magnitude_db
    freqs = resp.frequencies
    for k in range(len(freqs) - 1):
        if mag_db[k] >= 0.0 > mag_db[k + 1]:
            return _log_interp(freqs[k], freqs[k + 1], mag_db[k], mag_db[k + 1], 0.0)
    return None


def phase_margin_deg(resp: FrequencyResponse) -> Optional[float]:
    """Phase margin at the unity-gain crossover, degrees.

    Phase margin = 180 + phase(H) at the 0 dB frequency, with the phase
    referenced so a single-pole system far below its second pole yields
    ~90 degrees.  Returns None if there is no crossover in the sweep.
    """
    f_unity = crossover_frequency(resp)
    if f_unity is None:
        return None
    phase = resp.phase_deg
    # The response of an inverting amplifier starts at +-180; normalise so
    # the DC phase maps to 0 (we care about *additional* phase lag).
    phase = phase - phase[0]
    freqs = resp.frequencies
    lag = float(np.interp(np.log10(f_unity), np.log10(freqs), phase))
    return 180.0 + lag


def gain_margin_db(resp: FrequencyResponse) -> Optional[float]:
    """Gain margin: -|H| in dB at the -180 degree crossing of the
    (DC-normalised) phase.  Returns None if the phase never reaches -180
    within the sweep."""
    phase = resp.phase_deg
    phase = phase - phase[0]
    mag_db = resp.magnitude_db
    freqs = resp.frequencies
    for k in range(len(freqs) - 1):
        if phase[k] > -180.0 >= phase[k + 1]:
            f_cross = _log_interp(
                freqs[k], freqs[k + 1], phase[k], phase[k + 1], -180.0
            )
            level = float(
                np.interp(np.log10(f_cross), np.log10(freqs), mag_db)
            )
            return -level
    return None


def bandwidth_3db(resp: FrequencyResponse) -> Optional[float]:
    """-3 dB bandwidth relative to the DC gain, hertz.

    Returns None if the magnitude never falls 3 dB below DC in the sweep.
    """
    reference = resp.dc_gain_db
    if math.isinf(reference):
        return None
    target = reference - 3.0103
    mag_db = resp.magnitude_db
    freqs = resp.frequencies
    for k in range(len(freqs) - 1):
        if mag_db[k] >= target > mag_db[k + 1]:
            return _log_interp(freqs[k], freqs[k + 1], mag_db[k], mag_db[k + 1], target)
    return None


def slew_rate_from_waveform(
    times: np.ndarray, voltages: np.ndarray, fraction: Tuple[float, float] = (0.2, 0.8)
) -> float:
    """Slew rate from a large-signal step response, V/s.

    Measures the mean slope between the ``fraction`` points of the total
    transition (20 %-80 % by default), the standard lab definition.

    Raises:
        SimulationError: if the waveform has no discernible transition.
    """
    times = np.asarray(times, dtype=float)
    voltages = np.asarray(voltages, dtype=float)
    if times.size != voltages.size or times.size < 3:
        raise SimulationError("need matched time/voltage arrays (>= 3 points)")
    v_start, v_end = voltages[0], voltages[-1]
    swing = v_end - v_start
    if abs(swing) < 1e-9:
        raise SimulationError("waveform has no transition to measure")
    lo = v_start + fraction[0] * swing
    hi = v_start + fraction[1] * swing

    def cross_time(level: float) -> float:
        if swing > 0:
            indices = np.nonzero(voltages >= level)[0]
        else:
            indices = np.nonzero(voltages <= level)[0]
        if indices.size == 0 or indices[0] == 0:
            raise SimulationError("transition levels not reached")
        k = indices[0]
        t0, t1 = times[k - 1], times[k]
        v0, v1 = voltages[k - 1], voltages[k]
        if v1 == v0:
            return t0
        return t0 + (level - v0) / (v1 - v0) * (t1 - t0)

    t_lo = cross_time(lo)
    t_hi = cross_time(hi)
    if t_hi <= t_lo:
        raise SimulationError("degenerate transition timing")
    return abs(hi - lo) / (t_hi - t_lo)


def settling_time(
    times: np.ndarray,
    voltages: np.ndarray,
    tolerance: float = 0.01,
) -> Optional[float]:
    """Time after which the waveform stays within ``tolerance`` (fraction
    of the total transition) of its final value.  None if it never
    settles within the record.

    The time is interpolated linearly where the waveform enters the band
    on its last out-of-band segment, so it does not depend on how far
    apart the samples are (a transient's timepoints are not evenly
    spaced)."""
    times = np.asarray(times, dtype=float)
    voltages = np.asarray(voltages, dtype=float)
    final = voltages[-1]
    swing = abs(final - voltages[0])
    if swing < 1e-12:
        return float(times[0])
    band = tolerance * swing
    error = voltages - final
    outside = np.nonzero(np.abs(error) > band)[0]
    if outside.size == 0:
        return float(times[0])
    last_outside = outside[-1]
    # Require at least two trailing in-band samples; a waveform that only
    # touches the band at its very last point has not settled.
    if last_outside + 2 >= times.size:
        return None
    t0, t1 = times[last_outside], times[last_outside + 1]
    e0, e1 = error[last_outside], error[last_outside + 1]
    edge = math.copysign(band, e0)  # the band side the waveform enters from
    return float(t0 + (e0 - edge) / (e0 - e1) * (t1 - t0))
