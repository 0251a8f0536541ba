"""MNA circuit simulator.

The paper verified OASYS output with SPICE; this package is the in-repo
stand-in: a modified-nodal-analysis simulator over the level-1 device
models, providing

* DC operating point (Newton-Raphson with gmin and source stepping),
  :func:`~repro.simulator.dc.operating_point`;
* small-signal AC analysis, :func:`~repro.simulator.ac.ac_analysis`;
* DC transfer sweeps, :func:`~repro.simulator.sweep.dc_sweep`;
* transient analysis (trapezoidal, step set by local truncation
  error), :func:`~repro.simulator.transient.transient_analysis`;
* measurement helpers (gain, UGF, phase margin, swing, slew),
  :mod:`repro.simulator.analysis`.

Every analysis runs on one numeric path: the compiled stamp plan of
:mod:`repro.simulator.assembly`, dense ``np.linalg.solve``, and a single
DC Newton loop (:func:`~repro.simulator.dc.newton_solve`).  The only
numeric dependency is numpy.
"""

from .mna import MnaSystem, OperatingPointResult
from .dc import operating_point
from .ac import ACResult, ac_analysis
from .noise import NoiseResult, noise_analysis
from .op_report import op_report
from .sweep import SweepResult, dc_sweep
from .transient import TransientResult, transient_analysis
from .analysis import (
    FrequencyResponse,
    bandwidth_3db,
    crossover_frequency,
    gain_margin_db,
    phase_margin_deg,
    settling_time,
    slew_rate_from_waveform,
)

__all__ = [
    "MnaSystem",
    "OperatingPointResult",
    "operating_point",
    "ACResult",
    "ac_analysis",
    "NoiseResult",
    "noise_analysis",
    "op_report",
    "SweepResult",
    "dc_sweep",
    "TransientResult",
    "transient_analysis",
    "FrequencyResponse",
    "bandwidth_3db",
    "crossover_frequency",
    "gain_margin_db",
    "phase_margin_deg",
    "settling_time",
    "slew_rate_from_waveform",
]
