"""OASYS op amp synthesis (Section 4) -- the paper's core contribution.

Two op amp design styles are understood, exactly as in the prototype:

* a one-stage operational transconductance amplifier
  (:mod:`repro.opamp.ota_onestage` -- the symmetrical, three-mirror OTA);
* a two-stage unbuffered (Miller-compensated) amplifier
  (:mod:`repro.opamp.twostage`), whose plan owns the feedback
  compensation design one level above the sub-blocks.

The folded-cascode style (:mod:`repro.opamp.folded_cascode`) is an
opt-in third template (``EXTENDED_STYLES``).  Every style is a
registered template, so one designer and one verifier serve them all;
there is no fully differential style.

:func:`~repro.opamp.designer.synthesize` runs breadth-first design-style
selection over both templates and picks the feasible design with the
smallest estimated area (active devices plus compensation capacitor).
:mod:`repro.opamp.verify` measures a synthesized amplifier with the
in-repo simulator, standing in for the paper's SPICE verification.
"""

from .result import DesignedOpAmp, SynthesisResult
from .compensation import CompensationDesign, design_compensation
from .designer import EXTENDED_STYLES, OPAMP_STYLES, design_style, synthesize
from .verify import (
    VerificationReport,
    input_noise_spectrum,
    measure_input_noise,
    measure_rejection,
    verify_opamp,
)

__all__ = [
    "DesignedOpAmp",
    "SynthesisResult",
    "CompensationDesign",
    "design_compensation",
    "synthesize",
    "design_style",
    "OPAMP_STYLES",
    "EXTENDED_STYLES",
    "verify_opamp",
    "measure_rejection",
    "measure_input_noise",
    "input_noise_spectrum",
    "VerificationReport",
]
