"""Level-1 (square-law) MOSFET model.

This is the model class SPICE2 used when the paper's circuits were
hand-verified in 1987: square-law drain current with channel-length
modulation, first-order body effect, Meyer-style intrinsic gate
capacitances, overlap capacitances, and depletion junction capacitances.

The model is written so that drain current and its derivatives are
*continuous* across the cutoff/triode/saturation boundaries, which
Newton-Raphson convergence depends on:

* triode and saturation currents both carry the ``(1 + lambda*vds)``
  factor, making Ids and dIds/dVds continuous at ``vds = vov``;
* a tiny subthreshold exponential tail replaces the hard Ids=0 cutoff so
  the Jacobian never goes exactly singular for an off device.

Polarity and drain/source reversal are handled by exact reflections:

* PMOS: ``I_ext(vgs,vds,vbs) = -I_n(-vgs,-vds,-vbs)``, which leaves the
  derivatives w.r.t. the *external* voltages unchanged in sign;
* reversed operation (external ``vds`` of the reflected frame negative):
  the level-1 device is source/drain symmetric, so
  ``I(vgs,vds,vbs) = -I(vgs-vds, -vds, vbs-vds)``, and the chain rule
  gives the exact Jacobian entries.

Consequently :class:`MosfetOperatingPoint` stores the *signed* partial
derivatives ``gm = dId/dVgs``, ``gds = dId/dVds``, ``gmbs = dId/dVbs`` in
the external frame; they are positive in normal forward operation for
both polarities and may legitimately change sign in reversed mode.

The model has one implementation, :func:`level1_dc`: current, signed
partials, region, threshold and saturation voltage on plain Python
floats from per-device constants, without capacitances.  The
simulator's Newton loop calls it directly for every device;
:meth:`MosfetModel.evaluate` wraps it and adds the capacitances into a
:class:`MosfetOperatingPoint`, and :meth:`MosfetModel.capacitances`
gives the capacitances alone.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Tuple

from ..errors import TechnologyError
from ..process.parameters import (
    DeviceParams,
    estimate_junction_area,
    estimate_junction_perimeter,
)

__all__ = ["Region", "MosfetOperatingPoint", "MosfetModel", "level1_dc"]

#: Softplus smoothing voltage, volts.  The effective overdrive is
#: ``vov_eff = V0 * ln(1 + exp(vov / V0))``, which equals ``vov`` to within
#: a part in 1e9 for vov > 40*V0 and decays exponentially below threshold,
#: so the current and its derivatives are smooth everywhere in vgs while
#: remaining electrically negligible for an off device.
_SMOOTH_V0 = 0.02

#: Exponent clamp so exp() never overflows.
_EXP_CLAMP = 40.0

#: Softplus slope and ``vov_eff`` below the clamp (deep cutoff).
_TAIL = math.exp(-_EXP_CLAMP)
_TAIL_VOV_EFF = _SMOOTH_V0 * _TAIL

#: Forward-bias clamp of ``phi - vbs`` in the body-effect term, volts.
_PHI_CLAMP = 0.01


class Region(enum.Enum):
    """DC operating region of a MOSFET."""

    CUTOFF = "cutoff"
    TRIODE = "triode"
    SATURATION = "saturation"


@dataclass(frozen=True)
class MosfetOperatingPoint:
    """DC operating point plus small-signal parameters of one device.

    Sign conventions follow SPICE: ``ids`` is the current flowing into the
    drain terminal (negative for PMOS in normal operation); ``gm``,
    ``gds`` and ``gmbs`` are the signed partials of that current with
    respect to the external vgs/vds/vbs.  Capacitances are magnitudes.
    """

    region: Region
    ids: float
    vgs: float
    vds: float
    vbs: float
    vth: float
    vdsat: float
    gm: float
    gds: float
    gmbs: float
    cgs: float
    cgd: float
    cgb: float
    cbd: float
    cbs: float
    reversed_mode: bool = False

    @property
    def vov(self) -> float:
        """Effective gate overdrive in the internal NMOS frame, volts."""
        return abs(self.vgs) - abs(self.vth) if self.vth else abs(self.vgs)

    @property
    def saturated(self) -> bool:
        return self.region is Region.SATURATION

    def output_resistance(self) -> float:
        """Small-signal output resistance 1/|gds|, ohms (inf if gds = 0)."""
        return math.inf if self.gds == 0 else 1.0 / abs(self.gds)


#: Per-device constants of :func:`level1_dc`:
#: ``(sign, |vto|, gamma, phi, sqrt(phi), beta, lambda)``.
DeviceConstants = Tuple[float, float, float, float, float, float, float]


def level1_dc(
    c: DeviceConstants, vgs: float, vds: float, vbs: float
) -> Tuple[float, float, float, float, Region, float, float]:
    """The level-1 model on plain floats: current and signed partials.

    ``vgs``/``vds``/``vbs`` are in the external (SPICE) frame and ``c``
    is :attr:`MosfetModel.constants`.  Returns ``(ids, gm, gds, gmbs,
    region, vth, vdsat)`` with the conventions of
    :class:`MosfetOperatingPoint`; capacitances are left to
    :meth:`MosfetModel.capacitances`.  This is the model's one
    implementation: the simulator's stamp plan calls it for every device
    in every Newton iteration, and :meth:`MosfetModel.evaluate` wraps it.
    It uses ``math`` rather than numpy, whose ``exp``/``log1p`` may
    differ from ``math``'s in the last ulp.
    """
    sign, vto, gamma, phi, sqrt_phi, beta, lam = c
    # PMOS reflection: the internal NMOS frame; derivative signs are
    # unchanged (sign^2 = 1).
    u = sign * vgs
    w = sign * vds
    b = sign * vbs
    reversed_mode = w < 0.0
    if reversed_mode:
        # I(vgs,vds,vbs) = -F(vgs-vds, -vds, vbs-vds) with F the forward
        # function (the device is source/drain symmetric).
        u, w, b = u - w, -w, b - w

    # Body-effect-adjusted threshold; a forward-biased body is clamped
    # at a small depletion value, where vth (so dvth/dvbs) is constant.
    if gamma == 0.0:
        vth = vto
        dvth_dvbs = 0.0
    else:
        arg = phi - b
        if _PHI_CLAMP > arg:
            arg = _PHI_CLAMP
        root = math.sqrt(arg)
        vth = vto + gamma * (root - sqrt_phi)
        if gamma > 0.0 and arg > _PHI_CLAMP:
            dvth_dvbs = -gamma / (2.0 * root)
        else:
            dvth_dvbs = 0.0

    # Softplus-smoothed overdrive and its slope d(vov_eff)/d(vov): every
    # region formula uses vov_eff, so Ids is smooth in vgs across the
    # cutoff boundary.
    vov = u - vth
    x = vov / _SMOOTH_V0
    if x > _EXP_CLAMP:
        vov_eff = vov
        slope = 1.0
    elif x < -_EXP_CLAMP:
        vov_eff = _TAIL_VOV_EFF
        slope = _TAIL
    else:
        exp_x = math.exp(x)
        vov_eff = _SMOOTH_V0 * math.log1p(exp_x)
        slope = exp_x / (1.0 + exp_x)

    clm = 1.0 + lam * w
    if w >= vov_eff:
        region = Region.CUTOFF if vov <= 0.0 else Region.SATURATION
        square = 0.5 * beta * vov_eff * vov_eff
        f = square * clm
        fu = beta * vov_eff * clm * slope
        fw = square * lam
    else:
        region = Region.CUTOFF if vov <= 0.0 else Region.TRIODE
        f = beta * (vov_eff - 0.5 * w) * w * clm
        fu = beta * w * clm * slope
        fw = beta * (vov_eff - w) * clm + beta * (vov_eff - 0.5 * w) * w * lam
    # vth depends on vbs: dI/dvbs = dI/dvov * (-dvth/dvbs).
    fb = -fu * dvth_dvbs

    if reversed_mode:
        # Chain rule through (vgs-vds, -vds, vbs-vds).
        return (
            sign * -f, -fu, fu + fw + fb, -fb, region, sign * vth, vov_eff
        )
    return sign * f, fu, fw, fb, region, sign * vth, vov_eff


class MosfetModel:
    """A sized MOSFET bound to its process parameters.

    Args:
        params: per-polarity process parameters.
        width / length: drawn geometry, metres.
        drain_width: drain/source diffusion extension for junction
            capacitance estimates, metres.
        cox: process gate-oxide capacitance, F/m^2.
    """

    def __init__(
        self,
        params: DeviceParams,
        width: float,
        length: float,
        drain_width: float,
        cox: float,
    ):
        if width <= 0 or length <= 0:
            raise TechnologyError(f"bad geometry W={width} L={length}")
        if cox <= 0:
            raise TechnologyError(f"bad cox {cox}")
        self.params = params
        self.width = width
        self.length = length
        self.drain_width = drain_width
        self.cox = cox
        self.beta = params.beta(width, length)
        self.lam = params.lambda_at(length)
        self._sign = 1.0 if params.polarity == "nmos" else -1.0
        #: The :func:`level1_dc` constants of this device.
        self.constants: DeviceConstants = (
            self._sign,
            abs(params.vto),
            params.gamma,
            params.phi,
            math.sqrt(params.phi),
            self.beta,
            self.lam,
        )
        c_ox = cox * width * length
        c_ov_s = params.cgso * width
        c_ov_d = params.cgdo * width
        c_ov_b = params.cgbo * length
        # Meyer gate caps (cgs, cgd, cgb) by region, internal frame;
        # triode splits the channel evenly (small-vds limit).
        self._gate_caps = {
            Region.CUTOFF: (c_ov_s, c_ov_d, c_ox + c_ov_b),
            Region.SATURATION: ((2.0 / 3.0) * c_ox + c_ov_s, c_ov_d, c_ov_b),
            Region.TRIODE: (0.5 * c_ox + c_ov_s, 0.5 * c_ox + c_ov_d, c_ov_b),
        }
        self._junction_zero_bias = params.cj * estimate_junction_area(
            width, drain_width
        ) + params.cjsw * estimate_junction_perimeter(width, drain_width)

    # ------------------------------------------------------------------
    # Evaluation in the external frame
    # ------------------------------------------------------------------
    def threshold(self, vbs: float) -> float:
        """Body-effect-adjusted threshold magnitude (internal NMOS frame).

        ``vbs`` must already be in the internal frame (reflected for PMOS).
        """
        sign = self.constants[0]
        return sign * level1_dc(self.constants, 0.0, 0.0, sign * vbs)[5]

    def evaluate(self, vgs: float, vds: float, vbs: float) -> MosfetOperatingPoint:
        """Evaluate current, signed conductances and capacitances at a bias
        point given in the external (SPICE) frame."""
        ids, gm, gds, gmbs, region, vth, vdsat = level1_dc(
            self.constants, vgs, vds, vbs
        )
        cgs, cgd, cgb, cbd, cbs = self._capacitances(region, vds, vbs)
        return MosfetOperatingPoint(
            region=region,
            ids=ids,
            vgs=vgs,
            vds=vds,
            vbs=vbs,
            vth=vth,
            vdsat=vdsat,
            gm=gm,
            gds=gds,
            gmbs=gmbs,
            cgs=cgs,
            cgd=cgd,
            cgb=cgb,
            cbd=cbd,
            cbs=cbs,
            reversed_mode=self._sign * vds < 0.0,
        )

    def capacitances(
        self, vgs: float, vds: float, vbs: float
    ) -> Tuple[float, float, float, float, float]:
        """``(cgs, cgd, cgb, cbd, cbs)`` at an external-frame bias point,
        equal to :meth:`evaluate`'s, without building the op record."""
        region = level1_dc(self.constants, vgs, vds, vbs)[4]
        return self._capacitances(region, vds, vbs)

    # ------------------------------------------------------------------
    # Capacitances
    # ------------------------------------------------------------------
    def _capacitances(
        self, region: Region, vds: float, vbs: float
    ) -> Tuple[float, float, float, float, float]:
        """Meyer intrinsic caps plus overlaps by region, and the
        reverse-biased drain/source junction caps; swapped for a device
        in reversed mode."""
        xvds = self._sign * vds
        xvbs = self._sign * vbs
        cgs, cgd, cgb = self._gate_caps[region]
        # Depletion factor (1 - V/pb)^-1/2, clamped under forward bias.
        pb = self.params.pb
        c0 = self._junction_zero_bias
        cbd = c0 * (1.0 / math.sqrt(max(1.0 - (xvbs - xvds) / pb, 0.5)))
        cbs = c0 * (1.0 / math.sqrt(max(1.0 - xvbs / pb, 0.5)))
        if xvds < 0.0:
            return cgd, cgs, cgb, cbs, cbd
        return cgs, cgd, cgb, cbd, cbs

    # ------------------------------------------------------------------
    # Design-equation helpers (used by sizing plans)
    # ------------------------------------------------------------------
    def saturation_current(self, vov: float, vds: float = 0.0) -> float:
        """Square-law saturation current for a given overdrive, amps."""
        if vov <= 0:
            return 0.0
        return 0.5 * self.beta * vov * vov * (1.0 + self.lam * abs(vds))

    def gm_at_current(self, ids: float) -> float:
        """Saturation gm = sqrt(2 * beta * Id), siemens."""
        if ids <= 0:
            return 0.0
        return math.sqrt(2.0 * self.beta * abs(ids))

    def active_area(self) -> float:
        """Gate area plus both diffusion areas, m^2 (the paper's active-
        device-area estimate)."""
        gate = self.width * self.length
        diffusion = 2.0 * estimate_junction_area(self.width, self.drain_width)
        return gate + diffusion

    def __repr__(self) -> str:
        return (
            f"MosfetModel({self.params.polarity}, W={self.width * 1e6:.2f}u, "
            f"L={self.length * 1e6:.2f}u)"
        )
