"""Scalar level-1 MOSFET reference: the device-model oracle.

A frozen copy of the model as it was written before the simulator moved
to :func:`repro.devices.mosfet.level1_dc`: one device per call, threshold,
softplus, forward-frame current and both capacitance sets computed
separately.  It is not part of the library.  ``tests/mna_reference.py``
stamps with it, so the reference assembly never runs the kernel it
checks, and ``tests/test_mosfet_kernel.py`` holds the kernel and
:meth:`~repro.devices.mosfet.MosfetModel.evaluate` bit-equal to it.
"""

import math
from typing import Tuple

from repro.devices.mosfet import MosfetModel, MosfetOperatingPoint, Region
from repro.process.parameters import (
    estimate_junction_area,
    estimate_junction_perimeter,
)

__all__ = ["evaluate_reference"]

_SMOOTH_V0 = 0.02
_EXP_CLAMP = 40.0


def _smooth_overdrive(vov: float) -> Tuple[float, float]:
    """Softplus-smoothed overdrive and its derivative d(vov_eff)/d(vov)."""
    x = vov / _SMOOTH_V0
    if x > _EXP_CLAMP:
        return vov, 1.0
    if x < -_EXP_CLAMP:
        tail = math.exp(-_EXP_CLAMP)
        return _SMOOTH_V0 * tail, tail
    exp_x = math.exp(x)
    return _SMOOTH_V0 * math.log1p(exp_x), exp_x / (1.0 + exp_x)


def _threshold(model: MosfetModel, vbs: float) -> float:
    p = model.params
    vto = abs(p.vto)
    if p.gamma == 0.0:
        return vto
    arg = max(p.phi - vbs, 0.01)
    return vto + p.gamma * (math.sqrt(arg) - math.sqrt(p.phi))


def _forward(model: MosfetModel, vgs: float, vds: float, vbs: float):
    """NMOS-frame (region, ids, d/dvgs, d/dvds, d/dvbs, vth, vdsat)."""
    p = model.params
    vth = _threshold(model, vbs)
    vov = vgs - vth
    beta = model.beta
    lam = model.lam
    vov_eff, slope = _smooth_overdrive(vov)
    clm = 1.0 + lam * vds

    if vov <= 0.0:
        region = Region.CUTOFF
    elif vds >= vov_eff:
        region = Region.SATURATION
    else:
        region = Region.TRIODE

    if vds >= vov_eff:
        ids = 0.5 * beta * vov_eff * vov_eff * clm
        d_vov = beta * vov_eff * clm * slope
        d_vds = 0.5 * beta * vov_eff * vov_eff * lam
    else:
        ids = beta * (vov_eff - 0.5 * vds) * vds * clm
        d_vov = beta * vds * clm * slope
        d_vds = (
            beta * (vov_eff - vds) * clm
            + beta * (vov_eff - 0.5 * vds) * vds * lam
        )
    vdsat = vov_eff

    if p.gamma > 0.0 and (p.phi - vbs) > 0.01:
        dvth_dvbs = -p.gamma / (2.0 * math.sqrt(p.phi - vbs))
    else:
        dvth_dvbs = 0.0
    d_vgs = d_vov
    d_vbs = -d_vov * dvth_dvbs
    return region, ids, d_vgs, d_vds, d_vbs, vth, vdsat


def _gate_capacitances(model: MosfetModel, region: Region):
    p = model.params
    c_ox = model.cox * model.width * model.length
    c_ov_s = p.cgso * model.width
    c_ov_d = p.cgdo * model.width
    c_ov_b = p.cgbo * model.length
    if region is Region.CUTOFF:
        return c_ov_s, c_ov_d, c_ox + c_ov_b
    if region is Region.SATURATION:
        return (2.0 / 3.0) * c_ox + c_ov_s, c_ov_d, c_ov_b
    return 0.5 * c_ox + c_ov_s, 0.5 * c_ox + c_ov_d, c_ov_b


def _junction_capacitances(model: MosfetModel, vds: float, vbs: float):
    p = model.params
    area = estimate_junction_area(model.width, model.drain_width)
    perim = estimate_junction_perimeter(model.width, model.drain_width)
    vbd = vbs - vds

    def depletion(vj: float) -> float:
        ratio = max(1.0 - vj / p.pb, 0.5)
        return 1.0 / math.sqrt(ratio)

    cbd = (p.cj * area + p.cjsw * perim) * depletion(vbd)
    cbs = (p.cj * area + p.cjsw * perim) * depletion(vbs)
    return cbd, cbs


def evaluate_reference(
    model: MosfetModel, vgs: float, vds: float, vbs: float
) -> MosfetOperatingPoint:
    """``model.evaluate(vgs, vds, vbs)`` as the scalar oracle computes it."""
    s = 1.0 if model.params.polarity == "nmos" else -1.0
    xvgs, xvds, xvbs = s * vgs, s * vds, s * vbs

    reversed_mode = xvds < 0.0
    if not reversed_mode:
        region, i_n, du, dw, dbv, vth, vdsat = _forward(model, xvgs, xvds, xvbs)
        ids_internal = i_n
        g_vgs, g_vds, g_vbs = du, dw, dbv
    else:
        u, w, b = xvgs - xvds, -xvds, xvbs - xvds
        region, f, fu, fw, fb, vth, vdsat = _forward(model, u, w, b)
        ids_internal = -f
        g_vgs = -fu
        g_vds = fu + fw + fb
        g_vbs = -fb

    ids = s * ids_internal

    cgs, cgd, cgb = _gate_capacitances(model, region)
    cbd, cbs = _junction_capacitances(model, xvds, xvbs)
    if reversed_mode:
        cgs, cgd = cgd, cgs
        cbd, cbs = cbs, cbd

    return MosfetOperatingPoint(
        region=region,
        ids=ids,
        vgs=vgs,
        vds=vds,
        vbs=vbs,
        vth=s * vth,
        vdsat=vdsat,
        gm=g_vgs,
        gds=g_vds,
        gmbs=g_vbs,
        cgs=cgs,
        cgd=cgd,
        cgb=cgb,
        cbd=cbd,
        cbs=cbs,
        reversed_mode=reversed_mode,
    )
