"""The level-1 kernel against the frozen scalar model, bit for bit.

:func:`repro.devices.mosfet.level1_dc` is the model's one
implementation; :meth:`MosfetModel.evaluate` and
:meth:`MosfetModel.capacitances` wrap it.  These properties hold all
three bit-equal to ``tests/mosfet_reference.py`` over bias points drawn
in the model's internal frame so that every branch is reached: NMOS and
PMOS, with and without body effect, forward and reversed mode, deep
cutoff, the softplus window, strong inversion, the forward-bias clamp of
the body term and the triode/saturation edge.
"""

import dataclasses

from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.devices.mosfet import MosfetModel, level1_dc
from repro.process import CMOS_5UM

from .mosfet_reference import _smooth_overdrive, _threshold, evaluate_reference

#: Softplus smoothing voltage of the model: vov / V0 < -40 is deep cutoff.
V0 = 0.02

_VOV_BY_REGIME = {
    "deep cutoff": st.floats(min_value=-5.0, max_value=-40.0 * V0 - 1e-9),
    "softplus window": st.floats(min_value=-40.0 * V0, max_value=40.0 * V0),
    "strong inversion": st.floats(min_value=40.0 * V0 + 1e-9, max_value=5.0),
}


@st.composite
def bias_points(draw):
    """``(model, vgs, vds, vbs)`` with the external bias built from an
    internal-frame point (u, w, b) chosen per regime."""
    polarity = draw(st.sampled_from(("nmos", "pmos")))
    params = CMOS_5UM.device(polarity)
    if draw(st.booleans()):
        params = dataclasses.replace(params, gamma=0.0)
    model = MosfetModel(
        params,
        draw(st.floats(min_value=3e-6, max_value=500e-6)),
        draw(st.floats(min_value=5e-6, max_value=50e-6)),
        CMOS_5UM.min_drain_width,
        CMOS_5UM.cox,
    )
    # Internal bulk bias up to past phi, so the forward-bias clamp of
    # the body term is reached too.
    b = draw(st.floats(min_value=-5.0, max_value=1.0))
    regime = draw(st.sampled_from(sorted(_VOV_BY_REGIME)))
    vov = draw(_VOV_BY_REGIME[regime])
    u = _threshold(model, b) + vov
    if draw(st.booleans()):
        edge = "triode/saturation edge"
        vov_eff = _smooth_overdrive(vov)[0]
        w = max(0.0, vov_eff + draw(st.floats(min_value=-1e-9, max_value=1e-9)))
    else:
        edge = "off the edge"
        w = draw(st.floats(min_value=0.0, max_value=5.0))
    reverse = draw(st.booleans())
    if reverse:
        # The reversed frame of (u, w, b): external vds = -w < 0.
        xvds = -w
        xvgs, xvbs = u + xvds, b + xvds
    else:
        xvgs, xvds, xvbs = u, w, b
    event(f"{polarity}, gamma={'0' if params.gamma == 0.0 else '>0'}")
    event(f"{regime}, {edge}, {'reversed' if reverse else 'forward'}")
    sign = 1.0 if polarity == "nmos" else -1.0
    return model, sign * xvgs, sign * xvds, sign * xvbs


def _bits(value):
    return value.hex() if isinstance(value, float) else value


CAPACITANCES = ("cgs", "cgd", "cgb", "cbd", "cbs")


class TestKernelMatchesOracle:
    @given(point=bias_points())
    @settings(max_examples=400, deadline=None)
    def test_kernel_currents_and_partials_bit_equal(self, point):
        model, vgs, vds, vbs = point
        reference = evaluate_reference(model, vgs, vds, vbs)
        ids, gm, gds, gmbs, region, vth, vdsat = level1_dc(
            model.constants, vgs, vds, vbs
        )
        got = (ids, gm, gds, gmbs, region, vth, vdsat)
        want = tuple(
            getattr(reference, name)
            for name in ("ids", "gm", "gds", "gmbs", "region", "vth", "vdsat")
        )
        assert tuple(map(_bits, got)) == tuple(map(_bits, want))

    @given(point=bias_points())
    @settings(max_examples=400, deadline=None)
    def test_evaluate_record_bit_equal(self, point):
        model, vgs, vds, vbs = point
        reference = evaluate_reference(model, vgs, vds, vbs)
        op = model.evaluate(vgs, vds, vbs)
        for field in dataclasses.fields(reference):
            assert _bits(getattr(op, field.name)) == _bits(
                getattr(reference, field.name)
            ), field.name
        caps = model.capacitances(vgs, vds, vbs)
        assert tuple(map(_bits, caps)) == tuple(
            _bits(getattr(reference, name)) for name in CAPACITANCES
        )
