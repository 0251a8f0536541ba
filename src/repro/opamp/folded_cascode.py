"""The folded-cascode op amp design style (Section 5 extension).

"Our immediate plan is to expand the breadth of circuit knowledge in
OASYS to include more op amp topologies (e.g., folded cascade [sic] and
fully differential styles)."  This module is that expansion for the
folded-cascode style, built entirely from the same framework pieces:
its own topology template, plan, and patch rules, reusing the existing
sub-block designers.  The fully differential style is not implemented.

Topology (single-ended, PMOS input):

* PMOS source-coupled pair, tail current sourced from vdd by a PMOS
  mirror;
* the pair drains *fold* into two NMOS output branches: bottom NMOS
  current sinks (gate line ``vbn1``) carrying tail/2 + branch current,
  with NMOS cascode devices above them (gate line ``vbn2`` = two
  stacked diode drops);
* a PMOS 4T cascode mirror on top turns the differential branch
  currents into a single-ended output;
* the output node is the only high-impedance node, so -- like the
  symmetrical OTA -- the style is load-compensated: no Miller capacitor.

Style characteristics the plan encodes:

* near-two-stage gain in a single stage
  (``gm1 * (gm ro^2 || gm ro^2)``), with excellent phase margin;
* slew couples directly to the load (``SR = Itail / CL``), so -- like
  the OTA -- high slew is bought with current, and the folded branches
  roughly double the power for a given tail current;
* cascodes on both rails cost ``vth + 2 vov`` of swing headroom on each
  side, so very wide swings disqualify the style (the two-stage keeps
  that niche);
* negligible systematic offset (the cascode mirror's effective output
  conductance is tiny).
"""

from __future__ import annotations

import math
from typing import List

from ..circuit.builder import CircuitBuilder
from ..errors import SynthesisError
from ..kb.blocks import Block
from ..kb.plans import DesignState, Plan, PlanStep
from ..kb.rules import Rule
from ..kb.specs import OpAmpSpec
from ..kb.templates import TopologyTemplate
from ..kb.trace import DesignTrace
from ..subblocks import (
    DiffPairSpec,
    MirrorSpec,
    design_current_mirror,
    design_diff_pair,
    emit_diff_pair,
    emit_mirror,
)
from ..subblocks.sizing import size_for_vov
from ..units import db20
from .common import (
    GAIN_MARGIN,
    GBW_MARGIN,
    IREF_DEFAULT,
    SLEW_MARGIN,
    opamp_spec_of,
    reconcile_tail_current,
    supply_checks,
    thermal_input_noise_nv,
)
from .result import DesignedOpAmp

__all__ = [
    "FOLDED_CASCODE_TEMPLATE",
    "build_folded_cascode_plan",
    "build_folded_cascode_rules",
    "package_folded_cascode",
]

#: Overdrive used for the cascode bias strings and branch devices.
VOV_BRANCH = 0.25


# ----------------------------------------------------------------------
# Plan steps
# ----------------------------------------------------------------------
def _check_specification(state: DesignState) -> str:
    spec = opamp_spec_of(state)
    process = state.process
    supply_checks(spec, process)
    # Both rails carry a cascode: each side needs vth + 2*vov.
    half = process.supply_span / 2.0
    n_req = process.device("nmos").vth_magnitude + 2.0 * VOV_BRANCH
    p_req = process.device("pmos").vth_magnitude + 2.0 * VOV_BRANCH
    swing_cap = half - max(n_req, p_req)
    if spec.output_swing > swing_cap:
        raise SynthesisError(
            f"folded cascode swings at most +-{swing_cap:.2f} V on these "
            f"rails; +-{spec.output_swing:.2f} V requested"
        )
    state.set("swing_cap", swing_cap)
    return f"swing cap +-{swing_cap:.2f} V accommodates +-{spec.output_swing:g} V"


def _budget_currents(state: DesignState) -> str:
    spec = opamp_spec_of(state)
    i_slew = SLEW_MARGIN * spec.slew_rate * spec.load_capacitance
    gm1 = GBW_MARGIN * 2.0 * math.pi * spec.unity_gain_hz * spec.load_capacitance
    i_tail, vov1 = reconcile_tail_current(gm1, i_slew)
    state.set("gm1", gm1)
    state.set("i_tail", i_tail)
    state.set("vov1", vov1)
    # Fold current: each output branch carries tail/2 at balance, and the
    # bottom sinks must absorb the full steered tail on a slew event.
    state.set("i_branch", i_tail / 2.0)
    state.set("i_sink", i_tail)
    return (
        f"Itail = {i_tail * 1e6:.1f} uA, branch {i_tail / 2 * 1e6:.1f} uA, "
        f"gm1 = {gm1 * 1e6:.1f} uS"
    )


def _design_input_pair(state: DesignState) -> str:
    pair = design_diff_pair(
        DiffPairSpec(
            polarity="pmos",
            gm=state.get("gm1"),
            i_tail=state.get("i_tail"),
            length=state.process.min_length,
        ),
        state.process,
    )
    state.set("pair", pair)
    return f"PMOS pair W = {pair.device.width * 1e6:.1f} um"


def _design_output_branches(state: DesignState) -> str:
    """Size the NMOS sinks and cascodes; solve the sink length from the
    gain requirement (the down-looking rout must carry half the load)."""
    spec = opamp_spec_of(state)
    process = state.process
    params = process.device("nmos")
    a_lin = GAIN_MARGIN * 10.0 ** (spec.gain_db / 20.0)
    rout_min = 2.0 * a_lin / state.get("gm1")

    i_sink = state.get("i_sink")
    i_branch = state.get("i_branch")
    cascode = size_for_vov(params, process, i_branch, VOV_BRANCH, process.min_length)
    # rout_down = gm_c / (gds_c * gds_sink): solve the sink lambda.
    lambda_target = cascode.gm / (rout_min * cascode.gds * i_sink)
    length_needed = params.length_for_lambda(lambda_target)
    length_max = 4.0 * process.min_length
    if length_needed > length_max:
        raise SynthesisError(
            f"output-branch rout {rout_min:.3g} Ohm unreachable: sink needs "
            f"L = {'inf' if math.isinf(length_needed) else f'{length_needed * 1e6:.1f}um'}"
        )
    l_sink = max(process.min_length, length_needed)
    sink = size_for_vov(params, process, i_sink, VOV_BRANCH, l_sink)
    rout_down = cascode.gm / (cascode.gds * sink.gds)
    state.set("sink", sink)
    state.set("cascode_n", cascode)
    state.set("rout_down", rout_down)
    return (
        f"sinks {i_sink * 1e6:.0f} uA at L = {l_sink * 1e6:.1f} um, "
        f"rout(down) {rout_down / 1e6:.0f} MOhm"
    )


def _design_load_mirror(state: DesignState) -> str:
    """The top PMOS cascode mirror, matched to the down-looking rout."""
    spec = opamp_spec_of(state)
    process = state.process
    a_lin = GAIN_MARGIN * 10.0 ** (spec.gain_db / 20.0)
    rout_min = 2.0 * a_lin / state.get("gm1")
    half = process.supply_span / 2.0
    mirror = design_current_mirror(
        MirrorSpec(
            polarity="pmos",
            i_in=state.get("i_branch"),
            i_out=state.get("i_branch"),
            rout_min=rout_min,
            headroom=half - spec.output_swing,
            length_max=4.0 * process.min_length,
        ),
        process,
        trace=state.get_or("trace", None),
        block="folded_cascode/load_mirror",
        styles=("cascode",),
    )
    state.set("mirror_load", mirror)
    return f"PMOS cascode mirror rout {mirror.rout / 1e6:.0f} MOhm"


def _design_tail_mirror(state: DesignState) -> str:
    process = state.process
    pair = state.get("pair")
    headroom = process.supply_span / 2.0 - pair.vgs
    mirror = design_current_mirror(
        MirrorSpec(
            polarity="pmos",
            i_in=IREF_DEFAULT,
            i_out=state.get("i_tail"),
            rout_min=1.0,
            headroom=headroom,
            length_max=2.0 * process.min_length,
        ),
        process,
        block="folded_cascode/tail_mirror",
    )
    state.set("mirror_tail", mirror)
    return f"PMOS tail mirror: {mirror.style}"


def _design_bias_strings(state: DesignState) -> str:
    """The NMOS cascode bias: a two-diode stack carrying Iref provides
    vbn1 (one vgs) for the sinks and vbn2 (two vgs) for the cascodes."""
    process = state.process
    params = process.device("nmos")
    diode = size_for_vov(params, process, IREF_DEFAULT, VOV_BRANCH, process.min_length)
    state.set("bias_diode", diode)
    vbn1 = diode.vgs_magnitude
    vbn2 = 2.0 * diode.vgs_magnitude
    state.set("vbn1", vbn1)
    state.set("vbn2", vbn2)
    return f"bias string: vbn1 = {vbn1:.2f} V, vbn2 = {vbn2:.2f} V above vss"


def _estimate_gain(state: DesignState) -> str:
    spec = opamp_spec_of(state)
    rout = 1.0 / (1.0 / state.get("rout_down") + 1.0 / state.get("mirror_load").rout)
    gain_db = db20(state.get("gm1") * rout)
    state.set("gain_db", gain_db)
    state.set("rout", rout)
    if gain_db < spec.gain_db:
        raise SynthesisError(
            f"achieved gain {gain_db:.1f} dB below spec {spec.gain_db:.1f} dB"
        )
    return f"gain {gain_db:.1f} dB (single stage)"


def _estimate_swing_offset(state: DesignState) -> str:
    spec = opamp_spec_of(state)
    process = state.process
    half = process.supply_span / 2.0
    up = half - state.get("mirror_load").v_required
    # Output must stay above vbn2 - vth (the cascode's saturation edge),
    # i.e. vth + 2*vov above the bottom rail.
    down = half - (state.get("vbn2") - process.device("nmos").vth_magnitude)
    swing = min(up, down)
    state.set("output_swing", swing)
    if swing < spec.output_swing * 0.98:
        raise SynthesisError(
            f"achieved swing +-{swing:.2f} V below spec +-{spec.output_swing:.2f} V"
        )
    # Systematic offset: cascoded everywhere -> g_eff * deltaV tiny.
    mirror = state.get("mirror_load")
    out_leg = mirror.device("out")
    casc = mirror.device("out_cascode")
    g_eff = out_leg.gds * (casc.gds / casc.gm)
    offset_mv = 1e3 * g_eff * half / state.get("gm1")
    state.set("offset_mv", offset_mv)
    if offset_mv > spec.offset_max_mv:
        raise SynthesisError(f"systematic offset {offset_mv:.2f} mV over budget")
    return f"swing +-{swing:.2f} V, offset {offset_mv:.3f} mV"


def _estimate_pm_power_area(state: DesignState) -> str:
    spec = opamp_spec_of(state)
    process = state.process
    # Non-dominant poles: the fold nodes (gm of the NMOS cascodes over
    # the junction/gate capacitance there) and the mirror's gate lines.
    pm = 90.0
    cascode = state.get("cascode_n")
    pair = state.get("pair")
    c_fold = (
        (2.0 / 3.0) * process.cox * cascode.width * cascode.length
        + pair.input_capacitance(process)
    )
    f_fold = cascode.gm / (2.0 * math.pi * c_fold)
    pm -= math.degrees(math.atan(spec.unity_gain_hz / f_fold))
    for f_pole in state.get("mirror_load").pole_frequencies_hz(process):
        pm -= math.degrees(math.atan(spec.unity_gain_hz / f_pole))
    state.set("phase_margin_deg", pm)
    if pm < 20.0:
        raise SynthesisError(f"phase margin {pm:.0f} deg below stability floor")

    i_total = state.get("i_tail") + 2.0 * state.get("i_branch") + 2.0 * IREF_DEFAULT
    power = i_total * process.supply_span
    state.set("power", power)
    if spec.power_max > 0 and power > spec.power_max:
        raise SynthesisError(f"power {power * 1e3:.2f} mW over budget")

    area = (
        state.get("pair").area
        + state.get("mirror_load").area
        + state.get("mirror_tail").area
        + 2.0 * state.get("sink").active_area(process)
        + 2.0 * state.get("cascode_n").active_area(process)
        + 2.0 * state.get("bias_diode").active_area(process)
    )
    state.set("area", area)
    state.set("slew_rate", state.get("i_tail") / spec.load_capacitance)
    state.set(
        "cmrr_db", db20(2.0 * state.get("gm1") * state.get("mirror_tail").rout)
    )
    # PMOS input: common mode reaches the bottom rail.
    state.set("input_common_mode", process.supply_span / 2.0 - 0.3)
    return f"PM {pm:.0f} deg, power {power * 1e3:.2f} mW, area {area * 1e12:.0f} um^2"


def _estimate_noise(state: DesignState) -> str:
    """Thermal input noise: the pair, the bottom sinks and the top
    mirror all look directly into the fold."""
    noise_nv = thermal_input_noise_nv(
        state.get("gm1"),
        [state.get("sink").gm, state.get("mirror_load").device("ref").gm],
    )
    state.set("input_noise_nv", noise_nv)
    return f"thermal input noise {noise_nv:.1f} nV/rtHz"


def _assemble_performance(state: DesignState) -> str:
    spec = opamp_spec_of(state)
    performance = {
        "input_noise_nv": state.get("input_noise_nv"),
        "gain_db": state.get("gain_db"),
        "unity_gain_hz": spec.unity_gain_hz * GBW_MARGIN,
        "phase_margin_deg": state.get("phase_margin_deg"),
        "slew_rate": state.get("slew_rate"),
        "output_swing": state.get("output_swing"),
        "offset_mv": state.get("offset_mv"),
        "power": state.get("power"),
        "cmrr_db": state.get("cmrr_db"),
        "input_common_mode": state.get("input_common_mode"),
        "area": state.get("area"),
        "compensation_cap": 0.0,
        "rout": state.get("rout"),
    }
    state.set("performance", performance)
    violations = [v for v in spec.to_specification().compare(performance) if v.hard]
    if violations:
        raise SynthesisError("; ".join(str(v) for v in violations))
    return "all hard specifications met"


# ----------------------------------------------------------------------
# Plan / rules / template
# ----------------------------------------------------------------------
def build_folded_cascode_plan() -> Plan:
    return Plan(
        "folded_cascode",
        [
            PlanStep("check_specification", _check_specification, "swing fits the cascodes"),
            PlanStep("budget_currents", _budget_currents, "tail/branch currents + gm1"),
            PlanStep("design_input_pair", _design_input_pair, "PMOS pair"),
            PlanStep("design_output_branches", _design_output_branches, "NMOS sinks + cascodes"),
            PlanStep("design_load_mirror", _design_load_mirror, "PMOS cascode mirror"),
            PlanStep("design_tail_mirror", _design_tail_mirror, "PMOS tail source"),
            PlanStep("design_bias_strings", _design_bias_strings, "vbn1/vbn2 diode stack"),
            PlanStep("estimate_gain", _estimate_gain, "gm1 * (Rdown || Rup)"),
            PlanStep("estimate_swing_offset", _estimate_swing_offset, "cascode headroom"),
            PlanStep("estimate_pm_power_area", _estimate_pm_power_area, "fold poles etc."),
            PlanStep("estimate_noise", _estimate_noise, "thermal input noise"),
            PlanStep("assemble_performance", _assemble_performance, "final spec check"),
        ],
    )


def build_folded_cascode_rules() -> List[Rule]:
    """The style has a narrow failure inventory: everything is already
    cascoded, so the only patchable failure is branch overdrive choice;
    the plan is kept rule-free in this first expansion (failures simply
    disqualify the style in selection)."""
    return []


FOLDED_CASCODE_TEMPLATE = TopologyTemplate(
    block_type="opamp",
    style="folded_cascode",
    build_plan=build_folded_cascode_plan,
    build_rules=build_folded_cascode_rules,
    sub_blocks=(
        ("input_pair", "diff_pair"),
        ("load_mirror", "current_mirror"),
        ("tail_mirror", "current_mirror"),
        ("output_branches", "cascode_branch"),
        ("bias_string", "bias_network"),
    ),
    description="single-stage folded-cascode OTA, load-compensated",
)


# ----------------------------------------------------------------------
# Netlist emission and packaging
# ----------------------------------------------------------------------
def make_folded_cascode_emitter(state: DesignState):
    pair = state.get("pair")
    mirror_load = state.get("mirror_load")
    mirror_tail = state.get("mirror_tail")
    sink = state.get("sink")
    cascode = state.get("cascode_n")
    diode = state.get("bias_diode")

    def emit(builder: CircuitBuilder, inp: str, inn: str, out: str) -> None:
        uid = builder.fresh_name("fc")

        def node(name: str) -> str:
            return f"{uid}.{name}"

        tail = node("tail")
        fl, fr = node("fl"), node("fr")
        cascl = node("cascl")
        vbn1, vbn2 = node("vbn1"), node("vbn2")
        tref = node("tref")

        # Input pair folds into fl / fr.  inp drives the left (mirror
        # input) side: raising inp steals current from the diode branch,
        # so the mirror sources more into the output -- non-inverting.
        emit_diff_pair(builder, pair, inp, inn, fl, fr, tail, prefix=uid)

        # Tail from vdd.
        builder.isource(f"{uid}_iref", tref, builder.vss_node, dc=IREF_DEFAULT)
        emit_mirror(builder, mirror_tail, tref, tail, builder.vdd_node, prefix=f"{uid}_tl")

        # Bottom sinks and NMOS cascodes.
        builder.nmos(f"{uid}_m9", fl, vbn1, "vss", sink.width, length=sink.length)
        builder.nmos(f"{uid}_m10", fr, vbn1, "vss", sink.width, length=sink.length)
        builder.nmos(f"{uid}_m7", cascl, vbn2, fl, cascode.width, length=cascode.length)
        builder.nmos(f"{uid}_m8", out, vbn2, fr, cascode.width, length=cascode.length)

        # Top PMOS cascode mirror: diode side at cascl, output at out.
        emit_mirror(builder, mirror_load, cascl, out, builder.vdd_node, prefix=f"{uid}_ld")

        # NMOS bias string: two stacked diodes carrying Iref.
        builder.isource(f"{uid}_ibn", builder.vdd_node, vbn2, dc=IREF_DEFAULT)
        builder.nmos(f"{uid}_mb2", vbn2, vbn2, vbn1, diode.width, length=diode.length)
        builder.nmos(f"{uid}_mb1", vbn1, vbn1, "vss", diode.width, length=diode.length)

    return emit


def make_folded_cascode_hierarchy(state: DesignState) -> Block:
    amp = Block("opamp", "opamp", style="folded_cascode")
    amp.attributes.update(
        {"i_tail": state.get("i_tail"), "gm1": state.get("gm1"),
         "gain_db": state.get("gain_db")}
    )
    pair = state.get("pair")
    amp.add_child(
        Block("input_pair", "diff_pair", style="pmos_pair",
              attributes={"w": pair.device.width, "gm": pair.gm})
    )
    for name, key in (("load_mirror", "mirror_load"), ("tail_mirror", "mirror_tail")):
        mirror = state.get(key)
        amp.add_child(
            Block(name, "current_mirror", style=mirror.style,
                  attributes={"rout": mirror.rout})
        )
    amp.add_child(
        Block("output_branches", "cascode_branch", style="nmos_cascode",
              attributes={"rout": state.get("rout_down")})
    )
    amp.add_child(Block("bias_string", "bias_network", style="stacked_diodes"))
    return amp


def package_folded_cascode(
    state: DesignState, spec: OpAmpSpec, trace: DesignTrace
) -> DesignedOpAmp:
    return DesignedOpAmp(
        style="folded_cascode",
        spec=spec,
        process=state.process,
        performance=dict(state.get("performance")),
        area=state.get("area"),
        hierarchy=make_folded_cascode_hierarchy(state),
        emit=make_folded_cascode_emitter(state),
        trace=trace,
    )
