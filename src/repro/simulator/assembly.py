"""Array-oriented MNA assembly: the simulator's hot path.

:class:`StampPlan` compiles a circuit's stamp pattern **once** per
:class:`~repro.simulator.mna.MnaSystem`:

* devices grouped by type into index/value arrays (resistor terminal
  indices, MOSFET terminal indices and model constants, source rows...);
* one global COO entry list per assembly kind (DC Jacobian, DC
  residual, AC matrix) recorded in **exactly** the order of a
  one-device-at-a-time element walk, so one ordered scatter
  (``np.bincount`` for DC, ``np.add.at`` for AC; both add duplicate
  indices sequentially in entry order) reproduces that walk's
  floating-point accumulation bit for bit.

Each DC assembly runs the level-1 kernel
(:func:`~repro.devices.mosfet.level1_dc`) on plain Python floats, one
device after another: at the 8--16 devices of an op amp that beats
numpy struct-of-arrays evaluation, and ``math.exp``/``math.log1p`` keep
the bits of the scalar model.  No operating-point records are built in
the Newton loop; :meth:`StampPlan.device_ops` builds them once, at a
converged point.

Every Newton iteration, retry-ladder rung and AC frequency of a system
reuses the plan; the assembled matrices are dense and are solved with
``np.linalg.solve``.  The scalar element walk the plan must match lives
in ``tests/mna_reference.py`` as the differential-testing oracle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from ..circuit.elements import (
    Capacitor,
    CurrentSource,
    Mosfet,
    Resistor,
    VoltageSource,
)
from ..devices.mosfet import level1_dc
from ..errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from ..devices.mosfet import MosfetModel, MosfetOperatingPoint
    from .mna import MnaSystem

__all__ = ["StampPlan"]


class _EntryRecorder:
    """COO entries in scalar-stamp order, tagged by value group.

    ``positions(group)`` returns where a device group's values land in
    the global entry list, so each group fills its slice of one flat
    ``vals`` array and a single ordered ``np.add.at`` reproduces the
    interleaved scalar accumulation exactly.
    """

    def __init__(self) -> None:
        self._rows: List[int] = []
        self._cols: List[int] = []
        self._groups: List[int] = []

    def add(self, group: int, row: int, col: int) -> None:
        self._groups.append(group)
        self._rows.append(row)
        self._cols.append(col)

    def finish(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        rows = np.asarray(self._rows, dtype=np.intp)
        cols = np.asarray(self._cols, dtype=np.intp)
        groups = np.asarray(self._groups, dtype=np.intp)
        return rows, cols, groups


# Value groups for the DC Jacobian entry list.
_JG_GMIN, _JG_RES, _JG_MOS, _JG_VS = range(4)
# Value groups for the DC residual entry list.
_FG_GMIN, _FG_RES, _FG_ISRC, _FG_MOS, _FG_VS = range(5)
# Value groups for the AC matrix entry list (split into a static
# conductance array, a static capacitance array, and the per-OP MOSFET
# fills; entry value at omega is g + j*omega*c).
_AG_STATIC, _AG_MOS_G, _AG_MOS_C = range(3)


class StampPlan:
    """Per-system compiled stamp pattern (see module docstring).

    Index arrays are built once in ``__init__`` by replaying the exact
    element walk of a scalar stamper (the one-device-at-a-time order
    the accumulation must reproduce); numeric assemblies then fill
    flat entry-value arrays and scatter them.  The AC layout is built
    lazily on first AC assembly (DC solves never need it).
    """

    def __init__(self, system: "MnaSystem"):
        self.system = system
        self.size = system.size
        self.n_nodes = system.n_nodes

        index_of = system.index_of
        jac = _EntryRecorder()
        res = _EntryRecorder()

        res_a: List[int] = []
        res_b: List[int] = []
        res_g: List[float] = []
        isrc_p: List[int] = []
        isrc_n: List[int] = []
        isrc_dc: List[float] = []
        mos_bind: List[Tuple[str, str, "MosfetModel"]] = []
        mos_d: List[int] = []
        mos_g: List[int] = []
        mos_s: List[int] = []
        mos_b: List[int] = []

        # gmin shunt on every node comes first in the reference walk.
        for i in range(self.n_nodes):
            jac.add(_JG_GMIN, i, i)
            res.add(_FG_GMIN, i, i)

        for element in system.circuit.elements:
            if isinstance(element, Resistor):
                a = index_of(element.node_a)
                b = index_of(element.node_b)
                res_a.append(a)
                res_b.append(b)
                res_g.append(1.0 / element.resistance)
                res.add(_FG_RES, a, a)
                res.add(_FG_RES, b, b)
                jac.add(_JG_RES, a, a)
                jac.add(_JG_RES, a, b)
                jac.add(_JG_RES, b, a)
                jac.add(_JG_RES, b, b)
            elif isinstance(element, Capacitor):
                continue  # open at DC
            elif isinstance(element, CurrentSource):
                p = index_of(element.positive)
                n = index_of(element.negative)
                isrc_p.append(p)
                isrc_n.append(n)
                isrc_dc.append(element.dc)
                res.add(_FG_ISRC, p, p)
                res.add(_FG_ISRC, n, n)
            elif isinstance(element, Mosfet):
                key = element.name.lower()
                mos_bind.append((key, element.name, system.models[key]))
                d = index_of(element.drain)
                g = index_of(element.gate)
                s = index_of(element.source)
                b = index_of(element.bulk)
                mos_d.append(d)
                mos_g.append(g)
                mos_s.append(s)
                mos_b.append(b)
                res.add(_FG_MOS, d, d)
                res.add(_FG_MOS, s, s)
                jac.add(_JG_MOS, d, g)
                jac.add(_JG_MOS, d, d)
                jac.add(_JG_MOS, d, b)
                jac.add(_JG_MOS, d, s)
                jac.add(_JG_MOS, s, g)
                jac.add(_JG_MOS, s, d)
                jac.add(_JG_MOS, s, b)
                jac.add(_JG_MOS, s, s)
            elif isinstance(element, VoltageSource):
                pass  # branch rows handled below
            else:  # pragma: no cover
                raise SimulationError(
                    f"unsupported element {type(element).__name__}"
                )

        vs_p: List[int] = []
        vs_n: List[int] = []
        vs_row: List[int] = []
        vs_dc: List[float] = []
        for position, source in enumerate(system.vsources):
            row = system.branch_index(position)
            p = index_of(source.positive)
            n = index_of(source.negative)
            vs_p.append(p)
            vs_n.append(n)
            vs_row.append(row)
            vs_dc.append(source.dc)
            res.add(_FG_VS, p, p)
            res.add(_FG_VS, n, n)
            jac.add(_JG_VS, p, row)
            jac.add(_JG_VS, n, row)
            jac.add(_JG_VS, row, p)
            jac.add(_JG_VS, row, n)

        # Node index arrays index the unknowns with a 0.0 appended, so
        # ground (-1) reads 0 V without a mask.
        # --- resistor group -------------------------------------------
        self.res_a = np.asarray(res_a, dtype=np.intp)
        self.res_b = np.asarray(res_b, dtype=np.intp)
        self.res_g = np.asarray(res_g, dtype=float)
        g = self.res_g
        self.res_j_static = np.column_stack((g, -g, -g, g)).ravel()
        # --- current sources ------------------------------------------
        self.isrc_dc = np.asarray(isrc_dc, dtype=float)
        # --- MOSFETs ---------------------------------------------------
        self.mos_bind = mos_bind
        self.mos_constants = [model.constants for _key, _name, model in mos_bind]
        self.mos_terms = list(zip(mos_g, mos_d, mos_b, mos_s))
        # --- voltage sources ------------------------------------------
        self.vs_p = np.asarray(vs_p, dtype=np.intp)
        self.vs_n = np.asarray(vs_n, dtype=np.intp)
        self.vs_rows = np.asarray(vs_row, dtype=np.intp)
        self.vs_dc = np.asarray(vs_dc, dtype=float)
        self.vs_j_static = np.tile(
            np.array([1.0, -1.0, 1.0, -1.0]), len(vs_row)
        )

        # --- global entry lists ---------------------------------------
        j_rows, j_cols, j_groups = jac.finish()
        self.j_total = j_rows.size
        self.jp_gmin = np.flatnonzero(j_groups == _JG_GMIN)
        self.jp_res = np.flatnonzero(j_groups == _JG_RES)
        self.jp_mos = np.flatnonzero(j_groups == _JG_MOS)
        self.jp_vs = np.flatnonzero(j_groups == _JG_VS)
        # Flat matrix slot of each entry; entries on a ground row or
        # column go to one spare slot past the matrix.
        cells = self.size * self.size
        self.j_slots = np.where(
            (j_rows >= 0) & (j_cols >= 0), j_rows * self.size + j_cols, cells
        )

        f_rows, _f_cols, f_groups = res.finish()
        self.f_total = f_rows.size
        self.fp_gmin = np.flatnonzero(f_groups == _FG_GMIN)
        # Each two-terminal group stamps +value then -value: positions
        # of the first and of the second stamp.
        fp_res = np.flatnonzero(f_groups == _FG_RES)
        self.fp_res = (fp_res[0::2], fp_res[1::2])
        fp_isrc = np.flatnonzero(f_groups == _FG_ISRC)
        self.fp_isrc = (fp_isrc[0::2], fp_isrc[1::2])
        self.fp_mos = np.flatnonzero(f_groups == _FG_MOS)
        fp_vs = np.flatnonzero(f_groups == _FG_VS)
        self.fp_vs = (fp_vs[0::2], fp_vs[1::2])
        self.f_slots = np.where(f_rows >= 0, f_rows, self.size)

        self._ac_ready = False

    # ------------------------------------------------------------------
    # DC assembly
    # ------------------------------------------------------------------
    def _device_biases(self, xs: List[float]) -> List[Tuple[float, float, float]]:
        """``(vgs, vds, vbs)`` per MOSFET from the unknowns as a list
        with ground's 0.0 appended."""
        return [
            (xs[g] - xs[s], xs[d] - xs[s], xs[b] - xs[s])
            for g, d, b, s in self.mos_terms
        ]

    def _dc_entry_values(
        self,
        xe: np.ndarray,
        gmin: float,
        source_scale: float,
        with_jacobian: bool = True,
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Fill the flat residual/Jacobian entry-value arrays at the
        unknowns ``xe`` (with ground's 0.0 appended).

        The device model runs on plain floats (:func:`level1_dc`, no
        capacitances); at 8--16 devices a Python loop over it beats
        gathering the devices into numpy arrays.
        """
        kernel = level1_dc
        f_mos: List[float] = []
        j_mos: List[float] = []
        for c, (vgs, vds, vbs) in zip(
            self.mos_constants, self._device_biases(xe.tolist())
        ):
            ids, gm, gds, gmbs, _, _, _ = kernel(c, vgs, vds, vbs)
            f_mos += (ids, -ids)
            if with_jacobian:
                g_s = -(gm + gds + gmbs)
                j_mos += (gm, gds, gmbs, g_s, -gm, -gds, -gmbs, -g_s)
        f_vals = np.empty(self.f_total)
        f_vals[self.fp_gmin] = gmin * xe[: self.n_nodes]
        gv = self.res_g * (xe[self.res_a] - xe[self.res_b])
        f_vals[self.fp_res[0]] = gv
        f_vals[self.fp_res[1]] = -gv
        inj = self.isrc_dc * source_scale
        f_vals[self.fp_isrc[0]] = inj
        f_vals[self.fp_isrc[1]] = -inj
        f_vals[self.fp_mos] = f_mos
        i_branch = xe[self.vs_rows]
        f_vals[self.fp_vs[0]] = i_branch
        f_vals[self.fp_vs[1]] = -i_branch
        if not with_jacobian:
            return f_vals, None
        j_vals = np.empty(self.j_total)
        j_vals[self.jp_gmin] = gmin
        j_vals[self.jp_res] = self.res_j_static
        j_vals[self.jp_mos] = j_mos
        j_vals[self.jp_vs] = self.vs_j_static
        return f_vals, j_vals

    def _residual_from(
        self, f_vals: np.ndarray, xe: np.ndarray, source_scale: float
    ) -> np.ndarray:
        # bincount sums each slot's entries in entry order from 0.0,
        # exactly as the scalar walk accumulates them.
        residual = np.bincount(
            self.f_slots, weights=f_vals, minlength=self.size + 1
        )[: self.size]
        if self.vs_rows.size:
            # Branch equations are assigned, not accumulated.
            residual[self.vs_rows] = (
                xe[self.vs_p] - xe[self.vs_n] - self.vs_dc * source_scale
            )
        return residual

    def assemble_dc(
        self, x: np.ndarray, gmin: float, source_scale: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Residual and dense Jacobian at ``x``."""
        xe = np.append(x, 0.0)
        f_vals, j_vals = self._dc_entry_values(xe, gmin, source_scale)
        assert j_vals is not None
        cells = self.size * self.size
        jacobian = np.bincount(self.j_slots, weights=j_vals, minlength=cells + 1)
        return (
            self._residual_from(f_vals, xe, source_scale),
            jacobian[:cells].reshape(self.size, self.size),
        )

    def assemble_dc_residual(
        self, x: np.ndarray, gmin: float, source_scale: float
    ) -> np.ndarray:
        """Residual only (the Newton convergence check)."""
        xe = np.append(x, 0.0)
        f_vals, _ = self._dc_entry_values(
            xe, gmin, source_scale, with_jacobian=False
        )
        return self._residual_from(f_vals, xe, source_scale)

    def device_ops(self, x: np.ndarray) -> Dict[str, "MosfetOperatingPoint"]:
        """One :class:`MosfetOperatingPoint` per device at ``x`` (a
        converged solve's record, capacitances included)."""
        return {
            key: model.evaluate(vgs, vds, vbs)
            for (key, _name, model), (vgs, vds, vbs) in zip(
                self.mos_bind, self._device_biases(x.tolist() + [0.0])
            )
        }

    def mosfet_capacitances(self, x: np.ndarray) -> List[float]:
        """``cgs, cgd, cgb, cbd, cbs`` of every device at ``x``, device
        after device (the transient's quasi-static refresh)."""
        caps: List[float] = []
        biases = self._device_biases(x.tolist() + [0.0])
        for (_key, _name, model), (vgs, vds, vbs) in zip(self.mos_bind, biases):
            caps += model.capacitances(vgs, vds, vbs)
        return caps

    # ------------------------------------------------------------------
    # AC assembly
    # ------------------------------------------------------------------
    def _build_ac(self) -> None:
        """Record the AC entry list (scalar ``assemble_ac`` walk order:
        elements first, then voltage-source rows; each admittance stamp
        is (a,a),(b,b),(a,b),(b,a))."""
        system = self.system
        index_of = system.index_of
        rec = _EntryRecorder()
        g_static: List[float] = []
        c_static: List[float] = []

        def stamp_admittance(group: int, a: int, b: int) -> None:
            rec.add(group, a, a)
            rec.add(group, b, b)
            rec.add(group, a, b)
            rec.add(group, b, a)

        def push_static(g_value: float, c_value: float, count: int = 1) -> None:
            g_static.extend([g_value, g_value, -g_value, -g_value] * count)
            c_static.extend([c_value, c_value, -c_value, -c_value] * count)

        isrc_rhs: List[Tuple[str, int, int, complex]] = []
        for element in system.circuit.elements:
            if isinstance(element, Resistor):
                a = index_of(element.node_a)
                b = index_of(element.node_b)
                stamp_admittance(_AG_STATIC, a, b)
                push_static(1.0 / element.resistance, 0.0)
            elif isinstance(element, Capacitor):
                a = index_of(element.node_a)
                b = index_of(element.node_b)
                stamp_admittance(_AG_STATIC, a, b)
                push_static(0.0, element.capacitance)
            elif isinstance(element, CurrentSource):
                isrc_rhs.append(
                    (
                        element.name.lower(),
                        index_of(element.positive),
                        index_of(element.negative),
                        element.ac,
                    )
                )
            elif isinstance(element, Mosfet):
                d = index_of(element.drain)
                g = index_of(element.gate)
                s = index_of(element.source)
                b = index_of(element.bulk)
                rec.add(_AG_MOS_G, d, g)
                rec.add(_AG_MOS_G, d, d)
                rec.add(_AG_MOS_G, d, b)
                rec.add(_AG_MOS_G, d, s)
                rec.add(_AG_MOS_G, s, g)
                rec.add(_AG_MOS_G, s, d)
                rec.add(_AG_MOS_G, s, b)
                rec.add(_AG_MOS_G, s, s)
                stamp_admittance(_AG_MOS_C, g, s)
                stamp_admittance(_AG_MOS_C, g, d)
                stamp_admittance(_AG_MOS_C, g, b)
                stamp_admittance(_AG_MOS_C, b, d)
                stamp_admittance(_AG_MOS_C, b, s)
            elif isinstance(element, VoltageSource):
                pass
            else:  # pragma: no cover
                raise SimulationError(
                    f"unsupported element {type(element).__name__}"
                )

        vs_rhs: List[Tuple[str, int, complex]] = []
        for position, source in enumerate(system.vsources):
            row = system.branch_index(position)
            p = index_of(source.positive)
            n = index_of(source.negative)
            rec.add(_AG_STATIC, p, row)
            rec.add(_AG_STATIC, n, row)
            rec.add(_AG_STATIC, row, p)
            rec.add(_AG_STATIC, row, n)
            g_static.extend([1.0, -1.0, 1.0, -1.0])
            c_static.extend([0.0, 0.0, 0.0, 0.0])
            vs_rhs.append((source.name.lower(), row, source.ac))

        rows, cols, groups = rec.finish()
        self.ac_total = rows.size
        self.ac_g_base = np.zeros(self.ac_total)
        self.ac_c_base = np.zeros(self.ac_total)
        acp_static = np.flatnonzero(groups == _AG_STATIC)
        self.ac_g_base[acp_static] = np.asarray(g_static, dtype=float)
        self.ac_c_base[acp_static] = np.asarray(c_static, dtype=float)
        self.acp_mos_g = np.flatnonzero(groups == _AG_MOS_G)
        self.acp_mos_c = np.flatnonzero(groups == _AG_MOS_C)
        mask = (rows >= 0) & (cols >= 0)
        self.ac_mask = mask
        self.ac_rows_valid = rows[mask]
        self.ac_cols_valid = cols[mask]
        self._isrc_rhs = isrc_rhs
        self._vs_rhs = vs_rhs
        self._ac_ready = True

    def ac_entry_values(
        self, device_ops: Dict[str, "MosfetOperatingPoint"]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Frequency-independent (conductance, capacitance) entry
        arrays; the matrix entries at ``omega`` are ``g + 1j*omega*c``.
        """
        if not self._ac_ready:
            self._build_ac()
        g_vals = self.ac_g_base.copy()
        c_vals = self.ac_c_base.copy()
        count = len(self.mos_bind)
        if count:
            gm = np.empty(count)
            gds = np.empty(count)
            gmbs = np.empty(count)
            cgs = np.empty(count)
            cgd = np.empty(count)
            cgb = np.empty(count)
            cbd = np.empty(count)
            cbs = np.empty(count)
            for i, (key, name, _model) in enumerate(self.mos_bind):
                op = device_ops.get(key)
                if op is None:
                    raise SimulationError(
                        f"device {name} missing from operating point"
                    )
                gm[i] = op.gm
                gds[i] = op.gds
                gmbs[i] = op.gmbs
                cgs[i] = op.cgs
                cgd[i] = op.cgd
                cgb[i] = op.cgb
                cbd[i] = op.cbd
                cbs[i] = op.cbs
            g_s = -(gm + gds + gmbs)
            g_vals[self.acp_mos_g] = np.column_stack(
                (gm, gds, gmbs, g_s, -gm, -gds, -gmbs, -g_s)
            ).ravel()
            c_vals[self.acp_mos_c] = np.column_stack(
                (
                    cgs, cgs, -cgs, -cgs,
                    cgd, cgd, -cgd, -cgd,
                    cgb, cgb, -cgb, -cgb,
                    cbd, cbd, -cbd, -cbd,
                    cbs, cbs, -cbs, -cbs,
                )
            ).ravel()
        return g_vals, c_vals

    def ac_rhs(self, overrides: Dict[str, complex]) -> np.ndarray:
        """Excitation vector (frequency-independent)."""
        if not self._ac_ready:
            self._build_ac()
        rhs = np.zeros(self.size, dtype=complex)
        for name, p, n, ac in self._isrc_rhs:
            amplitude = overrides.get(name, ac)
            if p >= 0:
                rhs[p] -= amplitude
            if n >= 0:
                rhs[n] += amplitude
        for name, row, ac in self._vs_rhs:
            rhs[row] = overrides.get(name, ac)
        return rhs

    def assemble_ac(
        self,
        omegas: np.ndarray,
        device_ops: Dict[str, "MosfetOperatingPoint"],
        overrides: Dict[str, complex],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """All frequencies as one ``(F, size, size)`` matrix stack, plus
        the (frequency-independent) excitation vector."""
        g_vals, c_vals = self.ac_entry_values(device_ops)
        stacked_vals = g_vals[None, :] + np.multiply.outer(
            1j * omegas, c_vals
        )
        count = omegas.size
        matrix = np.zeros((count, self.size, self.size), dtype=complex)
        np.add.at(
            matrix,
            (
                np.arange(count)[:, None],
                self.ac_rows_valid[None, :],
                self.ac_cols_valid[None, :],
            ),
            stacked_vals[:, self.ac_mask],
        )
        return matrix, self.ac_rhs(overrides)
