"""Resilience layer: budgets, failure taxonomy, faults.

OASYS is built around *predictable failure* -- rules detect failure
modes mid-plan and patch or restart, and style selection survives one
style failing while another succeeds.  This package extends that
philosophy from the knowledge level down to the systems level, so a
batch run over thousands of specifications survives pathological
inputs, solver divergence, and outright bugs:

* :class:`Budget` / :class:`~repro.errors.BudgetExceeded` -- per-step,
  per-style and per-synthesis wall-clock and iteration budgets,
  checked cooperatively throughout the stack
  (:mod:`repro.resilience.budget`);
* :class:`FailureReport` / :class:`FailureKind` -- the structured
  failure taxonomy (convergence / budget / plan / internal) that
  ``synthesize(best_effort=True)`` returns instead of raising
  (:mod:`repro.resilience.reports`);
* :func:`fault_point` / :func:`inject` -- deterministic fault
  injection at named sites, so every failure path above is
  exercisable in tests and chaos CI
  (:mod:`repro.resilience.faults`).

Solver divergence is handled where it happens: the DC solver's fixed
escalation sequence (plain, damped, gmin, source) lives in
:mod:`repro.simulator.dc`, which charges the budget per Newton
iteration and hosts the ``dc.newton`` / ``dc.newton.nan`` fault points.
"""

from __future__ import annotations

from ..errors import BudgetExceeded, FaultInjected
from .budget import Budget, current_budget
from .faults import (
    FaultAction,
    FaultInjector,
    FaultSpec,
    active_injector,
    fault_point,
    inject,
    iter_chaos_sites,
    register_fault_site,
    registered_sites,
)
from .reports import FailureKind, FailureReport, classify_exception

__all__ = [
    "Budget",
    "BudgetExceeded",
    "current_budget",
    "FaultAction",
    "FaultInjected",
    "FaultInjector",
    "FaultSpec",
    "active_injector",
    "fault_point",
    "inject",
    "iter_chaos_sites",
    "register_fault_site",
    "registered_sites",
    "FailureKind",
    "FailureReport",
    "classify_exception",
]
