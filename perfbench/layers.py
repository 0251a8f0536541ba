"""Per-layer timing from outside the program: wrappers around public
entry points, installed only for the traced run.

Each wrapped entry point records its calls, its inclusive time and its
self time -- the wrapper time minus the time of the wrappers nested
inside it.  A function is replaced wherever a loaded ``repro`` module
holds it (``from x import f`` copies the reference), so calls through
any import path are seen; ``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Tuple

#: (layer, module, attribute, timed).  Untimed layers only count calls:
#: the device model runs ~10^4 times per verification and a clock read
#: around each call would distort the time of its callers.
ENTRY_POINTS: Tuple[Tuple[str, str, str, bool], ...] = (
    ("opamp.designer", "repro.opamp.designer", "synthesize", True),
    ("opamp.verify", "repro.opamp.verify", "verify_opamp", True),
    ("simulator.dc", "repro.simulator.dc", "operating_point", True),
    ("simulator.ac", "repro.simulator.ac", "ac_analysis", True),
    ("simulator.transient", "repro.simulator.transient", "transient_analysis", True),
    ("circuit.build", "repro.circuit.builder", "CircuitBuilder.build", True),
    ("devices.mosfet", "repro.devices.mosfet", "MosfetModel.evaluate", False),
)


class LayerClock:
    """Calls, inclusive and self milliseconds per wrapped layer."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.total_ms: Dict[str, float] = defaultdict(float)
        self.self_ms: Dict[str, float] = defaultdict(float)
        self._stack: List[List[float]] = []
        self._restore: List[Tuple[Any, str, Any]] = []

    # -- wrappers ------------------------------------------------------
    def _timed(self, layer: str, fn: Callable) -> Callable:
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nested = [0.0]
            stack.append(nested)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = (clock() - start) * 1e3
                stack.pop()
                if stack:
                    stack[-1][0] += spent
                self.calls[layer] += 1
                self.total_ms[layer] += spent
                self.self_ms[layer] += spent - nested[0]

        return wrapper

    def _counted(self, layer: str, fn: Callable) -> Callable:
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[layer] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ----------------------------------------------------
    def install(self) -> "LayerClock":
        for layer, module_name, attribute, timed in ENTRY_POINTS:
            module = sys.modules.get(module_name) or __import__(
                module_name, fromlist=["_"]
            )
            owner_name, _, name = attribute.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, name)
            wrapped = (self._timed if timed else self._counted)(layer, original)
            if owner_name:  # a method: patch the class
                self._patch(owner, name, original, wrapped)
                continue
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded_name.split(".")[0] != "repro" or loaded is None:
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._patch(loaded, key, original, wrapped)
        return self

    def _patch(self, owner: Any, key: str, original: Any, wrapped: Any) -> None:
        setattr(owner, key, wrapped)
        self._restore.append((owner, key, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def __enter__(self) -> "LayerClock":
        return self.install()

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()


class TracerTotals:
    """Sums over the program's own ``Tracer`` records of traced ops."""

    COUNTERS = (
        "dc.newton.iterations",
        "dc.lu_solves",
        "dc.failures",
        "plan.steps",
        "plan.restarts",
    )
    PHASES = ("offset", "ac", "swing", "slew")

    def __init__(self) -> None:
        self.counters = dict.fromkeys(self.COUNTERS, 0.0)
        self.phase_ms = dict.fromkeys(self.PHASES, 0.0)
        self.feasible = 0
        self.candidates = 0

    def add(self, tracer: Any) -> None:
        counters = tracer.metrics.snapshot()["counters"]
        for key, value in counters.items():
            name = key.partition("{")[0]
            if name in self.counters:
                self.counters[name] += value
        for span in tracer.spans:
            phase = span.name.partition("verify:")[2]
            if phase in self.phase_ms:
                self.phase_ms[phase] += span.duration_ms
            elif span.name == "synthesize":
                self.feasible += span.attributes.get("feasible", 0)
                self.candidates += span.attributes.get("candidates", 0)


def layer_metrics(
    clock: LayerClock, totals: TracerTotals, ops: int
) -> Dict[str, float]:
    """The wrapped layers' metrics over ``ops`` traced operations.

    Designer and knowledge-base figures are per ``synthesize`` call;
    the rest are per operation.
    """
    values: Dict[str, float] = {}
    synth_calls = clock.calls["opamp.designer"] or 1
    designer = "opamp.designer"
    values[f"{designer}.synthesize_ms"] = clock.total_ms[designer] / synth_calls
    values[f"{designer}.self_ms"] = clock.self_ms[designer] / synth_calls
    values["kb.plan.steps"] = totals.counters["plan.steps"] / synth_calls
    values["kb.plan.restarts"] = totals.counters["plan.restarts"] / synth_calls
    values["kb.selection.feasible_share"] = (
        totals.feasible / totals.candidates if totals.candidates else 0.0
    )
    values["opamp.verify.verify_ms"] = clock.total_ms["opamp.verify"] / ops
    values["opamp.verify.self_ms"] = clock.self_ms["opamp.verify"] / ops
    for phase, spent in totals.phase_ms.items():
        values[f"opamp.verify.{phase}_ms"] = spent / ops
    for kind in ("dc", "ac", "transient"):
        layer = f"simulator.{kind}"
        values[f"{layer}.calls"] = clock.calls[layer] / ops
        values[f"{layer}.ms"] = clock.total_ms[layer] / ops
        values[f"{layer}.self_ms"] = clock.self_ms[layer] / ops
    newton = totals.counters["dc.newton.iterations"]
    values["simulator.dc.newton_iterations"] = newton / ops
    values["simulator.dc.iterations_per_call"] = newton / (
        clock.calls["simulator.dc"] or 1
    )
    values["simulator.dc.lu_solves"] = totals.counters["dc.lu_solves"] / ops
    values["simulator.dc.failures"] = totals.counters["dc.failures"] / ops
    values["devices.mosfet.evaluations"] = clock.calls["devices.mosfet"] / ops
    values["circuit.build.calls"] = clock.calls["circuit.build"] / ops
    values["circuit.build.ms"] = clock.total_ms["circuit.build"] / ops
    return values
