"""Seeded workload inputs.  The program only ever sees these specs.

Spec draws come from the ROADMAP item-4 ranges on the 5 um process.
They are Latin-hypercube samples: each range is cut into as many equal
strata as there are draws and every stratum is used once, so the cost
mix of a run barely depends on the seed while the seed still decides
which combinations the program sees.
"""

from __future__ import annotations

import random
import threading
from typing import Dict, List, Tuple

Spec = Dict[str, float]

#: (field, low, high, log-uniform) -- the ROADMAP item-4 spec ranges.
RANGES: Tuple[Tuple[str, float, float, bool], ...] = (
    ("gain_db", 40.0, 105.0, False),
    ("unity_gain_hz", 1e5, 1e7, True),
    ("phase_margin_deg", 40.0, 70.0, False),
    ("slew_rate", 10 ** 5.5, 1e7, True),
    ("load_capacitance", 1e-12, 20e-12, False),
    ("output_swing", 1.0, 4.0, False),
    ("offset_max_mv", 2.0, 30.0, False),
)

#: The ROADMAP item-4 worst case: predicted PM 70.3 deg, simulated
#: 3.1 deg.  Pinned so the known defect always shows in the miss share.
WORST_CASE: Spec = {
    "gain_db": 57.08,
    "unity_gain_hz": 101.9e3,
    "phase_margin_deg": 52.57,
    "slew_rate": 1.132e6,
    "load_capacitance": 5.448e-12,
    "output_swing": 3.859,
    "offset_max_mv": 21.33,
}


def latin_hypercube(seed: int, n: int) -> List[Spec]:
    """``n`` specs, one per stratum of every range, shuffled by seed."""
    rng = random.Random(seed)
    columns = []
    for _, low, high, log in RANGES:
        strata = list(range(n))
        rng.shuffle(strata)
        column = []
        for stratum in strata:
            u = (stratum + rng.random()) / n
            column.append(low * (high / low) ** u if log else low + (high - low) * u)
        columns.append(column)
    names = [name for name, *_ in RANGES]
    return [dict(zip(names, values)) for values in zip(*columns)]


class RequestStream:
    """Thread-safe request sequence where ``repeat_share`` of the
    requests repeat an earlier spec (cache reads) and the rest are new
    draws (cache writes)."""

    def __init__(self, seed: int, size: int, repeat_share: float) -> None:
        self._fresh = latin_hypercube(seed, size)
        self._rng = random.Random(seed ^ 0x5EED)
        self._repeat_share = repeat_share
        self._drawn = 0  # fresh specs handed out so far
        self._lock = threading.Lock()

    def spec(self, spec_id: int) -> Spec:
        return self._fresh[spec_id]

    def next(self) -> Tuple[int, Spec]:
        """(spec id, spec); equal ids mean an identical spec."""
        with self._lock:
            if self._drawn and (
                self._drawn == len(self._fresh)
                or self._rng.random() < self._repeat_share
            ):
                spec_id = self._rng.randrange(self._drawn)
            else:
                spec_id = self._drawn
                self._drawn += 1
            return spec_id, self._fresh[spec_id]
