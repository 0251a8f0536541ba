"""Parallel batch synthesis over spec grids, corners and test cases.

The 1987 prototype synthesizes one op amp per invocation; real use of
such a framework is *bulk* -- characterization sweeps, dataset
generation, corner grids.  This package adds that workload tier:

* :mod:`repro.batch.grid` -- the task model: specs x corners x run
  options expanded into a flat, deterministic, picklable task list
  (``--sweep gain=60:80:5`` parsing, JSON grid files);
* :mod:`repro.batch.engine` -- the execution engine: a process pool
  with streaming results, crash retry, per-task budgets, optional
  result caching (:mod:`repro.cache`) and per-worker metrics merged
  into the parent's tracer.

Library use::

    from repro.batch import synthesize_many
    from repro.process import generic_2um

    results = synthesize_many([spec_a, spec_b], generic_2um(),
                              corners=("typical", "slow"), jobs=4,
                              use_cache=True)
    for r in results:                     # grid order, always
        print(r.label, r.ok, r.record["design"]["area_m2"])

CLI use: ``repro batch --testcase A --sweep gain=60:80:5 --jobs 4
--cache --out results.jsonl`` (see ``repro batch --help``).
"""

from .engine import (
    BatchResult,
    VOLATILE_KEYS,
    default_jobs,
    run_batch,
    synthesize_many,
)
from .grid import (
    CORNERS,
    SWEEP_FIELDS,
    BatchTask,
    build_tasks,
    expand_sweeps,
    grid_from_config,
    load_grid,
    parse_sweep,
    sweep_values,
)

__all__ = [
    "BatchTask",
    "BatchResult",
    "VOLATILE_KEYS",
    "CORNERS",
    "SWEEP_FIELDS",
    "parse_sweep",
    "sweep_values",
    "expand_sweeps",
    "build_tasks",
    "grid_from_config",
    "load_grid",
    "run_batch",
    "synthesize_many",
    "default_jobs",
]
