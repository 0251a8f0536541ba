"""The ``cli_cold`` workload: fresh interpreters running the CLI.

Sequential runs of ``python -m repro synth --testcase A|B|C`` and
``python -m repro lint --testcase A``, round robin in a seeded order
per round.  Process start and imports are almost all of each run's
wall; ``lint`` loads a different part of the import graph than
``synth``, so a lazy-import change that helps one and hurts the other
shows.

Each run must exit 0 with stdout byte-equal to ``repro.cli.main(argv)``
run in-process.  Those reference outputs come from a fresh child
(``--reference``); the time it takes to be ready is this workload's
set-up.  ``--reference --trace 1`` also times the in-process layers.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import subprocess
import sys
import time
from typing import Dict, List

import checks
import common
import layers

COMMANDS = (
    ("synth", "--testcase", "A"),
    ("synth", "--testcase", "B"),
    ("synth", "--testcase", "C"),
    ("lint", "--testcase", "A"),
)


def reference(trace: bool) -> dict:
    """In-process ``repro.cli.main`` output for every command."""
    common.use_source()
    from repro import cli
    from repro.obs import Tracer

    outputs = []
    for argv in COMMANDS:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(list(argv))
        outputs.append((code, buffer.getvalue()))
    result = {"outputs": outputs}
    if trace:
        clock, totals = layers.LayerClock(), layers.TracerTotals()
        for argv in COMMANDS:
            tracer = Tracer()
            with clock, tracer.activate(), contextlib.redirect_stdout(io.StringIO()):
                cli.main(list(argv))
            totals.add(tracer)
        result["metrics"] = layers.layer_metrics(clock, totals, len(COMMANDS))
    return result


def _python(args, stdout=subprocess.PIPE) -> tuple:
    """Run a fresh interpreter in the program's environment; returns
    (wall ms, exit code, stdout bytes, stderr bytes)."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args],
        stdout=stdout,
        stderr=subprocess.PIPE,
        env=common.program_env(),
        cwd=common.ROOT,
        timeout=120,
    )
    return common.elapsed_ms(start), proc.returncode, proc.stdout, proc.stderr


def _reference_child(trace: bool) -> dict:
    _, code, out, err = _python([__file__, "--reference", "--trace", str(int(trace))])
    if code != 0:
        raise RuntimeError(f"reference run failed: {err.decode()[-2000:]}")
    return json.loads(out.decode().splitlines()[-1])


def run(seed: int, seconds: float, trace: bool, setup_repeats: int) -> dict:
    setups = []
    for _ in range(1 if trace else setup_repeats):
        start = time.perf_counter()
        ref = _reference_child(trace)
        setups.append(time.perf_counter() - start)
    expected = {
        argv: output.encode() for argv, (_, output) in zip(COMMANDS, ref["outputs"])
    }

    rng = random.Random(seed)
    walls, overheads, problems, sample = [], [], [], None
    failed = 0
    started = time.perf_counter()
    order = []
    while not walls or time.perf_counter() - started < seconds:
        if not order:
            order = list(COMMANDS)
            rng.shuffle(order)
        argv = order.pop()
        wall, code, stdout, _ = _python(("-m", "repro", *argv))
        walls.append(wall)
        found = checks.check_cli(code, stdout, expected[argv])
        if trace:
            traced_wall, code, stdout, _ = _python(
                ("-X", "importtime", "-m", "repro", *argv)
            )
            overheads.append(traced_wall / wall - 1.0)
            found += checks.check_cli(code, stdout, expected[argv])
        if found:
            failed += 1
            problems.append(f"{' '.join(argv)}: {found[0]}")
        elif sample is None:
            sample = (code, stdout, expected[argv])
    loop_s = time.perf_counter() - started

    missed = checks.self_test(cli=sample)
    result = {
        "attempted": len(walls),
        "failed": failed,
        "problems": problems[:5] + missed,
        "self_test_ok": sample is not None and not missed,
    }
    if trace:
        result["metrics"] = ref["metrics"]
        result["metrics"]["obs.trace_overhead_share"] = common.median(overheads)
    else:
        result["metrics"] = common.end_to_end(setups, walls, loop_s)
    return result


#: Packages whose cumulative ``-X importtime`` the traced run reports,
#: with the command whose import graph loads them.
IMPORT_PROBES = (
    ("numpy", COMMANDS[0]),
    ("scipy", COMMANDS[0]),
    ("networkx", COMMANDS[0]),
    ("repro.simulator", COMMANDS[0]),
    ("repro.lint", COMMANDS[3]),
)


def import_times(stderr: str) -> Dict[str, float]:
    """Cumulative ``-X importtime`` ms per package in ``IMPORT_PROBES``,
    summed over its outermost import lines (a package imported in
    pieces, like ``scipy.sparse`` after ``scipy``, has several)."""
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        rows.append((len(name) - len(name.lstrip()), name.strip(), int(cumulative)))
    totals = dict.fromkeys((package for package, _ in IMPORT_PROBES), 0.0)
    enclosing: List[tuple] = []
    # A line is printed when its import finishes, after its children.
    for depth, name, cumulative in reversed(rows):
        while enclosing and enclosing[-1][0] >= depth:
            enclosing.pop()
        for package in totals:
            inside = [n for _, n in enclosing if _within(n, package)]
            if _within(name, package) and not inside:
                totals[package] += cumulative / 1e3
        enclosing.append((depth, name))
    return totals


def _within(module: str, package: str) -> bool:
    return module == package or module.startswith(package + ".")


def cli_probes(repeats: int = 3) -> dict:
    """The ``cli`` layer: interpreter start, ``import repro``, and the
    cumulative import time of the heavy packages, medians of repeats."""
    def wall(*args):
        return _python(args, stdout=subprocess.DEVNULL)[0]

    def importtime(argv):
        err = _python(("-X", "importtime", "-m", "repro", *argv))[3]
        return import_times(err.decode())

    interpreter = common.median([wall("-c", "pass") for _ in range(repeats)])
    imported = common.median([wall("-c", "import repro") for _ in range(repeats)])
    parsed = {
        argv: [importtime(argv) for _ in range(repeats)]
        for argv in dict.fromkeys(argv for _, argv in IMPORT_PROBES)
    }
    values = {
        "cli.interpreter_ms": interpreter,
        "cli.import_ms": imported - interpreter,
    }
    for package, argv in IMPORT_PROBES:
        values[f"cli.import.{package}_ms"] = common.median(
            [times[package] for times in parsed[argv]]
        )
    return values


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--reference", action="store_true")
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    print(json.dumps(reference(bool(args.trace))))
