"""The runtime imports only what it uses.

The simulator solves dense systems with numpy alone, and the lint
passes walk their own adjacency dicts: neither scipy nor networkx is a
dependency.  A fresh interpreter that imports the package, runs a whole
``repro synth`` or lints with the topology pass must load neither.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).parent.parent / "src")


def _cli(*argv):
    return (
        "import contextlib, io\n"
        "from repro import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({list(argv)!r})\n"
        "assert not code, code\n"
    )


SCRIPTS = {
    "import": "import repro",
    "synth": _cli("synth", "--testcase", "A"),
    "lint": _cli("lint", "--testcase", "A", "--topology"),
}


@pytest.mark.parametrize("module", ["networkx", "scipy"])
@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_module_is_not_loaded(name, module):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    script = SCRIPTS[name] + f"\nimport sys\nprint({module!r} in sys.modules)\n"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
