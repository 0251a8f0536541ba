"""The runtime imports only what it uses.

The simulator solves dense systems with numpy alone; scipy is not a
dependency.  A fresh interpreter that imports the package, or runs a
whole ``repro synth``, must not load it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).parent.parent / "src")

SCRIPTS = {
    "import": "import repro",
    "synth": (
        "import contextlib, io\n"
        "from repro import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['synth', '--testcase', 'A'])\n"
        "assert not code, code\n"
    ),
}


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_scipy_is_not_loaded(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    script = SCRIPTS[name] + "\nimport sys\nprint('scipy' in sys.modules)\n"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
