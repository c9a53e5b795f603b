"""The serving stack never imports numpy.

The batch probes are a pure-Python center join, so nothing that
``repro serve --async --store`` loads needs numpy; importing it would
cost every server process start-up time and peak RSS for nothing.
Where numpy is not installed this holds trivially; CI runs it once with
numpy installed, where it is a real check.
"""

import os
import subprocess
import sys
from pathlib import Path

#: what ``repro serve --async --store`` loads
SERVED_MODULES = (
    "repro.cli",
    "repro.service.asyncio_http",
    "repro.storage",
    "repro.storage.wal",
    "repro.query.engine",
)

SRC = Path(__file__).resolve().parents[1] / "src"


def test_serving_imports_no_numpy():
    code = "\n".join(
        ["import sys"]
        + [f"import {name}" for name in SERVED_MODULES]
        + ["assert 'numpy' not in sys.modules, 'numpy was imported'"]
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
