"""What ``import ctoqw`` loads: scipy.optimize costs about a third of a second
to import, and no module of the package needs it."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_loads_no_scipy_optimize():
    code = ("import sys, ctoqw; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
