"""What ``import ctoqw`` loads: scipy.optimize and scipy.linalg cost about a
third and a fifth of a second to import, and no module of the package needs
them at import (LAPACK is reached through numpy's own gufuncs)."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
FORBIDDEN = ("scipy.optimize", "scipy.linalg")


def test_import_loads_no_scipy_optimize_or_linalg():
    code = ("import sys, ctoqw; "
            f"print(sorted(m for m in sys.modules if m.startswith({FORBIDDEN!r})))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
