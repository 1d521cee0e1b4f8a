"""The benchmark tracer's bindings: every name bench/tracer.py wraps exists.

The tracer wraps package functions at their module bindings; removing one
of them breaks the benchmark's traced rounds, and this test, at once.
"""

import importlib.util
from pathlib import Path

import ctoqw.trajectory as trajectory

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_tracer_installs_and_restores():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    original = trajectory.JumpSampler.__dict__["next_jump"]
    tracer = module.Tracer()
    try:
        tracer.install()
        assert trajectory.JumpSampler.__dict__["next_jump"] is not original
    finally:
        tracer.uninstall()
    assert trajectory.JumpSampler.__dict__["next_jump"] is original
