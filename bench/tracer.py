"""Wrapper-based tracing of the ctoqw layers, installed from outside the package.

Each traced name is replaced at its module binding by a wrapper that records
a span (label, start, end, parent). The package itself is not changed: a
module that imported a function under its own name (``cli.classify``,
``lattice.mat_exp``) is wrapped at that binding, so every call is seen where
the caller looks the name up. ``scipy.integrate.solve_ivp`` is wrapped only
as the lattice module reaches it, through a proxy for that module's
``scipy`` name. Spans stay in memory until the round ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict

import numpy as np

# Layers of src/ctoqw/ that own spans; ``model`` and ``coins`` have none
# (model time counts to its caller, coins only supplies inputs).
LAYERS = ("trajectory", "lattice", "classify", "stationary", "linalg", "cli")

# Percentiles tried for a tail, highest first; the tail is the highest one
# with at least ten samples beyond it.
_TAIL_PCTS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class _Namespace:
    """Attribute proxy for a module with some names overridden."""

    def __init__(self, base, **override):
        self._base = base
        self.__dict__.update(override)

    def __getattr__(self, name):
        return getattr(self._base, name)


class Tracer:
    """Span recorder plus result tags for the wrapped calls of one round."""

    def __init__(self):
        self.spans: list = []
        self.tags: Counter = Counter()
        self.values: dict = defaultdict(list)
        self._stack: list = []
        self._undo: list = []

    # -- recording --------------------------------------------------------

    def _wrap(self, label, fn, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = label(args) if callable(label) else label
            parent = tracer._stack[-1] if tracer._stack else -1
            idx = len(tracer.spans)
            tracer.spans.append(None)
            tracer._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[idx] = (name, start, end, parent)
            if on_result is not None:
                on_result(tracer, result)
            return result

        return wrapper

    def _patch(self, owner, attr, label, on_result=None):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, self._wrap(label, original, on_result))
        self._undo.append((owner, attr, original))

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every traced binding; undone by :meth:`uninstall`."""
        traj, lat, cls, sta, cli = (importlib.import_module(f"ctoqw.{name}") for name in
                                    ("trajectory", "lattice", "classify", "stationary", "cli"))

        def jump(tracer, result):
            if result is not None:
                tracer.tags["trajectory.jumps"] += 1

        def radius(tracer, result):
            tracer.values["lattice.choose_radius.radius"].append(int(result))

        def rule(tracer, result):
            tracer.tags[f"classify.rule.{result.rule}"] += 1

        def skeleton_label(args):
            branch = "dense" if args[0].vec_dim <= lat.DENSE_STATE_CAP else "ode"
            return f"lattice.skeleton_partials.{branch}"

        def cli_label(args):
            return f"cli.main.{args[0][0]}"

        self._patch(traj.JumpSampler, "next_jump", "trajectory.next_jump", jump)
        self._patch(traj.JumpSampler, "__init__", "trajectory.JumpSampler.init")
        self._patch(traj, "mat_exp", "trajectory.mat_exp")
        for name in ("simulate_path", "estimate_drift", "survival_probability"):
            self._patch(traj, name, f"trajectory.{name}")

        self._patch(lat.BlockGenerator, "apply", "lattice.apply")
        self._patch(lat.BlockGenerator, "dense_matrix", "lattice.dense_matrix")
        self._patch(lat, "mat_exp", "lattice.mat_exp")
        for name in ("evolve", "return_integral", "transition_probability",
                     "chapman_kolmogorov_residual"):
            self._patch(lat, name, f"lattice.{name}")
        self._patch(lat, "skeleton_partials", skeleton_label)
        self._patch(lat, "choose_radius", "lattice.choose_radius", radius)
        solve_ivp = self._wrap("lattice.solve_ivp", lat.scipy.integrate.solve_ivp)
        self._undo.append((lat, "scipy", lat.scipy))
        lat.scipy = _Namespace(lat.scipy, integrate=_Namespace(lat.scipy.integrate,
                                                               solve_ivp=solve_ivp))

        for owner in (cls, cli):
            self._patch(owner, "classify", "classify.classify", rule)
        for owner in (cls, sta, cli):
            self._patch(owner, "stationary_states", "stationary.stationary_states")
        self._patch(cls, "drift", "stationary.drift")
        self._patch(sta, "drift", "stationary.drift")
        self._patch(cli, "drift_of", "stationary.drift")
        for owner in (sta, cli):
            self._patch(owner, "solve_drift_operator", "stationary.solve_drift_operator")
        self._patch(cls, "common_eigenstructure", "stationary.common_eigenstructure")
        self._patch(sta, "null_space", "linalg.null_space")
        self._patch(sta, "superop_matrix", "linalg.superop_matrix")

        self._patch(cli, "choose_radius", "lattice.choose_radius", radius)
        self._patch(cli, "return_integral", "lattice.return_integral")
        self._patch(cli, "main", cli_label)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reduction --------------------------------------------------------

    def by_label(self):
        """label -> (durations array, summed self time)."""
        child = np.zeros(len(self.spans))
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        durations: dict = defaultdict(list)
        self_time: dict = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            durations[name].append(end - start)
            self_time[name] += (end - start) - child[i]
        return {k: (np.array(v), self_time[k]) for k, v in durations.items()}

    def write(self, path, origin: float) -> None:
        """Spans as JSON lines, times in seconds from ``origin``."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start - origin,
                                     "end": end - origin, "parent": parent}) + "\n")


def tail(samples: np.ndarray) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with >= 10 samples beyond it.

    Returns (0, 0) below 20 samples, where not even the median has ten
    samples above it.
    """
    n = samples.size
    for pct in _TAIL_PCTS:
        if n * (1.0 - pct / 100.0) >= 10.0 - 1e-9:
            return pct, float(np.percentile(samples, pct))
    return 0.0, 0.0


def _median(samples: np.ndarray) -> float:
    return float(np.median(samples)) if samples.size else 0.0


def layer_metrics(tracer: Tracer, wall_traced: float, overhead: float,
                  counts: dict, oracle_errors: dict) -> dict:
    """Every per-layer metric of the benchmark, as name -> (value, unit).

    ``wall_traced`` is the traced round's operation time and ``overhead``
    the traced minus untraced wall time; ``counts`` carries the counters the
    benchmark itself keeps (paths run and failed); ``oracle_errors`` the
    largest finite error seen per oracle.
    """
    stats = tracer.by_label()
    empty = (np.zeros(0), 0.0)
    out: dict = {}

    def put(name, value, unit):
        out[name] = (float(value), unit)

    def calls(label):
        put(f"{label}.calls", stats.get(label, empty)[0].size, "count")

    def self_s(label):
        put(f"{label}.self_s", stats.get(label, empty)[1], "s")

    def spread(label, unit, scale):
        samples = stats.get(label, empty)[0] * scale
        pct, value = tail(samples)
        put(f"{label}.p50_{unit}", _median(samples), unit)
        put(f"{label}.tail_{unit}", value, unit)
        put(f"{label}.tail_pct", pct, "%")

    for label in ("trajectory.next_jump", "lattice.evolve", "classify.classify"):
        calls(label)
        self_s(label)
    spread("trajectory.next_jump", "us", 1e6)
    spread("lattice.evolve", "ms", 1e3)
    spread("classify.classify", "us", 1e6)

    paths = counts.get("paths", 0)
    put("trajectory.jumps_per_path", tracer.tags["trajectory.jumps"] / paths if paths else 0.0,
        "jumps")
    put("trajectory.paths_failed", counts.get("paths_failed", 0), "count")
    self_s("trajectory.estimate_drift")
    for label in ("trajectory.mat_exp", "trajectory.JumpSampler.init"):
        calls(label)
        self_s(label)
    calls("trajectory.simulate_path")
    spread("trajectory.simulate_path", "ms", 1e3)

    for label in ("lattice.return_integral", "lattice.skeleton_partials.dense",
                  "lattice.skeleton_partials.ode", "lattice.dense_matrix",
                  "lattice.chapman_kolmogorov_residual"):
        self_s(label)
    calls("lattice.choose_radius")
    self_s("lattice.choose_radius")
    radii = tracer.values.get("lattice.choose_radius.radius", [])
    put("lattice.choose_radius.radius_max", max(radii) if radii else 0, "sites")
    for label in ("lattice.apply", "lattice.mat_exp"):
        calls(label)
        self_s(label)
    calls("lattice.solve_ivp")
    calls("lattice.transition_probability")

    for rule in RULES:
        put(f"classify.rule.{rule}.count", tracer.tags[f"classify.rule.{rule}"], "count")

    calls("stationary.stationary_states")
    self_s("stationary.stationary_states")
    put("stationary.stationary_states.p50_us",
        _median(stats.get("stationary.stationary_states", empty)[0] * 1e6), "us")
    calls("stationary.solve_drift_operator")
    put("stationary.solve_drift_operator.p50_us",
        _median(stats.get("stationary.solve_drift_operator", empty)[0] * 1e6), "us")
    calls("linalg.null_space")
    self_s("linalg.null_space")

    for command in CLI_COMMANDS:
        label = f"cli.main.{command}"
        calls(label)
        put(f"{label}.p50_ms", _median(stats.get(label, empty)[0] * 1e3), "ms")

    attributed = 0.0
    for layer in LAYERS:
        total = sum(s for k, (_, s) in stats.items() if k.split(".", 1)[0] == layer)
        attributed += total
        put(f"layer.{layer}.self_s", total, "s")
    put("trace.wall_s", wall_traced, "s")
    put("trace.unattributed_s", wall_traced - attributed, "s")
    put("trace_overhead_s", overhead, "s")

    for name in ORACLES:
        put(f"oracle.{name}", oracle_errors.get(name, 0.0), "abs")
    return out


RULES = (
    "unique-stationary-zero-drift",
    "unique-stationary-nonzero-drift",
    "shared-basis-mixing-ham",
    "shared-basis-both-unequal",
    "shared-basis-both-equal",
    "shared-basis-one-unequal",
    "no-shared-eigenbasis",
    "inconsistent-shared-basis-structure",
    "multiple-stationary-no-criterion",
)

CLI_COMMANDS = ("classify", "stationary", "drift", "verify", "integral")

# Oracle diagnostics, largest error per run; see README.md for each tolerance.
ORACLES = (
    "drift_mc.z",
    "survival.spectral.err",
    "survival.fallback.err",
    "survival.near_ep.err",
    "path.state.err",
    "evolve.trace.err",
    "evolve.neg_eig",
    "evolve.p00.rel_err",
    "leak.max",
    "return_integral.rel_err",
    "skeleton_dense.rel_err",
    "choose_radius.outside_mass",
    "bessel.skeleton.err",
    "bessel.integral.rel_err",
    "cli_integral.rel_err",
    "scaled_integral.rel_err",
    "ck.residual",
    "tilted.m.err",
    "random.m.err",
    "diagonal.m.err",
    "three_level.m.err",
    "stationary.residual",
    "drift_operator.residual",
    "scaled_drift.rel_err",
)
