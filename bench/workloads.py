"""The benchmark workloads: seeded inputs, operations and their oracles.

A workload is a class with

* ``setup(seed)``: coin construction and other inputs shared by all rounds;
* ``warmup(rec)``: a small untimed pass over every operation kind;
* ``round_inputs(r)``: the seeded inputs of round ``r`` (untimed);
* ``run(inputs, rec)``: the operations of one round, each through ``rec.op``.

The package is always reached through its module attributes (``lattice.evolve``,
never a local alias), so the tracer's wrappers see every call. Operation kinds
listed in ``known_defects`` fail at the parent commit because of a defect the
roadmap names; their failures are counted like any other, but do not by
themselves mark the run incorrect.
"""

from __future__ import annotations

import contextlib
import glob
import importlib
import io
import json
import math
import os

import numpy as np
import scipy.integrate
import scipy.linalg
from scipy.special import ive

coins = importlib.import_module("ctoqw.coins")
classify_mod = importlib.import_module("ctoqw.classify")
cli = importlib.import_module("ctoqw.cli")
lattice = importlib.import_module("ctoqw.lattice")
model = importlib.import_module("ctoqw.model")
stationary = importlib.import_module("ctoqw.stationary")
trajectory = importlib.import_module("ctoqw.trajectory")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Values of the three-level coin c=0 from rho0 = I/3 on the infinite line,
# printed by reference.py (Fourier symbol + Van Loan exponential).
THREE_LEVEL_REF = {
    "p00_t100": 0.02046009659583447,
    "integral_t100": 6.991030228447938,
    "integral_t50": 5.482646025805048,
    "integral_t25": 4.036295003182099,
    "integral_t10": 2.5180390085306135,
    "skeleton_n10": 3.223529628729336,
    "skeleton_n50": 6.141164365424208,
    "skeleton_n100": 7.637778397222738,
    "outside_mass_t100": {16: 0.24203528922971904, 32: 0.0026811259552210363,
                          64: 3.634248679135142e-12, 128: 1.5331216385794327e-14},
}
# Relative tolerance for lattice values: above the Simpson step error of
# return_integral's default grid (1.4e-7 on the three-level coin at T=100).
LATTICE_RTOL = 1e-6
# Absolute tolerance for survival probabilities and closed-form drifts.
PROB_TOL = 1e-9
M_TOL = 1e-9

_EXPECTED = (ArithmeticError, ValueError, RuntimeError)


class Recorder:
    """Counts operations, failures and oracle errors; times operation calls."""

    def __init__(self, clock):
        self.clock = clock
        self.attempted: dict = {}
        self.failed: dict = {}
        self.errors: dict = {}
        self.messages: list = []
        self.counts = {"paths": 0, "paths_failed": 0}
        self.busy = 0.0

    def op(self, kind, fn, oracle=None, weight=1, paths=0):
        """Run one operation; ``oracle(result)`` yields (name, err, tol) triples.

        The operation fails when it raises one of the package's documented
        exceptions or when any oracle error exceeds its tolerance (NaN
        included). Only ``fn`` is timed.
        """
        self.attempted[kind] = self.attempted.get(kind, 0) + weight
        self.counts["paths"] += paths
        start = self.clock()
        try:
            result = fn()
        except _EXPECTED as exc:
            self.busy += self.clock() - start
            self._fail(kind, weight, paths, f"{type(exc).__name__}: {exc}")
            return None
        self.busy += self.clock() - start
        bad = []
        for name, err, tol in (oracle(result) if oracle else ()):
            err = float(err)
            if math.isfinite(err):
                self.errors[name] = max(self.errors.get(name, 0.0), err)
            if not err <= tol:
                bad.append(f"{name} {err:.3e} > {tol:.1e}")
        if bad:
            self._fail(kind, weight, paths, "; ".join(bad))
        return result

    def _fail(self, kind, weight, paths, message):
        self.failed[kind] = self.failed.get(kind, 0) + weight
        self.counts["paths_failed"] += paths
        if len(self.messages) < 20:
            self.messages.append(f"{kind}: {message[:200]}")


def random_density(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def random_coin(rng, d):
    """Generic coin: complex Gaussian jumps (scale 0.8), Gaussian Hermitian H."""
    c = 0.8 * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    a = 0.8 * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return model.validate_coin(c, a, (h + h.conj().T) / 2.0)


def random_diagonal_coin(rng, d):
    """Diagonal jumps and Hamiltonian: every |i><i| is stationary (kernel dim d)."""
    c = np.diag(rng.uniform(0.2, 1.5, d) * np.exp(2j * np.pi * rng.random(d)))
    a = np.diag(rng.uniform(0.2, 1.5, d) * np.exp(2j * np.pi * rng.random(d)))
    return model.validate_coin(c, a, np.diag(rng.uniform(-1.0, 1.0, d)))


def rescaled(coin, s):
    """(sC, sA, s^2 H): the same walk with time running s^2 times faster."""
    return model.validate_coin(coin.left * s, coin.right * s, coin.ham * (s * s))


def rel_err(value, ref):
    return abs(value - ref) / abs(ref)


def path_oracle(i0, horizon):
    """Structure of a sampled path: unit steps, ordered times, valid states."""

    def check(path):
        times = path.jump_times
        sites = path.sites
        shape_ok = (
            sites.size == times.size + 1 == len(path.states)
            and sites[0] == i0
            and np.all(np.abs(np.diff(sites)) == 1)
            and np.all(np.diff(times) > 0)
            and (times.size == 0 or (times[0] > 0 and times[-1] < horizon))
        )
        state_err = 0.0
        for rho in path.states:
            state_err = max(state_err, abs(np.trace(rho).real - 1.0),
                            -float(np.linalg.eigvalsh(rho).min()))
        return [("path.shape", 0.0 if shape_ok else 1.0, 0.5),
                ("path.state.err", state_err, PROB_TOL)]

    return check


def _cli(argv):
    """Run the CLI in-process; returns (exit code, captured stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _seed(*words):
    return int(np.random.SeedSequence(list(words)).generate_state(1)[0])


# ---------------------------------------------------------------------------


class DriftMC:
    """Monte Carlo drift: the trajectory layer's jump sampler, both paths."""

    name = "drift_mc"
    known_defects = {"near_ep_path", "near_ep_survival"}

    N_PATHS, HORIZON = 200, 500.0
    N_DEFECTIVE, DEFECTIVE_HORIZON = 8, 20.0
    N_NEAR_EP, NEAR_EP_HORIZON = 30, 50.0
    N_SURVIVAL = 200

    def setup(self, seed):
        self.seed = seed
        self.c0 = coins.three_level_coin(0.0)
        self.rho_inv = coins.three_level_stationary(0.0)
        self.m = -6.0 / 53.0
        # G0 = [[-1, 1], [0, -1]] exactly: a Jordan block, so the sampler
        # cannot diagonalise it and takes the mat_exp fallback; m = 2/3.
        u = np.array([[math.sqrt(2.0), -1.0 / math.sqrt(2.0)], [0.0, math.sqrt(1.5)]])
        self.defective = model.validate_coin(u / math.sqrt(3.0), u * math.sqrt(2.0 / 3.0),
                                             np.array([[0.0, 0.5j], [-0.5j, 0.0]]))
        # G0 has a double eigenvalue -1 that round-off splits; the eigenvector
        # condition number (6.7e7) sits just under the sampler's 1e8 cap.
        self.near_ep = model.validate_coin(np.diag([1.0, 0.0]),
                                           np.diag([0.0, math.sqrt(3.0)]),
                                           np.array([[0.0, 0.5], [0.5, 0.0]]))
        self.mixed2 = np.eye(2, dtype=complex) / 2.0

    def warmup(self, rec):
        for coin, rho in ((self.c0, self.rho_inv), (self.defective, self.mixed2),
                          (self.near_ep, self.mixed2)):
            rec.op("warmup", lambda: trajectory.simulate_path(
                coin, 0, rho, 5.0, trajectory.path_rng(0, 0)))
            rec.op("warmup", lambda: trajectory.survival_probability(coin, rho, 0.5))

    def round_inputs(self, r):
        rng = np.random.default_rng([self.seed, r, 1])
        probes = []
        for label, coin in (("spectral", self.c0), ("fallback", self.defective),
                            ("near_ep", self.near_ep)):
            for _ in range(self.N_SURVIVAL):
                probes.append((label, coin, random_density(rng, coin.dim),
                               float(rng.uniform(0.02, 3.0))))
        return {"seed": _seed(self.seed, r, 2), "edge_seed": _seed(self.seed, r, 3),
                "probes": probes}

    def run(self, inp, rec):
        def drift_oracle(est):
            return [("drift_mc.z", abs(est.mean - self.m) / est.stderr, 5.0)]

        rec.op("drift_estimate", lambda: trajectory.estimate_drift(
            self.c0, self.rho_inv, self.HORIZON, self.N_PATHS, inp["seed"]),
            drift_oracle, weight=self.N_PATHS, paths=self.N_PATHS)

        for k in range(self.N_DEFECTIVE):
            rec.op("defective_path", lambda: trajectory.simulate_path(
                self.defective, 0, self.mixed2, self.DEFECTIVE_HORIZON,
                trajectory.path_rng(inp["edge_seed"], k)),
                path_oracle(0, self.DEFECTIVE_HORIZON), paths=1)
        for k in range(self.N_NEAR_EP):
            rec.op("near_ep_path", lambda: trajectory.simulate_path(
                self.near_ep, 0, self.mixed2, self.NEAR_EP_HORIZON,
                trajectory.path_rng(inp["edge_seed"], self.N_DEFECTIVE + k)),
                path_oracle(0, self.NEAR_EP_HORIZON), paths=1)

        for label, coin, rho, t in inp["probes"]:
            g0 = model.no_jump_generator(coin)

            def survival_oracle(s, g0=g0, rho=rho, t=t, label=label):
                e = scipy.linalg.expm(g0 * t)
                ref = float(np.trace(e @ rho @ e.conj().T).real)
                return [(f"survival.{label}.err", abs(s - ref), PROB_TOL),
                        ("survival.range", max(s - 1.0, -s, 0.0), 0.0)]

            kind = "near_ep_survival" if label == "near_ep" else "survival"
            rec.op(kind, lambda: trajectory.survival_probability(coin, rho, t),
                   survival_oracle)


class LongMarch:
    """Lattice segment: long horizon at fixed radius, both skeleton branches."""

    RADIUS, T = 64, 100.0
    SCALAR_RADIUS, SCALAR_STEPS, SCALAR_T = 2048, 100, 100.0
    CLI_HORIZON = 50.0
    SCALE, SCALED_T, SCALED_RADIUS = 2.0, 10.0, 32

    def setup(self, seed):
        self.seed = seed
        self.c0 = coins.three_level_coin(0.0)
        self.scalar = coins.scalar_coin(1.0, 1.0)
        self.scaled = rescaled(self.c0, self.SCALE)
        self.rho3 = np.eye(3, dtype=complex) / 3.0
        self.one = np.eye(1, dtype=complex)
        self.gen3 = lattice.BlockGenerator(self.c0, self.RADIUS)
        self.gen1 = lattice.BlockGenerator(self.scalar, self.SCALAR_RADIUS)
        self.gen_scaled = lattice.BlockGenerator(self.scaled, self.SCALED_RADIUS)
        if not self.gen3.vec_dim <= lattice.DENSE_STATE_CAP < self.gen1.vec_dim:
            raise RuntimeError("the two skeletons no longer straddle DENSE_STATE_CAP")
        # Closed forms of the scalar symmetric walk: p_00(t) = e^{-2t} I_0(2t).
        n = np.arange(self.SCALAR_STEPS + 1, dtype=float)
        self.bessel_partials = np.cumsum(ive(0, 2.0 * n))
        self.bessel_integral = scipy.integrate.quad(
            lambda t: ive(0, 2.0 * t), 0.0, self.SCALAR_T, limit=400,
            epsabs=1e-12, epsrel=1e-12)[0]
        self.cli_coin = os.path.join(ROOT, "coins", "three_level_c0.json")

    def warmup(self, rec):
        small = lattice.BlockGenerator(self.c0, 16)
        rec.op("warmup", lambda: lattice.evolve(small, self.rho3, 0, 1.0))
        rec.op("warmup", lambda: lattice.return_integral(small, self.rho3, 0, 1.0))
        rec.op("warmup", lambda: lattice.skeleton_partials(small, self.rho3, 0, 0, 1.0, 2))
        rec.op("warmup", lambda: lattice.skeleton_partials(self.gen1, self.one, 0, 0, 0.01, 1))
        rec.op("warmup", lambda: lattice.choose_radius(self.c0, 0, 1.0))
        rec.op("warmup", lambda: _cli(["integral", self.cli_coin, "--horizon", "1"]))

    def round_inputs(self, r):
        return {}

    def run(self, inp, rec):
        ref = THREE_LEVEL_REF
        leak = lattice.LEAK_TOL

        def evolve_oracle(state):
            p00 = float(np.trace(state.block(0)).real)
            return [("leak.max", state.leaked_mass, leak),
                    ("evolve.p00.rel_err", rel_err(p00, ref["p00_t100"]), LATTICE_RTOL)]

        rec.op("evolve", lambda: lattice.evolve(self.gen3, self.rho3, 0, self.T), evolve_oracle)
        rec.op("return_integral",
               lambda: lattice.return_integral(self.gen3, self.rho3, 0, self.T),
               lambda v: [("return_integral.rel_err", rel_err(v, ref["integral_t100"]),
                           LATTICE_RTOL)])

        def dense_oracle(partials):
            err = max(rel_err(partials[n], ref[f"skeleton_n{n}"]) for n in (10, 50, 100))
            return [("skeleton_dense.rel_err", err, LATTICE_RTOL)]

        rec.op("skeleton_dense", lambda: lattice.skeleton_partials(
            self.gen3, self.rho3, 0, 0, 1.0, 100), dense_oracle)

        def radius_oracle(radius):
            # Mass the infinite walk carries beyond the radius bounds what the
            # absorbing boundary could have taken at T.
            outside = ref["outside_mass_t100"].get(int(radius), math.inf)
            return [("choose_radius.outside_mass", outside, leak)]

        rec.op("choose_radius", lambda: lattice.choose_radius(self.c0, 0, self.T),
               radius_oracle)

        rec.op("skeleton_ode", lambda: lattice.skeleton_partials(
            self.gen1, self.one, 0, 0, 1.0, self.SCALAR_STEPS),
            lambda p: [("bessel.skeleton.err", np.abs(p - self.bessel_partials).max(), 1e-8)])
        rec.op("return_integral_scalar",
               lambda: lattice.return_integral(self.gen1, self.one, 0, self.SCALAR_T),
               lambda v: [("bessel.integral.rel_err", rel_err(v, self.bessel_integral),
                           LATTICE_RTOL)])

        def cli_oracle(result):
            code, text = result
            doc = json.loads(text) if code == 0 else {}
            err = max(rel_err(doc["value"], ref["integral_t50"]),
                      rel_err(doc["value_half_horizon"], ref["integral_t25"])) if doc else 1.0
            return [("cli.exit", float(code != 0), 0.5),
                    ("cli_integral.rel_err", err, LATTICE_RTOL)]

        rec.op("cli_integral",
               lambda: _cli(["integral", self.cli_coin, "--horizon", f"{self.CLI_HORIZON:g}"]),
               cli_oracle)

        # Rescaling (C, A, H) -> (sC, sA, s^2 H) only rescales time, so
        # s^2 * int_0^{T/s^2} p_00 of the scaled coin equals int_0^T p_00.
        s2 = self.SCALE ** 2
        rec.op("scaled_integral",
               lambda: s2 * lattice.return_integral(self.gen_scaled, self.rho3, 0,
                                                    self.SCALED_T / s2),
               lambda v: [("scaled_integral.rel_err", rel_err(v, ref["integral_t10"]),
                           LATTICE_RTOL)])


class ShortCalls:
    """Lattice segment: many small random coins at short horizon."""

    N_COINS = 12
    T = 1.0
    # Each random coin is rescaled to |C|_F^2 + |A|_F^2 = TOTAL_RATE, which
    # keeps the auto-chosen radii at 16-32 and the cost of one coin within a
    # factor of a few of another; the shape of the coin stays random.
    TOTAL_RATE = 8.0
    PATH_HORIZON = 5.0
    # Chapman-Kolmogorov split alpha = beta, run on every coin: one costly
    # residual per round (alpha + beta = T) made round cost vary with the coin
    # drawn far more than many cheap ones do.
    CK_SPLIT = 0.1
    SCALED_COINS = (1, 5, 9)
    SCALE = 2.0

    def setup(self, seed):
        self.seed = seed

    def warmup(self, rec):
        rng = np.random.default_rng([self.seed, 10**6])
        coin = random_coin(rng, 2)
        rho = random_density(rng, 2)
        gen = lattice.BlockGenerator(coin, 16)
        rec.op("warmup", lambda: lattice.choose_radius(coin, 0, 0.2, rho))
        rec.op("warmup", lambda: lattice.evolve(gen, rho, 0, 0.2))
        rec.op("warmup", lambda: lattice.return_integral(gen, rho, 0, 0.2))
        rec.op("warmup", lambda: trajectory.simulate_path(coin, 0, rho, 1.0,
                                                          trajectory.path_rng(0, 0)))

    def round_inputs(self, r):
        rng = np.random.default_rng([self.seed, r, 4])
        items = []
        for k in range(self.N_COINS):
            d = 2 + k % 2
            shape = random_coin(rng, d)
            rate = np.linalg.norm(shape.left) ** 2 + np.linalg.norm(shape.right) ** 2
            coin = rescaled(shape, math.sqrt(self.TOTAL_RATE / rate))
            items.append({"coin": coin, "scaled": rescaled(coin, self.SCALE),
                          "rho": random_density(rng, d)})
        return {"items": items, "path_seed": _seed(self.seed, r, 5)}

    def run(self, inp, rec):
        leak = lattice.LEAK_TOL

        def evolve_oracle(state):
            return [("leak.max", state.leaked_mass, leak),
                    ("evolve.trace.err", abs(1.0 - state.total_trace()), leak),
                    ("evolve.neg_eig", max(0.0, -state.min_eigenvalue()), 1e-9)]

        t = self.T
        for k, it in enumerate(inp["items"]):
            coin, rho = it["coin"], it["rho"]
            radius = rec.op("choose_radius", lambda: lattice.choose_radius(coin, 0, t, rho))
            if radius is None:
                continue
            gen = rec.op("generator", lambda: lattice.BlockGenerator(coin, radius))
            if gen is None:
                continue
            rec.op("evolve", lambda: lattice.evolve(gen, rho, 0, t), evolve_oracle)
            rec.op("simulate_path", lambda: trajectory.simulate_path(
                coin, 0, rho, self.PATH_HORIZON, trajectory.path_rng(inp["path_seed"], k)),
                path_oracle(0, self.PATH_HORIZON), paths=1)
            rec.op("ck_residual", lambda: lattice.chapman_kolmogorov_residual(
                gen, rho, 0, 1, self.CK_SPLIT, self.CK_SPLIT),
                lambda res: [("ck.residual", res, 1e-7)])
            if k in self.SCALED_COINS:
                s2 = self.SCALE ** 2

                def both():
                    plain = lattice.return_integral(gen, rho, 0, t)
                    fast = lattice.return_integral(
                        lattice.BlockGenerator(it["scaled"], radius), rho, 0, t / s2)
                    return plain, s2 * fast

                rec.op("scaled_integral", both,
                       lambda v: [("scaled_integral.rel_err", rel_err(v[1], v[0]),
                                   LATTICE_RTOL)])


class Lattice:
    """The lattice layer two ways: long time-marching and many short calls.

    Both segments run in every round, so a rewrite that wins on the long
    march but adds per-call cost shows up in the same wall time.
    """

    name = "lattice"
    known_defects = {"scaled_integral"}

    def __init__(self):
        self.segments = (LongMarch(), ShortCalls())

    def setup(self, seed):
        for seg in self.segments:
            seg.setup(seed)

    def warmup(self, rec):
        for seg in self.segments:
            seg.warmup(rec)

    def round_inputs(self, r):
        return [seg.round_inputs(r) for seg in self.segments]

    def run(self, inp, rec):
        for seg, seg_inp in zip(self.segments, inp):
            seg.run(seg_inp, rec)


class PhaseScan:
    """Verdict scan over the paper's coin families, random coins and the CLI."""

    name = "phase_scan"
    known_defects = {"scaled_drift"}

    N_RANDOM, N_DIAGONAL = 12, 4
    SCALES = (1e-3, 1e4)
    # Verdict of each shipped coin file, and the drift command's exit code
    # (2 when the stationary state is not unique, so m is undefined).
    CLI_EXPECT = {
        "diag_recurrent": ("Recurrent", 0),
        "diag_transient": ("Transient", 0),
        "scalar_biased": ("Transient", 0),
        "scalar_symmetric": ("Recurrent", 0),
        "shared_mixing_ham": ("Transient", 2),
        "shared_partial_a": ("PartiallyRecurrent", 2),
        "shared_partial_c": ("PartiallyRecurrent", 2),
        "shared_recurrent": ("Recurrent", 2),
        "shared_transient": ("Transient", 2),
        "three_level_c0": ("Transient", 0),
        "three_level_c1": ("Recurrent", 0),
        "tilted_h1": ("Transient", 0),
        "tilted_h43": ("Recurrent", 0),
    }

    def setup(self, seed):
        self.seed = seed
        grid = []  # (coin, expected verdict or None, expected m or None, oracle name)
        for y in (0.0, 0.25, 0.5, -0.1, -0.5, 1.5):
            if y == 0.0:
                roots = (0.0, 4.0 / 3.0)
            else:
                try:
                    roots = coins.tilted_pair_boundary(y)
                except ValueError:  # no real zero-drift h: transient for every h
                    roots = ()
            for h in np.linspace(-1.0, 2.5, 15):
                if any(abs(h - b) < 1e-3 for b in roots):
                    continue
                m = 2 * h * (3 * h - 4) / (4 * h * h + 6 * h + 7) if y == 0.0 else None
                grid.append((coins.tilted_pair_coin(y, h), "Transient", m, "tilted.m.err"))
            for b in roots:
                grid.append((coins.tilted_pair_coin(y, b), "Recurrent",
                             0.0 if y == 0.0 else None, "tilted.m.err"))
        for a in (0.5, 1.0, 1j, 1.7, -2.5):
            for c in (0.3, 1.0, 2.0, -2.0, 2.6):
                equal = (abs(a) == 1.0) + (abs(c) == 2.0)
                verdict = ("Transient", "PartiallyRecurrent", "Recurrent")[equal]
                grid.append((coins.shared_eigenbasis_coin(a, c), verdict, None, None))
        sqrt8 = 2.0 * math.sqrt(2.0)
        for a in list(np.linspace(0.0, 4.0, 21)) + [sqrt8, sqrt8 * np.exp(1j * np.pi / 3)]:
            verdict = "Recurrent" if abs(abs(a) - sqrt8) < 1e-12 else "Transient"
            m = (abs(a) ** 2 - 8.0) / 2.0
            grid.append((coins.diagonal_jumps_coin(a), verdict, m, "diagonal.m.err"))
        for c in np.linspace(-2.0, 2.0, 17):
            if c == 0.0:
                grid.append((coins.three_level_coin(c), "Transient", -6.0 / 53.0,
                             "three_level.m.err"))
            elif c == 1.0:
                grid.append((coins.three_level_coin(c), "Recurrent", 0.0, "three_level.m.err"))
            else:
                grid.append((coins.three_level_coin(c), None, None, None))
        self.grid = grid
        self.files = sorted(glob.glob(os.path.join(ROOT, "coins", "*.json")))
        if [os.path.basename(f)[:-5] for f in self.files] != sorted(self.CLI_EXPECT):
            raise RuntimeError("coins/*.json differ from the files the scan expects")

    def warmup(self, rec):
        self.run(self.round_inputs(10**6), rec)

    def round_inputs(self, r):
        rng = np.random.default_rng([self.seed, r, 6])
        generic = [random_coin(rng, 2 + k % 2) for k in range(self.N_RANDOM)]
        diagonal = [random_diagonal_coin(rng, 2 + k % 2) for k in range(self.N_DIAGONAL)]
        scaled = [[rescaled(c, s) for s in self.SCALES] for c in generic]
        return {"generic": generic, "diagonal": diagonal, "scaled": scaled}

    def run(self, inp, rec):
        def verdict_oracle(verdict, m, m_name):
            def check(res):
                out = []
                if verdict is not None:
                    out.append(("verdict", float(res.verdict.value != verdict), 0.5))
                if m is not None:
                    err = abs(res.m - m) if res.m is not None else math.inf
                    out.append((m_name, err, M_TOL * max(1.0, abs(m))))
                return out
            return check

        for coin, verdict, m, m_name in self.grid:
            rec.op("classify", lambda: classify_mod.classify(coin),
                   verdict_oracle(verdict, m, m_name))

        def unique_oracle(sa, coin):
            if not sa.unique_stationary:
                return [("stationary.unique", 1.0, 0.5)]
            resid = float(np.linalg.norm(stationary.internal_lindblad(coin, sa.rho_inv)))
            return [("stationary.residual", resid, 1e-10)]

        for k, coin in enumerate(inp["generic"]):
            sa = rec.op("stationary_states",
                        lambda: stationary.stationary_states(coin),
                        lambda sa, coin=coin: unique_oracle(sa, coin))
            if sa is None or not sa.unique_stationary:
                continue
            m = rec.op("drift", lambda: stationary.drift(coin, sa.rho_inv))
            if m is None:
                continue
            rec.op("solve_drift_operator",
                   lambda: stationary.solve_drift_operator(coin, m),
                   lambda jr: [("drift_operator.residual", jr[1], 1e-8)])
            rec.op("classify", lambda: classify_mod.classify(coin),
                   verdict_oracle("Recurrent" if abs(m) <= 1e-9 else "Transient", m,
                                  "random.m.err"))
            for s, fast in zip(self.SCALES, inp["scaled"][k]):
                def scaled_m(fast=fast):
                    sa_fast = stationary.stationary_states(fast)
                    return stationary.drift(fast, sa_fast.rho_inv)

                rec.op("scaled_drift", scaled_m,
                       lambda v, s=s, m=m: [("scaled_drift.rel_err",
                                             abs(v / (s * s) - m) / max(abs(m), 1e-300),
                                             M_TOL)])

        for coin in inp["diagonal"]:
            rec.op("stationary_states", lambda: stationary.stationary_states(coin),
                   lambda sa, d=coin.dim: [("stationary.kernel_dim",
                                            float(sa.kernel_dim != d), 0.5)])
            rule_ok = ("shared-basis-" if coin.dim == 2 else "multiple-stationary-no-criterion")
            rec.op("classify", lambda: classify_mod.classify(coin),
                   lambda res, p=rule_ok: [("rule", float(not res.rule.startswith(p)), 0.5)])

        for path in self.files:
            verdict, drift_code = self.CLI_EXPECT[os.path.basename(path)[:-5]]
            for command, code in (("classify", 0), ("stationary", 0), ("drift", drift_code)):
                def cli_oracle(result, code=code, command=command, verdict=verdict):
                    got, text = result
                    out = [("cli.exit", float(got != code), 0.5)]
                    if got == 0:
                        doc = json.loads(text)
                        if command == "classify":
                            out.append(("verdict", float(doc["verdict"] != verdict), 0.5))
                    return out

                rec.op("cli", lambda: _cli([command, path]), cli_oracle)
        rec.op("cli", lambda: _cli(["verify"]),
               lambda res: [("cli.exit", float(res[0] != 0), 0.5),
                            ("cli.verify", float("All fixture checks passed" not in res[1]), 0.5)])


WORKLOADS = {w.name: w for w in (DriftMC, Lattice, PhaseScan)}
