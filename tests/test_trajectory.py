"""Trajectory sampling: jump-time laws, path invariants, drift estimates."""

import gc
import io
import math
import sys
import threading
import warnings
import weakref

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from ctoqw import (
    JumpSampler,
    check_density,
    drift_to_dict,
    estimate_drift,
    mat_exp,
    no_jump_generator,
    path_rng,
    sample_next_jump,
    sample_sites,
    simulate_path,
    stationary_states,
    survival_probability,
    validate_coin,
    write_path_csv,
)
from ctoqw.coins import (
    scalar_coin,
    shared_eigenbasis_coin,
    three_level_coin,
    three_level_stationary,
    verify_cases,
)
from ctoqw.lattice import BlockGenerator, choose_radius, probability_series
from ctoqw.linalg import hunvec, hvec
import ctoqw.trajectory as trajectory
from ctoqw.model import symbol_parts

from helpers import random_coin, random_density


def draw_jumps(coin, rho, rng, n):
    """n jumps from the same state, post-jump states as matrices; the first
    goes through sample_next_jump, the rest through a sampler's next_jump on
    coordinates."""
    sampler = JumpSampler(coin)
    first = sample_next_jump(coin, rho, rng)
    rest = (sampler.next_jump(hvec(rho), rng) for _ in range(n - 1))
    return [first] + [(dt, direction, hunvec(v)) for dt, direction, v in rest]


class TestSampleNextJump:
    def test_scalar_exponential_law(self):
        # rate |a|^2 + |c|^2 = 2, so dt ~ Exp(2) and directions are fair
        coin = scalar_coin(1.0, 1.0)
        rho = np.array([[1.0 + 0j]])
        rng = np.random.default_rng(7)
        n = 4000
        dts = np.empty(n)
        dirs = np.empty(n)
        for k, (dt, direction, rho_after) in enumerate(draw_jumps(coin, rho, rng, n)):
            assert dt > 0
            assert direction in (-1, 1)
            assert np.allclose(rho_after, rho, atol=1e-12)
            dts[k] = dt
            dirs[k] = direction
        assert abs(dts.mean() - 0.5) < 4 * 0.5 / np.sqrt(n)
        p_right = np.mean(dirs == 1)
        assert abs(p_right - 0.5) < 4 * np.sqrt(0.25 / n)

    def test_biased_direction_frequency(self):
        # right jump probability |a|^2 / (|a|^2 + |c|^2) = 4/5
        coin = scalar_coin(2.0, 1.0)
        rho = np.array([[1.0 + 0j]])
        rng = np.random.default_rng(11)
        n = 4000
        jumps = draw_jumps(coin, rho, rng, 2 * n)
        dirs = [jump[1] for jump in jumps[:n]]
        p_right = np.mean(np.asarray(dirs) == 1)
        assert abs(p_right - 0.8) < 4 * np.sqrt(0.8 * 0.2 / n)
        dts = [jump[0] for jump in jumps[n:]]
        assert abs(np.mean(dts) - 0.2) < 4 * 0.2 / np.sqrt(n)

    def test_identity_jumps_preserve_state(self):
        coin = validate_coin(np.eye(2), np.eye(2), np.zeros((2, 2)))
        rng = np.random.default_rng(3)
        rho = random_density(rng, 2)
        for _ in range(5):
            _, _, rho_after = sample_next_jump(coin, rho, rng)
            assert np.allclose(rho_after, rho, atol=1e-10)

    def test_diagonal_coin_basis_state(self):
        # from |0><0| the internal state is frozen and only rates at level 0
        # matter: dt ~ Exp(|c0|^2 + |a0|^2), right with prob |a0|^2 / sum
        left = np.diag([1.0, 0.4]).astype(complex)
        right = np.diag([1.2, 0.9]).astype(complex)
        ham = np.diag([0.3, -0.2]).astype(complex)
        coin = validate_coin(left, right, ham)
        rho = np.diag([1.0, 0.0]).astype(complex)
        rate = 1.0 + 1.2 ** 2
        p_right = 1.2 ** 2 / rate
        rng = np.random.default_rng(19)
        n = 4000
        dts = np.empty(n)
        dirs = np.empty(n)
        for k, (dt, direction, rho_after) in enumerate(draw_jumps(coin, rho, rng, n)):
            assert np.allclose(rho_after, rho, atol=1e-10)
            dts[k] = dt
            dirs[k] = direction
        assert abs(dts.mean() - 1.0 / rate) < 4 / rate / np.sqrt(n)
        assert abs(np.mean(dirs == 1) - p_right) < 4 * np.sqrt(p_right * (1 - p_right) / n)

    def test_rejects_non_density(self):
        coin = scalar_coin(1.0, 1.0)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_next_jump(coin, np.array([[0.0 + 0j]]), rng)


# Each entry point given a d = 1 state on the three-level coin.
WRONG_DIM_CALLS = [
    ("simulate_path", lambda c, rho: simulate_path(c, 0, rho, 1.0, path_rng(0, 0))),
    ("sample_sites", lambda c, rho: sample_sites(c, rho, 1.0, 10, 0)),
    ("estimate_drift", lambda c, rho: estimate_drift(c, rho, 100.0, 100, 0)),
    ("sample_next_jump", lambda c, rho: sample_next_jump(c, rho, np.random.default_rng(0))),
    ("survival_probability", lambda c, rho: survival_probability(c, rho, 0.5)),
]


@pytest.mark.parametrize("label,call", WRONG_DIM_CALLS, ids=[c[0] for c in WRONG_DIM_CALLS])
def test_rejects_state_of_wrong_dimension(label, call):
    with pytest.raises(ValueError, match="1x1, expected d=3"):
        call(three_level_coin(0.0), [[1.0]])


# Each horizon-taking entry point on a horizon that caps nothing.
HORIZON_CALLS = [
    ("simulate_path", lambda c, x: simulate_path(c, 0, [[1.0]], x, path_rng(0, 0))),
    ("sample_sites", lambda c, x: sample_sites(c, [[1.0]], x, 10, 0)),
    ("estimate_drift", lambda c, x: estimate_drift(c, [[1.0]], x, 100, 0)),
]


@pytest.mark.parametrize("horizon", [math.nan, math.inf])
@pytest.mark.parametrize("label,call", HORIZON_CALLS, ids=[c[0] for c in HORIZON_CALLS])
def test_rejects_non_finite_horizon(monkeypatch, label, call, horizon):
    # NaN fails every comparison and inf every cap, so either would run each
    # path to MAX_JUMPS; the call must refuse before it builds a sampler
    def no_sampler(coin):
        raise AssertionError("sampling started")

    monkeypatch.setattr(trajectory, "JumpSampler", no_sampler)
    with pytest.raises(ValueError, match="finite"):
        call(scalar_coin(1.0, 1.0), horizon)


class TestSurvivalProbability:
    @pytest.mark.parametrize("t", [-1.0, math.nan, math.inf])
    def test_rejects_negative_or_non_finite_time(self, t):
        # at t = -1 the flow grows: the unchecked value was 11.67
        with pytest.raises(ValueError, match="finite and nonnegative"):
            survival_probability(three_level_coin(0.0), np.eye(3) / 3, t)

    def test_starts_at_one(self):
        coin = three_level_coin(0.0)
        rng = np.random.default_rng(5)
        rho = random_density(rng, 3)
        assert survival_probability(coin, rho, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_scalar_exact(self):
        coin = scalar_coin(1.0, 1.0)
        rho = np.array([[1.0 + 0j]])
        for t in [0.1, 0.7, 2.0]:
            assert survival_probability(coin, rho, t) == pytest.approx(np.exp(-2 * t), abs=1e-12)

    def test_matches_matrix_flow(self):
        rng = np.random.default_rng(23)
        coin = random_coin(rng, 2)
        rho = random_density(rng, 2)
        g0 = no_jump_generator(coin)
        for t in [0.3, 1.1]:
            et = mat_exp(g0, t)
            expected = np.trace(et @ rho @ et.conj().T).real
            assert survival_probability(coin, rho, t) == pytest.approx(expected, abs=1e-10)

    def test_non_increasing(self):
        coin = three_level_coin(0.0)
        rho = np.eye(3, dtype=complex) / 3
        vals = [survival_probability(coin, rho, t) for t in np.linspace(0, 3, 13)]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


# Two coins whose G0 = -I + N has N^2 = 0 up to round-off, so that
# e^{G0 t} = e^{-t} (I + t N) while G0 is not diagonalizable. Near-EP: the
# round-off split of the double eigenvalue leaves an eigenvector condition
# number of 6.7e7. Jordan: G0 = [[-1, 1], [0, -1]], so e^{G0 t} =
# e^{-t} [[1, t], [0, 1]].
NEAR_EP = validate_coin(np.diag([1.0, 0.0]), np.diag([0.0, math.sqrt(3.0)]),
                        np.array([[0.0, 0.5], [0.5, 0.0]]))
_U = np.array([[math.sqrt(2.0), -1.0 / math.sqrt(2.0)], [0.0, math.sqrt(1.5)]])
JORDAN = validate_coin(_U / math.sqrt(3.0), _U * math.sqrt(2.0 / 3.0),
                       np.array([[0.0, 0.5j], [-0.5j, 0.0]]))
EDGE_COINS = [("near-ep", NEAR_EP), ("jordan", JORDAN)]


def nilpotent_flow(coin, t):
    """e^{G0 t} = e^{-t} (I + t (G0 + I)) for the edge coins (no expm: scipy's
    is off by 1e-2 on the Jordan coin's G0 near t = 3.3)."""
    n = no_jump_generator(coin) + np.eye(2)
    assert np.abs(n @ n).max() < 1e-15
    return math.exp(-t) * (np.eye(2) + t * n)


class RecordingRng:
    """A generator that remembers every uniform it hands out."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.draws = []

    def random(self):
        self.draws.append(self._rng.random())
        return self.draws[-1]


class TestEdgeCoins:
    @pytest.mark.parametrize("label,coin", EDGE_COINS, ids=[c[0] for c in EDGE_COINS])
    def test_jump_inverts_survival_and_sandwiches_state(self, label, coin):
        # every sampled dt solves Tr(e^{G0 dt} rho e^{G0* dt}) = u for the
        # drawn u, and the post-jump state is K sigma K* / Tr with K = A or C
        sampler = JumpSampler(coin)
        rng = RecordingRng(61)
        rho = random_density(np.random.default_rng(62), 2)
        for _ in range(300):
            rng.draws.clear()
            dt, direction, v_after = sampler.next_jump(hvec(rho), rng)
            rho_after = hunvec(v_after)
            e = nilpotent_flow(coin, dt)
            sigma = e @ rho @ e.conj().T
            assert abs(np.trace(sigma).real - rng.draws[0]) < 1e-10
            k = coin.right if direction == 1 else coin.left
            post = k @ sigma @ k.conj().T
            assert np.abs(rho_after - post / np.trace(post).real).max() < 1e-10
            rho = rho_after

    @pytest.mark.parametrize("label,coin", EDGE_COINS, ids=[c[0] for c in EDGE_COINS])
    def test_survival_matches_closed_form(self, label, coin):
        rho = random_density(np.random.default_rng(63), 2)
        for t in np.linspace(0.0, 20.0, 81):
            e = nilpotent_flow(coin, t)
            expected = np.trace(e @ rho @ e.conj().T).real
            assert survival_probability(coin, rho, t) == pytest.approx(expected, rel=1e-12)

    def test_near_ep_paths_complete(self):
        rho0 = np.eye(2, dtype=complex) / 2
        for k in range(30):
            path = simulate_path(NEAR_EP, 0, rho0, 50.0, path_rng(64, k))
            assert path.jump_times.size > 0
            for state in path.states:
                check_density(state)


class TestSimulatePath:
    def test_structure_invariants(self):
        coin = three_level_coin(0.0)
        rho0 = np.eye(3, dtype=complex) / 3
        path = simulate_path(coin, 0, rho0, 50.0, np.random.default_rng(42))
        times = path.jump_times
        assert len(path.sites) == len(times) + 1 == len(path.states)
        assert np.all(np.diff(times) > 0)
        assert times.size == 0 or times[-1] <= path.horizon
        assert np.all(np.abs(np.diff(path.sites)) == 1)
        for state in path.states:
            check_density(state)

    def test_start_site_and_state(self):
        coin = scalar_coin(1.0, 1.0)
        rho0 = np.array([[1.0 + 0j]])
        path = simulate_path(coin, 4, rho0, 2.0, np.random.default_rng(1))
        assert path.sites[0] == 4
        assert np.allclose(path.states[0], rho0)

    def test_no_jump_for_tiny_horizon(self):
        coin = scalar_coin(1.0, 1.0)
        path = simulate_path(coin, 0, [[1.0]], 1e-12, np.random.default_rng(9))
        assert path.jump_times.size == 0
        assert list(path.sites) == [0]
        assert path.states.shape == (1, 1, 1) and path.states[0, 0, 0] == 1.0

    def test_jump_count_scalar(self):
        # total jumps over [0, T] is Poisson with mean (|a|^2+|c|^2) T
        coin = scalar_coin(1.0, 1.0)
        path = simulate_path(coin, 0, [[1.0]], 1000.0, np.random.default_rng(77))
        n = path.jump_times.size
        assert abs(n - 2000) < 4 * np.sqrt(2000)

    def test_rejects_nonpositive_horizon(self):
        coin = scalar_coin(1.0, 1.0)
        with pytest.raises(ValueError):
            simulate_path(coin, 0, [[1.0]], 0.0, np.random.default_rng(0))


class TestConditionalStateFlow:
    def test_normalized_ode_matches_linear_flow(self):
        # the conditional no-jump state sigma(t)/tr sigma(t) solves the
        # nonlinear equation r' = G0 r + r G0* - r tr(G0 r + r G0*)
        coin = three_level_coin(0.0)
        rng = np.random.default_rng(31)
        rho0 = random_density(rng, 3)
        g0 = no_jump_generator(coin)
        g0h = g0.conj().T

        def rhs(_, y):
            r = y.reshape(3, 3)
            d = g0 @ r + r @ g0h
            return (d - r * np.trace(d)).ravel()

        sol = solve_ivp(rhs, (0.0, 1.5), rho0.ravel(), rtol=1e-10, atol=1e-12)
        r_end = sol.y[:, -1].reshape(3, 3)
        et = mat_exp(g0, 1.5)
        sigma = et @ rho0 @ et.conj().T
        assert np.linalg.norm(r_end - sigma / np.trace(sigma).real) < 1e-8


class TestEstimateDrift:
    def test_scalar_biased(self):
        # drift |a|^2 - |c|^2 = 3 for the scalar coin with a=2, c=1
        est = estimate_drift(scalar_coin(2.0, 1.0), [[1.0]], 100.0, 100, 424242)
        assert abs(est.mean - 3.0) < 4 * est.stderr
        # per-path variance is (|a|^2+|c|^2)/T = 0.05
        assert 0.01 < est.stderr < 0.05
        assert est.n_paths == 100 and est.horizon == 100.0 and est.seed == 424242

    def test_requires_drift_regime(self):
        coin = scalar_coin(1.0, 1.0)
        with pytest.raises(ValueError):
            estimate_drift(coin, [[1.0]], 50.0, 100, 1)
        with pytest.raises(ValueError):
            estimate_drift(coin, [[1.0]], 100.0, 50, 1)

    def test_reproducible(self):
        coin = scalar_coin(1.0, 1.0)
        a = estimate_drift(coin, [[1.0]], 100.0, 100, 5)
        b = estimate_drift(coin, [[1.0]], 100.0, 100, 5)
        assert a.mean == b.mean and a.stderr == b.stderr
        c = estimate_drift(coin, [[1.0]], 100.0, 100, 6)
        assert c.mean != a.mean

    def test_accepts_unvec_stationary_state(self):
        # the stationary basis is unvec'd, so Fortran-ordered; it must give
        # the same estimate as a C-ordered copy
        coin = three_level_coin(0.0)
        b = stationary_states(coin).stationary_basis[0]
        rho = b / np.trace(b)
        assert not rho.flags["C_CONTIGUOUS"]
        a = estimate_drift(coin, rho, 100.0, 100, 1)
        c = estimate_drift(coin, np.ascontiguousarray(rho), 100.0, 100, 1)
        assert a.mean == c.mean and a.jumps == c.jumps

    def test_dict_round_trip(self):
        est = estimate_drift(scalar_coin(1.0, 1.0), [[1.0]], 100.0, 100, 2)
        d = drift_to_dict(est)
        assert set(d) == {"mean", "stderr", "n_paths", "horizon", "seed"}
        assert d["mean"] == est.mean and d["seed"] == 2


# C = diag(1, 0), A = 0, H = 0: level 1 never jumps, and a jump from level 0
# lands back on level 0, so from I/2 half the paths end at the horizon cap
# without a jump.
TRAP = validate_coin(np.diag([1.0, 0.0]), np.zeros((2, 2)), np.zeros((2, 2)))
# C = diag(2, 0.2), A = diag(1, 0.1), H = 0: jump rates 5 and 0.05, so the
# step is h = 1/5 and a window K h = 12.8, while a jump from the slow level
# takes 20 on average; many jumps land beyond the first window.
SLOW = validate_coin(np.diag([2.0, 0.2]), np.diag([1.0, 0.1]), np.zeros((2, 2)))
LOCKSTEP_CASES = [
    ("three-level", three_level_coin(0.0), three_level_stationary(0.0), 0, 12345),
    ("jordan", JORDAN, np.eye(2) / 2, 3, 7),
    ("near-ep", NEAR_EP, np.eye(2) / 2, 0, 101),
    ("scalar", scalar_coin(1.0, 0.5), [[1.0]], -2, 5),
    ("trapped", TRAP, np.diag([0.0, 1.0]), 0, 3),
    ("trap-mixed", TRAP, np.eye(2) / 2, 0, 3),
    ("slow-level", SLOW, np.diag([0.0, 1.0]), 0, 17),
]


class TestLockstepMatchesSerial:
    @pytest.mark.parametrize("label,coin,rho0,i0,seed", LOCKSTEP_CASES,
                             ids=[c[0] for c in LOCKSTEP_CASES])
    def test_same_estimate_as_simulate_path(self, label, coin, rho0, i0, seed):
        # sample_sites advances every path at once; path k must still be
        # simulate_path on the stream (seed, k), so end sites and jump counts
        # agree path by path, and the drift reduction agrees bit for bit
        n = 100
        paths = {}
        for horizon in (100.0, 37.0):
            paths[horizon] = [simulate_path(coin, i0, rho0, horizon, path_rng(seed, k))
                              for k in range(n)]
            sites, jumps = sample_sites(coin, rho0, horizon, n, seed, i0=i0)
            assert sites.tolist() == [p.sites[-1] for p in paths[horizon]]
            assert jumps.tolist() == [p.jump_times.size for p in paths[horizon]]
        # the site at 37 of a horizon-100 path is the end site of the horizon-37 run
        for long, short in zip(paths[100.0], paths[37.0]):
            k = np.searchsorted(long.jump_times, 37.0, side="right")
            assert long.sites[k] == short.sites[-1]
        vals = [(p.sites[-1] - i0) / 100.0 for p in paths[100.0]]
        mean = math.fsum(vals) / n
        stderr = math.sqrt(math.fsum((v - mean) ** 2 for v in vals) / (n - 1) / n)
        est = estimate_drift(coin, rho0, 100.0, n, seed)
        assert est.mean == mean and est.stderr == stderr
        assert est.jumps == sum(p.jump_times.size for p in paths[100.0])
        if label == "trapped":
            assert est.mean == 0.0 and est.stderr == 0.0 and est.jumps == 0
        if label == "trap-mixed":
            assert est.mean == pytest.approx(-0.585, abs=1e-12)

    def test_guard_raises_like_serial(self):
        # a path held on the level that never jumps past the guard horizon
        # (1e9 / rate scale) before its horizon raises in both drivers
        held = np.diag([0.0, 1.0])
        with pytest.raises(RuntimeError, match="guard horizon"):
            simulate_path(TRAP, 0, held, 1e10, path_rng(3, 0))
        with pytest.raises(RuntimeError, match="guard horizon"):
            estimate_drift(TRAP, held, 1e10, 100, 3)


class TestSamplerCache:
    def test_dropped_coins_leave_no_sampler(self):
        # the cache holds coins weakly and its samplers hold no coin, so once
        # the coins are gone so are their samplers
        rng = np.random.default_rng(81)
        coins = [random_coin(rng, 2) for _ in range(50)]
        refs = []
        for coin in coins:
            sample_next_jump(coin, np.eye(2) / 2, rng)
            refs.append(weakref.ref(trajectory._SAMPLERS[coin]))
        del coin, coins
        gc.collect()
        assert [ref() for ref in refs] == [None] * 50

    def test_one_sampler_per_coin(self, monkeypatch):
        # every entry point reads the coin's one sampler
        built = []
        init = trajectory.JumpSampler.__init__

        def counting(self, coin):
            built.append(coin)
            init(self, coin)

        monkeypatch.setattr(trajectory.JumpSampler, "__init__", counting)
        coin, rho = three_level_coin(0.0), np.eye(3) / 3
        for _ in range(2):
            simulate_path(coin, 0, rho, 5.0, path_rng(0, 0))
            sample_sites(coin, rho, 5.0, 10, 0)
            sample_next_jump(coin, rho, np.random.default_rng(0))
            survival_probability(coin, rho, 0.5)
        assert built == [coin]

    def test_threads_extending_one_chain_agree(self):
        # threads sharing a coin's sampler extend its window chain at once;
        # each value must equal that of a sampler of its own (a lost or doubled
        # link of the chain would shift every later power). Rates 5 and 5e-4:
        # survival from the slow level is still 5e-12 after 4096 windows.
        def make():
            return validate_coin(np.diag([2.0, 0.02]), np.diag([1.0, 0.01]), np.zeros((2, 2)))

        rho = np.diag([0.25, 0.75])
        window = trajectory.K * JumpSampler(make())._h
        times = [window * (2 ** j + 0.5) for j in range(13)]
        expected = [survival_probability(make(), rho, t) for t in times]
        shared, results = make(), {}

        def work(k):
            order = times[k % 2::2] + times[1 - k % 2::2]
            results[k] = {t: survival_probability(shared, rho, t) for t in reversed(order)}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all([results[k][t] for t in times] == expected for k in range(8))


# The edge coins, the three-level coin, and SLOW, whose survival from its
# slow level is still e^{-0.05 * 64} = 0.04 after five windows.
SURVIVAL_COINS = [("three-level", three_level_coin(0.0)), ("jordan", JORDAN),
                  ("near-ep", NEAR_EP), ("slow-level", SLOW)]


class TestSurvivalGrid:
    @pytest.mark.parametrize("label,coin", SURVIVAL_COINS, ids=[c[0] for c in SURVIVAL_COINS])
    def test_matches_matrix_exponential_across_windows(self, label, coin):
        # t = 0, inside the first window, at whole windows (where the grid
        # meets the window chain) and past 5 and 40 windows (the chain's
        # powers 1, 4 and 8, 32); mat_exp, not scipy's expm, which is off by
        # 1e-2 on the Jordan coin past t = 3.3
        window = trajectory.K * JumpSampler(coin)._h
        g0 = no_jump_generator(coin)
        rho = random_density(np.random.default_rng(83), coin.dim)
        times = [0.0, 0.37 * window, window, 2 * window, 3 * window,
                 5 * window, 5.61 * window, 40 * window, 40.25 * window]
        for t in times:
            e = mat_exp(g0, t)
            expected = np.trace(e @ rho @ e.conj().T).real
            assert abs(survival_probability(coin, rho, t) - expected) <= 1e-14, t

    def test_slow_level_closed_form(self):
        # from a diagonal state survival is sum_i p_i e^{-gamma_i t}: the
        # chain keeps its relative accuracy over 40 windows
        window = trajectory.K * JumpSampler(SLOW)._h
        for t in [0.5 * window, 5 * window, 40 * window]:
            expected = 0.25 * math.exp(-5.0 * t) + 0.75 * math.exp(-0.05 * t)
            value = survival_probability(SLOW, np.diag([0.25, 0.75]), t)
            assert value == pytest.approx(expected, rel=1e-13)


class TestScaleCovariance:
    # (C, A, H) -> (sC, sA, s^2 H) multiplies the generator by s^2, so it only
    # rescales time; for s a power of two every product is scaled exactly

    @pytest.mark.parametrize("s", [2.0, 0.5])
    @pytest.mark.parametrize("label,coin,rho0,i0,seed", LOCKSTEP_CASES,
                             ids=[c[0] for c in LOCKSTEP_CASES])
    def test_scaled_coin_rescales_time_exactly(self, label, coin, rho0, i0, seed, s):
        scaled = validate_coin(s * coin.left, s * coin.right, s * s * coin.ham)
        sites, jumps = sample_sites(coin, rho0, 100.0, 200, seed, i0=i0)
        scaled_sites, scaled_jumps = sample_sites(scaled, rho0, 100.0 / s ** 2, 200, seed, i0=i0)
        assert np.array_equal(scaled_sites, sites) and np.array_equal(scaled_jumps, jumps)
        for t in [0.0, 0.7, 13.0, 90.0, 900.0]:
            value = survival_probability(coin, rho0, t)
            assert survival_probability(scaled, rho0, t / s ** 2) == value


class TestFarWindow:
    def test_jump_inverts_survival(self):
        # the states stay diagonal, so survival is sum_i rho_ii e^{-gamma_i t}
        # and every sampled dt must solve it for the drawn u
        sampler = JumpSampler(SLOW)
        gammas = np.array([5.0, 0.05])
        rng = RecordingRng(71)
        rho = np.eye(2, dtype=complex) / 2
        far = 0
        for _ in range(400):
            rng.draws.clear()
            dt, _, v_after = sampler.next_jump(hvec(rho), rng)
            rho_after = hunvec(v_after)
            survival = float(np.diag(rho).real @ np.exp(-gammas * dt))
            assert abs(survival - rng.draws[0]) < 1e-10
            far += dt > trajectory.K * sampler._h
            rho = rho_after
        assert far > 20

    def test_capped_draws_match_survival(self):
        # from the slow level survival is e^{-0.05 t}: a draw capped at t_cap
        # is None exactly when survival at t_cap is still above u, else dt
        # solves it; most caps lie past the first window
        sampler = JumpSampler(SLOW)
        window = trajectory.K * sampler._h
        v = hvec(np.diag([0.0, 1.0]))
        caps = np.random.default_rng(72).uniform(0.5, 80.0, 600)
        rng = RecordingRng(73)
        far = none = 0
        for t_cap in caps:
            rng.draws.clear()
            drawn = sampler.next_jump(v, rng, t_cap=t_cap)
            u = rng.draws[0]
            assert (drawn is None) == (math.exp(-0.05 * t_cap) > u)
            if drawn is None:
                none += 1
            else:
                assert drawn[0] <= t_cap
                assert abs(math.exp(-0.05 * drawn[0]) - u) < 1e-10
            far += t_cap > window and math.exp(-0.05 * window) > u
        assert far > 200 and none > 100

    def test_lockstep_jump_inverts_survival(self):
        # the lockstep twin of test_jump_inverts_survival: every row's dt
        # solves sum_i p_i e^{-gamma_i dt} = u for its diagonal state
        sampler = JumpSampler(SLOW)
        gammas = np.array([5.0, 0.05])
        rng = np.random.default_rng(74)
        p = rng.uniform(0.0, 1.0, 400)
        v = hvec(np.array([np.diag([q, 1.0 - q]) for q in p]))
        u = rng.random(400)
        rows, dt, _, _ = sampler._next_jumps(v, u, np.full(400, math.inf))
        assert rows.tolist() == list(range(400))
        survival = p * np.exp(-gammas[0] * dt) + (1.0 - p) * np.exp(-gammas[1] * dt)
        assert np.abs(survival - u).max() < 1e-10
        assert np.count_nonzero(dt > trajectory.K * sampler._h) > 20


class FixedRng:
    """Hands out the given uniforms in order."""

    def __init__(self, draws):
        self._draws = iter(draws)

    def random(self):
        return next(self._draws)


SOLVER_COINS = [("three-level", three_level_coin(0.0)), ("slow-level", SLOW),
                ("jordan", JORDAN), ("near-ep", NEAR_EP)]


class TestRootFinder:
    @pytest.mark.parametrize("label,coin", SOLVER_COINS, ids=[c[0] for c in SOLVER_COINS])
    def test_lockstep_and_serial_agree(self, label, coin):
        # for the same state, uniform and cap, the batched and the single draw
        # jump (or not) together, at times within REL_TIME_TOL of each other;
        # a third of the caps are within two mean jump times and a third
        # within four windows, so capped rows both jump and stop
        sampler = JumpSampler(coin)
        rng = np.random.default_rng(75)
        n = 300
        rhos = [random_density(rng, coin.dim) for _ in range(n)]
        u = rng.random(n)
        window = trajectory.K * sampler._h
        cap = np.choose(np.arange(n) % 3, [rng.uniform(0.0, 2.0 / sampler.top_rate, n),
                                           rng.uniform(0.0, 4.0 * window, n),
                                           np.full(n, math.inf)])
        v = hvec(np.array(rhos))
        rows, dt, _, _ = sampler._next_jumps(v, u, cap)
        serial = [sampler.next_jump(v[k], FixedRng([u[k], 0.5]), t_cap=cap[k])
                  for k in range(n)]
        assert rows.tolist() == [k for k, drawn in enumerate(serial) if drawn is not None]
        expected = np.array([serial[k][0] for k in rows])
        assert np.all(np.abs(dt - expected) <= trajectory.REL_TIME_TOL * expected)
        capped = np.isfinite(cap)
        assert np.count_nonzero(capped[rows]) > 10
        assert np.count_nonzero(capped) - np.count_nonzero(capped[rows]) > 10

    def test_nonpositive_halley_denominator_converges(self):
        # column 0: s = 1 - 0.1 x + 2 x^2 - 3 x^3 from x = 1e-3, where
        # 2 s'^2 - (s - u) s'' < 0, so the first step falls back to Newton;
        # column 1: s = 0.9375 + 0.5 x - x^2 from x = 0.25, where s' = 0, so
        # it bisects. Each has one root in (0, 1], and no pass may warn.
        poly = np.polynomial.polynomial
        coef = np.zeros((trajectory._TAYLOR_TERMS, 2))
        coef[:4, 0] = [1.0, -0.1, 2.0, -3.0]
        coef[:3, 1] = [0.9375, 0.5, -1.0]
        x0 = np.array([1e-3, 0.25])
        s, ds, dds = (poly.polyval(x0[0], poly.polyder(coef[:, 0], m)) for m in range(3))
        assert ds < 0 and 2 * ds * ds - (s - 0.5) * dds <= 0
        assert poly.polyval(x0[1], poly.polyder(coef[:, 1])) == 0
        start, hi, u = np.zeros(2), np.ones(2), np.full(2, 0.5)
        # the derivative table of JumpSampler._poly_trace, at step h = 1
        table = np.zeros((3,) + coef.shape)
        for m in range(3):
            for k in range(2):
                der = poly.polyder(coef[:, k], m)
                table[m, :len(der), k] = der
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dt, passes = trajectory._invert_survival(table, start, hi, u, 1.0, x0)
        assert passes < 200
        assert np.all((start < dt) & (dt <= hi))
        values = [poly.polyval(dt[k], coef[:, k]) for k in range(2)]
        assert np.abs(np.array(values) - 0.5).max() < 1e-10

    @pytest.mark.parametrize("label,coin", SOLVER_COINS, ids=[c[0] for c in SOLVER_COINS])
    def test_derivative_rows_are_built_with_the_sampler(self, label, coin):
        # the trace rows of survival's first two time derivatives sit beside
        # the Taylor trace rows, so one product per lockstep round gives all
        # three in-step polynomials
        sampler = JumpSampler(coin)
        n_terms = trajectory._TAYLOR_TERMS
        table = sampler._poly_trace.reshape(3, n_terms, -1)
        assert np.array_equal(table[0], sampler._taylor_trace)
        for m in (1, 2):
            ref = np.polynomial.polynomial.polyder(sampler._taylor_trace, m, scl=1.0 / sampler._h)
            assert np.allclose(table[m, :n_terms - m], ref, rtol=1e-15, atol=0.0)
            assert not table[m, n_terms - m:].any()

    def test_serial_step_guards(self):
        # Halley where its denominator is positive, Newton where it is not
        # (zero included, with no division by it), bisection (NaN) where the
        # slope is not negative
        assert trajectory._root_step(1.0, 0.5, -1.0, 1.0) == pytest.approx(1.0 + 2.0 / 3.0)
        assert trajectory._root_step(1.0, 1.0, -1.0, 2.0) == 2.0
        assert trajectory._root_step(1.0, 1.0, -1.0, 5.0) == 2.0
        assert math.isnan(trajectory._root_step(1.0, 1.0, 0.0, 5.0))
        assert math.isnan(trajectory._root_step(1.0, 1.0, 1e-3, 5.0))

    def test_drift_rounds_take_at_most_four_passes(self, monkeypatch):
        # the benchmark's drift input: every lockstep round's slowest row
        # stops within four passes, and the estimate counts rounds and passes
        per_round = []
        invert = trajectory._invert_survival

        def recording(*args):
            dt, passes = invert(*args)
            per_round.append(passes)
            return dt, passes

        monkeypatch.setattr(trajectory, "_invert_survival", recording)
        est = estimate_drift(three_level_coin(0.0), three_level_stationary(0.0), 500.0, 200, 3)
        assert max(per_round) <= 4
        assert est.rounds == len(per_round) and est.solver_passes == sum(per_round)
        assert set(drift_to_dict(est)) == {"mean", "stderr", "n_paths", "horizon", "seed"}


class TestTaylorStep:
    COINS = ([c for _, c, _ in verify_cases()]
             + [random_coin(np.random.default_rng(91 + k), 2 + k % 3) for k in range(20)])

    @pytest.mark.parametrize("coin", COINS)
    def test_steps_are_powers_of_the_taylor_step(self, coin):
        # e^{hS} is the 19-term Taylor sum, with no mat_exp, and the grid
        # holds its powers up to K
        sampler = JumpSampler(coin)
        ref = mat_exp(symbol_parts(coin)[0], sampler._h)
        step = sampler._steps[1]
        assert np.linalg.norm(step - ref) <= 2e-15 * np.linalg.norm(ref)
        assert len(sampler._steps) == trajectory.K + 1
        for k, grid_step in enumerate(sampler._steps):
            power = np.linalg.matrix_power(step, k)
            assert np.linalg.norm(grid_step - power) <= 1e-14 * np.linalg.norm(power)


class TestSeedStreams:
    def test_path_rng_deterministic(self):
        coin = three_level_coin(0.0)
        rho0 = np.eye(3, dtype=complex) / 3
        p1 = simulate_path(coin, 0, rho0, 30.0, path_rng(5, 0))
        p2 = simulate_path(coin, 0, rho0, 30.0, path_rng(5, 0))
        assert np.array_equal(p1.jump_times, p2.jump_times)
        assert np.array_equal(p1.sites, p2.sites)
        p3 = simulate_path(coin, 0, rho0, 30.0, path_rng(5, 1))
        assert not np.array_equal(p1.jump_times, p3.jump_times)

    def test_csv_bytes_stable(self):
        coin = scalar_coin(1.0, 1.0)
        bufs = []
        for _ in range(2):
            path = simulate_path(coin, 0, [[1.0]], 5.0, path_rng(12, 3))
            buf = io.StringIO()
            write_path_csv(buf, path)
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]


class TestWritePathCsv:
    def test_format(self):
        coin = scalar_coin(2.0, 1.0)
        path = simulate_path(coin, -2, [[1.0]], 3.0, path_rng(8, 0))
        buf = io.StringIO()
        write_path_csv(buf, path)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "jump_index,time,site"
        assert lines[1] == "0,0,-2"
        assert len(lines) == path.jump_times.size + 2
        for k, line in enumerate(lines[2:], start=1):
            idx, t, site = line.split(",")
            assert int(idx) == k
            assert float(t) == path.jump_times[k - 1]
            assert int(site) == path.sites[k]


class TestMonteCarloVsLattice:
    # empirical site occupation over many paths must agree with the block
    # master equation; checked at two times and three sites per coin
    CASES = [
        ("scalar", scalar_coin(1.0, 1.0), np.array([[1.0 + 0j]])),
        ("shared", shared_eigenbasis_coin(1.5, 1.0), np.eye(2, dtype=complex) / 2),
        ("three-level", three_level_coin(0.0), np.eye(3, dtype=complex) / 3),
    ]

    @pytest.mark.parametrize("label,coin,rho0", CASES, ids=[c[0] for c in CASES])
    def test_occupation_matches(self, label, coin, rho0):
        n_paths = 10_000
        t_checks = [1.0, 5.0]
        sites = [-1, 0, 1]
        radius = choose_radius(coin, 0, 5.0, rho0)
        gen = BlockGenerator(coin, radius)
        expected = probability_series(gen, rho0, 0, sites, t_checks)
        seed = {"scalar": 101, "shared": 202, "three-level": 303}[label]
        # the site at t of the path on stream k is the end site of the horizon-t run
        ends = [sample_sites(coin, rho0, t, n_paths, seed)[0] for t in t_checks]
        counts = np.array([[np.sum(end == x) for x in sites] for end in ends])
        freq = counts / n_paths
        se = np.sqrt(np.maximum(expected * (1 - expected), 1e-12) / n_paths)
        assert np.all(np.abs(freq - expected) < 4 * se), (
            f"{label}: freq={freq}, expected={expected}"
        )
