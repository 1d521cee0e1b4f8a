"""Trajectory sampling: jump-time laws, path invariants, drift estimates."""

import io
import math

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
    simulate_path,
    survival_probability,
    validate_coin,
    write_path_csv,
)
from ctoqw.coins import scalar_coin, shared_eigenbasis_coin, three_level_coin
from ctoqw.lattice import BlockGenerator, choose_radius, probability_series

from helpers import random_coin, random_density


def site_at(path, t):
    # number of jumps with time <= t indexes the right-continuous position
    k = int(np.searchsorted(path.jump_times, t, side="right"))
    return int(path.sites[k])


class TestSampleNextJump:
    def test_scalar_exponential_law(self):
        # rate |a|^2 + |c|^2 = 2, so dt ~ Exp(2) and directions are fair
        coin = scalar_coin(1.0, 1.0)
        rho = np.array([[1.0 + 0j]])
        rng = np.random.default_rng(7)
        n = 4000
        dts = np.empty(n)
        dirs = np.empty(n)
        for k in range(n):
            dt, direction, rho_after = sample_next_jump(coin, rho, rng)
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
        dirs = [sample_next_jump(coin, rho, rng)[1] for _ in range(n)]
        p_right = np.mean(np.asarray(dirs) == 1)
        assert abs(p_right - 0.8) < 4 * np.sqrt(0.8 * 0.2 / n)
        dts = [sample_next_jump(coin, rho, rng)[0] for _ in range(n)]
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
        for k in range(n):
            dt, direction, rho_after = sample_next_jump(coin, rho, rng)
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


class TestSurvivalProbability:
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
            dt, direction, rho_after = sampler.next_jump(rho, rng)
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

    def test_dict_round_trip(self):
        est = estimate_drift(scalar_coin(1.0, 1.0), [[1.0]], 100.0, 100, 2)
        d = drift_to_dict(est)
        assert set(d) == {"mean", "stderr", "n_paths", "horizon", "seed"}
        assert d["mean"] == est.mean and d["seed"] == 2


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
        counts = np.zeros((len(t_checks), len(sites)))
        seed = {"scalar": 101, "shared": 202, "three-level": 303}[label]
        for k in range(n_paths):
            path = simulate_path(coin, 0, rho0, 5.0, path_rng(seed, k))
            for row, t in enumerate(t_checks):
                x = site_at(path, t)
                if x in sites:
                    counts[row, sites.index(x)] += 1
        freq = counts / n_paths
        se = np.sqrt(np.maximum(expected * (1 - expected), 1e-12) / n_paths)
        assert np.all(np.abs(freq - expected) < 4 * se), (
            f"{label}: freq={freq}, expected={expected}"
        )
