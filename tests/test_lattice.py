"""Ring-lattice engine tests: block generator structure, the momentum-space
propagator against the dense ring generator and the classical Bessel oracle,
conditioning, the composition identity, return integrals, skeleton sums, scale
covariance, the leak bound and radius selection."""

import gc
import io
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.optimize
import scipy.special

from ctoqw import (
    Coin,
    BlockGenerator,
    evolve,
    leak_bound,
    probability_series,
    trace_profile_series,
    transition_probability,
    conditioned_state,
    chapman_kolmogorov_residual,
    return_integral,
    skeleton_partials,
    choose_radius,
    load_coin,
    path_rng,
    sample_sites,
    simulate_path,
    write_series_csv,
    write_profile_csv,
    hunvec,
    hvec,
    mat_exp,
    vec,
    validate_coin,
)
import ctoqw.lattice as lattice_mod
import ctoqw.linalg as linalg_mod
from ctoqw.linalg import hermitian_basis
from ctoqw.coins import (
    diagonal_jumps_coin,
    scalar_coin,
    shared_basis_vectors,
    shared_eigenbasis_coin,
    three_level_coin,
)

from helpers import complex_leak_bound, random_coin, random_density, random_unitary, vec_symbol

COINS = Path(__file__).resolve().parents[1] / "coins"


def bessel_p00(t):
    # classical symmetric continuous-time walk: p00(t) = exp(-2t) I0(2t)
    return scipy.special.ive(0, 2.0 * t)


def outside_mass(coin, rho, i0, radius, t, scale):
    """Mass beyond -radius..radius at time t, evolved on a ring `scale` times wider."""
    big = evolve(BlockGenerator(coin, scale * radius), rho, i0, t)
    return big.trace_profile()[np.abs(big.sites) > radius].sum()


def exact_theta_leak_bound(coin, rho, i0, radius, t):
    """leak_bound with theta from bounded Brent on the exact shifted log-moment,
    over the same theta range.

    Every step exponentiates the tilted symbol; a moment that is not a
    positive normal float counts as the trivial bound at that theta.
    """
    v = vec(rho)
    d = coin.dim

    def tail(stay, ahead, behind, dist):
        def log_bound(theta):
            m = stay + np.exp(theta) * ahead + np.exp(-theta) * behind
            mu = float(np.linalg.eigvals(m).real.max())
            moment = float((mat_exp(m - mu * np.eye(len(m)))[:: d + 1].sum(axis=0) @ v).real)
            if not np.isfinite(moment) or moment < np.finfo(float).tiny:
                return 0.0
            return mu + np.log(moment) - theta * dist

        best = scipy.optimize.minimize_scalar(
            log_bound, bounds=(0.0, lattice_mod._theta_max(dist, t * coin.rate_scale)),
            method="bounded")
        return float(np.exp(min(best.fun, 0.0)))

    stay, right, left = (t * m for m in vec_symbol(coin))
    return min(1.0, tail(stay, right, left, radius + 1 - i0)
               + tail(stay, left, right, radius + 1 + i0))


def per_launch_residual(gen, rho, i0, j, alpha, beta):
    """The Chapman-Kolmogorov residual with one transition_probability per launch."""
    lhs = transition_probability(gen, rho, i0, j, alpha + beta)
    probs = evolve(gen, rho, i0, beta).trace_profile()
    rhs = 0.0
    for q in np.flatnonzero(probs > lattice_mod.SITE_PROB_FLOOR):
        k = int(q) - gen.radius
        sigma = conditioned_state(gen, rho, i0, k, beta)
        rhs += transition_probability(gen, sigma, k, j, alpha) * probs[q]
    return abs(lhs - rhs)


class TestBlockGenerator:
    def test_site_weights_read_the_roots_of_unity(self):
        # the table of the N roots gives each phase e^{-2 pi i q m / N} bit
        # for bit, offsets beyond the ring and negative ones included
        gen = BlockGenerator(three_level_coin(0.0), 7)
        offsets, q = np.arange(-40, 41), np.arange(8)
        turns = np.outer(offsets, q) % 15
        direct = np.where(q == 0, 1.0, 2.0) * np.exp(-2j * np.pi * turns / 15) / 15
        assert np.array_equal(lattice_mod._site_weights(gen, offsets), direct)

    def test_scalar_dense_matrix_is_birth_death(self):
        # the window closes into a ring: the corner entries are the wrap terms
        gen = BlockGenerator(scalar_coin(1.0, 1.0), 2)
        q = np.array([
            [-2.0, 1.0, 0.0, 0.0, 1.0],
            [1.0, -2.0, 1.0, 0.0, 0.0],
            [0.0, 1.0, -2.0, 1.0, 0.0],
            [0.0, 0.0, 1.0, -2.0, 1.0],
            [1.0, 0.0, 0.0, 1.0, -2.0],
        ])
        assert np.allclose(gen.dense_matrix(), q, atol=1e-14)

    def test_dense_matrix_refused_past_cap(self):
        gen = BlockGenerator(scalar_coin(1.0, 1.0), 2048)
        assert gen.vec_dim > lattice_mod.DENSE_STATE_CAP
        with pytest.raises(ValueError):
            gen.dense_matrix()

    def test_first_derivative_of_neighbor_trace(self):
        rng = np.random.default_rng(50)
        coin = random_coin(rng, 2)
        gen = BlockGenerator(coin, 3)
        rho = random_density(rng, 2)
        blocks = evolve(gen, rho, 0, 0.0).blocks
        deriv = gen.apply(blocks)
        up = np.trace(coin.right @ rho @ coin.right.conj().T)
        down = np.trace(coin.left @ rho @ coin.left.conj().T)
        assert abs(np.trace(deriv[4]) - up) < 1e-12
        assert abs(np.trace(deriv[2]) - down) < 1e-12

    def test_interior_trace_derivative_telescopes(self):
        rng = np.random.default_rng(51)
        coin = random_coin(rng, 3)
        gen = BlockGenerator(coin, 5)
        blocks = np.zeros((11, 3, 3), dtype=complex)
        blocks[4] = random_density(rng, 3) * 0.3
        blocks[5] = random_density(rng, 3) * 0.7
        deriv = gen.apply(blocks)
        total = sum(np.trace(deriv[i]) for i in range(11))
        assert abs(total) < 1e-12

    def test_dense_matrix_matches_apply(self):
        rng = np.random.default_rng(52)
        coin = random_coin(rng, 2)
        gen = BlockGenerator(coin, 2)
        k = gen.dense_matrix()
        blocks = np.array([random_density(rng, 2) * 0.2 for _ in range(5)])
        direct = gen.apply(blocks)
        stacked = hvec(blocks).ravel()
        via_dense = k @ stacked
        expect = hvec(direct).ravel()
        assert np.linalg.norm(via_dense - expect) < 1e-12


def dense_blocks(gen, rho, i0, t):
    """Ring blocks at time t from scipy's expm of the dense ring generator."""
    start = hvec(evolve(gen, rho, i0, 0.0).blocks).ravel()
    y = scipy.linalg.expm(t * gen.dense_matrix()) @ start
    return hunvec(y.reshape(gen.n_sites, -1))


def dense_traces(blocks):
    return np.einsum("ijj->i", blocks).real


# (d, radius, i0): the three-site ring and a larger one, starts on both edges
HALF_SPECTRUM_CASES = [(d, radius, i0) for d in (1, 2, 3)
                       for radius, i0 in ((1, -1), (1, 1), (4, -4), (4, 2), (4, 4))]


class TestHalfSpectrum:
    """Entry points that exponentiate momenta 0..radius only, against scipy's
    expm of the dense ring generator, which moves all 2 radius + 1 momenta."""

    T = 0.6

    @pytest.fixture(params=HALF_SPECTRUM_CASES, ids=lambda c: "d%d-r%d-i%d" % c)
    def case(self, request):
        d, radius, i0 = request.param
        rng = np.random.default_rng([d, radius, i0 + radius])
        return BlockGenerator(random_coin(rng, d), radius), random_density(rng, d), i0

    def test_blocks_profiles_and_sites(self, case):
        gen, rho, i0 = case
        assert len(gen.symbols) == gen.radius + 1
        sites = np.arange(-gen.radius, gen.radius + 1)
        times = [0.0, self.T / 3.0, self.T]
        ref = [dense_traces(dense_blocks(gen, rho, i0, t)) for t in times]
        ref_blocks = dense_blocks(gen, rho, i0, self.T)
        assert np.abs(evolve(gen, rho, i0, self.T).blocks - ref_blocks).max() <= 1e-13
        profiles = lattice_mod.trace_profile_series(gen, rho, i0, times)
        series = probability_series(gen, rho, i0, sites, times)
        assert np.array_equal(profiles[0], ref[0]) and np.array_equal(series[0], ref[0])
        assert np.abs(profiles - ref).max() <= 1e-13
        assert np.abs(series - ref).max() <= 1e-13
        for j in sites:
            p = transition_probability(gen, rho, i0, int(j), self.T)
            assert abs(p - ref[-1][j + gen.radius]) <= 1e-13

    def test_conditioned_states(self, case):
        gen, rho, i0 = case
        ref = dense_blocks(gen, rho, i0, self.T)
        for q, block in enumerate(ref):
            p = np.trace(block).real
            if p > 1e-3:
                expect = (block + block.conj().T) / (2.0 * p)
                got = conditioned_state(gen, rho, i0, q - gen.radius, self.T)
                assert np.abs(got - expect).max() <= 1e-13

    def test_skeleton_partials(self, case):
        gen, rho, i0 = case
        delta, n_steps = 0.2, 6
        step = scipy.linalg.expm(delta * gen.dense_matrix())
        y = hvec(evolve(gen, rho, i0, 0.0).blocks).ravel()
        terms = []
        for _ in range(n_steps + 1):
            terms.append(dense_traces(hunvec(y.reshape(gen.n_sites, -1))))
            y = step @ y
        ref = np.cumsum(terms, axis=0)
        for q in range(gen.n_sites):
            got = skeleton_partials(gen, rho, i0, q - gen.radius, delta, n_steps)
            assert np.abs(got - ref[:, q]).max() <= 1e-13

    def test_skeleton_term_zero_is_exact(self, case):
        gen, _, i0 = case
        rho = np.eye(gen.coin.dim) / gen.coin.dim
        for j in range(-gen.radius, gen.radius + 1):
            got = skeleton_partials(gen, rho, i0, j, 0.2, 0).tolist()
            assert got == ([1.0] if j == i0 else [0.0])

    @pytest.fixture
    def ungated(self, monkeypatch):
        # The reference is the same ring, so the wrap-around gate is lifted:
        # on these small rings the leak bound never drops below LEAK_TOL.
        monkeypatch.setattr(lattice_mod, "LEAK_TOL", np.inf)

    def test_return_integral(self, case, ungated):
        gen, rho, i0 = case
        horizon = self.T
        n = gen.vec_dim
        start = hvec(evolve(gen, rho, i0, 0.0).blocks).ravel()

        def ref(t):
            aug = np.zeros((n + 1, n + 1), dtype=complex)
            aug[:n, :n] = t * gen.dense_matrix()
            aug[:n, n] = t * start
            column = scipy.linalg.expm(aug)[:n, n]
            return dense_traces(hunvec(column.reshape(gen.n_sites, -1)))[i0 + gen.radius]

        plain = return_integral(gen, rho, i0, horizon)
        full, half = return_integral(gen, rho, i0, horizon, with_half=True)
        for got, t in ((plain, horizon), (full, horizon), (half, horizon / 2.0)):
            assert abs(got - ref(t)) <= 1e-13 * ref(t)

    def test_chapman_kolmogorov_residual(self, case, ungated):
        gen, rho, i0 = case
        alpha, beta = self.T / 3.0, self.T / 2.0
        at_beta = dense_blocks(gen, rho, i0, beta)
        probs = dense_traces(at_beta)
        rhs = 0.0
        for q in np.flatnonzero(probs > lattice_mod.SITE_PROB_FLOOR):
            sigma = (at_beta[q] + at_beta[q].conj().T) / (2.0 * probs[q])
            rhs = rhs + probs[q] * dense_traces(dense_blocks(gen, sigma, q - gen.radius, alpha))
        lhs = dense_traces(dense_blocks(gen, rho, i0, alpha + beta))
        for j in range(-gen.radius, gen.radius + 1):
            res = chapman_kolmogorov_residual(gen, rho, i0, j, alpha, beta)
            assert abs(res - abs(lhs - rhs)[j + gen.radius]) <= 1e-13


class TestTraceRowSteps:
    def test_linspace_steps_share_one_exponential(self, monkeypatch):
        # np.diff(np.linspace(0, 10, 401)) holds 10 distinct floats that
        # differ only by the rounding of the times
        times = np.linspace(0.0, 10.0, 401)
        assert len(set(np.diff(times))) > 1
        rng = np.random.default_rng(11)
        gen = BlockGenerator(random_coin(rng, 2), 8)
        rho = random_density(rng, 2)
        calls = []

        def counted(*args):
            calls.append(args)
            return mat_exp(*args)

        monkeypatch.setattr(lattice_mod, "mat_exp", counted)
        sites = np.arange(-gen.radius, gen.radius + 1)
        series = probability_series(gen, rho, 0, sites, times)
        assert len(calls) == 1
        monkeypatch.undo()
        a = gen.dense_matrix()
        start = hvec(evolve(gen, rho, 0, 0.0).blocks).ravel()
        for t, row in zip(times[::20], series[::20]):
            ref = dense_traces(hunvec((scipy.linalg.expm(t * a) @ start).reshape(gen.n_sites, -1)))
            assert np.abs(row - ref).max() <= 1e-12


class TestProbabilitySeriesMemory:
    def test_one_site_builds_no_profile(self):
        # the (401, 8193) float profile of the whole ring alone is 26 MB
        gen = BlockGenerator(scalar_coin(1.0, 1.0), 4096)
        times = np.linspace(0.0, 10.0, 401)
        tracemalloc.start()
        try:
            p = probability_series(gen, np.eye(1), 0, [0], times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6
        assert abs(p[-1, 0] - bessel_p00(10.0)) <= 1e-13


class TestEvolve:
    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_dense_ring_exponential(self, d):
        rng = np.random.default_rng(60 + d)
        coin = random_coin(rng, d)
        gen = BlockGenerator(coin, 4)
        rho = random_density(rng, d)
        for i0, t in ((0, 0.7), (-3, 1.9)):
            st = evolve(gen, rho, i0, t)
            start = hvec(evolve(gen, rho, i0, 0.0).blocks).ravel()
            expect = mat_exp(gen.dense_matrix(), t) @ start
            got = hvec(st.blocks).ravel()
            assert np.abs(got - expect).max() <= 1e-12

    def test_time_zero_is_initial_state(self):
        coin = diagonal_jumps_coin()
        gen = BlockGenerator(coin, 4)
        rho = np.diag([0.3, 0.7])
        st = evolve(gen, rho, 1, 0.0)
        assert np.allclose(st.block(1), rho, atol=1e-14)
        assert st.total_trace() == pytest.approx(1.0, abs=1e-12)

    def test_bessel_oracle(self):
        gen = BlockGenerator(scalar_coin(1.0, 1.0), 32)
        times = np.linspace(0.0, 5.0, 26)
        series = probability_series(gen, np.eye(1), 0, [0], times)[:, 0]
        for t, p in zip(times, series):
            assert abs(p - bessel_p00(t)) < 1e-6

    def test_three_level_trace_retention(self):
        gen = BlockGenerator(three_level_coin(1.0), 20)
        st = evolve(gen, np.eye(3) / 3.0, 0, 1.0)
        assert st.total_trace() >= 1.0 - 1e-6

    def test_trace_conservation_and_positivity(self):
        rng = np.random.default_rng(53)
        for d in (2, 3):
            coin = random_coin(rng, d)
            radius = choose_radius(coin, 0, 1.0)
            gen = BlockGenerator(coin, radius)
            st = evolve(gen, random_density(rng, d), 0, 1.0)
            assert st.total_trace() + st.leaked_mass == pytest.approx(1.0, abs=1e-8)
            assert st.min_eigenvalue() >= -1e-9
            per_block = min(np.linalg.eigvalsh((b + b.conj().T) / 2.0).min() for b in st.blocks)
            assert st.min_eigenvalue() == per_block

    def test_blocks_stay_hermitian(self):
        coin = three_level_coin(0.0)
        gen = BlockGenerator(coin, 12)
        st = evolve(gen, np.eye(3) / 3.0, 0, 2.0)
        for b in st.blocks:
            assert np.linalg.norm(b - b.conj().T) < 1e-12

    def test_semigroup_composition(self):
        # one integration to t+s equals integrating to t, then restarting
        coin = shared_eigenbasis_coin(1.5, 1.0)
        gen = BlockGenerator(coin, 14)
        rho = np.diag([0.5, 0.5])
        t, s = 0.8, 0.6
        direct = evolve(gen, rho, 0, t + s)
        k = gen.dense_matrix()
        mid = evolve(gen, rho, 0, t)
        stacked = hvec(mid.blocks).ravel()
        final = mat_exp(k, s) @ stacked
        expect = hvec(direct.blocks).ravel()
        assert np.linalg.norm(final - expect) < 1e-8

    def test_rejects_out_of_range_start(self):
        gen = BlockGenerator(scalar_coin(1.0, 1.0), 3)
        with pytest.raises(ValueError):
            evolve(gen, np.eye(1), 7, 1.0)

    def test_monotone_positivity(self):
        # once a site shows mass it keeps showing mass at later times
        for coin, rho in (
            (scalar_coin(1.0, 1.0), np.eye(1)),
            (three_level_coin(0.0), np.eye(3) / 3.0),
        ):
            gen = BlockGenerator(coin, 24)
            times = np.linspace(0.0, 5.0, 51)
            series = probability_series(gen, rho, 0, [0, 1, -2], times)
            for col in series.T:
                seen = False
                for p in col:
                    if seen:
                        assert p > 0.0
                    elif p > 1e-10:
                        seen = True

    def test_diagonal_cone_preserved(self):
        # fully diagonal coin: the ham commutator cannot mix entries either
        coin = validate_coin(
            np.diag([np.sqrt(2.0), np.sqrt(11.0)]),
            np.diag([-np.sqrt(5.0), 2.0 * np.sqrt(2.0)]),
            np.diag([0.7, -0.3]).astype(complex),
        )
        gen = BlockGenerator(coin, 16)
        st = evolve(gen, np.diag([0.5, 0.5]), 0, 2.0)
        for b in st.blocks:
            off = abs(b[0, 1]) + abs(b[1, 0])
            assert off <= 1e-12


class TestTransitionProbability:
    def test_time_zero_indicator(self):
        gen = BlockGenerator(scalar_coin(1.0, 1.0), 8)
        assert transition_probability(gen, np.eye(1), 0, 0, 0.0) == pytest.approx(1.0)
        assert transition_probability(gen, np.eye(1), 0, 3, 0.0) == pytest.approx(0.0)

    def test_scalar_value_at_t1(self):
        gen = BlockGenerator(scalar_coin(1.0, 1.0), 24)
        p = transition_probability(gen, np.eye(1), 0, 0, 1.0)
        assert abs(p - bessel_p00(1.0)) < 1e-9
        assert abs(p - 0.3085) < 5e-4

    def test_return_probability_strictly_positive(self):
        gen = BlockGenerator(three_level_coin(0.0), 16)
        rho = np.eye(3) / 3.0
        for t in (0.1, 0.5, 1.0, 3.0):
            assert transition_probability(gen, rho, 0, 0, t) > 0.0


class TestConditionedState:
    def test_beta_zero_returns_initial(self):
        coin = diagonal_jumps_coin()
        gen = BlockGenerator(coin, 6)
        rho = np.diag([0.25, 0.75])
        out = conditioned_state(gen, rho, 0, 0, 0.0)
        assert np.allclose(out, rho, atol=1e-12)

    def test_scalar_conditioning_is_trivial(self):
        gen = BlockGenerator(scalar_coin(1.0, 1.0), 12)
        out = conditioned_state(gen, np.eye(1), 0, 1, 0.7)
        assert out.shape == (1, 1)
        assert out[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_coin_stays_diagonal(self):
        coin = validate_coin(
            np.diag([1.0, 2.0]), np.diag([1.5, 0.5]), np.diag([0.4, 0.1]).astype(complex)
        )
        gen = BlockGenerator(coin, 10)
        out = conditioned_state(gen, np.diag([0.5, 0.5]), 0, 1, 0.9)
        assert abs(out[0, 1]) < 1e-12
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)

    def test_rejects_negligible_site(self):
        gen = BlockGenerator(scalar_coin(1.0, 1.0), 30)
        with pytest.raises(ValueError):
            conditioned_state(gen, np.eye(1), 0, 29, 0.01)

    def test_a_stack_conditions_each_block_as_alone(self):
        # One stacked eigh over the occupied sites gives each site's state bit
        # for bit, and a failure names the first offending site.
        rng = np.random.default_rng(13)
        for d in (2, 3):
            gen = BlockGenerator(random_coin(rng, d), 8)
            blocks = lattice_mod._blocks(gen, hvec(random_density(rng, d)), 0, 0.4)
            sites = np.arange(-8, 9)
            stacked = lattice_mod._condition_blocks(blocks, sites)
            for block, site, got in zip(blocks, sites, stacked):
                assert np.array_equal(lattice_mod._condition_blocks(block[None], [site])[0], got)
        light = np.array([np.eye(2) / 2.0, np.zeros((2, 2)), np.diag([1e-9, 0.0])])
        with pytest.raises(ValueError, match="^site 5 carries probability 0.000e"):
            lattice_mod._condition_blocks(light, [4, 5, 6])
        bent = np.array([np.eye(2) / 2.0, np.diag([1.0, -0.1]), np.diag([1.0, -0.2])])
        with pytest.raises(ArithmeticError, match="at site -1 has eigenvalue -1.111e-01"):
            lattice_mod._condition_blocks(bent, [-2, -1, 0])


class TestChapmanKolmogorov:
    def test_zero_time_identities(self):
        gen = BlockGenerator(three_level_coin(0.0), 10)
        rho = np.eye(3) / 3.0
        assert chapman_kolmogorov_residual(gen, rho, 0, 1, 0.0, 0.5) <= 1e-12
        assert chapman_kolmogorov_residual(gen, rho, 0, 1, 0.5, 0.0) <= 1e-12

    def test_diagonal_fixture_composition(self):
        coin = diagonal_jumps_coin(3.0)
        radius = choose_radius(coin, 0, 1.4)
        gen = BlockGenerator(coin, radius)
        rho = np.diag([0.5, 0.5])
        res = chapman_kolmogorov_residual(gen, rho, 0, 1, 0.7, 0.7)
        assert res <= 1e-7

    def test_random_split_times(self):
        coin = shared_eigenbasis_coin(1.0, 2.0)
        radius = choose_radius(coin, 0, 2.0)
        gen = BlockGenerator(coin, radius)
        rho = random_density(np.random.default_rng(54), 2)
        rng = np.random.default_rng(55)
        for _ in range(3):
            alpha, beta = rng.uniform(0.05, 1.0, size=2)
            assert chapman_kolmogorov_residual(gen, rho, 0, 1, alpha, beta) <= 1e-7

    def test_equal_times_share_one_exponential(self, monkeypatch):
        # at alpha == beta the propagator to alpha also carries the walk to
        # beta; the left side keeps its own exponential at alpha + beta
        gen = BlockGenerator(three_level_coin(0.0), 24)
        times = []

        def counting(m, t=1.0):
            if m is gen.symbols:
                times.append(t)
            return mat_exp(m, t)

        monkeypatch.setattr(lattice_mod, "mat_exp", counting)
        rho = np.eye(3) / 3.0
        equal = chapman_kolmogorov_residual(gen, rho, 0, 1, 0.7, 0.7)
        assert sorted(times) == [0.7, 1.4]
        times.clear()
        split = chapman_kolmogorov_residual(gen, rho, 0, 1, 0.5, 0.9)
        assert sorted(times) == [0.5, 0.9, 1.4]
        assert equal <= 1e-12 and split <= 1e-12

    @pytest.mark.parametrize("coin", [three_level_coin(0.0), shared_eigenbasis_coin(1.0, 2.0)]
                             + [random_coin(np.random.default_rng(60 + k), 2 + k % 2)
                                for k in range(4)])
    def test_batched_launches_match_per_launch_sum(self, coin):
        rho = random_density(np.random.default_rng(64), coin.dim)
        for alpha, beta, j in ((0.1, 0.1, 1), (0.7, 0.7, 0), (0.3, 1.2, -1)):
            gen = BlockGenerator(coin, choose_radius(coin, 0, alpha + beta, rho))
            batched = chapman_kolmogorov_residual(gen, rho, 0, j, alpha, beta)
            assert abs(batched - per_launch_residual(gen, rho, 0, j, alpha, beta)) <= 1e-15


class TestReturnIntegral:
    def test_matches_bessel_integral(self):
        gen = BlockGenerator(scalar_coin(1.0, 1.0), 256)
        val = return_integral(gen, np.eye(1), 0, 100.0)
        ref, err = scipy.integrate.quad(bessel_p00, 0.0, 100.0, limit=400)
        assert err < 1e-8
        assert abs(val - ref) / ref < 0.02
        # large-horizon asymptote sqrt(T/pi)
        assert abs(val - np.sqrt(100.0 / np.pi)) / val < 0.02

    def test_short_horizon_slope(self):
        gen = BlockGenerator(scalar_coin(1.0, 1.0), 8)
        eps = 0.01
        val = return_integral(gen, np.eye(1), 0, eps)
        assert abs(val / eps - 1.0) < 2.5 * eps

    def test_quadrature_consistency(self):
        # the closed form agrees with adaptive quadrature of e^{-2t} I0(2t)
        gen = BlockGenerator(scalar_coin(1.0, 1.0), 64)
        for horizon in (0.5, 10.0):
            val = return_integral(gen, np.eye(1), 0, horizon)
            ref, _ = scipy.integrate.quad(bessel_p00, 0.0, horizon, limit=200,
                                          epsabs=1e-14, epsrel=1e-13)
            assert abs(val - ref) <= 1e-10 * ref

    def test_short_horizon_on_a_small_ring(self):
        # the leak bound at T = 0.01 on the radius-3 ring is about 4e-9, so
        # the value is certified instead of refused
        gen = BlockGenerator(scalar_coin(1.0, 1.0), 3)
        ref, _ = scipy.integrate.quad(bessel_p00, 0.0, 0.01, epsabs=0.0, epsrel=1e-12)
        assert abs(ref - 0.00990099172) <= 1e-9 * ref
        assert abs(return_integral(gen, np.eye(1), 0, 0.01) - ref) <= 1e-9 * ref

    def test_leak_breach_raises(self):
        gen = BlockGenerator(scalar_coin(1.0, 1.0), 4)
        with pytest.raises(RuntimeError):
            return_integral(gen, np.eye(1), 0, 50.0)

    def test_benchmark_scalar_ring_matches_bessel_quadrature(self):
        # the lattice benchmark's scalar case: radius 2048, T = 100
        gen = BlockGenerator(scalar_coin(1.0, 1.0), 2048)
        ref = scipy.integrate.quad(bessel_p00, 0.0, 100.0, limit=400,
                                   epsabs=1e-12, epsrel=1e-12)[0]
        assert abs(return_integral(gen, np.eye(1), 0, 100.0) - ref) <= 1e-9 * ref

    def test_half_value_is_the_value_at_half_the_horizon(self):
        rng = np.random.default_rng(70)
        for coin in (three_level_coin(0.0), random_coin(rng, 2), scalar_coin(2.0, 1.0)):
            rho = random_density(rng, coin.dim)
            gen = BlockGenerator(coin, choose_radius(coin, 0, 20.0, rho))
            half = return_integral(gen, rho, 0, 20.0, with_half=True)[1]
            assert abs(half - return_integral(gen, rho, 0, 10.0)) <= 1e-13 * abs(half)

    def test_exponentiates_the_symbols_only(self, monkeypatch):
        # one stack of d^2 x d^2 symbols per call, never the (d^2 + 1)-square
        # augmented one; the leak bound's exponentials are stacks of two
        shapes = []

        def counted(m, t=1.0):
            shapes.append(np.shape(m))
            return mat_exp(m, t)

        monkeypatch.setattr(lattice_mod, "mat_exp", counted)
        monkeypatch.setattr(linalg_mod, "mat_exp", counted)
        gen = BlockGenerator(three_level_coin(0.0), 16)
        rho = np.eye(3) / 3.0
        for with_half in (False, True):
            shapes.clear()
            return_integral(gen, rho, 0, 2.0, with_half=with_half)
            assert all(shape[-2:] == (9, 9) for shape in shapes)
            assert shapes.count((gen.radius + 1, 9, 9)) == 1


class TestSkeleton:
    def test_n_zero_is_indicator(self):
        gen = BlockGenerator(scalar_coin(1.0, 1.0), 8)
        assert skeleton_partials(gen, np.eye(1), 0, 0, 1.0, 0)[-1] == pytest.approx(1.0)
        assert skeleton_partials(gen, np.eye(1), 0, 2, 1.0, 0)[-1] == pytest.approx(0.0)

    def test_partials_match_bessel_sums(self):
        gen = BlockGenerator(scalar_coin(1.0, 1.0), 128)
        partials = skeleton_partials(gen, np.eye(1), 0, 0, 1.0, 50)
        ref = np.cumsum([bessel_p00(float(n)) for n in range(51)])
        assert np.max(np.abs(partials - ref)) < 1e-6

    def test_matches_dense_ring_powers(self):
        coin = shared_eigenbasis_coin(1.5, 1.0)
        gen = BlockGenerator(coin, 20)
        rho = np.diag([0.5, 0.5])
        partials = skeleton_partials(gen, rho, 0, 1, 0.5, 8)
        step = mat_exp(gen.dense_matrix(), 0.5)
        y = hvec(evolve(gen, rho, 0, 0.0).blocks).ravel()
        lo = (1 + gen.radius) * 4
        terms = []
        for _ in range(9):
            terms.append(y[lo] + y[lo + 1])
            y = step @ y
        assert np.max(np.abs(partials - np.cumsum(np.real(terms)))) < 1e-12

    def test_recurrent_growth_character(self):
        gen = BlockGenerator(scalar_coin(1.0, 1.0), 256)
        s100 = skeleton_partials(gen, np.eye(1), 0, 0, 1.0, 100)[-1]
        s400 = skeleton_partials(gen, np.eye(1), 0, 0, 1.0, 400)[-1]
        assert 1.8 <= s400 / s100 <= 2.2

    def test_rejects_bad_delta(self):
        gen = BlockGenerator(scalar_coin(1.0, 1.0), 8)
        with pytest.raises(ValueError):
            skeleton_partials(gen, np.eye(1), 0, 0, -1.0, 5)


class TestScaleCovariance:
    # (C, A, H) -> (sC, sA, s^2 H) runs the same walk s^2 times faster
    @pytest.mark.parametrize("s", [2.0, 0.1])
    def test_return_integral_and_skeleton(self, s):
        coin = three_level_coin(0.0)
        fast = validate_coin(s * coin.left, s * coin.right, s * s * coin.ham)
        rho = np.eye(3) / 3.0
        gen, gen_fast = BlockGenerator(coin, 32), BlockGenerator(fast, 32)
        s2 = s * s
        plain = return_integral(gen, rho, 0, 5.0)
        scaled = s2 * return_integral(gen_fast, rho, 0, 5.0 / s2)
        assert abs(scaled - plain) <= 1e-12 * plain
        a = skeleton_partials(gen, rho, 0, 1, 0.5, 10)
        b = skeleton_partials(gen_fast, rho, 0, 1, 0.5 / s2, 10)
        assert np.max(np.abs(a - b)) <= 1e-12
        # the single-time reads and the profile, time zero included
        times = np.array([0.0, 0.5, 2.0, 5.0])
        profiles = trace_profile_series(gen, rho, 0, times)
        assert np.abs(trace_profile_series(gen_fast, rho, 0, times / s2) - profiles).max() <= 1e-13
        st, st_fast = evolve(gen, rho, 0, 5.0), evolve(gen_fast, rho, 0, 5.0 / s2)
        assert np.abs(st_fast.blocks - st.blocks).max() <= 1e-13
        assert abs(st_fast.leaked_mass - st.leaked_mass) <= 1e-13
        for j in (0, 1, -3):
            p = transition_probability(gen, rho, 0, j, 5.0)
            assert abs(transition_probability(gen_fast, rho, 0, j, 5.0 / s2) - p) <= 1e-13
            res = chapman_kolmogorov_residual(gen, rho, 0, j, 2.0, 3.0)
            res_fast = chapman_kolmogorov_residual(gen_fast, rho, 0, j, 2.0 / s2, 3.0 / s2)
            assert abs(res_fast - res) <= 1e-13


class TestSymmetryCovariance:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_profile_mirrors_under_swap_and_ignores_basis_change(self, d):
        # C <-> A mirrors the walk, p_j <-> p_{-j}, from I/d at i0 = 0; a
        # unitary change of internal basis, applied to the coin and to rho0,
        # leaves the profile as it was
        rng = np.random.default_rng(200 + d)
        coin = random_coin(rng, d)
        radius, times = 6, [0.0, 0.3, 1.2]
        mixed = np.eye(d) / d
        profile = trace_profile_series(BlockGenerator(coin, radius), mixed, 0, times)
        mirror = validate_coin(coin.right, coin.left, coin.ham)
        flipped = trace_profile_series(BlockGenerator(mirror, radius), mixed, 0, times)
        assert np.abs(flipped - profile[:, ::-1]).max() <= 1e-13
        u = random_unitary(rng, d)
        turned = validate_coin(*(u @ m @ u.conj().T for m in (coin.left, coin.right, coin.ham)))
        rho = random_density(rng, d)
        plain = trace_profile_series(BlockGenerator(coin, radius), rho, 0, times)
        rotated = trace_profile_series(BlockGenerator(turned, radius),
                                       u @ rho @ u.conj().T, 0, times)
        assert np.abs(rotated - plain).max() <= 1e-13


class TestLeakBound:
    @pytest.mark.parametrize("d", [2, 3])
    def test_bounds_outside_mass_on_larger_ring(self, d):
        rng = np.random.default_rng(70 + d)
        coin = random_coin(rng, d)
        rho = random_density(rng, d)
        for radius, i0, t in ((6, 0, 1.0), (8, 3, 2.0), (12, -2, 4.0), (16, 1, 1.0)):
            outside = outside_mass(coin, rho, i0, radius, t, 4)
            bound = leak_bound(coin, rho, i0, radius, t)
            assert evolve(BlockGenerator(coin, radius), rho, i0, t).leaked_mass == bound
            assert outside <= bound
            assert bound < 1.0 or outside > 1e-3

    def test_decoupled_fast_level_keeps_a_true_bound(self):
        # C = A = diag(1, 10): the spectral abscissa belongs to the fast level,
        # which rho never reaches, so the moment shifted by it underflows. That
        # edge must give the trivial bound 1, never 0.
        coin = validate_coin(np.diag([1.0, 10.0]), np.diag([1.0, 10.0]), np.zeros((2, 2)))
        rho = np.diag([1.0, 0.0])
        for radius, t in ((8, 10.0), (16, 10.0), (12, 20.0)):
            assert leak_bound(coin, rho, 0, radius, t) >= outside_mass(coin, rho, 0, radius, t, 8)
        try:
            radius = choose_radius(coin, 0, 10.0, rho)
        except RuntimeError:
            return
        assert outside_mass(coin, rho, 0, radius, 10.0, 8) < lattice_mod.LEAK_TOL

    @pytest.mark.parametrize("source", [*sorted(p.name for p in COINS.glob("*.json")),
                                        *range(16)])
    def test_within_twice_the_exact_theta_bound(self, source):
        # Shipped coins start maximally mixed, as the CLI and choose_radius do;
        # random coins start in random states.
        if isinstance(source, str):
            coin = load_coin(COINS / source)
            rho = np.eye(coin.dim) / coin.dim
        else:
            rng = np.random.default_rng(80 + source)
            coin = random_coin(rng, 2 + source % 2)
            rho = random_density(rng, coin.dim)
        for t in (0.1, 1.0, 10.0, 100.0):
            for radius in (8, 16, 32, 64, 128, 256):
                for i0 in (0, 3):
                    bound = leak_bound(coin, rho, i0, radius, t)
                    oracle = exact_theta_leak_bound(coin, rho, i0, radius, t)
                    assert bound <= 2.0 * oracle
                    assert (bound < lattice_mod.LEAK_TOL) == (oracle < lattice_mod.LEAK_TOL)

    def test_decoupled_levels_loosen_by_at_most_the_inverse_weight(self):
        # In the shared eigenbasis the two levels walk independently. Each
        # edge's theta is optimal for the level that dominates there, so the
        # bound exceeds the exact-theta one by at most 1 / (smaller level weight).
        coin = shared_eigenbasis_coin(1.0, 0.5)
        basis = shared_basis_vectors()
        for w in (0.5, 0.2, 0.05):
            rho = basis @ np.diag([w, 1.0 - w]) @ basis.conj().T
            for radius, t in ((8, 1.0), (16, 4.0), (32, 10.0)):
                bound = leak_bound(coin, rho, 0, radius, t)
                assert bound >= outside_mass(coin, rho, 0, radius, t, 4)
                assert bound <= exact_theta_leak_bound(coin, rho, 0, radius, t) / w

    @pytest.mark.parametrize("source", [*sorted(p.name for p in COINS.glob("*.json")),
                                        *range(16)])
    def test_matches_the_complex_form(self, source):
        # The real form changes only the rounding of lambda(theta): the bound
        # stays within 1e-9 of the complex-symbol search over the same range.
        if isinstance(source, str):
            coin = load_coin(COINS / source)
            rho = np.eye(coin.dim) / coin.dim
        else:
            rng = np.random.default_rng(90 + source)
            coin = random_coin(rng, 1 + source % 3)
            rho = random_density(rng, coin.dim)
        for t in (0.1, 1.0, 10.0, 100.0):
            for radius in (8, 16, 32, 64, 128, 256):
                for i0 in (0, 3):
                    bound = leak_bound(coin, rho, i0, radius, t)
                    ref = complex_leak_bound(coin, rho, i0, radius, t)
                    assert abs(bound - ref) <= 1e-9 * ref

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_real_form_has_the_complex_abscissa(self, d):
        # Coin.symbol is the vec-basis symbol rotated into the Hermitian
        # basis, whose imaginary part is round-off. ||M|| is taken as
        # ||S|| + e^theta ||R|| + e^-theta ||L||: at d = 1 and theta = 0 the
        # symbol cancels to round-off, M = 0.
        rng = np.random.default_rng(100 + d)
        basis = hermitian_basis(d)
        assert np.abs(basis.conj().T @ basis - np.eye(d * d)).max() <= 1e-15
        for _ in range(4):
            coin = random_coin(rng, d)
            parts = vec_symbol(coin)
            real = [basis.conj().T @ p @ basis for p in parts]
            for r, p, q in zip(real, parts, coin.symbol):
                assert np.abs(r.imag).max() <= 1e-15 * np.linalg.norm(p, 2)
                assert q.dtype == np.float64 and np.array_equal(q, r.real)
            memo = lattice_mod._leak_memo(coin)
            for theta in np.linspace(-5.0, 5.0, 21):
                weights = (1.0, np.exp(theta), np.exp(-theta))
                m = sum(w * p for w, p in zip(weights, parts))
                scale = sum(w * np.linalg.norm(p, 2) for w, p in zip(weights, parts))
                tilted, w_r, w_l = lattice_mod._tilted(memo, 1.0, 1, theta)
                got = lattice_mod._perron(memo, tilted, 1, w_r, w_l, 1)[0]
                assert abs(got - np.linalg.eigvals(m).real.max()) <= 1e-12 * scale

    def test_a_crossing_at_the_minimiser_holds_still(self, monkeypatch):
        # three_level_c0's left edge at t = 10 from I/3 on radius 8: two real
        # eigenvalues of the tilted symbol cross at the minimiser, where
        # lambda(theta) - theta D has a kink. The search lands on the crossing
        # itself, so neither the range it runs over nor the rounding moves
        # the bound.
        rho = np.eye(3) / 3.0
        bounds, thetas = [], []
        for top in (4.917, 4.796):
            monkeypatch.setattr(lattice_mod, "_theta_max", lambda dist, t_rate, top=top: top)
            coin = load_coin(COINS / "three_level_c0.json")
            bounds.append(leak_bound(coin, rho, 0, 8, 10.0))
            memo = lattice_mod._leak_memo(coin)
            thetas.append(lattice_mod._edge_tilt(memo, 10.0, -1, 9, top)[0])
        assert abs(bounds[0] - bounds[1]) <= 1e-12 * bounds[1]
        assert thetas[0] == pytest.approx(1.17125062854, abs=1e-10)
        assert abs(thetas[0] - thetas[1]) <= 1e-12
        top_two = np.sort(np.linalg.eigvals(lattice_mod._tilted(memo, 10.0, -1, thetas[0])[0]).real)
        assert top_two[-1] - top_two[-2] <= 1e-9 * top_two[-1]

    def test_a_warm_window_gives_the_cold_bound(self):
        # Each case on a fresh coin is cold; on one coin every repeat is read
        # from its memo, bit for bit the same, and so is evolve's leak.
        rng = np.random.default_rng(11)
        coin = random_coin(rng, 3)
        rho = random_density(rng, 3)
        cases = [(radius, i0, t) for radius in (8, 16) for i0 in (0, -3) for t in (0.5, 4.0)]
        cold = [leak_bound(validate_coin(coin.left, coin.right, coin.ham), rho, i0, radius, t)
                for radius, i0, t in cases]
        first = [leak_bound(coin, rho, i0, radius, t) for radius, i0, t in cases]
        warm = [leak_bound(coin, rho, i0, radius, t) for radius, i0, t in cases]
        assert first == cold and warm == cold
        assert [evolve(BlockGenerator(coin, radius), rho, i0, t).leaked_mass
                for radius, i0, t in cases] == cold

    def test_the_memo_keeps_eight_windows_and_goes_with_its_coin(self):
        coin = random_coin(np.random.default_rng(12), 2)
        for radius in range(8, 20):
            leak_bound(coin, np.eye(2) / 2.0, 0, radius, 1.0)
        leak_bound(coin, np.eye(2) / 2.0, 0, 12, 1.0)  # a hit moves to the back
        windows = list(lattice_mod._LEAK_MEMOS[coin].windows)
        assert len(windows) == lattice_mod.LEAK_MEMO_WINDOWS == 8
        assert [right - 1 for _, right, _ in windows] == [*range(13, 20), 12]
        alive = weakref.ref(coin)
        gc.collect()
        count = len(lattice_mod._LEAK_MEMOS)
        del coin
        gc.collect()
        assert alive() is None and len(lattice_mod._LEAK_MEMOS) == count - 1

    def test_two_point_one_evaluations_per_search_at_most(self, monkeypatch):
        # Over the shipped coins and the grid of test_within_twice_the_exact_theta_bound
        # the theta searches average at most 2.1 LAPACK dgeev calls each.
        calls = {"dgeev": 0, "searches": 0}
        dgeev, edge_tilt = lattice_mod.dgeev, lattice_mod._edge_tilt

        def counted_dgeev(*args, **kwargs):
            calls["dgeev"] += 1
            return dgeev(*args, **kwargs)

        def counted_search(*args):
            calls["searches"] += 1
            return edge_tilt(*args)

        monkeypatch.setattr(lattice_mod, "dgeev", counted_dgeev)
        monkeypatch.setattr(lattice_mod, "_edge_tilt", counted_search)
        paths = sorted(COINS.glob("*.json"))
        for path in paths:
            coin = load_coin(path)
            rho = np.eye(coin.dim) / coin.dim
            for t in (0.1, 1.0, 10.0, 100.0):
                for radius in (8, 16, 32, 64, 128, 256):
                    for i0 in (0, 3):
                        leak_bound(coin, rho, i0, radius, t)
        assert calls["searches"] == 2 * 48 * len(paths)
        assert calls["dgeev"] <= 2.1 * calls["searches"]

    @pytest.mark.parametrize("a, b, dist", [(1.0, 0.0, -1.0), (1.0, 0.0, 0.0),
                                            (1.0, -1.0, -3.0), (0.0, 1.0, 1.0),
                                            (1.0, -1.0, 1.0)])
    def test_exp_root_is_none_without_a_real_root(self, a, b, dist):
        # a e^theta - b e^-theta = dist has no real root in any case; with
        # b = 0 and dist <= 0, e^theta = dist / a would not be positive
        assert lattice_mod._exp_root(a, b, dist) is None

    @pytest.mark.parametrize("t", [1e-4, 1e-8])
    def test_vanishes_with_time_from_an_edge_start(self, t):
        # One jump to the right leaves the radius-3 ring from site 3, with
        # probability about t; the theta range grows as t -> 0, so the bound
        # follows (e t) instead of stalling at 1/9.
        coin = scalar_coin(1.0, 1.0)
        bound = leak_bound(coin, np.eye(1), 3, 3, t)
        assert outside_mass(coin, np.eye(1), 3, 3, t, 8) <= bound <= 3.0 * t

    @pytest.mark.parametrize("s", [0.3, 2.5])
    def test_scale_covariant_at_every_time(self, s):
        # theta's range depends on t only through t rate_scale, so the
        # rescaled coin (sC, sA, s^2 H) at t / s^2 gives the same bound
        rng = np.random.default_rng(7)
        for coin, rho in ((scalar_coin(1.0, 1.0), np.eye(1)),
                          (random_coin(rng, 2), random_density(rng, 2))):
            fast = validate_coin(s * coin.left, s * coin.right, s * s * coin.ham)
            for t in (1e-8, 1e-4, 0.1, 1.0, 10.0):
                for radius, i0 in ((3, 3), (3, 0), (16, -2)):
                    plain = leak_bound(coin, rho, i0, radius, t)
                    scaled = leak_bound(fast, rho, i0, radius, t / (s * s))
                    assert abs(scaled - plain) <= 1e-9 * plain

    def test_zero_time_and_range(self):
        coin = scalar_coin(1.0, 1.0)
        assert leak_bound(coin, np.eye(1), 0, 3, 0.0) == 0.0
        with pytest.raises(ValueError):
            leak_bound(coin, np.eye(1), 5, 3, 1.0)

    def test_reads_the_cached_real_symbol_with_no_products(self):
        # A coin whose matrices are NaN but whose cached symbol and rate scale
        # are three_level_c0's gives that coin's bounds: the bound reads
        # Coin.symbol alone. The symbol arrays refuse every matrix product,
        # so no basis product (or rebuild) touches them within a call.
        class NoProducts(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                assert ufunc is not np.matmul, "matrix product with the symbol"
                plain = [np.asarray(x) if isinstance(x, NoProducts) else x for x in inputs]
                return np.asarray(getattr(ufunc, method)(*plain, **kwargs)).view(NoProducts)

        coin = load_coin(COINS / "three_level_c0.json")
        rho = np.eye(3) / 3.0
        cases = [(radius, i0, t) for radius in (8, 32) for i0 in (0, 3) for t in (0.5, 10.0)]
        expect = [leak_bound(coin, rho, i0, radius, t) for radius, i0, t in cases]
        nan = np.full((3, 3), np.nan)
        ghost = Coin(left=nan, right=nan, ham=nan, dim=3)
        ghost.__dict__.update(symbol=tuple(p.view(NoProducts) for p in coin.symbol),
                              rate_scale=coin.rate_scale)
        assert [leak_bound(ghost, rho, i0, radius, t) for radius, i0, t in cases] == expect

    def test_rejects_state_of_wrong_dimension(self):
        coin = three_level_coin(0.0)
        with pytest.raises(ValueError, match="1x1, expected d=3"):
            leak_bound(coin, np.eye(1), 0, 3, 1.0)
        with pytest.raises(ValueError, match="1x1, expected d=3"):
            evolve(BlockGenerator(coin, 3), np.eye(1), 0, 1.0)


class TestChooseRadius:
    def test_scalar_radius_controls_leak(self):
        radius = choose_radius(scalar_coin(1.0, 1.0), 0, 5.0)
        gen = BlockGenerator(scalar_coin(1.0, 1.0), radius)
        st = evolve(gen, np.eye(1), 0, 5.0)
        assert st.leaked_mass < 1e-8

    def test_radius_covers_start_site(self):
        radius = choose_radius(scalar_coin(1.0, 1.0), 20, 1.0)
        assert radius >= 40

    def test_respects_custom_tolerance(self, monkeypatch):
        radii = []
        for tol in (1e-3, 1e-10):
            monkeypatch.setattr(lattice_mod, "LEAK_TOL", tol)
            radii.append(choose_radius(scalar_coin(1.0, 1.0), 0, 5.0))
        assert radii[0] < radii[1]


class TestArgumentChecks:
    # NaN fails every comparison, so each time check must also ask for a
    # finite value; otherwise NaN or inf reaches mat_exp or LAPACK.
    CALLS = {
        "evolve": lambda gen, t: evolve(gen, np.eye(1), 0, t),
        "transition_probability": lambda gen, t: transition_probability(gen, np.eye(1), 0, 0, t),
        "conditioned_state": lambda gen, t: conditioned_state(gen, np.eye(1), 0, 0, t),
        "leak_bound": lambda gen, t: leak_bound(gen.coin, np.eye(1), 0, gen.radius, t),
        "choose_radius": lambda gen, t: choose_radius(gen.coin, 0, t),
        "return_integral": lambda gen, t: return_integral(gen, np.eye(1), 0, t),
        "skeleton_partials": lambda gen, t: skeleton_partials(gen, np.eye(1), 0, 0, t, 3),
        "trace_profile_series": lambda gen, t: lattice_mod.trace_profile_series(
            gen, np.eye(1), 0, [0.0, 0.5, t]),
        "ck_alpha": lambda gen, t: chapman_kolmogorov_residual(gen, np.eye(1), 0, 0, t, 0.5),
        "ck_beta": lambda gen, t: chapman_kolmogorov_residual(gen, np.eye(1), 0, 0, 0.5, t),
    }

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("entry", sorted(CALLS))
    def test_rejects_non_finite_time(self, entry, value):
        gen = BlockGenerator(scalar_coin(1.0, 1.0), 4)
        with pytest.raises(ValueError, match="finite"):
            self.CALLS[entry](gen, value)

    @pytest.mark.parametrize(
        "call",
        [transition_probability, conditioned_state,
         # short enough that the leak bound at alpha+beta passes on this ring
         lambda g, r, i0, j, t: chapman_kolmogorov_residual(g, r, i0, j, 0.01, 0.01)],
        ids=["transition_probability", "conditioned_state", "chapman_kolmogorov_residual"])
    def test_off_ring_site_is_a_value_error(self, call):
        # the same error as probability_series and skeleton_partials, so the
        # CLI reports it as a validation failure
        gen = BlockGenerator(scalar_coin(1.0, 1.0), 4)
        with pytest.raises(ValueError, match="site 5 outside truncation radius 4"):
            call(gen, np.eye(1), 0, 5, 1.0)

    # Each site and start site of the lattice and sampler entry points, as
    # (entry, argument, call with that argument set to x).
    SITE_CALLS = [
        ("evolve", "i0", lambda g, r, x: evolve(g, r, x, 1.0)),
        ("evolve_t0", "i0", lambda g, r, x: evolve(g, r, x, 0.0)),
        ("probability_series", "i0", lambda g, r, x: probability_series(g, r, x, [0], [1.0])),
        ("probability_series", "sites", lambda g, r, x: probability_series(g, r, 0, [x], [1.0])),
        ("trace_profile_series", "i0", lambda g, r, x: trace_profile_series(g, r, x, [1.0])),
        ("transition_probability", "i0", lambda g, r, x: transition_probability(g, r, x, 0, 1.0)),
        ("transition_probability", "j", lambda g, r, x: transition_probability(g, r, 0, x, 1.0)),
        ("conditioned_state", "i0", lambda g, r, x: conditioned_state(g, r, x, 0, 1.0)),
        ("conditioned_state", "k", lambda g, r, x: conditioned_state(g, r, 0, x, 1.0)),
        ("chapman_kolmogorov_residual", "i0",
         lambda g, r, x: chapman_kolmogorov_residual(g, r, x, 0, 0.5, 0.5)),
        ("chapman_kolmogorov_residual", "j",
         lambda g, r, x: chapman_kolmogorov_residual(g, r, 0, x, 0.5, 0.5)),
        ("return_integral", "i0", lambda g, r, x: return_integral(g, r, x, 1.0)),
        ("skeleton_partials", "i0", lambda g, r, x: skeleton_partials(g, r, x, 0, 0.5, 2)),
        ("skeleton_partials", "j", lambda g, r, x: skeleton_partials(g, r, 0, x, 0.5, 2)),
        ("leak_bound", "i0", lambda g, r, x: leak_bound(g.coin, r, x, g.radius, 1.0)),
        ("choose_radius", "i0", lambda g, r, x: choose_radius(g.coin, x, 1.0, r)),
        ("simulate_path", "i0", lambda g, r, x: simulate_path(g.coin, x, r, 1.0, path_rng(0, 0))),
        ("sample_sites", "i0", lambda g, r, x: sample_sites(g.coin, r, 1.0, 2, 0, i0=x)),
        ("sample_sites", "n_paths", lambda g, r, x: sample_sites(g.coin, r, 1.0, x, 0)),
    ]

    @pytest.mark.parametrize("entry,arg,call", SITE_CALLS,
                             ids=[f"{e}-{a}" for e, a, _ in SITE_CALLS])
    def test_sites_must_be_integers(self, entry, arg, call):
        # a fractional site is refused, not truncated or rounded to a site
        gen = BlockGenerator(three_level_coin(0.0), 16)
        rho = np.eye(3) / 3.0
        with pytest.raises(TypeError, match=f"{arg} must be an integer, got 0.5"):
            call(gen, rho, 0.5)
        call(gen, rho, np.int64(1))

    def test_radius_must_be_an_integer(self):
        # a fractional radius is refused, not truncated to the radius below
        with pytest.raises(TypeError, match="radius must be an integer, got 2.7"):
            BlockGenerator(scalar_coin(1.0, 1.0), 2.7)
        assert BlockGenerator(scalar_coin(1.0, 1.0), np.int64(2)).radius == 2
        # nor is it read as a fractional edge distance by the leak bound
        with pytest.raises(TypeError, match="radius must be an integer, got 8.5"):
            leak_bound(scalar_coin(1.0, 1.0), np.eye(1), 0, 8.5, 1.0)
        assert leak_bound(scalar_coin(1.0, 1.0), np.eye(1), 0, np.int64(8), 1.0) < 1e-3

    def test_n_steps_must_be_an_integer(self):
        gen = BlockGenerator(scalar_coin(1.0, 1.0), 4)
        with pytest.raises(TypeError, match="n_steps must be an integer, got 2.5"):
            skeleton_partials(gen, np.eye(1), 0, 0, 1.0, 2.5)
        assert len(skeleton_partials(gen, np.eye(1), 0, 0, 1.0, np.int64(2))) == 3

    # Refusals no other test reaches, as (call, exception, message).
    REFUSALS = {
        "skeleton-negative-n": (
            lambda: skeleton_partials(BlockGenerator(scalar_coin(1.0, 1.0), 4),
                                      np.eye(1), 0, 0, 1.0, -1),
            ValueError, "n_steps must be nonnegative"),
        "block-generator-radius-0": (
            lambda: BlockGenerator(scalar_coin(1.0, 1.0), 0),
            ValueError, "radius must be at least 1"),
        # no bound is evaluated: no ring up to MAX_RADIUS holds the start site
        "choose-radius-start-site": (
            lambda: choose_radius(scalar_coin(1.0, 1.0), lattice_mod.MAX_RADIUS // 2 + 1, 1.0),
            ValueError, f"start site {lattice_mod.MAX_RADIUS // 2 + 1} needs a radius"),
        "choose-radius-exhausted": (
            lambda: choose_radius(scalar_coin(1.0, 1.0), 0, 1e8),
            RuntimeError, f"no radius up to {lattice_mod.MAX_RADIUS}"),
        # leak bound 5.6e-2 at alpha+beta = 10 on radius 8
        "ck-leak": (
            lambda: chapman_kolmogorov_residual(BlockGenerator(three_level_coin(0.0), 8),
                                                np.eye(3) / 3.0, 0, 0, 5.0, 5.0),
            RuntimeError, "truncation leak bound"),
    }

    @pytest.mark.parametrize("case", sorted(REFUSALS))
    def test_refusals(self, case):
        call, error, message = self.REFUSALS[case]
        with pytest.raises(error, match=message):
            call()


class TestCsvExport:
    def test_series_format(self):
        buf = io.StringIO()
        write_series_csv(buf, [0.0, 0.5], [1.0, 1.0 / 3.0])
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "t,p"
        assert lines[1] == "0,1"
        assert lines[2].startswith("0.5,0.3333333333333333")

    def test_series_round_trips_17_digits(self):
        value = 0.1234567890123456789
        buf = io.StringIO()
        write_series_csv(buf, [1.0], [value])
        parsed = float(buf.getvalue().strip().split("\n")[1].split(",")[1])
        assert parsed == value

    def test_profile_format(self):
        buf = io.StringIO()
        profiles = np.array([[0.2, 0.5, 0.3]])
        write_profile_csv(buf, [1.0], profiles, 1)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "t,site,trace"
        assert lines[1] == "1,-1,0.20000000000000001"
        assert len(lines) == 4


class TestAbsorbingBoundary:
    def test_leak_is_monotone_in_time(self):
        gen = BlockGenerator(scalar_coin(1.0, 1.0), 6)
        leaks = [evolve(gen, np.eye(1), 0, t).leaked_mass for t in (1.0, 2.0, 4.0)]
        assert leaks[0] < leaks[1] < leaks[2]
        assert leaks[2] > 1e-4

    def test_biased_walk_drifts(self):
        coin = scalar_coin(2.0, 1.0)
        radius = choose_radius(coin, 0, 2.0)
        gen = BlockGenerator(coin, radius)
        st = evolve(gen, np.eye(1), 0, 2.0)
        mean = float((st.sites * st.trace_profile()).sum())
        # net velocity |a|^2 - |c|^2 = 3
        assert abs(mean - 6.0) < 1e-6
