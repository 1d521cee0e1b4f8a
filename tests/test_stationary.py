"""Internal-generator tests: trace annihilation, adjoint pairing, stationary states,
drift values, the drift spectrum, the drift operator equation, and shared
eigenstructure extraction."""

from pathlib import Path

import numpy as np
import pytest

from ctoqw import (
    classify,
    drift_spectrum,
    internal_lindblad,
    internal_lindblad_matrix,
    stationary_states,
    drift,
    solve_drift_operator,
    common_eigenstructure,
    hunvec,
    hvec,
    load_coin,
    validate_coin,
)
from ctoqw.coins import (
    scalar_coin,
    diagonal_jumps_coin,
    shared_eigenbasis_coin,
    shared_basis_vectors,
    tilted_pair_coin,
    three_level_coin,
    three_level_stationary,
)

from ctoqw import model, stationary

from helpers import random_coin, random_hermitian, random_shared_basis_coin, random_unitary

COINS = Path(__file__).resolve().parents[1] / "coins"


class TestInternalLindblad:
    def test_scalar_coin_annihilates_everything(self):
        coin = scalar_coin(2.0, 1.0)
        assert abs(internal_lindblad(coin, np.array([[1.0]]))[0, 0]) < 1e-15

    def test_identity_jumps_reduce_to_commutator(self):
        h = np.array([[0.3, 0.1 - 0.2j], [0.1 + 0.2j, -0.4]])
        coin = validate_coin(np.eye(2), np.eye(2), h)
        rng = np.random.default_rng(30)
        rho = random_hermitian(rng, 2)
        expected = -1j * (h @ rho - rho @ h)
        assert np.allclose(internal_lindblad(coin, rho), expected, atol=1e-13)
        # ham proportional to identity kills the commutator too
        coin2 = validate_coin(np.eye(2), np.eye(2), np.eye(2))
        assert np.linalg.norm(internal_lindblad(coin2, rho)) < 1e-13

    def test_annihilates_stationary_fixture(self):
        coin = three_level_coin(0.0)
        out = internal_lindblad(coin, three_level_stationary(0.0))
        assert np.max(np.abs(out)) <= 1e-9

    def test_trace_annihilation_random(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            coin = random_coin(rng, int(rng.integers(2, 4)))
            for _ in range(10):
                rho = random_hermitian(rng, coin.dim)
                out = internal_lindblad(coin, rho)
                assert abs(np.trace(out)) <= 1e-12
                assert np.linalg.norm(out - out.conj().T) < 1e-12

    def test_matrix_representation_agrees(self):
        rng = np.random.default_rng(32)
        coin = random_coin(rng, 2)
        s = internal_lindblad_matrix(coin)
        assert s.dtype == np.float64
        for _ in range(10):
            rho = random_hermitian(rng, 2)
            direct = internal_lindblad(coin, rho)
            assert np.linalg.norm(s @ hvec(rho) - hvec(direct)) < 1e-12

    def test_scalar_matrix_is_zero(self):
        s = internal_lindblad_matrix(scalar_coin(1.0, 2.0))
        assert s.shape == (1, 1)
        assert abs(s[0, 0]) < 1e-15

    def test_trace_dual_row_property(self):
        rng = np.random.default_rng(33)
        for d in (2, 3):
            coin = random_coin(rng, d)
            s = internal_lindblad_matrix(coin)
            assert np.linalg.norm(hvec(np.eye(d)) @ s) < 1e-12

    def test_adjoint_pairing(self):
        # Tr(L(rho) X) = Tr(rho L*(X)) with L* the transpose in Hermitian coordinates
        rng = np.random.default_rng(34)
        for d in (2, 3):
            coin = random_coin(rng, d)
            s = internal_lindblad_matrix(coin)
            g0 = -1j * coin.ham - 0.5 * coin.rate_operator()
            for _ in range(5):
                rho = random_hermitian(rng, d)
                x = random_hermitian(rng, d)
                lhs = np.trace(internal_lindblad(coin, rho) @ x)
                rhs = np.trace(rho @ hunvec(s.T @ hvec(x)))
                assert abs(lhs - rhs) < 1e-10
                # explicit adjoint formula
                adj = (
                    g0.conj().T @ x
                    + x @ g0
                    + coin.left.conj().T @ x @ coin.left
                    + coin.right.conj().T @ x @ coin.right
                )
                assert np.linalg.norm(hunvec(s.T @ hvec(x)) - adj) < 1e-10
            # identity is fixed by the adjoint (dual of trace annihilation)
            assert np.linalg.norm(s.T @ hvec(np.eye(d))) < 1e-12


class TestStationaryStates:
    def test_three_level_transient_fixture(self):
        sa = stationary_states(three_level_coin(0.0))
        assert sa.unique_stationary
        assert sa.kernel_dim == 1
        assert np.max(np.abs(sa.rho_inv - three_level_stationary(0.0))) < 1e-9

    def test_three_level_recurrent_fixture(self):
        sa = stationary_states(three_level_coin(1.0))
        assert sa.unique_stationary
        assert np.max(np.abs(sa.rho_inv - np.diag([0.5, 0.5, 0.0]))) < 1e-9

    def test_zero_generator_full_kernel(self):
        coin = validate_coin(np.eye(2), np.eye(2), np.zeros((2, 2)))
        sa = stationary_states(coin)
        assert sa.kernel_dim == 4
        assert not sa.unique_stationary
        assert sa.rho_inv is None

    def test_diagonal_coin_half_identity(self):
        sa = stationary_states(diagonal_jumps_coin())
        assert sa.unique_stationary
        assert np.max(np.abs(sa.rho_inv - np.eye(2) / 2)) < 1e-9

    def test_stationarity_residual_random(self):
        rng = np.random.default_rng(35)
        for _ in range(25):
            coin = random_coin(rng, int(rng.integers(2, 4)))
            sa = stationary_states(coin)
            if sa.unique_stationary:
                assert np.linalg.norm(internal_lindblad(coin, sa.rho_inv)) <= 1e-9
                assert abs(np.trace(sa.rho_inv) - 1.0) < 1e-12

    def test_three_level_density_spectrum(self):
        # unique stationary state of the three-level fixture is PSD with unit trace
        sa = stationary_states(three_level_coin(0.0))
        w = np.linalg.eigvalsh(sa.rho_inv)
        assert w.min() >= -1e-12
        assert abs(w.sum() - 1.0) < 1e-12

    def test_scalar_coins_unique_despite_round_off(self, monkeypatch):
        # the kernel test is relative to the rate scale |C*C + A*A| + |H|, so
        # a 1x1 generator that is round-off rather than exactly 0 still has
        # the one stationary state [[1]]
        rng = np.random.default_rng(38)
        coins = []
        for _ in range(20):
            c, a = rng.normal(size=2) + 1j * rng.normal(size=2)
            coins.append(validate_coin([[c]], [[a]], [[rng.normal()]]))
        for coin in coins:
            assert np.array_equal(stationary_states(coin).rho_inv, [[1.0]])
        # Round-off enters through the one builder of the symbol, which a
        # coin calls once, so the perturbed coins are fresh: R is off by 1e-15
        # of the rate scale, more than the round-off of S + L + R, so the
        # generator cannot cancel to 0.
        exact = model.symbol_parts

        def perturbed(coin):
            stay, right, left = exact(coin)
            return stay, right + 1e-15 * coin.rate_scale, left

        monkeypatch.setattr(model, "symbol_parts", perturbed)
        for old in coins[:5] + [scalar_coin(2.0, 1.0)]:
            coin = validate_coin(old.left, old.right, old.ham)
            sa = stationary_states(coin)
            # the one singular value of the 1x1 generator stationary_states
            # read is its size: round-off, not 0
            assert 0.0 < coin.lindblad_svd[1][0] < 1e-14 * coin.rate_scale
            assert sa.unique_stationary
            assert np.array_equal(sa.rho_inv, [[1.0]])

    @pytest.mark.parametrize("b,note", [
        (np.diag([1.0, -1.0]), "near-zero trace"),
        (np.diag([2.0, -1.0]), "eigenvalue -1.000e+00"),
    ], ids=["traceless", "not-psd"])
    def test_one_dimensional_kernel_degeneracy(self, b, note):
        # a kernel element with no trace, or whose normalization is not PSD,
        # is flagged rather than reported as the stationary state
        # injected through a fresh coin's cached SVD: I - v v^T has kernel v
        v = hvec(b) / np.linalg.norm(b)
        coin = diagonal_jumps_coin()
        coin.__dict__["lindblad_svd"] = np.linalg.svd(np.eye(4) - np.outer(v, v))
        sa = stationary_states(coin)
        assert sa.degenerate and not sa.unique_stationary and sa.rho_inv is None
        assert sa.kernel_dim == 1 and note in sa.note

    @pytest.mark.parametrize("coin,kdim", [
        (shared_eigenbasis_coin(1.5, 1.0), 2),
        (validate_coin(np.eye(2), np.eye(2), np.zeros((2, 2))), 4),
        (validate_coin(np.eye(3), np.eye(3), np.zeros((3, 3))), 9),
    ], ids=["shared-basis", "zero-generator", "identity-3"])
    def test_basis_is_orthonormal_kernel(self, coin, kdim):
        # stationary_basis is the kernel of the real L as returned: Hermitian
        # matrices, orthonormal in their real coordinates, annihilated by L
        sa = stationary_states(coin)
        assert sa.kernel_dim == len(sa.stationary_basis) == kdim
        for b in sa.stationary_basis:
            assert np.array_equal(b, b.conj().T)
        v = hvec(np.array(sa.stationary_basis)).T
        assert np.abs(v.T @ v - np.eye(kdim)).max() < 1e-12
        resid = np.linalg.norm(internal_lindblad_matrix(coin) @ v, axis=0).max()
        assert resid <= 1e-10 * coin.rate_scale


class TestDrift:
    def test_three_level_value(self):
        coin = three_level_coin(0.0)
        sa = stationary_states(coin)
        assert abs(drift(coin, sa.rho_inv) - (-6.0 / 53.0)) < 1e-9

    def test_tilted_pair_value(self):
        coin = tilted_pair_coin(0.0, 1.0)
        sa = stationary_states(coin)
        assert abs(drift(coin, sa.rho_inv) - (-2.0 / 17.0)) < 1e-9

    def test_scalar_rate_difference(self):
        coin = scalar_coin(2.0, 1.0)
        sa = stationary_states(coin)
        assert drift(coin, sa.rho_inv) == pytest.approx(3.0, abs=1e-12)

    @pytest.mark.parametrize("s", [1e4, 1e-3])
    def test_rescaled_coin_scales_drift(self, s):
        # (sC, sA, s^2 H) is the same walk run s^2 times faster
        coin = three_level_coin(0.0)
        fast = validate_coin(s * coin.left, s * coin.right, s * s * coin.ham)
        sa = stationary_states(fast)
        m = drift(fast, sa.rho_inv)
        assert abs(m - s * s * (-6.0 / 53.0)) <= 1e-9 * s * s * (6.0 / 53.0)

    def test_rejects_non_stationary_state(self):
        coin = three_level_coin(0.0)
        with pytest.raises(ValueError, match="not stationary"):
            drift(coin, np.eye(3) / 3.0)

    def test_rejects_non_states(self):
        # drift takes states only: a complex or scaled multiple of rho_inv is
        # refused by the density check, not read as a multiple of m
        coin = three_level_coin(0.0)
        rho = stationary_states(coin).rho_inv
        with pytest.raises(ValueError, match="not Hermitian"):
            drift(coin, 1j * rho)
        with pytest.raises(ValueError, match="trace"):
            drift(coin, 2.0 * rho)

    def test_bounded_by_total_rate(self):
        rng = np.random.default_rng(36)
        for _ in range(20):
            coin = random_coin(rng, 2)
            sa = stationary_states(coin)
            if not sa.unique_stationary:
                continue
            m = drift(coin, sa.rho_inv)
            a, c = coin.right, coin.left
            bound = np.trace(a @ sa.rho_inv @ a.conj().T).real
            bound += np.trace(c @ sa.rho_inv @ c.conj().T).real
            assert abs(m) <= bound + 1e-12

    def test_unitary_covariance(self):
        rng = np.random.default_rng(37)
        for d in (2, 3):
            for _ in range(10):
                coin = random_coin(rng, d)
                sa = stationary_states(coin)
                if not sa.unique_stationary:
                    continue
                u = random_unitary(rng, d)
                rotated = validate_coin(
                    u @ coin.left @ u.conj().T,
                    u @ coin.right @ u.conj().T,
                    u @ coin.ham @ u.conj().T,
                )
                sb = stationary_states(rotated)
                assert sb.unique_stationary
                assert np.max(np.abs(sb.rho_inv - u @ sa.rho_inv @ u.conj().T)) < 1e-8
                m0 = drift(coin, sa.rho_inv)
                m1 = drift(rotated, sb.rho_inv)
                assert abs(m0 - m1) < 1e-10


class TestDriftSpectrum:
    def test_unique_stationary_gives_m(self):
        rng = np.random.default_rng(60)
        shipped = [load_coin(f) for f in sorted(COINS.glob("*.json"))]
        randoms = [random_coin(rng, 2 + k % 3) for k in range(20)]
        checked = 0
        for coin in shipped + randoms:
            sa = stationary_states(coin)
            if not sa.unique_stationary:
                continue
            slopes, states = drift_spectrum(coin)
            m = drift(coin, sa.rho_inv)
            a, c = coin.right, coin.left
            direct = np.trace(a @ sa.rho_inv @ a.conj().T - c @ sa.rho_inv @ c.conj().T)
            assert abs(direct - m) <= 1e-12 * coin.rate_scale
            assert slopes.shape == (1,)
            assert abs(slopes[0] - m) <= 1e-12 * coin.rate_scale
            # classify reads m off the spectrum; drift checks a caller's state
            assert abs(classify(coin).m - m) <= 1e-12 * coin.rate_scale
            assert np.abs(states[0] - sa.rho_inv).max() < 1e-10
            checked += 1
        assert checked == 8 + len(randoms)

    def test_shared_basis_slopes_are_rate_differences(self):
        # in the shared eigenbasis the branches decouple: slope_i = |a_i|^2 - |c_i|^2
        u = shared_basis_vectors()
        for a, c in ((1.5, 1.0), (1.0, 2.0), (1.7, 2.0), (1.0, 2.6), (1j, -2.0)):
            coin = shared_eigenbasis_coin(a, c)
            slopes, states = drift_spectrum(coin)
            expected = {0: abs(a) ** 2 - 1.0, 1: 4.0 - abs(c) ** 2}
            order = sorted(expected, key=expected.get)
            assert np.allclose(slopes, [expected[k] for k in order], atol=1e-12)
            if abs(expected[0] - expected[1]) > 1e-6:
                for k, state in zip(order, states):
                    assert np.abs(state - np.outer(u[:, k], u[:, k].conj())).max() < 1e-10

    def test_states_are_unit_trace_and_hermitian(self):
        rng = np.random.default_rng(61)
        for k in range(20):
            coin = random_shared_basis_coin(rng, 2 + k % 2)
            slopes, states = drift_spectrum(coin)
            assert np.all(np.diff(slopes) >= 0)
            for state in states:
                assert np.abs(state - state.conj().T).max() == 0.0
                assert abs(np.trace(state) - 1.0) < 1e-12

    def test_repeated_zero_slopes_of_full_kernel(self):
        coin = validate_coin(np.eye(3), np.eye(3), np.zeros((3, 3)))
        slopes, states = drift_spectrum(coin)
        assert slopes.shape == (9,)
        assert np.abs(slopes).max() < 1e-15
        # eigenvectors of a repeated slope are arbitrary; traceless ones give None
        assert len(states) == 9 and any(state is None for state in states)
        for state in states:
            assert state is None or abs(np.trace(state) - 1.0) < 1e-12

    def test_complex_slope_raises(self, monkeypatch):
        # Moving X from L to R keeps L_0 = S + R + L, so the kernels stay, but
        # adds 2X to R - L; a large rotation X on the kernel makes slopes complex.
        coin = shared_eigenbasis_coin(1.5, 1.0)
        basis = stationary_states(coin).stationary_basis
        v = hvec(np.array(basis)).T
        x = 10.0 * v @ np.array([[0.0, -1.0], [1.0, 0.0]]) @ np.linalg.pinv(v)
        stay, right, left = coin.symbol
        monkeypatch.setattr(model, "symbol_parts", lambda c: (stay, right + x, left - x))
        # a fresh coin builds its symbol through the patched builder
        moved = validate_coin(coin.left, coin.right, coin.ham)
        assert np.abs(moved.symbol[1] - right).max() > 1.0
        with pytest.raises(ArithmeticError, match="imaginary part"):
            drift_spectrum(moved)

    @staticmethod
    def _moved(coin, x, monkeypatch):
        # X moved from L to R: L_0 = S + R + L and its kernels stay, R - L gains 2X
        stay, right, left = coin.symbol
        with monkeypatch.context() as patch:
            patch.setattr(model, "symbol_parts", lambda c: (stay, right + x, left - x))
            moved = validate_coin(coin.left, coin.right, coin.ham)
            assert np.array_equal(moved.symbol[1], right + x)  # built while patched
        return moved

    @staticmethod
    def _numpy_spectrum(coin):
        # np.linalg.solve and np.linalg.eig, each state from the real part of its eigenvector
        kernel, left_kernel = coin.lindblad_kernels
        compression = left_kernel.T @ (coin.symbol[1] - coin.symbol[2]) @ kernel
        values, vecs = np.linalg.eig(np.linalg.solve(left_kernel.T @ kernel, compression))
        order = np.argsort(values.real)
        cols = (kernel @ vecs[:, order].real).T
        return values[order], [hunvec(col / col[:coin.dim].sum()) for col in cols]

    def test_matches_numpy_eig(self, monkeypatch):
        # A symmetric X on the kernel of a four-level shared-basis coin gives real,
        # generic eigenvectors; numpy's own eig gufunc gives them numpy's bits.
        rng = np.random.default_rng(62)
        for _ in range(20):
            coin = random_shared_basis_coin(rng, 4)
            v = hvec(np.array(stationary_states(coin).stationary_basis)).T
            g = rng.standard_normal((v.shape[1], v.shape[1]))
            moved = self._moved(coin, 0.1 * coin.rate_scale * v @ (g + g.T) @ np.linalg.pinv(v),
                                monkeypatch)
            slopes, states = drift_spectrum(moved)
            values, expected = self._numpy_spectrum(moved)
            assert values.dtype == float and slopes.tobytes() == values.tobytes()
            assert all(np.array_equal(a, b) for a, b in zip(states, expected, strict=True))

    def test_conjugate_pair_matches_numpy_eig(self, monkeypatch):
        # The rotation of the complex-slope test at 1e-14 of the rate scale: the
        # two zero slopes of the both-equal coin become a conjugate pair whose
        # imaginary part is inside the tolerance.
        coin = shared_eigenbasis_coin(1.0, 2.0)
        v = hvec(np.array(stationary_states(coin).stationary_basis)).T
        rotation = v @ np.array([[0.0, -1.0], [1.0, 0.0]]) @ np.linalg.pinv(v)
        moved = self._moved(coin, 1e-14 * coin.rate_scale * rotation, monkeypatch)
        slopes, states = drift_spectrum(moved)
        values, expected = self._numpy_spectrum(moved)
        assert 0.0 < np.abs(values.imag).max() <= stationary.DRIFT_IMAG_RTOL * moved.rate_scale
        assert slopes.tobytes() == values.real.tobytes()
        assert all(np.array_equal(a, b) for a, b in zip(states, expected, strict=True))

class TestDriftOperator:
    def test_scalar_trivial(self):
        coin = scalar_coin(2.0, 1.0)
        j, res = solve_drift_operator(coin, 3.0)
        assert abs(j[0, 0]) < 1e-12
        assert res < 1e-12

    def test_identity_jumps_trivial(self):
        coin = validate_coin(np.eye(2), np.eye(2), np.zeros((2, 2)))
        j, res = solve_drift_operator(coin, 0.0)
        assert np.linalg.norm(j) < 1e-10
        assert res < 1e-12

    def test_three_level_residual(self):
        coin = three_level_coin(0.0)
        sa = stationary_states(coin)
        m = drift(coin, sa.rho_inv)
        j, res = solve_drift_operator(coin, m)
        assert res <= 1e-8
        assert abs(np.trace(j)) < 1e-10
        assert np.linalg.norm(j - j.conj().T) < 1e-10

    def test_residual_small_under_unique_stationary(self):
        rng = np.random.default_rng(38)
        for _ in range(15):
            coin = random_coin(rng, int(rng.integers(2, 4)))
            sa = stationary_states(coin)
            if not sa.unique_stationary:
                continue
            m = drift(coin, sa.rho_inv)
            _, res = solve_drift_operator(coin, m)
            assert res <= 1e-8

    def test_gauge_freedom_is_identity_multiple(self):
        # least-squares solutions with different gauges differ by a multiple of I
        coin = three_level_coin(0.0)
        sa = stationary_states(coin)
        m = drift(coin, sa.rho_inv)
        j, _ = solve_drift_operator(coin, m)
        s = internal_lindblad_matrix(coin)
        rhs = -(
            coin.right.conj().T @ coin.right
            - coin.left.conj().T @ coin.left
            - m * np.eye(3)
        )
        raw, *_ = np.linalg.lstsq(s.T, hvec(rhs), rcond=None)
        j_minnorm = hunvec(raw)
        diff = j_minnorm - j
        off = diff - (np.trace(diff) / 3.0) * np.eye(3)
        assert np.linalg.norm(off) < 1e-8
        # adjoint kills the identity, so shifting the gauge keeps the residual
        assert np.linalg.norm(s.T @ hvec(np.eye(3))) < 1e-10


class TestCommonEigenstructure:
    def test_diagonal_pair(self):
        out = common_eigenstructure(np.diag([1.0, 3.0]), np.diag([2.0, 5.0]))
        assert out is not None
        u, c_diag, a_diag = out
        assert sorted(np.round(c_diag.real, 9)) == [1.0, 3.0]
        assert sorted(np.round(a_diag.real, 9)) == [2.0, 5.0]
        # columns are standard basis vectors up to order and phase
        assert np.allclose(np.abs(u), np.eye(2), atol=1e-10) or np.allclose(
            np.abs(u), np.fliplr(np.eye(2)), atol=1e-10
        )

    def test_shared_basis_family(self):
        a, c = 1.7, 2.0
        coin = shared_eigenbasis_coin(a, c)
        out = common_eigenstructure(coin.left, coin.right)
        assert out is not None
        u, c_diag, a_diag = out
        assert np.max(np.abs(u.conj().T @ coin.left @ u - np.diag(c_diag))) < 1e-10
        assert np.max(np.abs(u.conj().T @ coin.right @ u - np.diag(a_diag))) < 1e-10
        assert sorted(np.round(np.abs(c_diag), 9).tolist()) == [1.0, c]
        assert sorted(np.round(np.abs(a_diag), 9).tolist()) == [a, 2.0]
        # columns match the designated vectors as projectors
        ref = shared_basis_vectors()
        for k in range(2):
            p = np.outer(u[:, k], u[:, k].conj())
            matches = [
                np.max(np.abs(p - np.outer(ref[:, j], ref[:, j].conj()))) < 1e-9
                for j in range(2)
            ]
            assert any(matches)

    def test_no_shared_eigenvector(self):
        coin = tilted_pair_coin(0.5, 1.0)
        assert common_eigenstructure(coin.left, coin.right) is None

    def test_nonnormal_rejected(self):
        c = np.array([[1.0, 1.0], [0.0, 1.0]])
        assert common_eigenstructure(c, np.eye(2)) is None

    def test_normal_noncommuting_rejected(self):
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        z = np.diag([1.0, -1.0])
        assert common_eigenstructure(x, z) is None

    def test_scalar_pair_any_basis(self):
        out = common_eigenstructure(np.eye(2), 2.0 * np.eye(2))
        assert out is not None
        _, c_diag, a_diag = out
        assert np.allclose(c_diag, [1.0, 1.0])
        assert np.allclose(a_diag, [2.0, 2.0])

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError):
            common_eigenstructure(np.eye(3), np.eye(3))
