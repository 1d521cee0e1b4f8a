"""Numerical kernel tests: matrix exponential (single and stacked) and its
integral, null spaces, superoperator assembly, the column-stacking vec
convention and the Hermitian coordinates hvec/hunvec."""

import numpy as np
import pytest
import scipy.linalg

from ctoqw import BlockGenerator, hunvec, hvec, mat_exp, null_space, superop_matrix, vec, unvec
from ctoqw.linalg import hermitian_basis, mat_exp_integral
from ctoqw import internal_lindblad_matrix
from ctoqw.coins import scalar_coin

from helpers import random_coin, random_density, random_matrix, random_hermitian


class TestMatExp:
    def test_t_zero_is_identity(self):
        rng = np.random.default_rng(1)
        m = random_matrix(rng, 3)
        assert np.allclose(mat_exp(m, 0.0), np.eye(3), atol=1e-14)

    def test_nilpotent_series_truncates(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        for t in (0.3, 1.0, 7.5):
            expected = np.array([[1.0, t], [0.0, 1.0]])
            assert np.allclose(mat_exp(m, t), expected, atol=1e-13)

    def test_scalar_exponential(self):
        m = np.array([[-2.5]])
        assert abs(mat_exp(m, 1.0)[0, 0] - np.exp(-2.5)) < 1e-14

    def test_small_norm_relative_error(self):
        # reference: spectral evaluation on a normal matrix is exact up to roundoff
        rng = np.random.default_rng(2)
        h = random_hermitian(rng, 4)
        h *= 0.9 / np.linalg.norm(h, 1)
        w, v = np.linalg.eigh(h)
        ref = (v * np.exp(w)) @ v.conj().T
        err = np.linalg.norm(mat_exp(h, 1.0) - ref) / np.linalg.norm(ref)
        assert err < 1e-12

    def test_matches_scipy_on_nonnormal(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            m = random_matrix(rng, 3)
            m /= np.linalg.norm(m, 1)
            diff = np.linalg.norm(mat_exp(m, 1.0) - scipy.linalg.expm(m))
            assert diff < 1e-12

    def test_semigroup_property(self):
        rng = np.random.default_rng(4)
        m = random_matrix(rng, 3)
        m *= 4.0 / np.linalg.norm(m, 2)
        s, t = 0.7, 1.1
        lhs = mat_exp(m, s) @ mat_exp(m, t)
        rhs = mat_exp(m, s + t)
        assert np.linalg.norm(lhs - rhs) < 1e-10

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            mat_exp(np.zeros((2, 3)))

    def test_rejects_nonfinite(self):
        m = np.array([[0.0, np.inf], [0.0, 0.0]])
        with pytest.raises(ValueError):
            mat_exp(m)

    def test_noncontiguous_input(self):
        rng = np.random.default_rng(5)
        m = random_matrix(rng, 3)
        assert np.allclose(mat_exp(m.conj().T, 1.0), mat_exp(m.conj().T.copy(), 1.0))

    def test_stack_matches_scipy_per_matrix(self):
        # one scaling power serves the whole stack, even with mixed norms
        rng = np.random.default_rng(7)
        stack = np.array([random_matrix(rng, 4, scale) for scale in (1e-3, 0.5, 3.0, 20.0)])
        stack = stack.reshape(2, 2, 4, 4)
        out = mat_exp(stack, 0.7)
        assert out.shape == stack.shape
        for idx in np.ndindex(2, 2):
            ref = scipy.linalg.expm(0.7 * stack[idx])
            assert np.linalg.norm(out[idx] - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_real_input_stays_real(self):
        rng = np.random.default_rng(6)
        m = rng.normal(size=(2, 3, 3))
        out = mat_exp(m, 0.8)
        assert out.dtype == np.float64
        assert np.abs(out - mat_exp(m.astype(complex), 0.8)).max() <= 1e-14

    def test_zero_stack_is_identity_stack(self):
        out = mat_exp(np.zeros((3, 2, 2)))
        assert np.array_equal(out, np.broadcast_to(np.eye(2), (3, 2, 2)))


def van_loan(m, v, t):
    """(e^{tm}, int_0^t e^{sm} v ds) from scipy's exponential of [[t m, t v], [0, 0]]."""
    n = len(v)
    aug = np.zeros((n + 1, n + 1), dtype=np.result_type(m, v))
    aug[:n, :n], aug[:n, n] = t * m, t * v
    e = scipy.linalg.expm(aug)
    return e[:n, :n], e[:n, n]


class TestMatExpIntegral:
    @pytest.mark.parametrize("norm", [0.0, 0.3, 1.0, 50.0, 5000.0])
    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_the_augmented_exponential(self, d, norm):
        # Real stacks are walk symbols at k = 0, complex ones at the momenta
        # of a ring; scaled so that the largest |t m|_1 in the stack is norm.
        # Both exponentials carry round-off of order |t m|_1 eps, as the
        # exponential's relative condition number grows like |t m|: at 5000
        # they differ by 1.4e-12 to 1.7e-12, within the tolerance 1e-15 |t m|_1.
        rng = np.random.default_rng([d, int(norm)])
        coins = [random_coin(rng, d) for _ in range(3)]
        v = hvec(random_density(rng, d))
        tol = max(1e-13, 1e-15 * norm)

        def close(x, ref):
            return np.abs(x - ref).max() <= tol * max(np.abs(ref).max(), np.finfo(float).tiny)

        for stack in (np.array([sum(c.symbol) for c in coins]),
                      BlockGenerator(coins[0], 3).symbols):
            t = norm / np.abs(stack).sum(axis=-2).max()
            e, c = mat_exp_integral(stack, v, t)
            assert e.shape == stack.shape and c.shape == stack.shape[:-1]
            for k, m in enumerate(stack):
                ref_e, ref_c = van_loan(m, v, t)
                assert close(e[k], ref_e) and close(c[k], ref_c)

    def test_jordan_block(self):
        # int_0^t e^{s G0} e_2 ds with e^{s G0} e_2 = e^{-s} (s, 1)
        g0 = np.array([[-1.0, 1.0], [0.0, -1.0]])
        for t in (0.5, 20.0, 200.0):
            e, c = mat_exp_integral(g0, np.array([0.0, 1.0]), t)
            want = [1.0 - np.exp(-t) * (1.0 + t), 1.0 - np.exp(-t)]
            assert np.abs(c - want).max() <= 1e-14
            assert np.abs(e - np.exp(-t) * np.array([[1.0, t], [0.0, 1.0]])).max() <= 1e-14

    def test_rejects_nonfinite_input_and_shape_mismatch(self):
        m, v = np.eye(2), np.ones(2)
        for args in ((np.array([[np.nan, 0.0], [0.0, 1.0]]), v, 1.0),
                     (m, np.array([np.inf, 0.0]), 1.0), (m, v, np.nan), (m, v, np.inf),
                     (m, np.ones(3), 1.0), (np.ones((2, 3)), v, 1.0)):
            with pytest.raises(ValueError):
                mat_exp_integral(*args)


class TestNullSpace:
    def test_rank_one_projector(self):
        basis = null_space(np.diag([1.0, 0.0]))
        assert len(basis) == 1
        assert abs(abs(basis[0][1]) - 1.0) < 1e-14
        assert abs(basis[0][0]) < 1e-14

    def test_identity_has_empty_kernel(self):
        assert null_space(np.eye(3)) == []

    def test_scalar_walk_generator_kernel(self):
        # d=1 internal generator is the zero map on C^1
        s = internal_lindblad_matrix(scalar_coin(2.0, 1.0))
        basis = null_space(s)
        assert len(basis) == 1

    def test_orthonormal_and_annihilating(self):
        rng = np.random.default_rng(7)
        u = random_matrix(rng, 4)
        m = u @ np.diag([1.0, 2.0, 0.0, 0.0]) @ np.linalg.inv(u)
        basis = null_space(m)
        assert len(basis) == 2
        g = np.array([[np.vdot(a, b) for b in basis] for a in basis])
        assert np.allclose(g, np.eye(2), atol=1e-10)
        smax = np.linalg.svd(m, compute_uv=False)[0]
        for vker in basis:
            assert np.linalg.norm(m @ vker) <= 1e-10 * smax * 2.0


    def test_real_input_has_a_real_kernel(self):
        rng = np.random.default_rng(12)
        u = rng.normal(size=(4, 4))
        basis = null_space(u @ np.diag([1.0, 2.0, 0.0, 0.0]) @ np.linalg.inv(u))
        assert len(basis) == 2 and all(b.dtype == np.float64 for b in basis)


class TestSuperoperator:
    def test_identity_pair(self):
        s = superop_matrix([(np.eye(2), np.eye(2))])
        assert np.allclose(s, np.eye(4))

    def test_kron_identity(self):
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        s = superop_matrix([(x, np.eye(2))])
        assert np.allclose(s, np.kron(np.eye(2), x))

    def test_matches_direct_product(self):
        rng = np.random.default_rng(8)
        for d in (2, 3):
            left = random_matrix(rng, d)
            right = random_matrix(rng, d)
            s = superop_matrix([(left, right)])
            rho = random_matrix(rng, d)
            direct = left @ rho @ right
            assert np.linalg.norm(s @ vec(rho) - vec(direct)) < 1e-12

    def test_linear_in_pairs(self):
        rng = np.random.default_rng(9)
        l1, r1 = random_matrix(rng, 2), random_matrix(rng, 2)
        l2, r2 = random_matrix(rng, 2), random_matrix(rng, 2)
        s = superop_matrix([(l1, r1), (l2, r2)])
        assert np.allclose(s, superop_matrix([(l1, r1)]) + superop_matrix([(l2, r2)]))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            superop_matrix([(np.eye(2), np.eye(3))])


class TestVec:
    def test_column_stacking_order(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.allclose(vec(m), [1.0, 3.0, 2.0, 4.0])

    def test_round_trip(self):
        rng = np.random.default_rng(10)
        m = random_matrix(rng, 3)
        assert np.allclose(unvec(vec(m)), m)

    def test_kron_convention(self):
        # vec(L rho R) = (R^T kron L) vec(rho) under column stacking
        rng = np.random.default_rng(11)
        left, right, rho = (random_matrix(rng, 2) for _ in range(3))
        lhs = vec(left @ rho @ right)
        rhs = np.kron(right.T, left) @ vec(rho)
        assert np.allclose(lhs, rhs, atol=1e-13)


class TestHermitianCoordinates:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_basis_is_unitary_with_the_diagonal_first(self, d):
        basis = hermitian_basis(d)
        assert np.abs(basis.conj().T @ basis - np.eye(d * d)).max() <= 1e-15
        for col in basis.T:
            b = unvec(col)
            assert np.array_equal(b, b.conj().T)
        # Tr X is the sum of the first d coordinates
        rng = np.random.default_rng(d)
        x = random_hermitian(rng, d)
        assert abs(hvec(x)[:d].sum() - np.trace(x).real) <= 1e-14

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_round_trip_and_hermitian_output(self, d):
        rng = np.random.default_rng(20 + d)
        x = np.array([random_hermitian(rng, d) for _ in range(4)])
        c = hvec(x)
        assert c.dtype == np.float64 and c.shape == (4, d * d)
        assert np.abs(hunvec(c) - x).max() <= 1e-15 * np.abs(x).max() * 4
        # real coordinates give exactly Hermitian matrices
        y = hunvec(rng.normal(size=(5, d * d)))
        assert np.array_equal(y, y.conj().swapaxes(-1, -2))
        # the Hilbert-Schmidt inner product is the dot product of coordinates
        assert abs(np.trace(x[0] @ x[1]).real - c[0] @ c[1]) <= 1e-12

    def test_complex_coordinates_span_every_matrix(self):
        rng = np.random.default_rng(30)
        m = random_matrix(rng, 3)
        c = hermitian_basis(3).conj().T @ vec(m)
        assert np.abs(hunvec(c) - m).max() <= 1e-14

    def test_rejects_a_length_that_is_not_square(self):
        with pytest.raises(ValueError):
            hunvec(np.zeros(3))
