"""Coin and density-matrix domain type tests: validation, the no-jump generator,
the coin's cached symbol and rate scale, pure-state projectors, and the JSON
interchange format."""

import json
from pathlib import Path

import numpy as np
import pytest

from ctoqw import (
    BlockGenerator,
    choose_radius,
    classify,
    drift_spectrum,
    estimate_drift,
    evolve,
    model,
    path_rng,
    return_integral,
    simulate_path,
    stationary_states,
    validate_coin,
    no_jump_generator,
    density_from_pure,
    check_density,
    hvec,
    unvec,
    vec,
    coin_to_dict,
    coin_from_dict,
    load_coin,
    save_coin,
)
from ctoqw.coins import diagonal_jumps_coin, scalar_coin, three_level_coin
from ctoqw.model import density_for

from helpers import random_coin

COINS = Path(__file__).resolve().parents[1] / "coins"
SQRT2 = np.sqrt(2.0)
SQRT5 = np.sqrt(5.0)
SQRT11 = np.sqrt(11.0)


class TestValidateCoin:
    def test_diagonal_fixture_is_valid(self):
        coin = validate_coin(
            np.diag([SQRT2, SQRT11]),
            np.diag([-SQRT5, 2 * SQRT2]),
            np.array([[1.0, 1.0 - 2.0j], [1.0 + 2.0j, 1.0]]),
        )
        assert coin.dim == 2
        assert coin.ham_defect <= 1e-15

    def test_scalar_coin_is_valid(self):
        coin = validate_coin([[1.0]], [[2.0]], [[0.0]])
        assert coin.dim == 1

    def test_rejects_grossly_nonhermitian_ham(self):
        h = np.array([[0.0, 1e-3], [0.0, 0.0]])
        with pytest.raises(ValueError):
            validate_coin(np.eye(2), np.eye(2), h)

    def test_warns_and_fixes_small_defect(self):
        h = np.array([[0.0, 1e-8], [0.0, 0.0]])
        with pytest.warns(UserWarning):
            coin = validate_coin(np.eye(2), np.eye(2), h)
        assert np.allclose(coin.ham, coin.ham.conj().T)

    def test_silently_fixes_roundoff_defect(self):
        h = np.array([[0.0, 1e-12], [0.0, 0.0]])
        coin = validate_coin(np.eye(2), np.eye(2), h)
        assert np.allclose(coin.ham, coin.ham.conj().T)

    def test_rejects_motionless_coin(self):
        z = np.zeros((2, 2))
        with pytest.raises(ValueError):
            validate_coin(z, z, np.eye(2))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            validate_coin(np.eye(2), np.eye(3), np.eye(2))

    def test_accepts_non_contiguous_matrices(self):
        # a transposed view is Fortran-ordered; the finiteness check must not
        # reinterpret its memory
        m = np.array([[1.0, 2.0], [0.0, 1.0]])
        coin = validate_coin(m.T, m, np.eye(2))
        assert np.array_equal(coin.left, m.T)

    def test_rate_operator(self):
        coin = diagonal_jumps_coin()
        r = coin.rate_operator()
        assert np.allclose(r, np.diag([2.0 + 5.0, 11.0 + 8.0]))


class TestNoJumpGenerator:
    def test_scalar_values(self):
        assert no_jump_generator(scalar_coin(2.0, 1.0))[0, 0] == pytest.approx(-2.5)
        g = no_jump_generator(validate_coin([[1.0]], [[1.0]], [[0.7]]))[0, 0]
        assert g == pytest.approx(-1.0 - 0.7j)

    def test_diagonal_fixture(self):
        coin = diagonal_jumps_coin()
        expected = -1j * coin.ham - 0.5 * np.diag([7.0, 19.0])
        assert np.allclose(no_jump_generator(coin), expected, atol=1e-14)

    def test_dissipative_part_identity(self):
        rng = np.random.default_rng(20)
        for d in (1, 2, 3):
            coin = random_coin(rng, d)
            g0 = no_jump_generator(coin)
            assert np.linalg.norm(g0 + g0.conj().T + coin.rate_operator()) < 1e-12


class TestSymbol:
    def test_built_once_across_every_layer(self, monkeypatch):
        # classify, the lattice and the sampler all read the coin's one symbol
        built = []

        def counting(coin):
            built.append(coin)
            return exact(coin)

        exact = model.symbol_parts
        monkeypatch.setattr(model, "symbol_parts", counting)
        coin = load_coin(COINS / "three_level_c0.json")
        assert classify(coin).unique_stationary
        rho = stationary_states(coin).rho_inv
        radius = choose_radius(coin, 0, 50.0, rho)
        gen = BlockGenerator(coin, radius)
        evolve(gen, rho, 0, 50.0)
        return_integral(gen, rho, 0, 50.0, with_half=True)
        simulate_path(coin, 0, rho, 5.0, path_rng(1, 0))
        estimate_drift(coin, rho, 100.0, 100, 1)
        assert len(built) == 1 and built[0] is coin

    def test_read_only_and_per_coin(self):
        coin = scalar_coin(2.0, 1.0)
        with pytest.raises(ValueError, match="read-only"):
            coin.symbol[0][0, 0] = 0.0
        assert [p[0, 0] for p in coin.symbol] == [-5.0, 4.0, 1.0]
        # the same matrices validated again make a new coin with its own symbol
        again = validate_coin(coin.left, coin.right, coin.ham)
        assert all(p is not q and np.array_equal(p, q)
                   for p, q in zip(again.symbol, coin.symbol))

    def test_one_svd_of_the_lindblad_matrix_per_coin(self, monkeypatch):
        # stationary_states, classify and drift_spectrum read both kernels of
        # L_0 from the coin's one cached SVD, whatever the verdict branch
        shapes = []

        def counting(m, *args, **kwargs):
            shapes.append(m.shape)
            return svd(m, *args, **kwargs)

        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", counting)
        fresh = [load_coin(path) for path in sorted(COINS.glob("*.json"))]
        for coin in fresh + [diagonal_jumps_coin(), scalar_coin(2.0, 1.0)]:
            shapes.clear()
            stationary_states(coin)
            classify(coin)
            drift_spectrum(coin)
            assert shapes == [(coin.dim ** 2, coin.dim ** 2)]

    def test_lindblad_svd_read_only(self):
        coin = three_level_coin(0.0)
        u, s, vt = coin.lindblad_svd
        assert coin.lindblad_svd is coin.lindblad_svd
        for part in (u, s, vt):
            assert not part.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                part[0] = 0.0
        stay, right, left = coin.symbol
        assert np.allclose((u * s) @ vt, stay + left + right, atol=1e-13)

    def test_coins_compare_and_hash_by_identity(self):
        # array fields would make the generated __eq__ ambiguous and the
        # generated __hash__ fail; a coin is equal only to itself
        coin, twin = three_level_coin(0.0), three_level_coin(0.0)
        assert coin == coin and coin != twin
        assert len({coin, twin, coin}) == 2
        assert {coin: "c0"}[coin] == "c0"
        # the cached symbol still works on a hashable coin
        assert coin.symbol is coin.symbol
        assert all(p.dtype == np.float64 and np.array_equal(p, q)
                   for p, q in zip(coin.symbol, twin.symbol))

    def test_rate_scale(self):
        coin = diagonal_jumps_coin()
        expected = np.linalg.norm(np.diag([7.0, 19.0])) + np.linalg.norm(coin.ham)
        assert coin.rate_scale == pytest.approx(expected, rel=1e-15)
        s = 3.0
        scaled = validate_coin(s * coin.left, s * coin.right, s * s * coin.ham)
        assert scaled.rate_scale == pytest.approx(s * s * coin.rate_scale, rel=1e-14)


class TestDensityFromPure:
    def test_basis_vector(self):
        assert np.allclose(density_from_pure([1.0, 0.0]), np.diag([1.0, 0.0]))

    def test_uniform_superposition(self):
        rho = density_from_pure(np.array([1.0, 1.0]) / SQRT2)
        assert np.allclose(rho, np.full((2, 2), 0.5), atol=1e-15)

    def test_complex_vector_projector(self):
        v = np.array([-1.0j, 1.0]) / SQRT2
        rho = density_from_pure(v)
        expected = 0.5 * np.array([[1.0, -1.0j], [1.0j, 1.0]])
        assert np.allclose(rho, expected, atol=1e-15)
        # projector property: rho v = v
        assert np.allclose(rho @ v, v, atol=1e-15)

    def test_normalizes_input(self):
        rho = density_from_pure([3.0, 4.0j])
        check_density(rho)
        assert np.trace(rho).real == pytest.approx(1.0)
        assert np.linalg.matrix_rank(rho, tol=1e-12) == 1

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            density_from_pure([0.0, 0.0])


class TestCheckDensity:
    def test_accepts_valid(self):
        check_density(np.diag([0.25, 0.75]))

    def test_rejects_nonhermitian(self):
        with pytest.raises(ValueError):
            check_density(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            check_density(np.array([[1.1, 0.0], [0.0, -0.1]]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            check_density(np.diag([0.5, 0.6]))

    def test_accepts_non_contiguous(self):
        rho = np.array([[0.7, 0.1j], [-0.1j, 0.3]])
        assert np.array_equal(check_density(rho.T), rho.T)


class TestDensityFor:
    def test_accepts_fortran_ordered(self):
        # unvec returns a Fortran-ordered reshape
        rho = np.array([[0.7, 0.1j], [-0.1j, 0.3]])
        assert np.array_equal(density_for(diagonal_jumps_coin(), unvec(vec(rho))), hvec(rho))


class TestJsonFormat:
    def test_round_trip(self, tmp_path):
        coin = diagonal_jumps_coin(3.0)
        p = tmp_path / "coin.json"
        save_coin(coin, p)
        back = load_coin(p)
        assert back.dim == coin.dim
        for field in ("left", "right", "ham"):
            assert np.array_equal(getattr(back, field), getattr(coin, field))

    def test_entries_are_re_im_pairs(self):
        doc = coin_to_dict(diagonal_jumps_coin())
        assert doc["d"] == 2
        assert doc["H"][0][1] == [1.0, -2.0]
        assert doc["C"][0][0] == [SQRT2, 0.0]

    def test_ignores_extra_keys(self):
        doc = coin_to_dict(scalar_coin(1.0, 1.0))
        doc["note"] = "annotation"
        coin = coin_from_dict(doc)
        assert coin.dim == 1

    def test_rejects_malformed_matrix(self):
        doc = coin_to_dict(scalar_coin(1.0, 1.0))
        doc["C"] = [[[1.0]]]
        with pytest.raises(ValueError):
            coin_from_dict(doc)

    def test_fixture_files_parse(self, tmp_path):
        doc = {
            "d": 1,
            "C": [[[1.0, 0.0]]],
            "A": [[[2.0, 0.0]]],
            "H": [[[0.0, 0.0]]],
        }
        p = tmp_path / "scalar.json"
        p.write_text(json.dumps(doc))
        coin = load_coin(p)
        assert coin.right[0, 0] == 2.0
