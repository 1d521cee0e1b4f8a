"""Recurrence classifier tests: fixture verdicts, rule provenance, boundary
location, closed forms on diagonal coins, drift-spectrum covariance, and
invariance properties."""

import importlib
from pathlib import Path

import numpy as np
import pytest

from ctoqw import (
    Verdict,
    classify,
    drift_spectrum,
    load_coin,
    validate_coin,
)
from ctoqw.coins import (
    diagonal_jumps_coin,
    scalar_coin,
    shared_basis_vectors,
    shared_eigenbasis_coin,
    three_level_coin,
    tilted_pair_boundary,
    tilted_pair_coin,
    verify_cases,
)
from ctoqw.stationary import StationaryAnalysis

from helpers import (
    random_coin,
    random_diagonal_coin,
    random_shared_basis_coin,
    random_unitary,
    same_projector,
)

COINS = Path(__file__).resolve().parents[1] / "coins"
# the package's ``classify`` attribute is the function; this is its module
classify_module = importlib.import_module("ctoqw.classify")

SQRT2 = np.sqrt(2.0)


def proj(v):
    v = np.asarray(v, dtype=complex)
    return np.outer(v, v.conj()) / np.vdot(v, v).real


class TestDiagonalJumpFixture:
    def test_balanced_rates_recurrent(self):
        res = classify(diagonal_jumps_coin(2.0 * SQRT2))
        assert res.verdict == Verdict.RECURRENT
        assert res.rule == "unique-stationary-zero-drift"
        assert res.unique_stationary
        assert abs(res.m) <= 1e-9

    def test_unbalanced_rates_transient(self):
        res = classify(diagonal_jumps_coin(3.0))
        assert res.verdict == Verdict.TRANSIENT
        assert res.rule == "unique-stationary-nonzero-drift"
        assert res.m == pytest.approx(0.5, abs=1e-9)


class TestSharedBasisFixtures:
    def test_both_rates_unequal_transient(self):
        res = classify(shared_eigenbasis_coin(1.5, 1.0))
        assert res.verdict == Verdict.TRANSIENT
        assert res.rule == "shared-basis-both-unequal"
        assert not res.unique_stationary

    def test_both_rates_equal_recurrent(self):
        res = classify(shared_eigenbasis_coin(1.0, 2.0))
        assert res.verdict == Verdict.RECURRENT
        assert res.rule == "shared-basis-both-equal"

    def test_first_mode_escapes(self):
        res = classify(shared_eigenbasis_coin(1.7, 2.0))
        assert res.verdict == Verdict.PARTIALLY_RECURRENT
        assert res.rule == "shared-basis-one-unequal"
        u = shared_basis_vectors()
        assert same_projector(res.transient_state, proj(u[:, 0]))

    def test_second_mode_escapes(self):
        res = classify(shared_eigenbasis_coin(1.0, 2.6))
        assert res.verdict == Verdict.PARTIALLY_RECURRENT
        u = shared_basis_vectors()
        assert same_projector(res.transient_state, proj(u[:, 1]))

    def test_transient_state_is_shared_eigenprojector(self):
        coin = shared_eigenbasis_coin(1.7, 2.0)
        res = classify(coin)
        p = np.asarray(res.transient_state)
        # pure state and eigenprojector of both jump operators
        assert np.linalg.norm(p @ p - p) < 1e-10
        assert abs(np.trace(p) - 1.0) < 1e-10
        for op in (coin.left, coin.right):
            v = p @ np.array([1.0, 1.0j])
            w = op @ v
            overlap = np.vdot(v, w) / np.vdot(v, v)
            assert np.linalg.norm(w - overlap * v) < 1e-9

    def test_mixing_ham_branch(self):
        coin = shared_eigenbasis_coin(2.0, 1.0, [[1.0, 0.3], [0.3, 1.0]])
        res = classify(coin)
        assert res.verdict == Verdict.TRANSIENT
        assert res.rule == "shared-basis-both-unequal"
        # a scalar pair moves every stationary state at |a|^2 - |c|^2 = 3
        assert res.diagnostics["drift_slopes"] == pytest.approx([3.0, 3.0], abs=1e-12)
        # equal moduli with a mixing ham is recurrent; scalar pair differing
        # by a phase keeps several stationary states
        coin2 = validate_coin(
            np.eye(2), np.exp(0.7j) * np.eye(2), [[1.0, 0.3], [0.3, 1.0]]
        )
        res2 = classify(coin2)
        assert res2.verdict == Verdict.RECURRENT
        assert res2.rule == "shared-basis-both-equal"

    def test_no_common_eigenstructure_call(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("classify called common_eigenstructure")

        monkeypatch.setattr(classify_module, "common_eigenstructure", refuse)
        fixtures = [(coin, expect["verdict"]) for name, coin, expect in verify_cases()
                    if name.startswith("shared-basis")]
        fixtures += [(load_coin(path), None) for path in sorted(COINS.glob("shared_*.json"))]
        assert len(fixtures) == 10
        for coin, verdict in fixtures:
            res = classify(coin)
            assert verdict is None or res.verdict.value == verdict
            assert res.rule.startswith("shared-basis-")


class TestTiltedPairFixture:
    def test_drift_formula_sweep(self):
        for h in (0.0, 0.5, 1.0, 4.0 / 3.0, 2.0):
            coin = tilted_pair_coin(0.0, h)
            res = classify(coin)
            expected = 2.0 * h * (3.0 * h - 4.0) / (4.0 * h * h + 6.0 * h + 7.0)
            assert res.unique_stationary
            assert abs(res.m - expected) < 1e-9

    def test_zero_drift_roots(self):
        assert classify(tilted_pair_coin(0.0, 0.0)).verdict == Verdict.RECURRENT
        assert classify(tilted_pair_coin(0.0, 4.0 / 3.0)).verdict == Verdict.RECURRENT
        assert classify(tilted_pair_coin(0.0, 1.0)).verdict == Verdict.TRANSIENT

    def test_boundary_roots_at_half_tilt(self):
        lo, hi = tilted_pair_boundary(0.5)
        assert hi == pytest.approx((2.0 + np.sqrt(71.0)) / 12.0, abs=1e-12)
        assert lo == pytest.approx((2.0 - np.sqrt(71.0)) / 12.0, abs=1e-12)
        for root in (lo, hi):
            assert classify(tilted_pair_coin(0.5, root)).verdict == Verdict.RECURRENT
            for off in (-0.1, 0.1):
                res = classify(tilted_pair_coin(0.5, root + off))
                assert res.verdict == Verdict.TRANSIENT


class TestThreeLevelFixture:
    def test_transient_branch(self):
        res = classify(three_level_coin(0.0))
        assert res.verdict == Verdict.TRANSIENT
        assert res.m == pytest.approx(-6.0 / 53.0, abs=1e-9)

    def test_recurrent_branch(self):
        res = classify(three_level_coin(1.0))
        assert res.verdict == Verdict.RECURRENT
        assert abs(res.m) <= 1e-9


class TestScalarCoins:
    def test_symmetric_recurrent(self):
        res = classify(scalar_coin(1.0, 1.0))
        assert res.verdict == Verdict.RECURRENT
        assert abs(res.m) < 1e-12

    def test_biased_transient(self):
        res = classify(scalar_coin(2.0, 1.0))
        assert res.verdict == Verdict.TRANSIENT
        assert res.m == pytest.approx(3.0, abs=1e-12)


class TestUndetermined:
    def test_high_dimension_multiple_stationary(self):
        coin = validate_coin(np.eye(3), np.eye(3), np.zeros((3, 3)))
        res = classify(coin)
        assert res.verdict == Verdict.UNDETERMINED
        assert res.rule == "multiple-stationary-no-criterion"
        assert res.diagnostics["kernel_dim"] == 9
        assert res.diagnostics["drift_slopes"] == [0.0] * 9

    def test_high_dimension_reports_slopes(self):
        rng = np.random.default_rng(43)
        coin = random_shared_basis_coin(rng, 3, matched=1)
        res = classify(coin)
        assert res.verdict == Verdict.UNDETERMINED
        assert res.rule == "multiple-stationary-no-criterion"
        slopes = res.diagnostics["drift_slopes"]
        assert len(slopes) == 3
        assert min(abs(x) for x in slopes) < 1e-12

    def test_degenerate_kernel(self, monkeypatch):
        note = "one-dimensional kernel with near-zero trace; cannot normalize"
        analysis = StationaryAnalysis(kernel_dim=1, stationary_basis=[np.diag([1.0, -1.0])],
                                      unique_stationary=False, degenerate=True, note=note)
        monkeypatch.setattr(classify_module, "stationary_states", lambda coin: analysis)
        res = classify(shared_eigenbasis_coin(1.5, 1.0))
        assert res.verdict == Verdict.UNDETERMINED
        assert res.rule == "degenerate-stationary-kernel"
        assert res.diagnostics == {"kernel_dim": 1, "degenerate": note}


class TestClassifyDiagonal:
    """classify on coins whose jump operators are diagonal."""

    def test_balanced_fixture_recurrent(self):
        coin = validate_coin(
            np.diag([SQRT2, np.sqrt(11.0)]),
            np.diag([np.sqrt(5.0), 2.0 * SQRT2]),
            np.array([[1.0, 1.0 - 2.0j], [1.0 + 2.0j, 1.0]]),
        )
        res = classify(coin)
        assert res.verdict == Verdict.RECURRENT
        assert res.rule == "unique-stationary-zero-drift"

    def test_scalar_like_transient(self):
        coin = validate_coin(np.eye(2), 2.0 * np.eye(2), np.zeros((2, 2)))
        res = classify(coin)
        assert res.verdict == Verdict.TRANSIENT
        assert not res.unique_stationary

    def test_equal_pair_recurrent(self):
        d = np.diag([1.0, 2.0])
        coin = validate_coin(d, d, np.diag([0.4, -0.2]))
        res = classify(coin)
        assert res.verdict == Verdict.RECURRENT

    def test_closed_forms_on_random_coins(self):
        # A mixing Hamiltonian leaves I/2 the unique stationary state, so
        # m = (sum |a_i|^2 - sum |c_i|^2) / 2. A diagonal one keeps every
        # basis projector stationary; the identity is then the shared basis
        # and the verdict follows from which rate pairs |a_i| = |c_i| match.
        rng = np.random.default_rng(40)
        seen = set()
        for k in range(200):
            if k % 4 == 0:
                coin = random_diagonal_coin(rng, diagonal_ham=True)
            elif k % 4 == 1:
                coin = random_diagonal_coin(rng, diagonal_ham=False)
            elif k % 4 == 2:
                # force one matched rate pair: partially recurrent candidates
                r = rng.uniform(0.3, 1.2)
                c = np.diag([r, rng.uniform(0.3, 1.2)])
                a = np.diag([r * np.exp(1j * rng.uniform(0, 2 * np.pi)), rng.uniform(0.3, 1.2)])
                coin = validate_coin(c, a, np.diag(rng.uniform(-1, 1, size=2)).astype(complex))
            else:
                # force both rates matched: recurrent
                r1, r2 = rng.uniform(0.3, 1.2, size=2)
                c = np.diag([r1, r2])
                a = np.diag([r1, r2]) * np.exp(1j * rng.uniform(0, 2 * np.pi))
                coin = validate_coin(c, a, np.diag(rng.uniform(-1, 1, size=2)).astype(complex))
            res = classify(coin)
            c, a = np.abs(np.diag(coin.left)), np.abs(np.diag(coin.right))
            s2 = float(np.sum(c ** 2 + a ** 2))
            assert res.unique_stationary == (k % 4 == 1), (k, res)
            if res.unique_stationary:
                m = 0.5 * float(np.sum(a ** 2 - c ** 2))
                assert abs(res.m - m) < 1e-8
                expected = Verdict.RECURRENT if abs(m) <= 1e-9 * s2 else Verdict.TRANSIENT
                assert res.verdict == expected, (k, res)
            else:
                unequal = np.abs(a - c) > 1e-9 * np.sqrt(s2)
                if unequal.all():
                    assert res.verdict == Verdict.TRANSIENT, (k, res)
                elif not unequal.any():
                    assert res.verdict == Verdict.RECURRENT, (k, res)
                else:
                    assert res.verdict == Verdict.PARTIALLY_RECURRENT, (k, res)
                    basis_state = np.diag(unequal.astype(complex))
                    assert same_projector(res.transient_state, basis_state)
            seen.add(res.verdict)
        assert seen == {Verdict.RECURRENT, Verdict.TRANSIENT, Verdict.PARTIALLY_RECURRENT}


def spectrum(coin):
    return drift_spectrum(coin)[0]


def covariance_coins():
    """The shipped coins and 50 random d = 2 coins diagonal in a random basis."""
    rng = np.random.default_rng(44)
    shipped = [load_coin(path) for path in sorted(COINS.glob("*.json"))]
    return shipped + [random_shared_basis_coin(rng, 2, matched=k % 3) for k in range(50)]


class TestDriftSpectrumCovariance:
    """Symmetries of the walk act on the drift spectrum and leave verdicts."""

    def test_slopes_in_original_units(self):
        seen = set()
        for coin in covariance_coins():
            res = classify(coin)
            seen.add(res.verdict)
            slopes = res.diagnostics.get("drift_slopes", [res.m])
            assert np.allclose(slopes, spectrum(coin), rtol=0, atol=1e-10 * coin.rate_scale)
        assert seen == {Verdict.RECURRENT, Verdict.TRANSIENT, Verdict.PARTIALLY_RECURRENT}

    def test_unitary_change_of_basis(self):
        rng = np.random.default_rng(45)
        for coin in covariance_coins():
            base = classify(coin)
            u = random_unitary(rng, coin.dim)
            rotated = validate_coin(u @ coin.left @ u.conj().T, u @ coin.right @ u.conj().T,
                                    u @ coin.ham @ u.conj().T)
            res = classify(rotated)
            assert res.verdict == base.verdict
            assert np.allclose(spectrum(rotated), spectrum(coin), rtol=0,
                               atol=1e-10 * coin.rate_scale)
            if base.transient_state is not None:
                expected = u @ base.transient_state @ u.conj().T
                assert same_projector(res.transient_state, expected)

    def test_mirror_negates_slopes(self):
        for coin in covariance_coins():
            base = classify(coin)
            mirrored = validate_coin(coin.right, coin.left, coin.ham)
            res = classify(mirrored)
            assert res.verdict == base.verdict
            assert np.allclose(spectrum(mirrored), -spectrum(coin)[::-1], rtol=0,
                               atol=1e-10 * coin.rate_scale)
            if base.transient_state is not None:
                assert same_projector(res.transient_state, base.transient_state)

    @pytest.mark.parametrize("s", [0.3, 2.5])
    def test_rescaling_multiplies_slopes(self, s):
        for coin in covariance_coins():
            base = classify(coin)
            scaled = validate_coin(s * coin.left, s * coin.right, s * s * coin.ham)
            res = classify(scaled)
            assert res.verdict == base.verdict
            assert np.allclose(spectrum(scaled), s * s * spectrum(coin), rtol=0,
                               atol=1e-10 * scaled.rate_scale)
            if base.transient_state is not None:
                assert same_projector(res.transient_state, base.transient_state)


class TestInvariances:
    def test_unitary_invariance_of_verdict(self):
        rng = np.random.default_rng(41)
        fixtures = [
            diagonal_jumps_coin(2.0 * SQRT2),
            diagonal_jumps_coin(3.0),
            shared_eigenbasis_coin(1.7, 2.0),
            tilted_pair_coin(0.0, 4.0 / 3.0),
            three_level_coin(0.0),
        ]
        for coin in fixtures:
            base = classify(coin)
            for _ in range(3):
                u = random_unitary(rng, coin.dim)
                rotated = validate_coin(
                    u @ coin.left @ u.conj().T,
                    u @ coin.right @ u.conj().T,
                    u @ coin.ham @ u.conj().T,
                )
                res = classify(rotated)
                assert res.verdict == base.verdict
                if base.verdict == Verdict.PARTIALLY_RECURRENT:
                    expected = u @ np.asarray(base.transient_state) @ u.conj().T
                    assert same_projector(res.transient_state, expected)

    def test_joint_scaling_covariance(self):
        # scaling (C, A) by lam and H by |lam|^2 rescales time only: the verdict
        # is preserved and m picks up a factor |lam|^2. The boundary and kernel
        # tolerances are relative to the coin's scale, so this holds far from
        # unit rates too
        fixtures = [
            (diagonal_jumps_coin(3.0), 0.5),
            (tilted_pair_coin(0.0, 4.0 / 3.0), 2.0),
            (three_level_coin(0.0), 0.7),
            (shared_eigenbasis_coin(1.7, 2.0), 1.3),
            (three_level_coin(0.0), 1e-3),
            (tilted_pair_coin(0.0, 4.0 / 3.0), 1e-3),
            (shared_eigenbasis_coin(1.7, 2.0), 1e-3),
            (three_level_coin(1.0), 1e2),
            (diagonal_jumps_coin(3.0), 1e2),
            (shared_eigenbasis_coin(1.0, 2.5), 1e2),
        ]
        for coin, lam in fixtures:
            base = classify(coin)
            scaled = validate_coin(
                lam * coin.left, lam * coin.right, abs(lam) ** 2 * coin.ham
            )
            res = classify(scaled)
            assert res.verdict == base.verdict
            if base.m is not None:
                assert res.m == pytest.approx(abs(lam) ** 2 * base.m,
                                              abs=1e-9 * abs(lam) ** 2)

    def test_random_coins_always_classify(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            coin = random_coin(rng, int(rng.integers(2, 4)))
            res = classify(coin)
            assert res.verdict in set(Verdict)
            assert res.rule
            if res.unique_stationary:
                assert res.m is not None

    def test_normalization_reports_original_units(self):
        # m is computed on the coin as given, in the caller's units; only the
        # boundary tolerance scales with |C|_F^2 + |A|_F^2
        coin = scalar_coin(2.0, 1.0)
        big = validate_coin(10.0 * coin.left, 10.0 * coin.right, coin.ham)
        assert classify(big).m == pytest.approx(300.0, abs=1e-7)
