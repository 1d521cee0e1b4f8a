"""Domain types for walks on the integer line with an internal degree of freedom.

A walk is specified by a *coin*: a triple of d x d complex matrices
``(left, right, ham)`` where ``left`` is the rate operator for jumps to the
neighbouring site on the left, ``right`` the one for jumps to the right, and
``ham`` an on-site Hamiltonian. Between jumps the (unnormalized) internal
state evolves by the contraction semigroup generated by

    G0 = -i ham - (left* left + right* right) / 2,

which satisfies G0 + G0* = -(left* left + right* right). On the real
coordinates hvec(X) the walk's generator has the Fourier symbol
L_k = S + e^{ik} R + e^{-ik} L, S, R, L real (``symbol_parts``, once per coin
as ``Coin.symbol``): S is the no-jump flow X -> G0 X + X G0*, R and L the
jumps X -> A X A*, C X C*. A state enters every layer once, through
``density_for``, which checks it and returns its coordinates hvec(rho).
"""
from __future__ import annotations

import functools
import json
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import eigvalsh, hermitian_basis, hvec, lapack

__all__ = [
    "Coin",
    "validate_coin",
    "no_jump_generator",
    "symbol_parts",
    "density_from_pure",
    "check_density",
    "density_for",
    "coin_from_dict",
    "coin_to_dict",
    "load_coin",
    "save_coin",
]

# Hermiticity handling for the supplied Hamiltonian: defects below the silent
# tolerance are rounding noise, defects up to the warn tolerance are fixed
# with a warning, anything larger is rejected as a likely user error.
HAM_SILENT_TOL = 1e-10
HAM_WARN_TOL = 1e-6
# check_density's limits on the Hermiticity defect, eigenvalues and trace.
DENSITY_HERM_TOL = 1e-10
DENSITY_EIG_FLOOR = -1e-10
DENSITY_TRACE_TOL = 1e-10
# Singular values of L_0 below KERNEL_RTOL * Coin.rate_scale count as kernel directions.
KERNEL_RTOL = 1e-10


@dataclass(frozen=True, eq=False)
class Coin:
    """Immutable walk specification (left/right jump operators, Hamiltonian),
    equal only to itself: coins compare and hash by identity."""

    left: np.ndarray
    right: np.ndarray
    ham: np.ndarray
    dim: int
    ham_defect: float = 0.0

    def __post_init__(self):
        _read_only((self.left, self.right, self.ham))

    def rate_operator(self) -> np.ndarray:
        """left*left + right*right, the total jump-rate operator."""
        return self.left.conj().T @ self.left + self.right.conj().T @ self.right

    @functools.cached_property
    def symbol(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Real (S, R, L) of :func:`symbol_parts`, built once; read-only like the matrices."""
        return _read_only(symbol_parts(self))

    @functools.cached_property
    def lindblad_svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(U, s, V^T) of np.linalg.svd(S + L + R), the symbol at k = 0, built once and
        read-only; its small singular values pair the right and left kernels of L_0."""
        stay, right, left = self.symbol
        return _read_only(tuple(np.linalg.svd(stay + left + right)))

    @functools.cached_property
    def lindblad_kernels(self) -> tuple[np.ndarray, np.ndarray]:
        """Right and left kernels (V, W) of L_0 as columns, split once from
        :attr:`lindblad_svd` and read-only: the singular vectors whose singular
        value is below KERNEL_RTOL * rate_scale."""
        u, s, vt = self.lindblad_svd
        small = s < KERNEL_RTOL * self.rate_scale
        if not small.any():
            raise ArithmeticError(
                "empty stationary kernel: a finite-dimensional Lindblad semigroup "
                "always has a stationary state, so this is a numerical failure"
            )
        return _read_only((vt[small].T, u[:, small]))

    @functools.cached_property
    def rate_scale(self) -> float:
        """|C*C + A*A| + |H|: (C, A, H) -> (sC, sA, s^2 H) multiplies it by s^2,
        like L and m, so tolerances relative to it are scale-covariant."""
        return float(np.linalg.norm(self.rate_operator()) + np.linalg.norm(self.ham))


def _read_only(arrays: tuple) -> tuple:
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _integer(value, name: str) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


def _square(a, name: str, d: int | None) -> np.ndarray:
    m = np.array(a, dtype=complex)
    if m.ndim == 0:
        m = m.reshape(1, 1)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    if d is not None and m.shape[0] != d:
        raise ValueError(f"{name} is {m.shape[0]}x{m.shape[0]}, expected d={d}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} has non-finite entries")
    return m


def validate_coin(left, right, ham, d: int | None = None) -> Coin:
    """Validate raw matrices and build a :class:`Coin`.

    The Hamiltonian is symmetrized to (ham + ham*)/2; the defect magnitude is
    recorded on the coin. A coin whose jump operators are both zero never
    moves and is rejected.
    """
    c = _square(left, "left", d)
    d = c.shape[0]
    a = _square(right, "right", d)
    h = _square(ham, "ham", d)

    scale = max(1.0, float(np.abs(h).max()))
    defect = float(np.abs(h - h.conj().T).max())
    if defect > HAM_WARN_TOL * scale:
        raise ValueError(
            f"ham is not Hermitian: defect {defect:.3e} (tolerance {HAM_WARN_TOL:.1e})"
        )
    if defect > HAM_SILENT_TOL * scale:
        warnings.warn(
            f"ham had Hermiticity defect {defect:.3e}; symmetrized", stacklevel=2
        )
    h = (h + h.conj().T) / 2.0

    if np.abs(c).max() == 0.0 and np.abs(a).max() == 0.0:
        raise ValueError("left and right jump operators are both zero; the walk never moves")

    return Coin(left=c, right=a, ham=h, dim=d, ham_defect=defect)


def no_jump_generator(coin: Coin) -> np.ndarray:
    """G0 = -i ham - (left*left + right*right)/2, the between-jump generator."""
    return -1j * coin.ham - 0.5 * coin.rate_operator()


def symbol_parts(coin: Coin) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Real (S, R, L) with L_k = S + e^{ik} R + e^{-ik} L on hvec(X).

    S hvec(X) = hvec(G0 X + X G0*), R hvec(X) = hvec(A X A*) and
    L hvec(X) = hvec(C X C*); S + R + L is the internal Lindblad generator.
    Each is B* M B, M on vec and B the Hermitian basis, less its round-off
    imaginary part; Fortran-ordered, as LAPACK takes it without a copy.
    The Kronecker factors of the four vec terms, I (x) G0 + conj(G0) (x) I,
    conj(A) (x) A and conj(C) (x) C, are multiplied in one broadcast and the
    three M are projected by one stacked product.
    """
    d, g0 = coin.dim, no_jump_generator(coin)
    eye = np.eye(d, dtype=complex)
    outer = np.array((eye, coin.right.conj(), coin.left.conj(), g0.conj()))
    inner = np.array((g0, coin.right, coin.left, eye))
    kron = (outer[:, :, None, :, None] * inner[:, None, :, None, :]).reshape(4, d * d, d * d)
    vec_parts = kron[:3] + 0.0  # the sums start at +0.0, as superop_matrix's do
    vec_parts[0] += kron[3]
    basis = hermitian_basis(d)
    return tuple(np.asfortranarray(p) for p in (basis.conj().T @ vec_parts @ basis).real)


def density_from_pure(v) -> np.ndarray:
    """Normalized rank-one density |v><v| / <v|v>."""
    x = np.asarray(v, dtype=complex).ravel()
    n2 = float(np.vdot(x, x).real)
    if n2 == 0.0:
        raise ValueError("zero vector has no associated state")
    return np.outer(x, x.conj()) / n2


def check_density(rho) -> np.ndarray:
    """Validate a density matrix (Hermitian, PSD up to floor, unit trace).

    Returns the Hermitian-projected matrix; raises ``ValueError`` on violation.
    """
    return _checked_density(_square(rho, "rho", None))


@lapack
def _checked_density(m: np.ndarray) -> np.ndarray:
    """:func:`check_density` on a matrix :func:`_square` has already checked."""
    adjoint = m.conj().T
    scale = max(1.0, float(np.abs(m).max()))
    defect = float(np.abs(m - adjoint).max())
    if defect > DENSITY_HERM_TOL * scale:
        raise ValueError(f"density is not Hermitian: defect {defect:.3e}")
    m = (m + adjoint) / 2.0
    tr = float(m.trace().real)
    if abs(tr - 1.0) > DENSITY_TRACE_TOL:
        raise ValueError(f"density trace {tr!r} differs from 1 beyond {DENSITY_TRACE_TOL:.1e}")
    lo = float(eigvalsh(m)[0])
    if lo < DENSITY_EIG_FLOOR:
        raise ValueError(f"density has eigenvalue {lo:.3e} below floor {DENSITY_EIG_FLOOR:.1e}")
    return m


def density_for(coin: Coin, rho) -> np.ndarray:
    """hvec(rho) for an internal state of the coin (d x d), checked as by :func:`check_density`."""
    return hvec(_checked_density(_square(rho, "state", coin.dim)))


# ---------------------------------------------------------------------------
# Coin file format: {"d": int, "C": [[[re,im],...],...], "A": ..., "H": ...}
# matrices row-major, complex scalars as [re, im] pairs. The keys C/A/H match
# the left/right/ham fields in that order.

def _matrix_to_pairs(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _pairs_to_matrix(rows, name: str) -> np.ndarray:
    try:
        m = np.array([[complex(z[0], z[1]) for z in row] for row in rows])
    except (TypeError, IndexError) as exc:
        raise ValueError(f"{name} must be a matrix of [re, im] pairs") from exc
    return m


def coin_to_dict(coin: Coin) -> dict:
    return {
        "d": coin.dim,
        "C": _matrix_to_pairs(coin.left),
        "A": _matrix_to_pairs(coin.right),
        "H": _matrix_to_pairs(coin.ham),
    }


def coin_from_dict(doc: dict) -> Coin:
    try:
        d = int(doc["d"])
        raw = {k: doc[k] for k in ("C", "A", "H")}
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError("coin document needs keys d, C, A, H") from exc
    mats = {k: _pairs_to_matrix(v, k) for k, v in raw.items()}
    return validate_coin(mats["C"], mats["A"], mats["H"], d=d)


def load_coin(path) -> Coin:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed coin JSON in {path}: {exc}") from exc
    return coin_from_dict(doc)


def save_coin(coin: Coin, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(coin_to_dict(coin), fh, indent=2)
        fh.write("\n")
