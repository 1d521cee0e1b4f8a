"""Dense matrix kernels shared by the rest of the package.

Conventions used everywhere:

* States live in the real coordinates :func:`hvec` of an orthonormal basis
  of the Hermitian matrices (:func:`hermitian_basis`), where Tr X is the sum
  of the first d coordinates. A map that keeps matrices Hermitian, like every
  part of the walk's generator, is a real matrix there; its adjoint is the
  transpose.
* ``vec`` is COLUMN-stacking, so ``vec(L @ rho @ R) = kron(R.T, L) @ vec(rho)``;
  :func:`superop_matrix` builds superoperators on it.
* Matrices are ``numpy.ndarray``, real or complex; no wrapper classes.
"""
from __future__ import annotations

import functools
import itertools
import math

import numpy as np

__all__ = [
    "hermitian_basis",
    "hunvec",
    "hvec",
    "mat_exp",
    "mat_exp_integral",
    "null_space",
    "superop_matrix",
    "vec",
    "unvec",
]

# Pade-13 coefficients for the scaling-and-squaring exponential.
_PADE13_B = (
    64764752532480000.0,
    32382376266240000.0,
    7771770303897600.0,
    1187353796428800.0,
    129060195264000.0,
    10559470521600.0,
    670442572800.0,
    33522128640.0,
    1323241920.0,
    40840800.0,
    960960.0,
    16380.0,
    182.0,
    1.0,
)
# 1-norm threshold below which the degree-13 approximant reaches machine
# precision without scaling (Higham 2005).
_PADE13_THETA = 5.371920351148152


def _as_square(m, stacked: bool = False) -> np.ndarray:
    a = np.asarray(m, dtype=complex if np.iscomplexobj(m) else float)
    if (a.ndim < 2 if stacked else a.ndim != 2) or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    return a


def mat_exp(m, t: float = 1.0) -> np.ndarray:
    """Matrix exponential e^{t m} by scaling-and-squaring with a Pade-13 core.

    ``m`` is one square matrix or a stack of shape ``(..., n, n)``; a stack
    is exponentiated matrix by matrix in one vectorized pass, in real
    arithmetic when ``m`` is real. Relative
    accuracy is at machine-precision level for any square input; the scaling
    power is chosen from the largest 1-norm of ``t*m`` in the stack.

    Not ``scipy.linalg.expm``: on G0 of a Jordan coin as validate_coin builds
    it ([[-1, 1], [0, -1]] with the diagonal split by one rounding), scipy
    1.17.1 is off from e^{-t}[[1, t], [0, 1]] by up to 1.2e-2 for t in
    [0, 20], and this routine by at most 2.2e-16.
    """
    a = _as_square(m, stacked=True) * t
    ident = np.eye(a.shape[-1], dtype=a.dtype)
    norm = float(np.abs(a).sum(axis=-2).max())
    if norm == 0.0:
        return np.broadcast_to(ident, a.shape).copy()
    s = max(0, int(np.ceil(np.log2(norm / _PADE13_THETA))))
    a = a / (2.0**s)

    b = _PADE13_B
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (
        a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
        + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident
    )
    v = (
        a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
        + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident
    )
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def mat_exp_integral(m, v, t: float = 1.0):
    """The pair (e^{t m}, int_0^t e^{s m} v ds) for a square m, or a stack of
    them with v of shape (..., n), doubled from tau = t / 2^s, |tau m|_1 < 1.

    At tau, e^{tau m} is one :func:`mat_exp`, and the integral tau phi_1(tau m) v,
    phi_1(x) = (e^x - 1)/x, is 19 Taylor terms on the vector (remainder at most
    tau |v| e/20!). Then s times c <- E c + c, E <- E^2: the pair Van Loan's
    exponential of [[t m, t v], [0, 0]] holds, without its larger matrix.
    """
    a, v = _as_square(m, stacked=True), np.asarray(v)
    if v.shape[-1:] != a.shape[-1:] or not (np.isfinite(v).all() and np.isfinite(t)):
        raise ValueError(f"need a finite vector of length {a.shape[-1]} and a finite t")
    s = max(0, math.frexp(float(np.abs(a).sum(axis=-2).max()) * abs(t))[1])
    tau = t / 2.0**s
    e, y = mat_exp(a * tau), v
    for j in range(19, 1, -1):
        y = v + (a @ y[..., None])[..., 0] * (tau / j)
    c = y * tau
    for _ in range(s):
        c, e = (e @ c[..., None])[..., 0] + c, e @ e
    return e, c


def null_space(m, rel_tol: float = 1e-10, scale: float | None = None) -> list[np.ndarray]:
    """Orthonormal basis of the right kernel of ``m``.

    Kernel directions are the right-singular vectors whose singular value is
    below ``rel_tol * scale``, the scale defaulting to sigma_max. A zero
    matrix yields the full space. A real matrix has a real kernel basis.
    """
    a = np.asarray(m, dtype=complex if np.iscomplexobj(m) else float)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {a.shape}")
    if not (0.0 < rel_tol < 1.0):
        raise ValueError("rel_tol must lie in (0, 1)")
    _, s, vh = np.linalg.svd(a)
    # a wide matrix has fewer singular values than rows of vh; the rest are 0
    sigma = np.zeros(a.shape[1])
    sigma[:s.size] = s
    smax = sigma[0] if sigma.size else 0.0
    tol = rel_tol * (smax if scale is None else scale)
    return [v.conj() for v in vh[(sigma < tol) | (smax == 0.0)]]


def superop_matrix(left_right_pairs) -> np.ndarray:
    """Matrix of ``rho -> sum_k L_k rho R_k`` in the column-stacking vec basis.

    Returns the d^2 x d^2 matrix ``S`` with ``S @ vec(rho) = vec(sum L rho R)``
    via the identity ``vec(L rho R) = kron(R.T, L) vec(rho)``.
    """
    pairs = [( _as_square(l), _as_square(r)) for l, r in left_right_pairs]
    if not pairs:
        raise ValueError("need at least one (L, R) pair")
    d = pairs[0][0].shape[0]
    for l, r in pairs:
        if l.shape[0] != d or r.shape[0] != d:
            raise ValueError("all pairs must share one dimension")
    s = np.zeros((d * d, d * d), dtype=complex)
    for l, r in pairs:
        # kron(r.T, l), without np.kron's per-call overhead
        s += (r.T[:, None, :, None] * l[None, :, None, :]).reshape(d * d, d * d)
    return s


def vec(m) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(m, dtype=complex).reshape(-1, order="F")


def unvec(v, d: int | None = None) -> np.ndarray:
    """Inverse of :func:`vec` for a square matrix."""
    a = np.asarray(v, dtype=complex).ravel()
    if d is None:
        d = int(round(np.sqrt(a.size)))
    if d * d != a.size:
        raise ValueError(f"length {a.size} is not a square")
    return a.reshape(d, d, order="F")


@functools.lru_cache(maxsize=None)
def hermitian_basis(d: int) -> np.ndarray:
    """Columns vec(B) of an orthonormal basis of the Hermitian d x d matrices.

    The d diagonal units E_ii come first, so Tr X is the sum of the first d
    coordinates of X; each pair i < j adds (E_ij + E_ji)/sqrt 2 and
    i (E_ij - E_ji)/sqrt 2. The d^2 x d^2 matrix is unitary."""
    eye = np.eye(d)
    units = [np.outer(e, e) for e in eye]
    for i, j in itertools.combinations(range(d), 2):
        e = np.outer(eye[i], eye[j])
        units += [(e + e.T) / np.sqrt(2.0), 1j * (e - e.T) / np.sqrt(2.0)]
    basis = np.array([vec(b) for b in units]).T
    basis.setflags(write=False)
    return basis


def hvec(m) -> np.ndarray:
    """Real coordinates in :func:`hermitian_basis` of a Hermitian matrix, or
    of each matrix of a stack ``(..., d, d)``."""
    a = np.asarray(m, dtype=complex)
    d = a.shape[-1]
    flat = a.swapaxes(-1, -2).reshape(a.shape[:-2] + (d * d,))
    return (flat @ hermitian_basis(d).conj()).real


def hunvec(c) -> np.ndarray:
    """The d x d matrix with coordinates c (real or complex), or a stack of
    them for c of shape ``(..., d^2)``; Hermitian for real c."""
    c = np.asarray(c)
    d = math.isqrt(c.shape[-1])
    return (c @ hermitian_basis(d).T).reshape(c.shape[:-1] + (d, d)).swapaxes(-1, -2)
