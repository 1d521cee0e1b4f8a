"""Internal-state generator: stationary states, drift and the drift spectrum.

Ignoring position, the internal d-dimensional state of the walk evolves under

    L(rho) = -i[H, rho] - {C*C + A*A, rho}/2 + C rho C* + A rho A*,

a trace-annihilating Lindblad generator built from the coin. Its kernel holds
the stationary internal states; when that kernel is one-dimensional the walk
has a well-defined net velocity

    m = Tr(A rho_inv A*) - Tr(C rho_inv C*),

and the centered observable admits a drift operator J solving
L*(J) = -(A*A - C*C - m I), unique up to multiples of the identity.

L is the Fourier symbol L_k = S + e^{ik} R + e^{-ik} L at k = 0, whose zero
eigenvalue is semisimple; on hvec coordinates it is real, and L* is its
transpose. With V its right kernel and W its left kernel (the conserved
quantities), the branches of L_k through 0 leave with slopes lambda'(0) / i
equal to the eigenvalues of the compression (W^T V)^{-1} W^T (R - L) V: the
drift spectrum. A unique stationary state gives the single slope m.

V and W come from one SVD of L per coin (``Coin.lindblad_svd``), so they
share one dimension, and are split from it once per coin
(``Coin.lindblad_kernels``). :func:`stationary_states` reports V as
``stationary_basis``, Hermitian matrices orthonormal in their real
coordinates. They need not be states; the state of each branch comes from
:func:`drift_spectrum`. :func:`drift` checks a caller's state.

The solves on the kernels (order at most d^2) reach LAPACK through numpy's
own gufuncs (``linalg``), with np.linalg's bits. Only
:func:`common_eigenstructure`, which no verdict calls but bench/tracer.py
wraps, imports scipy (its Schur form), so scipy stays a dependency.

The coin is read only through ``Coin.symbol``, its kernels,
``Coin.rate_scale`` and its dimension; states enter as coordinates through
``density_for``.
:func:`internal_lindblad` applies L to a matrix directly, as a reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import eig, eigvalsh, hunvec, lapack, solve
# null_space and superop_matrix are unused here but stay bound: bench/tracer.py wraps them.
from .linalg import null_space, superop_matrix  # noqa: F401
from .model import Coin, density_for

# A candidate stationary state may not dip below this eigenvalue.
PSD_FLOOR = -1e-10
# Kernel elements with |trace| below this cannot be normalized to a state.
TRACE_FLOOR = 1e-10
# Relative Frobenius tolerances for common_eigenstructure.
NORMALITY_RTOL = 1e-10
COMMUTE_RTOL = 1e-10
# Bounds on |L(rho)| in drift() and on |Im slope| in drift_spectrum, relative to the rate scale.
STATIONARY_RTOL = 1e-8
DRIFT_IMAG_RTOL = 1e-12

# tau values with irrational pairwise ratios; two suffice in exact arithmetic.
_TAUS = (0.6180339887498949, 0.41421356237309515, 1.7320508075688772, 0.3183098861837907)


@dataclass(frozen=True)
class StationaryAnalysis:
    """Kernel of the internal generator and, when unique, its stationary state;
    ``stationary_basis`` is V as Hermitian d x d matrices, not necessarily states."""

    kernel_dim: int
    stationary_basis: list
    unique_stationary: bool
    rho_inv: np.ndarray | None = None
    degenerate: bool = False
    note: str = ""


def internal_lindblad(coin: Coin, rho) -> np.ndarray:
    """Apply L to a Hermitian matrix directly: a reference to check ``Coin.symbol`` against."""
    r = np.asarray(rho, dtype=complex)
    if r.shape != (coin.dim, coin.dim):
        raise ValueError(f"state shape {r.shape} does not match coin dimension {coin.dim}")
    c, a, h = coin.left, coin.right, coin.ham
    rate = coin.rate_operator()
    out = -1j * (h @ r - r @ h)
    out -= 0.5 * (rate @ r + r @ rate)
    out += c @ r @ c.conj().T
    out += a @ r @ a.conj().T
    return out


def internal_lindblad_matrix(coin: Coin) -> np.ndarray:
    """Real d^2 x d^2 matrix with M @ hvec(rho) = hvec(L(rho)): the symbol at k = 0."""
    stay, right, left = coin.symbol
    return stay + left + right


@lapack
def stationary_states(coin: Coin) -> StationaryAnalysis:
    """Kernel of L, and the stationary density when it is unique.

    ``stationary_basis`` is the orthonormal right kernel V of the real matrix
    of L, as Hermitian d x d matrices. If the kernel is one-dimensional, its
    element b normalized by its trace is the stationary density. A near-zero
    trace is flagged as numerical degeneracy instead of dividing.
    """
    kernel, _ = coin.lindblad_kernels
    basis = [hunvec(v) for v in kernel.T]
    kdim = len(basis)
    if kdim != 1:
        return StationaryAnalysis(kernel_dim=kdim, stationary_basis=basis,
                                  unique_stationary=False,
                                  note=f"{kdim} independent stationary directions")
    tr = float(kernel[:coin.dim, 0].sum())
    if abs(tr) < TRACE_FLOOR:
        note = "one-dimensional kernel with near-zero trace; cannot normalize"
    else:
        rho = basis[0] / tr
        lo = float(eigvalsh(rho)[0])
        if lo >= PSD_FLOOR:
            return StationaryAnalysis(kernel_dim=1, stationary_basis=basis,
                                      unique_stationary=True, rho_inv=rho)
        note = f"normalized kernel element has eigenvalue {lo:.3e}"
    return StationaryAnalysis(kernel_dim=1, stationary_basis=basis, unique_stationary=False,
                              degenerate=True, note=note)


def drift(coin: Coin, rho_inv) -> float:
    """Net velocity m = Tr(A rho A*) - Tr(C rho C*) at a stationary state.

    rho_inv must be a state (``density_for``) with |L v| at most STATIONARY_RTOL
    times ``Coin.rate_scale``, v its coordinates; m is the trace row of R - L times v.
    """
    v = density_for(coin, rho_inv)
    _, right, left = coin.symbol
    scale = coin.rate_scale
    resid = float(np.linalg.norm(internal_lindblad_matrix(coin) @ v))
    if resid > STATIONARY_RTOL * scale:
        raise ValueError(f"state is not stationary: |L(rho)| = {resid:.3e} "
                         f"at rate scale {scale:.3e}")
    return float((right[:coin.dim] - left[:coin.dim]).sum(axis=0) @ v)


@lapack
def drift_spectrum(coin: Coin) -> tuple[np.ndarray, list]:
    """Slopes of the branches of L_k through 0, and the state of each branch.

    The slopes are the eigenvalues of (W^T V)^{-1} W^T (R - L) V in ascending
    order, V and W the kernels of L (``Coin.lindblad_kernels``); a unique
    stationary state gives the one slope m. An imaginary part above
    ``DRIFT_IMAG_RTOL`` times ``Coin.rate_scale`` raises ``ArithmeticError``,
    and a failed or non-finite solve ``np.linalg.LinAlgError``. A branch state is V
    times the real part of the slope's eigenvector, divided by its own trace,
    or None when that trace is below ``TRACE_FLOOR`` relative to its norm
    (possible only inside a repeated slope, where the eigenvectors are not
    unique).
    """
    _, right, left = coin.symbol
    scale = coin.rate_scale
    v, w = coin.lindblad_kernels
    values, vectors = eig(solve(w.T @ v, w.T @ (right - left) @ v))
    worst = float(np.abs(values.imag).max())
    if worst > DRIFT_IMAG_RTOL * scale:
        raise ArithmeticError(f"drift slope has imaginary part {worst:.3e} "
                              f"at rate scale {scale:.3e}")
    slopes = values.real
    order = np.argsort(slopes)
    states = []
    for col in (v @ vectors.real[:, order]).T:
        tr = float(col[:coin.dim].sum())
        small = abs(tr) <= TRACE_FLOOR * float(np.linalg.norm(col))
        states.append(None if small else hunvec(col / tr))
    return slopes[order], states


def solve_drift_operator(coin: Coin, m: float) -> tuple[np.ndarray, float]:
    """Least-squares J with L*(J) = -(A*A - C*C - m I), gauge Tr(J) = 0.

    The adjoint acts as the transpose of the real matrix of L, so J is
    Hermitian; hvec(A*A - C*C) is the trace row of R - L. Solutions differ
    by multiples of the identity (which L* annihilates), so the returned J
    is the trace-free representative. The residual |L*(J) + (A*A - C*C - m I)|
    is reported always; it is small exactly when a true solution exists.
    """
    d = coin.dim
    _, right, left = coin.symbol
    s_adj = internal_lindblad_matrix(coin).T
    # The identity has coordinates 1 on the d diagonal units and 0 elsewhere.
    rhs = (left[:d] - right[:d]).sum(axis=0)
    rhs[:d] += m
    x, *_ = np.linalg.lstsq(s_adj, rhs, rcond=None)
    x[:d] -= x[:d].mean()
    return hunvec(x), float(np.linalg.norm(s_adj @ x - rhs))


def _is_normal(m: np.ndarray) -> bool:
    n2 = float(np.linalg.norm(m)) ** 2
    if n2 == 0.0:
        return True
    return float(np.linalg.norm(m @ m.conj().T - m.conj().T @ m)) <= NORMALITY_RTOL * n2


def common_eigenstructure(c, a) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Shared orthonormal eigenbasis of a commuting normal pair (d = 2 only).

    Returns (U, c_diag, a_diag) with U unitary and U* C U, U* A U diagonal,
    or None when the pair is not normal-and-commuting at tolerance. The basis
    is found by diagonalizing C + tau A for an irrational tau, retrying with
    a fresh tau if that combination has a degenerate spectrum.
    """
    cm = np.asarray(c, dtype=complex)
    am = np.asarray(a, dtype=complex)
    if cm.shape != (2, 2) or am.shape != (2, 2):
        raise ValueError("shared-eigenbasis extraction is defined for 2x2 pairs only")
    if not (_is_normal(cm) and _is_normal(am)):
        return None
    nc, na = np.linalg.norm(cm), np.linalg.norm(am)
    if float(np.linalg.norm(cm @ am - am @ cm)) > COMMUTE_RTOL * max(nc * na, 1e-300):
        return None

    import scipy.linalg  # only here: `import ctoqw` loads no scipy.linalg

    scale = max(nc, na, 1e-300)
    last = None
    for tau in _TAUS:
        t, u = scipy.linalg.schur(cm + tau * am, output="complex")
        cd = u.conj().T @ cm @ u
        ad = u.conj().T @ am @ u
        off = max(abs(cd[0, 1]), abs(cd[1, 0]), abs(ad[0, 1]), abs(ad[1, 0]))
        last = (u, np.diag(cd).copy(), np.diag(ad).copy(), off)
        if off <= 1e-8 * scale and abs(t[0, 0] - t[1, 1]) > 1e-12 * scale:
            return last[:3]
    # Degenerate spectra for every tau means C and A are both (near) scalar,
    # in which case any orthonormal basis that passed the off-diagonal check
    # serves as the shared basis.
    if last is not None and last[3] <= 1e-8 * scale:
        return last[:3]
    return None
