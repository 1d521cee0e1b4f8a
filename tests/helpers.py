"""Shared helpers for the test suite: random coin factories and matrix probes."""

import numpy as np
import scipy.optimize

from ctoqw import Coin, mat_exp, validate_coin, vec
from ctoqw.lattice import _theta_max
from ctoqw.model import symbol_parts


def random_hermitian(rng, d: int, scale: float = 1.0) -> np.ndarray:
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return scale * (m + m.conj().T) / 2.0


def random_matrix(rng, d: int, scale: float = 1.0) -> np.ndarray:
    return scale * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))


def random_unitary(rng, d: int) -> np.ndarray:
    q, r = np.linalg.qr(random_matrix(rng, d))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_coin(rng, d: int, ham_scale: float = 1.0) -> Coin:
    return validate_coin(
        random_matrix(rng, d, 0.8),
        random_matrix(rng, d, 0.8),
        random_hermitian(rng, d, ham_scale),
    )


def random_diagonal_coin(rng, d: int = 2, diagonal_ham: bool = False) -> Coin:
    c = np.diag(rng.uniform(0.2, 1.5, size=d) * np.exp(2j * np.pi * rng.random(d)))
    a = np.diag(rng.uniform(0.2, 1.5, size=d) * np.exp(2j * np.pi * rng.random(d)))
    if diagonal_ham:
        h = np.diag(rng.uniform(-1.0, 1.0, size=d)).astype(complex)
    else:
        h = random_hermitian(rng, d)
    return validate_coin(c, a, h)


def random_shared_basis_coin(rng, d: int = 2, matched: int = 0) -> Coin:
    """C, A and H diagonal in one random orthonormal basis, so every basis
    projector is stationary; the first ``matched`` levels have |a_i| = |c_i|."""
    c = rng.uniform(0.2, 1.5, size=d) * np.exp(2j * np.pi * rng.random(d))
    a = rng.uniform(0.2, 1.5, size=d) * np.exp(2j * np.pi * rng.random(d))
    a[:matched] = np.abs(c[:matched]) * np.exp(2j * np.pi * rng.random(matched))
    u = random_unitary(rng, d)
    return validate_coin(u @ np.diag(c) @ u.conj().T, u @ np.diag(a) @ u.conj().T,
                         u @ np.diag(rng.uniform(-1.0, 1.0, size=d)) @ u.conj().T)


def random_density(rng, d: int) -> np.ndarray:
    m = random_matrix(rng, d)
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def same_projector(p, q, tol: float = 1e-8) -> bool:
    return np.max(np.abs(np.asarray(p) - np.asarray(q))) < tol


def complex_chernoff_tail(stay, ahead, behind, v, dist: int, theta_max: float) -> float:
    """The Chernoff tail of one edge on the complex d^2 x d^2 tilted symbol.

    Bounded Brent over 0..theta_max with ``np.linalg.eigvals`` at every step,
    then one exponential of M(theta) shifted by its abscissa: the form
    ``lattice.leak_bound`` had before it moved to the real form.
    """
    def tilted(theta):
        return stay + np.exp(theta) * ahead + np.exp(-theta) * behind

    def abscissa(m):
        return float(np.linalg.eigvals(m).real.max())

    theta = scipy.optimize.minimize_scalar(
        lambda th: abscissa(tilted(th)) - th * dist,
        bounds=(0.0, theta_max), method="bounded").x
    m = tilted(theta)
    mu = abscissa(m)
    d = int(round(np.sqrt(v.size)))
    moment = float((mat_exp(m - mu * np.eye(len(m)))[:: d + 1].sum(axis=0) @ v).real)
    if not np.isfinite(moment) or moment < np.finfo(float).tiny:
        return 1.0
    return float(np.exp(min(mu + np.log(moment) - theta * dist, 0.0)))


def complex_leak_bound(coin: Coin, rho, i0: int, radius: int, t: float) -> float:
    """``lattice.leak_bound`` (t > 0) from :func:`complex_chernoff_tail`, same theta range."""
    stay, right, left = (t * m for m in symbol_parts(coin))
    t_rate = t * coin.rate_scale
    total = sum(complex_chernoff_tail(stay, ahead, behind, vec(rho), dist,
                                      _theta_max(dist, t_rate))
                for ahead, behind, dist in ((right, left, radius + 1 - i0),
                                            (left, right, radius + 1 + i0)))
    return min(1.0, total)
