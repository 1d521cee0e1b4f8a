"""Reference values for the three-level oracles of the ``lattice`` workload's long march.

Run ``python3 bench/reference.py`` to print them; ``workloads.py`` stores the
printed numbers. They are computed without the package's lattice code: a
translation-invariant walk started at one site is block-diagonalised by the
Fourier transform, so on the infinite line

    p_00(t) = (1/N) sum_k Tr(e^{t L_k} rho0),
    L_k(X)  = G0 X + X G0* + e^{ik} A X A* + e^{-ik} C X C*,

on an N-point k grid (exact up to mass that travels N sites, i.e. never at
these horizons). Time integrals use the Van Loan block exponential, so there
is no quadrature error; only the dense scipy exponential's round-off remains.
The truncated, absorbing lattice of the package differs from these values by
at most its leaked mass, which its own oracle keeps below 1e-8.
"""

from __future__ import annotations

import json

import numpy as np
import scipy.linalg

N_K = 1024


def three_level_c0():
    c = np.array([[0.0, 0, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
    a = np.array([[1.0, 1, 0], [0, 0, 1], [0, 0, 1]], dtype=complex)
    h = np.array([[1.0, 2, 0], [2, 0, 0], [0, 0, 0]], dtype=complex)
    return c, a, h


def symbols(c, a, h, n_k=N_K):
    """L_k on column-stacked vec(X) for k = 2 pi q / n_k, q = 0..n_k-1."""
    d = c.shape[0]
    eye = np.eye(d)
    g0 = -1j * h - 0.5 * (c.conj().T @ c + a.conj().T @ a)
    diag = np.kron(eye, g0) + np.kron(g0.conj(), eye)
    right = np.kron(a.conj(), a)
    left = np.kron(c.conj(), c)
    ks = 2.0 * np.pi * np.arange(n_k) / n_k
    return np.array([diag + np.exp(1j * k) * right + np.exp(-1j * k) * left for k in ks])


def _trace_functional(d):
    return np.eye(d).reshape(-1, order="F")


def return_probability(lk, rho0, t):
    """p_00(t) on the infinite line."""
    d = rho0.shape[0]
    v = rho0.reshape(-1, order="F")
    tr = _trace_functional(d)
    vals = [tr @ scipy.linalg.expm(t * m) @ v for m in lk]
    return float(np.mean(vals).real)


def site_profile(lk, rho0, t):
    """p_j(t) for j = -N/2..N/2-1 on the infinite line (aliasing-free here)."""
    d = rho0.shape[0]
    v = rho0.reshape(-1, order="F")
    tr = _trace_functional(d)
    hat = np.array([tr @ scipy.linalg.expm(t * m) @ v for m in lk])
    # hat(k) = sum_j e^{ikj} p_j, so p_j = (1/N) sum_k e^{-ikj} hat(k).
    p = np.fft.fft(hat) / len(lk)
    return np.fft.fftshift(p.real)


def return_integral(lk, rho0, horizon):
    """int_0^T p_00(t) dt via expm([[L, I], [0, 0]] T)."""
    d = rho0.shape[0]
    n = d * d
    v = rho0.reshape(-1, order="F")
    tr = _trace_functional(d)
    vals = []
    for m in lk:
        aug = np.zeros((2 * n, 2 * n), dtype=complex)
        aug[:n, :n] = m
        aug[:n, n:] = np.eye(n)
        phi = scipy.linalg.expm(horizon * aug)[:n, n:]
        vals.append(tr @ phi @ v)
    return float(np.mean(vals).real)


def skeleton_partials(lk, rho0, delta, n_steps):
    """sum_{n=0}^{k} p_00(n delta) for k = 0..n_steps."""
    d = rho0.shape[0]
    v0 = rho0.reshape(-1, order="F")
    tr = _trace_functional(d)
    terms = np.zeros(n_steps + 1, dtype=complex)
    for m in lk:
        step = scipy.linalg.expm(delta * m)
        v = v0.copy()
        terms[0] += tr @ v
        for n in range(1, n_steps + 1):
            v = step @ v
            terms[n] += tr @ v
    return np.cumsum(terms.real / len(lk))


def main():
    c, a, h = three_level_c0()
    lk = symbols(c, a, h)
    rho0 = np.eye(3, dtype=complex) / 3.0
    prof = site_profile(lk, rho0, 100.0)
    centre = N_K // 2
    outside = {
        str(r): float(prof[: centre - r].sum() + prof[centre + r + 1:].sum())
        for r in (16, 32, 64, 128)
    }
    partials = skeleton_partials(lk, rho0, 1.0, 100)
    doc = {
        "p00_t100": return_probability(lk, rho0, 100.0),
        "integral_t100": return_integral(lk, rho0, 100.0),
        "integral_t50": return_integral(lk, rho0, 50.0),
        "integral_t25": return_integral(lk, rho0, 25.0),
        "integral_t10": return_integral(lk, rho0, 10.0),
        "skeleton_n10": float(partials[10]),
        "skeleton_n50": float(partials[50]),
        "skeleton_n100": float(partials[100]),
        "outside_mass_t100": outside,
    }
    print(json.dumps(doc, indent=1))


if __name__ == "__main__":
    main()
