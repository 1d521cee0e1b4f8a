"""Exact evolution of block-diagonal walk states on a ring window.

A walk state that starts as rho0 at site i0 stays block diagonal, and the
blocks obey d rho(i)/dt = G0 rho(i) + rho(i) G0* + A rho(i-1) A* + C rho(i+1) C*,
with G0 the between-jump generator of the coin. Translation invariance makes
hat(k) = sum_i e^{ik(i - i0)} rho(i) evolve separately for every momentum k
under the d^2 x d^2 Fourier symbol (Carbone & Pautrat, J. Stat. Phys. 160, 2015)

    L_k(X) = G0 X + X G0* + e^{ik} A X A* + e^{-ik} C X C*.

The window -radius..radius is closed into a ring of N = 2 radius + 1 sites,
where the momenta k = 2 pi q / N are exact: the blocks at time t are the
inverse DFT of e^{t L_k} vec(rho0). Time grids use powers of e^{dt L_k} and
the return integral a Van Loan exponential; nothing is integrated numerically.

The ring differs from the infinite line only by mass that wraps around it.
Since Tr(e^{t L(theta)} rho0) = sum_i e^{theta (i - i0)} p_i(t) for the
symbol L(theta) at k = -i theta, ``leak_bound`` takes the Chernoff bound
min_theta e^{-theta D} Tr(e^{t L(theta)} rho0) at each window edge. It bounds
the mass outside the window at time t, hence the wrap-around error of every
window value then; ``BlockState.leaked_mass`` reports it, and the
long-horizon routines raise when it reaches LEAK_TOL.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .linalg import mat_exp, vec
from .model import Coin, check_density, no_jump_generator, symbol_parts

# Leak bound accepted by choose_radius and the long-horizon routines.
LEAK_TOL = 1e-8
# Largest vectorized ring state for which dense_matrix builds the full generator.
DENSE_STATE_CAP = 4096
# Sites carrying less mass than this are ignored when conditioning. Ring
# blocks carry absolute round-off up to about 1e-17 from the Fourier sums;
# on a lighter site that round-off approaches the 1e-8 eigenvalue check of
# the conditioned state.
SITE_PROB_FLOOR = 1e-8


@dataclass
class BlockState:
    """Blocks rho(i) for i in -radius..radius plus a bound on the mass outside."""

    radius: int
    blocks: np.ndarray
    leaked_mass: float

    @property
    def sites(self) -> np.ndarray:
        return np.arange(-self.radius, self.radius + 1)

    def block(self, site: int) -> np.ndarray:
        if abs(site) > self.radius:
            raise IndexError(f"site {site} outside truncation radius {self.radius}")
        return self.blocks[site + self.radius]

    def trace_profile(self) -> np.ndarray:
        """Site occupation probabilities Tr(rho(i))."""
        return np.einsum("ijj->i", self.blocks).real

    def total_trace(self) -> float:
        return float(self.trace_profile().sum())

    def min_eigenvalue(self) -> float:
        return float(
            min(np.linalg.eigvalsh((b + b.conj().T) / 2.0).min() for b in self.blocks)
        )


class BlockGenerator:
    """The walk generator on the ring of sites -radius..radius and its symbols.

    ``symbols[q]`` is L_k at k = 2 pi q / n_sites, the generator restricted
    to momentum k.
    """

    def __init__(self, coin: Coin, radius: int):
        if radius < 1:
            raise ValueError("truncation radius must be at least 1")
        self.coin = coin
        self.radius = int(radius)
        self.n_sites = 2 * self.radius + 1
        self._g0 = no_jump_generator(coin)
        self._stay, self._right, self._left = symbol_parts(coin)
        phase = np.exp(2j * np.pi * np.arange(self.n_sites) / self.n_sites)[:, None, None]
        self.symbols = self._stay + phase * self._right + phase.conj() * self._left

    @property
    def vec_dim(self) -> int:
        """Dimension of the vectorized ring state."""
        return self.n_sites * self.coin.dim ** 2

    def apply(self, blocks: np.ndarray) -> np.ndarray:
        """Time derivative of a (2*radius+1, d, d) block array on the ring."""
        a, c = self.coin.right, self.coin.left
        out = self._g0 @ blocks + blocks @ self._g0.conj().T
        out += a @ np.roll(blocks, 1, axis=0) @ a.conj().T
        out += c @ np.roll(blocks, -1, axis=0) @ c.conj().T
        return out

    def dense_matrix(self) -> np.ndarray:
        """Full ring generator on the site-ordered, column-stacked block vector.

        A reference for checking the momentum-space propagator; refused when
        the vectorized state exceeds DENSE_STATE_CAP.
        """
        if self.vec_dim > DENSE_STATE_CAP:
            raise ValueError(
                f"dense generator of dimension {self.vec_dim} exceeds {DENSE_STATE_CAP}"
            )
        n = self.n_sites
        shift = np.roll(np.eye(n), 1, axis=0)  # site i-1 feeds site i, wrapping
        return (np.kron(np.eye(n), self._stay) + np.kron(shift, self._right)
                + np.kron(shift.T, self._left))


def build_block_generator(coin: Coin, radius: int) -> BlockGenerator:
    return BlockGenerator(coin, radius)


def _density_for(coin: Coin, rho0) -> np.ndarray:
    rho = check_density(rho0)
    if rho.shape[0] != coin.dim:
        raise ValueError("initial state dimension does not match the coin")
    return rho


def initial_block_state(gen: BlockGenerator, rho0, i0: int) -> BlockState:
    if abs(i0) > gen.radius:
        raise ValueError(f"start site {i0} outside truncation radius {gen.radius}")
    rho = _density_for(gen.coin, rho0)
    blocks = np.zeros((gen.n_sites, gen.coin.dim, gen.coin.dim), dtype=complex)
    blocks[i0 + gen.radius] = rho
    return BlockState(radius=gen.radius, blocks=blocks, leaked_mass=0.0)


def _to_sites(gen: BlockGenerator, hat: np.ndarray, i0: int) -> np.ndarray:
    """Inverse DFT of per-momentum values (axis 0), ordered from site -radius."""
    return np.roll(np.fft.fft(hat, axis=0), gen.radius + i0, axis=0) / gen.n_sites


def _blocks(gen: BlockGenerator, rho0, i0: int, t: float) -> np.ndarray:
    """Ring blocks at time t >= 0 from rho0 at site i0."""
    if t < 0:
        raise ValueError("time must be nonnegative")
    state = initial_block_state(gen, rho0, i0)
    if t == 0:
        return state.blocks
    d = gen.coin.dim
    hat = mat_exp(gen.symbols, t) @ vec(state.block(i0))
    blocks = _to_sites(gen, hat, i0).reshape(-1, d, d).transpose(0, 2, 1)
    return (blocks + blocks.conj().transpose(0, 2, 1)) / 2.0


def _trace_rows(gen: BlockGenerator, rho0, i0: int, steps):
    """Yield the site-occupation profile after each of consecutive time steps.

    The momentum-space state advances by e^{dt L_k}, with one batched
    exponential per distinct step length. A leading step of 0 yields the
    initial profile exactly.
    """
    state = initial_block_state(gen, rho0, i0)
    d = gen.coin.dim
    hat = np.broadcast_to(vec(state.block(i0)), (gen.n_sites, d * d))
    powers = {}
    for dt in steps:
        if dt == 0:
            yield state.trace_profile()
            continue
        if dt not in powers:
            powers[dt] = mat_exp(gen.symbols, dt)
        hat = np.einsum("kab,kb->ka", powers[dt], hat)
        yield _to_sites(gen, hat[:, :: d + 1].sum(axis=1), i0).real


def _chernoff_tail(stay, ahead, behind, v, dist: int) -> float:
    """min_theta e^{-theta dist} Tr(e^{stay + e^theta ahead + e^-theta behind} rho).

    Shifting the exponent by its spectral abscissa keeps the moment finite.
    """
    trace = np.eye(int(round(np.sqrt(v.size)))).reshape(-1)

    def log_bound(theta):
        m = stay + np.exp(theta) * ahead + np.exp(-theta) * behind
        mu = float(np.linalg.eigvals(m).real.max())
        moment = float((trace @ mat_exp(m - mu * np.eye(len(m))) @ v).real)
        return mu + np.log(moment) - theta * dist

    best = scipy.optimize.minimize_scalar(
        log_bound, bounds=(0.0, 2.0 * np.log(2.0 + dist)), method="bounded")
    return float(np.exp(min(best.fun, 0.0)))


def leak_bound(coin: Coin, rho0, i0: int, radius: int, t: float) -> float:
    """Certified bound on the mass beyond sites -radius..radius at time t.

    The sum over both edges of the Chernoff bound (module docstring), with D
    the distance from i0 to the edge plus one, capped at 1.
    """
    if t < 0:
        raise ValueError("time must be nonnegative")
    if abs(i0) > radius:
        raise ValueError(f"start site {i0} outside truncation radius {radius}")
    v = vec(_density_for(coin, rho0))
    if t == 0:
        return 0.0
    stay, right, left = (t * m for m in symbol_parts(coin))
    total = (_chernoff_tail(stay, right, left, v, radius + 1 - i0)
             + _chernoff_tail(stay, left, right, v, radius + 1 + i0))
    return min(1.0, total)


def evolve(gen: BlockGenerator, rho0, i0: int, t: float) -> BlockState:
    """State at time t >= 0 from rho0 concentrated at site i0."""
    blocks = _blocks(gen, rho0, i0, t)
    leak = leak_bound(gen.coin, rho0, i0, gen.radius, t)
    return BlockState(radius=gen.radius, blocks=blocks, leaked_mass=leak)


def probability_series(gen: BlockGenerator, rho0, i0: int, sites, times) -> np.ndarray:
    """p_{j i0; rho}(t) for each requested site j over a time grid.

    Returns an array of shape (len(times), len(sites)).
    """
    sites = [int(s) for s in np.atleast_1d(sites)]
    for s in sites:
        if abs(s) > gen.radius:
            raise ValueError(f"site {s} outside truncation radius {gen.radius}")
    return trace_profile_series(gen, rho0, i0, times)[:, [s + gen.radius for s in sites]]


def trace_profile_series(gen: BlockGenerator, rho0, i0: int, times) -> np.ndarray:
    """Site-occupation profiles Tr(rho_t(i)) over a time grid."""
    times = np.asarray(times, dtype=float)
    if times.size and (times[0] < 0 or np.any(np.diff(times) <= 0)):
        raise ValueError("times must be strictly increasing and nonnegative")
    rows = list(_trace_rows(gen, rho0, i0, np.diff(times, prepend=0.0)))
    return np.array(rows).reshape(len(rows), gen.n_sites)


def transition_probability(gen: BlockGenerator, rho0, i0: int, j: int, t: float) -> float:
    """p_{j i0; rho}(t) = Tr(rho_t(j))."""
    if abs(j) > gen.radius:
        raise IndexError(f"site {j} outside truncation radius {gen.radius}")
    return float(np.trace(_blocks(gen, rho0, i0, t)[j + gen.radius]).real)


def conditioned_state(gen: BlockGenerator, rho0, i0: int, k: int, beta: float) -> np.ndarray:
    """Internal state at site k given the walker is observed there at time beta."""
    if abs(k) > gen.radius:
        raise IndexError(f"site {k} outside truncation radius {gen.radius}")
    return _condition_block(_blocks(gen, rho0, i0, beta)[k + gen.radius], k)


def _condition_block(block: np.ndarray, site: int) -> np.ndarray:
    p = float(np.trace(block).real)
    if p <= SITE_PROB_FLOOR:
        raise ValueError(
            f"site {site} carries probability {p:.3e}; conditioning on a "
            f"negligible-probability site is ill-defined"
        )
    sigma = (block + block.conj().T) / (2.0 * p)
    w, v = np.linalg.eigh(sigma)
    if w.min() < -1e-8:
        raise ArithmeticError(
            f"conditioned state at site {site} has eigenvalue {w.min():.3e}"
        )
    w = np.clip(w, 0.0, None)
    sigma = (v * w) @ v.conj().T
    return sigma / np.trace(sigma).real


def chapman_kolmogorov_residual(gen: BlockGenerator, rho0, i0: int, j: int,
                                alpha: float, beta: float) -> float:
    """|p(alpha+beta) - sum_k p(alpha | from k) p(beta, k)| at site j.

    The left side is one propagation to alpha+beta. The right side re-launches
    the walk from every site k that carries mass at time beta, started in the
    conditioned internal state there. Each launch is propagated separately;
    their agreement is the identity under test. Raises if the leak bound at
    alpha+beta reaches LEAK_TOL.
    """
    if alpha < 0 or beta < 0:
        raise ValueError("alpha and beta must be nonnegative")
    direct = evolve(gen, rho0, i0, alpha + beta)
    if direct.leaked_mass >= LEAK_TOL:
        raise RuntimeError(
            f"truncation leak bound {direct.leaked_mass:.3e} at time alpha+beta; "
            f"enlarge the radius"
        )
    lhs = float(np.trace(direct.block(j)).real)

    at_beta = evolve(gen, rho0, i0, beta)
    probs = at_beta.trace_profile()
    rhs = 0.0
    for k in at_beta.sites[probs > SITE_PROB_FLOOR]:
        p_k = probs[k + gen.radius]
        sigma = _condition_block(at_beta.block(k), k)
        rhs += transition_probability(gen, sigma, int(k), j, alpha) * p_k
    return abs(lhs - rhs)


def return_integral(gen: BlockGenerator, rho0, i0: int, horizon: float) -> float:
    """int_0^T p_{i0 i0; rho}(t) dt in closed form.

    For each momentum, exp([[T L_k, T vec(rho0)], [0, 0]]) (Van Loan) carries
    int_0^T e^{t L_k} vec(rho0) dt in its last column; the return integral is
    the mean of their traces over k. Raises if the leak bound at the horizon
    reaches LEAK_TOL.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    rho = initial_block_state(gen, rho0, i0).block(i0)
    leak = leak_bound(gen.coin, rho, i0, gen.radius, horizon)
    if leak >= LEAK_TOL:
        raise RuntimeError(
            f"truncation leak bound {leak:.3e} at the horizon; enlarge the radius"
        )
    d2 = gen.coin.dim ** 2
    aug = np.zeros((gen.n_sites, d2 + 1, d2 + 1), dtype=complex)
    aug[:, :d2, :d2] = gen.symbols
    aug[:, :d2, d2] = vec(rho)
    integrals = mat_exp(aug, horizon)[:, :d2, d2]
    return float(integrals[:, :: gen.coin.dim + 1].sum(axis=1).mean().real)


def skeleton_partials(gen: BlockGenerator, rho0, i0: int, j: int, delta: float,
                      n_steps: int) -> np.ndarray:
    """Partial sums sum_{n=0}^{k} p_{j i0; rho}(n delta) for k = 0..n_steps.

    Term n applies the n-th power of e^{delta L_k}; term 0 is the initial
    occupation of site j.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    if abs(j) > gen.radius:
        raise ValueError(f"site {j} outside truncation radius {gen.radius}")
    steps = np.full(n_steps + 1, float(delta))
    steps[0] = 0.0
    terms = [profile[j + gen.radius] for profile in _trace_rows(gen, rho0, i0, steps)]
    return np.cumsum(terms)


def skeleton_sum(gen: BlockGenerator, rho0, i0: int, j: int, delta: float,
                 n_steps: int) -> float:
    """sum_{n=0}^{n_steps} p_{j i0; rho}(n delta)."""
    return float(skeleton_partials(gen, rho0, i0, j, delta, n_steps)[-1])


def choose_radius(coin: Coin, i0: int, t: float, rho0=None, *,
                  leak_tol: float = LEAK_TOL, start: int = 16,
                  max_radius: int = 1 << 15) -> int:
    """Smallest doubling radius whose leak bound at time t is below leak_tol.

    Doubles from max(start, 2|i0|) and evaluates ``leak_bound`` for each
    candidate; nothing is evolved. The bound is taken for rho0, or for the
    maximally mixed state when rho0 is omitted.
    """
    if rho0 is None:
        rho0 = np.eye(coin.dim) / coin.dim
    radius = max(start, 2 * abs(i0), 1)
    while radius <= max_radius:
        if leak_bound(coin, rho0, i0, radius, t) < leak_tol:
            return radius
        radius *= 2
    raise RuntimeError(
        f"no radius up to {max_radius} keeps the leak bound below {leak_tol:.1e} at t={t}"
    )


def write_series_csv(f, times, values) -> None:
    """CSV export with header t,p and 17-significant-digit values."""
    f.write("t,p\n")
    for t, p in zip(times, values):
        f.write(f"{float(t):.17g},{float(p):.17g}\n")


def write_profile_csv(f, times, profiles, radius: int) -> None:
    """CSV export with header t,site,trace; rows ordered by time then site."""
    f.write("t,site,trace\n")
    sites = range(-radius, radius + 1)
    for t, prof in zip(times, profiles):
        for s, val in zip(sites, prof):
            f.write(f"{float(t):.17g},{s},{float(val):.17g}\n")
