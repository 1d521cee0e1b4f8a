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

Only the momenta q = 0..radius are exponentiated. The symbol satisfies
L_k(X)^* = L_{-k}(X^*), and every start state is Hermitian, so
hat(-k) = hat(k)^* exactly: the state at q = N - q' is the adjoint of the one
at q', and its trace the conjugate. Profiles are then real inverse DFTs
(``np.fft.hfft``), and one site j is the projection
p_j = Re sum_q w_q Tr hat(q) with w_q = c_q e^{-2 pi i q (j - i0) / N} / N,
c_0 = 1 and c_q = 2 for q >= 1, which needs no transform at all.

The ring differs from the infinite line only by mass that wraps around it.
Since Tr(e^{t L(theta)} rho0) = sum_i e^{theta (i - i0)} p_i(t) for the
symbol L(theta) at k = -i theta, ``leak_bound`` takes the Chernoff bound
e^{-theta D} Tr(e^{t L(theta)} rho0) at each window edge. The bound holds for
every theta >= 0; theta minimises t lambda(theta) - theta D, with lambda the
spectral abscissa of L(theta) (the large-deviation rate of the walk), found
from eigenvalues alone, and the moment is then exponentiated once at that
theta. It bounds the mass outside the window at time t, hence the
wrap-around error of every window value then; ``BlockState.leaked_mass``
reports it, and the long-horizon routines raise when it reaches LEAK_TOL.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .linalg import mat_exp, unvec, vec
from .model import Coin, density_for, no_jump_generator, symbol_parts

# Leak bound accepted by choose_radius and the long-horizon routines.
LEAK_TOL = 1e-8
# choose_radius doubles from this radius and gives up beyond MAX_RADIUS.
RADIUS_START = 16
MAX_RADIUS = 1 << 15
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
        hermitian = (self.blocks + self.blocks.conj().transpose(0, 2, 1)) / 2.0
        return float(np.linalg.eigvalsh(hermitian).min())


class BlockGenerator:
    """The walk generator on the ring of sites -radius..radius and its symbols.

    ``symbols[q]`` is L_k at k = 2 pi q / n_sites, the generator restricted
    to momentum k, for q = 0..radius only. Since L_k(X)^* = L_{-k}(X^*), a
    Hermitian state at momentum -k is the adjoint of the one at k, so the
    other radius momenta of the ring are never needed (module docstring).
    """

    def __init__(self, coin: Coin, radius: int):
        if radius < 1:
            raise ValueError("truncation radius must be at least 1")
        self.coin = coin
        self.radius = int(radius)
        self.n_sites = 2 * self.radius + 1
        self._g0 = no_jump_generator(coin)
        self._stay, self._right, self._left = symbol_parts(coin)
        phase = np.exp(2j * np.pi * np.arange(self.radius + 1) / self.n_sites)[:, None, None]
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


def initial_block_state(gen: BlockGenerator, rho0, i0: int) -> BlockState:
    if abs(i0) > gen.radius:
        raise ValueError(f"start site {i0} outside truncation radius {gen.radius}")
    rho = density_for(gen.coin, rho0)
    blocks = np.zeros((gen.n_sites, gen.coin.dim, gen.coin.dim), dtype=complex)
    blocks[i0 + gen.radius] = rho
    return BlockState(radius=gen.radius, blocks=blocks, leaked_mass=0.0)


def _check_site(gen: BlockGenerator, j: int) -> None:
    if abs(j) > gen.radius:
        raise ValueError(f"site {j} outside truncation radius {gen.radius}")


def _site_weights(gen: BlockGenerator, offsets) -> np.ndarray:
    """Rows w, one per offset m = j - i0, with p_j = Re(w @ tr) for the half traces tr.

    w_q = c_q e^{-2 pi i q m / N} / N, c_0 = 1 and c_q = 2 for q >= 1, folds
    in the conjugate half tr(N - q) = tr(q)^*. Applied to the half stack of
    vec blocks instead, it gives vec(Y) with rho(j) the Hermitian part of Y.
    """
    q = np.arange(gen.radius + 1)
    # q m reduced mod N in integers, so every phase is below 2 pi
    turns = np.outer(np.atleast_1d(offsets), q) % gen.n_sites
    return np.where(q == 0, 1.0, 2.0) * np.exp(-2j * np.pi * turns / gen.n_sites) / gen.n_sites


def _half_stack(gen: BlockGenerator, rho0, i0: int, t: float):
    """The initial state and hat(q) = e^{t L_k} vec(rho0) for q = 0..radius (None at t = 0)."""
    if not (np.isfinite(t) and t >= 0):
        raise ValueError(f"time must be finite and nonnegative, got {t}")
    state = initial_block_state(gen, rho0, i0)
    if t == 0:
        return state, None
    return state, mat_exp(gen.symbols, t) @ vec(state.block(i0))


def _blocks(gen: BlockGenerator, rho0, i0: int, t: float) -> np.ndarray:
    """Ring blocks at time t >= 0 from rho0 at site i0.

    The full momentum array is the half stack followed by its mirror
    hat(N - q) = vec(X^*) for hat(q) = vec(X): the vec(X^T) permutation,
    conjugated. One complex FFT then gives every block.
    """
    state, hat = _half_stack(gen, rho0, i0, t)
    if hat is None:
        return state.blocks
    d = gen.coin.dim
    mirror = hat[:0:-1].reshape(-1, d, d).transpose(0, 2, 1).reshape(-1, d * d).conj()
    per_offset = np.fft.fft(np.concatenate([hat, mirror]), axis=0)
    blocks = np.roll(per_offset, gen.radius + i0, axis=0) / gen.n_sites
    blocks = blocks.reshape(-1, d, d).transpose(0, 2, 1)
    return (blocks + blocks.conj().transpose(0, 2, 1)) / 2.0


def _site_block(gen: BlockGenerator, rho0, i0: int, j: int, t: float) -> np.ndarray:
    """Block rho_t(j), projected from the half stack with the weights of site j."""
    _check_site(gen, j)
    state, hat = _half_stack(gen, rho0, i0, t)
    if hat is None:
        return state.block(j)
    block = unvec(_site_weights(gen, j - i0)[0] @ hat, gen.coin.dim)
    return (block + block.conj().T) / 2.0


def _trace_rows(gen: BlockGenerator, rho, steps):
    """Yield the half traces Tr hat(q), q = 0..radius, after each of consecutive time steps.

    Only momenta 0..radius are stepped; the traces of the others are the
    conjugates tr(N - q) = tr(q)^* (module docstring). hat(q) advances by
    e^{dt L_k}, with one batched exponential per distinct step length; a
    step of 0 leaves it unchanged.
    """
    d = gen.coin.dim
    hat = np.broadcast_to(vec(rho), (gen.radius + 1, d * d))
    powers = {}
    for dt in steps:
        if dt != 0:
            if dt not in powers:
                powers[dt] = mat_exp(gen.symbols, dt)
            hat = np.einsum("kab,kb->ka", powers[dt], hat)
        yield hat[:, :: d + 1].sum(axis=1)


def _site_series(gen: BlockGenerator, rho0, i0: int, sites, steps) -> np.ndarray:
    """p_{j i0; rho} after each of consecutive time steps, shape (len(steps), len(sites)).

    Every step projects its half traces onto the sites; no profile and no
    FFT is formed. A leading step of 0 gives the initial occupation exactly.
    """
    sites = np.array([int(s) for s in np.atleast_1d(sites)], dtype=int)
    for s in sites:
        _check_site(gen, s)
    state = initial_block_state(gen, rho0, i0)
    weights = _site_weights(gen, sites - i0)
    rows = np.array([(weights @ tr).real for tr in _trace_rows(gen, state.block(i0), steps)])
    rows = rows.reshape(len(steps), len(sites))
    if len(steps) and steps[0] == 0:
        rows[0] = state.trace_profile()[sites + gen.radius]
    return rows


def _time_grid(times) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if times.size and (not np.isfinite(times).all() or times[0] < 0
                       or np.any(np.diff(times) <= 0)):
        raise ValueError("times must be finite, strictly increasing and nonnegative")
    return times


def _chernoff_tail(stay, ahead, behind, v, dist: int) -> float:
    """e^{-theta dist} Tr(e^{M(theta)} rho), M(theta) = stay + e^theta ahead + e^-theta behind.

    theta minimises lambda(theta) - theta dist on 0..2 log(2 + dist), with
    lambda(theta) the spectral abscissa of M(theta), by bounded Brent on
    eigenvalues alone. The moment is then exponentiated once, at that theta,
    shifted by lambda(theta) so that it cannot overflow; the Chernoff
    inequality holds at every theta, so the value is a bound. A moment that
    is not a positive normal float (it underflows when the abscissa belongs
    to a level rho barely reaches) gives the trivial bound 1.
    """
    def tilted(theta):
        return stay + np.exp(theta) * ahead + np.exp(-theta) * behind

    def abscissa(m):
        return float(np.linalg.eigvals(m).real.max())

    theta = scipy.optimize.minimize_scalar(
        lambda th: abscissa(tilted(th)) - th * dist,
        bounds=(0.0, 2.0 * np.log(2.0 + dist)), method="bounded").x
    m = tilted(theta)
    mu = abscissa(m)
    d = int(round(np.sqrt(v.size)))
    moment = float((mat_exp(m - mu * np.eye(len(m)))[:: d + 1].sum(axis=0) @ v).real)
    if not np.isfinite(moment) or moment < np.finfo(float).tiny:
        return 1.0
    return float(np.exp(min(mu + np.log(moment) - theta * dist, 0.0)))


def leak_bound(coin: Coin, rho0, i0: int, radius: int, t: float) -> float:
    """Certified bound on the mass beyond sites -radius..radius at time t.

    The sum over both edges of the Chernoff bound (module docstring), with D
    the distance from i0 to the edge plus one, capped at 1. Each edge costs
    one exponential; its theta comes from the spectral abscissa. Against
    theta minimising the exact moment the bound is within a factor 1.7 on
    random coins and states (median 1.00001). When the levels decouple,
    theta suits the level that dominates the edge, and the bound loosens by
    up to the inverse of rho's weight on that level.
    """
    if not (np.isfinite(t) and t >= 0):
        raise ValueError(f"time must be finite and nonnegative, got {t}")
    if abs(i0) > radius:
        raise ValueError(f"start site {i0} outside truncation radius {radius}")
    v = vec(density_for(coin, rho0))
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

    Returns an array of shape (len(times), len(sites)); each time step
    projects onto the requested sites alone (``_site_series``).
    """
    times = _time_grid(times)
    return _site_series(gen, rho0, i0, sites, np.diff(times, prepend=0.0))


def trace_profile_series(gen: BlockGenerator, rho0, i0: int, times) -> np.ndarray:
    """Site-occupation profiles Tr(rho_t(i)) over a time grid.

    One real inverse DFT (``np.fft.hfft``) over the half traces of all rows.
    """
    times = _time_grid(times)
    state = initial_block_state(gen, rho0, i0)
    rows = np.array(list(_trace_rows(gen, state.block(i0), np.diff(times, prepend=0.0))))
    per_offset = np.fft.hfft(rows.reshape(len(times), gen.radius + 1), n=gen.n_sites, axis=1)
    profiles = np.roll(per_offset, gen.radius + i0, axis=1) / gen.n_sites
    if times.size and times[0] == 0:
        profiles[0] = state.trace_profile()
    return profiles


def transition_probability(gen: BlockGenerator, rho0, i0: int, j: int, t: float) -> float:
    """p_{j i0; rho}(t) = Tr(rho_t(j))."""
    return float(np.trace(_site_block(gen, rho0, i0, j, t)).real)


def conditioned_state(gen: BlockGenerator, rho0, i0: int, k: int, beta: float) -> np.ndarray:
    """Internal state at site k given the walker is observed there at time beta."""
    return _condition_block(_site_block(gen, rho0, i0, k, beta), k)


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
    conditioned internal state there. The launches share only the
    propagator e^{alpha L_k}, exponentiated once for momenta 0..radius: each
    launch is one row of a matrix that meets the propagator's trace rows in
    one product, and one real inverse DFT over momenta (the launches are
    Hermitian) gives every launch's occupation of j. Their agreement
    with the left side is the identity under test. Raises if the leak bound
    at alpha+beta reaches LEAK_TOL.
    """
    if not (np.isfinite([alpha, beta]).all() and min(alpha, beta) >= 0):
        raise ValueError(f"alpha and beta must be finite and nonnegative, got {alpha}, {beta}")
    direct = evolve(gen, rho0, i0, alpha + beta)
    if direct.leaked_mass >= LEAK_TOL:
        raise RuntimeError(
            f"truncation leak bound {direct.leaked_mass:.3e} at time alpha+beta; "
            f"enlarge the radius"
        )
    lhs = float(np.trace(direct.block(j)).real)

    at_beta = _blocks(gen, rho0, i0, beta)
    probs = np.einsum("ijj->i", at_beta).real
    occupied = np.flatnonzero(probs > SITE_PROB_FLOOR)
    launches = np.array([vec(_condition_block(at_beta[q], int(q) - gen.radius))
                         for q in occupied])
    d = gen.coin.dim
    trace_rows = mat_exp(gen.symbols, alpha)[:, :: d + 1].sum(axis=1)
    hat = trace_rows @ launches.T
    at_j = np.fft.hfft(hat, n=gen.n_sites, axis=0)[(j + gen.radius - occupied) % gen.n_sites,
                                                   np.arange(len(occupied))] / gen.n_sites
    return abs(lhs - float(at_j @ probs[occupied]))


def return_integral(gen: BlockGenerator, rho0, i0: int, horizon: float, *,
                    with_half: bool = False):
    """int_0^T p_{i0 i0; rho}(t) dt in closed form.

    For each momentum, exp([[T L_k, T vec(rho0)], [0, 0]]) (Van Loan) carries
    int_0^T e^{t L_k} vec(rho0) dt in its last column; the return integral is
    the mean of their traces over the ring's momenta, (tr_0 + 2 sum_{q >= 1}
    Re tr_q) / N from momenta 0..radius. With ``with_half`` it returns the pair
    (value at T, value at T/2) from the one exponential E at T/2: the full
    column is that of E^2, e^{T/2 L_k} c + c for E's last column c. Raises if
    the leak bound at T (or at T/2 with ``with_half``) reaches LEAK_TOL.
    """
    if not (np.isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    rho = initial_block_state(gen, rho0, i0).block(i0)
    for t in (horizon, horizon / 2.0) if with_half else (horizon,):
        leak = leak_bound(gen.coin, rho, i0, gen.radius, t)
        if leak >= LEAK_TOL:
            raise RuntimeError(
                f"truncation leak bound {leak:.3e} at time {t:g}; enlarge the radius"
            )
    d2 = gen.coin.dim ** 2
    aug = np.zeros((gen.radius + 1, d2 + 1, d2 + 1), dtype=complex)
    aug[:, :d2, :d2] = gen.symbols
    aug[:, :d2, d2] = vec(rho)
    e = mat_exp(aug, horizon / 2.0 if with_half else horizon)
    column = e[:, :d2, d2]
    at_start = _site_weights(gen, 0)[0]

    def value(c):
        return float((at_start @ c[:, :: gen.coin.dim + 1].sum(axis=1)).real)

    if not with_half:
        return value(column)
    full = np.einsum("kab,kb->ka", e[:, :d2, :d2], column) + column
    return value(full), value(column)


def skeleton_partials(gen: BlockGenerator, rho0, i0: int, j: int, delta: float,
                      n_steps: int) -> np.ndarray:
    """Partial sums sum_{n=0}^{k} p_{j i0; rho}(n delta) for k = 0..n_steps.

    Term n applies the n-th power of e^{delta L_k} and projects onto site j
    (``_site_series``); term 0 is the initial occupation of site j exactly.
    """
    if not (np.isfinite(delta) and delta > 0):
        raise ValueError(f"delta must be positive and finite, got {delta}")
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    steps = np.full(n_steps + 1, float(delta))
    steps[0] = 0.0
    return np.cumsum(_site_series(gen, rho0, i0, j, steps)[:, 0])


def skeleton_sum(gen: BlockGenerator, rho0, i0: int, j: int, delta: float,
                 n_steps: int) -> float:
    """sum_{n=0}^{n_steps} p_{j i0; rho}(n delta)."""
    return float(skeleton_partials(gen, rho0, i0, j, delta, n_steps)[-1])


def choose_radius(coin: Coin, i0: int, t: float, rho0=None, *,
                  leak_tol: float = LEAK_TOL) -> int:
    """Smallest doubling radius whose leak bound at time t is below leak_tol.

    Doubles from max(RADIUS_START, 2|i0|) up to MAX_RADIUS and evaluates
    ``leak_bound`` for each candidate; nothing is evolved. The bound is taken
    for rho0, or for the maximally mixed state when rho0 is omitted.
    """
    if rho0 is None:
        rho0 = np.eye(coin.dim) / coin.dim
    radius = max(RADIUS_START, 2 * abs(i0))
    while radius <= MAX_RADIUS:
        if leak_bound(coin, rho0, i0, radius, t) < leak_tol:
            return radius
        radius *= 2
    raise RuntimeError(
        f"no radius up to {MAX_RADIUS} keeps the leak bound below {leak_tol:.1e} at t={t}"
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
