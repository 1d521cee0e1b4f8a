"""Exact evolution of block-diagonal walk states on a ring window.

A walk state that starts as rho0 at site i0 stays block diagonal, and the
blocks obey d rho(i)/dt = G0 rho(i) + rho(i) G0* + A rho(i-1) A* + C rho(i+1) C*,
with G0 the between-jump generator of the coin. Translation invariance makes
hat(k) = sum_i e^{ik(i - i0)} rho(i) evolve separately for every momentum k
under the d^2 x d^2 Fourier symbol (Carbone & Pautrat, J. Stat. Phys. 160, 2015)

    L_k(X) = G0 X + X G0* + e^{ik} A X A* + e^{-ik} C X C*.

The window -radius..radius is closed into a ring of N = 2 radius + 1 sites,
where the momenta k = 2 pi q / N are exact: the blocks at time t are the
inverse DFT of e^{t L_k} hvec(rho0), with S, R, L of the symbol real
(``Coin.symbol``). Time grids use powers of e^{dt L_k}, and the return
integral doubles the pair (e^{tau L_k}, int_0^tau e^{t L_k} v dt) from a
short tau (``linalg.mat_exp_integral``); nothing is integrated numerically.

Only the momenta q = 0..radius are exponentiated. The symbol at -k is the
conjugate of the one at k, and hvec(rho0) is real, so hat(N - q) =
conj(hat(q)) coordinate by coordinate. Blocks and profiles are then real
inverse DFTs (``np.fft.hfft``), and one site j is the projection
p_j = Re sum_q w_q Tr hat(q) with w_q = c_q e^{-2 pi i q (j - i0) / N} / N,
c_0 = 1 and c_q = 2 for q >= 1, which needs no transform at all. A
single-time read checks its sites, propagates once, and at t = 0 puts the
start block at i0 and exact zeros on every other site.

The ring differs from the infinite line only by mass that wraps around it.
Since Tr(e^{t L(theta)} rho0) = sum_i e^{theta (i - i0)} p_i(t) for the
symbol L(theta) at k = -i theta, ``leak_bound`` takes the Chernoff bound
e^{-theta D} Tr(e^{t L(theta)} rho0) at each window edge. The bound holds
for every theta >= 0; theta minimises t lambda(theta) - theta D, with lambda
the Perron root of L(theta) = S + e^theta R + e^-theta L (the large-deviation
rate of the walk), which is convex in theta. Each point of the search, one
LAPACK dgeev and one dgesv, moves an end of the bracket by the sign of
lambda' - D and steps to the root of a e^theta - b e^-theta = D fitted to
lambda' and lambda'' there (exact for scalar coins); a step past the cut
of the two end tangents goes to the cut, which lands on the kink where two
eigenvalues cross. A search takes 2.5 evaluations on the lattice
benchmark's inputs. The moments of both edges come from one stacked
exponential, and each coin keeps its last windows, so a repeated
(t, radius, i0) costs one product. The search range grows as
t Coin.rate_scale -> 0, so the bound vanishes with t. It bounds the mass
outside the window at time t, hence the wrap-around error of every window
value then; ``BlockState.leaked_mass`` reports it, and the long-horizon
routines raise when it reaches LEAK_TOL.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np
# Only bound here: bench/tracer.py wraps lattice.scipy.integrate.solve_ivp.
import scipy  # noqa: F401  (stays bound)
from scipy.linalg.lapack import dgeev, dgesv

from .linalg import hunvec, hvec, mat_exp, mat_exp_integral
from .model import Coin, _integer, density_for, no_jump_generator

# Leak bound accepted by choose_radius and the long-horizon routines.
LEAK_TOL = 1e-8
# choose_radius doubles from this radius and gives up beyond MAX_RADIUS.
RADIUS_START = 16
MAX_RADIUS = 1 << 15
# Largest vectorized ring state for which dense_matrix builds the full generator.
DENSE_STATE_CAP = 4096
# Time steps within STEP_MERGE_EPS float epsilons of the grid's end time of
# each other share one exponential in _trace_rows: np.linspace steps differ by
# at most about 4.5 epsilons of the end time (two roundings of the times).
STEP_MERGE_EPS = 16
# Sites carrying less mass than this are ignored when conditioning. Ring
# blocks carry absolute round-off up to about 1e-17 from the Fourier sums;
# on a lighter site that round-off approaches the 1e-8 eigenvalue check of
# the conditioned state.
SITE_PROB_FLOOR = 1e-8
# Windows (t, right distance, left distance) that leak_bound keeps per coin.
LEAK_MEMO_WINDOWS = 8
# The theta search of one edge (_edge_tilt). A model step s from theta ends
# it with no further evaluation when s^2 <= THETA_ERR times the step before it
# (1 at the first point), even just outside the bracket: s^2 over that step
# estimates the error left after s. A bracket narrower than BRACKET_TOL (1 +
# its upper end) is closed, and a model step that close to one of its ends
# counts as outside, as does one past the cut of the end tangents. dgeev's
# eigenvectors have unit norm: a Perron root with |l.r| <= DEGENERATE_OVERLAP
# gives no slope, and eigenvalues within DEGENERATE_GAP of the spectrum's
# width of it share the abscissa. At most MAX_TILT_STEPS evaluations.
THETA_ERR = 1e-10
BRACKET_TOL = 1e-12
DEGENERATE_OVERLAP = 1e-8
DEGENERATE_GAP = 1e-12
MAX_TILT_STEPS = 60


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
        return float(np.linalg.eigvalsh(self.blocks).min())


class BlockGenerator:
    """The walk generator on the ring of sites -radius..radius and its symbols.

    ``symbols[q]`` is L_k at k = 2 pi q / n_sites, the generator restricted
    to momentum k in Hermitian coordinates, for q = 0..radius only. The
    symbol at -k is the conjugate of the one at k, so the other radius
    momenta of the ring are never needed (module docstring).
    """

    def __init__(self, coin: Coin, radius: int):
        radius = _integer(radius, "radius")
        if radius < 1:
            raise ValueError("truncation radius must be at least 1")
        self.coin = coin
        self.radius = radius
        self.n_sites = 2 * radius + 1
        stay, right, left = coin.symbol
        phase = np.exp(2j * np.pi * np.arange(radius + 1) / self.n_sites)[:, None, None]
        self.symbols = stay + phase * right + phase.conj() * left
        # e^{-2 pi i m / N} for m = 0..N-1: every site weight's phase, by turns.
        self._roots = np.exp(-2j * np.pi * np.arange(self.n_sites) / self.n_sites)

    @property
    def vec_dim(self) -> int:
        """Dimension of the vectorized ring state."""
        return self.n_sites * self.coin.dim ** 2

    def apply(self, blocks: np.ndarray) -> np.ndarray:
        """Time derivative of a (2*radius+1, d, d) block array on the ring."""
        a, c = self.coin.right, self.coin.left
        g0 = no_jump_generator(self.coin)
        out = g0 @ blocks + blocks @ g0.conj().T
        out += a @ np.roll(blocks, 1, axis=0) @ a.conj().T
        out += c @ np.roll(blocks, -1, axis=0) @ c.conj().T
        return out

    def dense_matrix(self) -> np.ndarray:
        """Full ring generator, real, on the site-ordered stack of hvec(block).

        A reference for checking the momentum-space propagator; refused when
        the vectorized state exceeds DENSE_STATE_CAP.
        """
        if self.vec_dim > DENSE_STATE_CAP:
            raise ValueError(
                f"dense generator of dimension {self.vec_dim} exceeds {DENSE_STATE_CAP}"
            )
        n = self.n_sites
        stay, right, left = self.coin.symbol
        shift = np.roll(np.eye(n), 1, axis=0)  # site i-1 feeds site i, wrapping
        return (np.kron(np.eye(n), stay) + np.kron(shift, right)
                + np.kron(shift.T, left))


def _start(gen: BlockGenerator, rho0, i0: int) -> np.ndarray:
    """Coordinates hvec(rho0) of the checked start state, i0 an integer inside the ring."""
    if abs(_integer(i0, "i0")) > gen.radius:
        raise ValueError(f"start site {i0} outside truncation radius {gen.radius}")
    return density_for(gen.coin, rho0)


def _check_time(t: float) -> None:
    if not (np.isfinite(t) and t >= 0):
        raise ValueError(f"time must be finite and nonnegative, got {t}")


def _check_site(gen: BlockGenerator, j, name: str) -> int:
    j = _integer(j, name)
    if abs(j) > gen.radius:
        raise ValueError(f"site {j} outside truncation radius {gen.radius}")
    return j


def _site_weights(gen: BlockGenerator, offsets) -> np.ndarray:
    """Rows w, one per offset m = j - i0, with p_j = Re(w @ tr) for the half traces tr.

    w_q = c_q e^{-2 pi i q m / N} / N, c_0 = 1 and c_q = 2 for q >= 1, folds
    in the conjugate half tr(N - q) = tr(q)^*. Applied to the half stack of
    block coordinates instead, it gives hvec(rho(j)) as the real part.
    """
    q = np.arange(gen.radius + 1)
    # q m reduced mod N in integers indexes the N roots of unity
    turns = np.outer(np.atleast_1d(offsets), q) % gen.n_sites
    return np.where(q == 0, 1.0, 2.0) * gen._roots[turns] / gen.n_sites


def _blocks(gen: BlockGenerator, v: np.ndarray, i0: int, t: float) -> np.ndarray:
    """Ring blocks at time t >= 0 from the start coordinates v at site i0.

    At t = 0 the start block sits at i0 and every other block is zero. Later,
    hat(N - q) = conj(hat(q)) coordinate by coordinate, so one real inverse
    DFT of the half stack e^{t L_k} v gives every block's real coordinates.
    """
    _check_time(t)
    if t == 0:
        blocks = np.zeros((gen.n_sites, gen.coin.dim, gen.coin.dim), dtype=complex)
        blocks[i0 + gen.radius] = hunvec(v)
        return blocks
    return _ring(gen, mat_exp(gen.symbols, t) @ v, i0)


def _ring(gen: BlockGenerator, hat: np.ndarray, i0: int) -> np.ndarray:
    """Ring blocks from the half stack hat(q), q = 0..radius, of a walk started at i0."""
    per_offset = np.fft.hfft(hat, n=gen.n_sites, axis=0)
    return hunvec(np.roll(per_offset, gen.radius + i0, axis=0) / gen.n_sites)


def _site_block(gen: BlockGenerator, v: np.ndarray, i0: int, j: int, t: float) -> np.ndarray:
    """Block rho_t(j), from the half stack e^{t L_k} v and the weights of site j."""
    _check_time(t)
    if t == 0:
        return hunvec(v) if j == i0 else np.zeros((gen.coin.dim,) * 2, dtype=complex)
    return hunvec((_site_weights(gen, j - i0)[0] @ (mat_exp(gen.symbols, t) @ v)).real)


def _trace_rows(gen: BlockGenerator, v: np.ndarray, steps):
    """Yield the half traces Tr hat(q), q = 0..radius, after each of consecutive time steps.

    Only momenta 0..radius are stepped; the traces of the others are the
    conjugates tr(N - q) = tr(q)^* (module docstring). hat(q) advances by
    e^{dt L_k}, with one batched exponential per step length; a step of 0
    leaves it unchanged. Steps of a float grid such as np.linspace differ
    by the rounding of the times, so a step within STEP_MERGE_EPS * eps * T
    (T the sum of the steps, eps the float epsilon) of one already seen
    reuses its exponential: the time of row n then moves by at most
    n * STEP_MERGE_EPS * eps * T.
    """
    d = gen.coin.dim
    hat = np.broadcast_to(v, (gen.radius + 1, d * d))
    tol = STEP_MERGE_EPS * np.finfo(float).eps * float(np.sum(steps))
    powers = {}
    for dt in steps:
        if dt != 0:
            dt = next((h for h in powers if abs(h - dt) <= tol), dt)
            if dt not in powers:
                powers[dt] = mat_exp(gen.symbols, dt)
            hat = np.einsum("kab,kb->ka", powers[dt], hat)
        yield hat[:, :d].sum(axis=1)


def _site_series(gen: BlockGenerator, rho0, i0: int, sites, steps) -> np.ndarray:
    """p_{j i0; rho} after each of consecutive time steps, shape (len(steps), len(sites)).

    Every step projects its half traces onto the sites; no profile and no
    FFT is formed. A leading step of 0 gives the initial occupation exactly.
    """
    sites = np.array([_check_site(gen, s, "sites") for s in np.atleast_1d(sites).tolist()],
                     dtype=int)
    v = _start(gen, rho0, i0)
    weights = _site_weights(gen, sites - i0)
    rows = np.array([(weights @ tr).real for tr in _trace_rows(gen, v, steps)])
    rows = rows.reshape(len(steps), len(sites))
    if len(steps) and steps[0] == 0:
        rows[0] = np.where(sites == i0, v[:gen.coin.dim].sum(), 0.0)
    return rows


def _time_grid(times) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if times.size and (not np.isfinite(times).all() or times[0] < 0
                       or np.any(np.diff(times) <= 0)):
        raise ValueError("times must be finite, strictly increasing and nonnegative")
    return times


def _theta_max(dist: int, t_rate: float) -> float:
    """Upper end of the theta search for an edge dist sites away, t_rate = t Coin.rate_scale.

    2 log(2 + dist), or log(4 dist / t_rate) when that is larger: for a short
    time the optimal theta is about log(dist / (t a)), a the rate of jumps
    towards the edge, so the range holds it while a >= rate_scale / 4. It
    depends on t only through t_rate, so the rescaled coin (sC, sA, s^2 H) at
    t / s^2 searches the same range. Capped at half the log of the largest
    float, where e^theta stays finite.
    """
    grown = np.log(4.0 * dist) - np.log(t_rate)
    return min(max(2.0 * np.log(2.0 + dist), grown), 0.5 * np.log(np.finfo(float).max))


class _LeakMemo:
    """What ``_leak_bound`` keeps per coin: the real symbol stacked once, the
    spectral radii of R and L, and the last LEAK_MEMO_WINDOWS windows.

    A window (t, right distance, left distance) holds both edges' (theta, mu)
    and the trace rows of their shifted exponentials, so a repeated window
    costs one product with the state. The stack is a plain copy of
    ``Coin.symbol``; ``trio`` is (I, R, L), whose product with a vector r
    gives r, Rr and Lr at once.
    """

    def __init__(self, coin: Coin):
        parts = np.array(coin.symbol)
        self.n = parts.shape[-1]
        self.flat = parts.reshape(3, -1)
        self.jumps = parts[1:]
        self.trio = np.concatenate((np.eye(self.n)[None], self.jumps))
        self.radii = np.abs(np.linalg.eigvals(self.jumps)).max(axis=1).tolist()
        self.windows: dict = {}


_LEAK_MEMOS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _leak_memo(coin: Coin) -> _LeakMemo:
    memo = _LEAK_MEMOS.get(coin)
    if memo is None:
        memo = _LEAK_MEMOS[coin] = _LeakMemo(coin)
    return memo


def _exp_root(a: float, b: float, dist: float):
    """theta with a e^theta - b e^-theta = dist, or None when a <= 0 or no root is real."""
    disc = dist * dist + 4.0 * a * b
    if not (a > 0.0 and disc >= 0.0):
        return None
    top = dist + math.sqrt(disc)
    return math.log(top / (2.0 * a)) if top > 0.0 else None


def _tilted(memo: _LeakMemo, t: float, sign: int, theta: float):
    """(M, wR, wL): M = t S + wR R + wL L, wR = t e^{sign theta}, wL = t e^{-sign theta}."""
    w_r, w_l = t * math.exp(sign * theta), t * math.exp(-sign * theta)
    return (np.array((t, w_r, w_l)) @ memo.flat).reshape(memo.n, memo.n), w_r, w_l


def _perron(memo: _LeakMemo, m: np.ndarray, sign: int, w_r: float, w_l: float, dist: int):
    """(lambda, lambda', lambda'') in theta of M = t S + wR R + wL L (``_tilted``).

    lambda is the spectral abscissa, the Perron root: one LAPACK dgeev with
    both eigenvectors. lambda' = l.M'r / l.r from its left and right vectors,
    with M' = sign (wR R - wL L): one product of (I, R, L) with r, one with
    l. lambda'' = (l.M''r + 2 l.M'x) / l.r, M'' = wR R + wL L, where x solves
    (M - lambda + r l') x = (lambda' - M') r by one LAPACK dgesv, which forces
    l.x = 0. Where other eigenvalues share the abscissa, the branches through
    it have the slopes of the eigenvalues of (W'V)^-1 W'M'V over their right
    and left vectors V, W; lambda' is then the subgradient nearest to dist,
    dist itself where branches with slopes on both sides of it cross.
    lambda' is None where the vectors do not determine it (l.r or W'V
    vanishes), lambda'' None where it is not defined (a shared abscissa, a
    singular solve).
    """
    wr, _, vl, vr, info = dgeev(m, compute_vl=1, compute_vr=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK dgeev failed with info {info}")
    k = int(wr.argmax())
    spectrum = sorted(wr.tolist())
    lam = spectrum[-1]
    near = DEGENERATE_GAP * (lam - spectrum[0])
    if len(spectrum) > 1 and lam - spectrum[-2] <= near:
        top = wr >= lam - near
        v, w = vr[:, top], vl[:, top]
        jv = memo.jumps @ v
        try:
            mixed = np.linalg.solve(w.T @ v, w.T @ (w_r * jv[0] - w_l * jv[1]))
        except np.linalg.LinAlgError:
            return lam, None, None
        slopes = sign * np.linalg.eigvals(mixed).real
        return lam, min(max(float(dist), float(slopes.min())), float(slopes.max())), None
    l, r = vl[:, k], vr[:, k]
    rj = memo.trio @ r
    lr, lj_r, lj_l = (rj @ l).tolist()
    if abs(lr) <= DEGENERATE_OVERLAP:
        return lam, None, None
    slope = sign * (w_r * lj_r - w_l * lj_l) / lr
    a = m + r[:, None] * l
    a.flat[:: memo.n + 1] -= lam
    x, info = dgesv(a, np.array((slope, -sign * w_r, sign * w_l)) @ rj,
                    overwrite_a=1, overwrite_b=1)[2:]
    if info != 0:
        return lam, slope, None
    lx_r, lx_l = ((memo.jumps @ x) @ l).tolist()
    second = (w_r * lj_r + w_l * lj_l + 2.0 * sign * (w_r * lx_r - w_l * lx_l)) / lr
    return lam, slope, second if math.isfinite(second) else None


def _edge_tilt(memo: _LeakMemo, t: float, sign: int, dist: int, theta_max: float):
    """(theta, mu, M(theta) - mu) with theta minimising f = lambda(theta) - theta dist.

    M(theta) = t (S + e^theta R + e^-theta L) at the right edge (sign 1), R and
    L swapped at the left, and lambda its Perron root (``_perron``), convex in
    theta (Evans & Hoegh-Krohn, 1978). From the root of t (rho(R) e^theta -
    rho(L) e^-theta) = dist, each point steps to the root of a e^theta -
    b e^-theta = dist fitted to lambda' and lambda'' there (without lambda'',
    the spectral radii's model shifted to lambda'), kept in the bracket that
    the signs of f' narrow; a step outside it or past the cut of its end
    tangents goes to that cut or to the end on its side, and a point with no
    slope between two tangents is the eigenvalue crossing. mu, moved along
    lambda' by the last step, only shifts the exponential.
    """
    # spectral radii of the jumps towards and away from the edge, times t
    ahead, behind = (t * x for x in memo.radii[:: sign])
    start = _exp_root(ahead, behind, dist)
    new = theta_max if start is None else min(max(start, 0.0), theta_max)
    lo, hi, below, above = 0.0, theta_max, None, None  # tangents (theta, f, f') at lo, hi
    moved = 1.0  # the step that led to theta, 1 at the first point
    for _ in range(MAX_TILT_STEPS):
        theta = new
        m, w_r, w_l = _tilted(memo, t, sign, theta)
        lam, slope, curv = _perron(memo, m, sign, w_r, w_l, dist)
        step = cut = None
        if slope is not None:
            g = slope - dist
            if g == 0.0 or (theta == 0.0 and g > 0.0) or (theta == theta_max and g < 0.0):
                break
            if g > 0.0:
                hi, above = theta, (theta, lam - theta * dist, g)
            else:
                lo, below = theta, (theta, lam - theta * dist, g)
            x = math.exp(theta)
            step = (_exp_root(ahead, behind, dist - slope + ahead * x - behind / x) if curv is None
                    else _exp_root((slope + curv) / (2.0 * x), (curv - slope) * x / 2.0, dist))
        if below is not None and above is not None:
            (t1, f1, g1), (t2, f2, g2) = below, above
            cut = min(max((f1 - f2 - g1 * t1 + g2 * t2) / (g2 - g1), lo), hi)
            if slope is None:
                break  # on the crossing
            if step is not None and (step - cut) * g < 0.0:
                step = None  # past the cut, where the other branch is on top
        if step is not None and (step - theta) ** 2 <= THETA_ERR * moved:
            new = step
            break
        width = BRACKET_TOL * (1.0 + hi)
        if step is not None and lo + width < step < hi - width:
            new = step
        elif cut is not None:
            new = cut
        elif step is not None:
            new = hi if step > theta else lo
        else:  # halfway towards the end of the bracket not yet evaluated
            far = above is None and (below is not None or 2.0 * theta < lo + hi)
            new = 0.5 * (theta + (hi if far else lo))
        if new == theta or hi - lo <= width:
            break
        moved = abs(new - theta)
    if new != theta and slope is not None:  # the last step, taken with no evaluation
        lam, theta = lam + slope * (new - theta), new
        m = _tilted(memo, t, sign, theta)[0]
    m.flat[:: memo.n + 1] -= lam
    return theta, lam, m


def _leak_bound(coin: Coin, v: np.ndarray, i0: int, radius: int, t: float) -> float:
    """leak_bound for coordinates v from density_for, i0 in range and t >= 0 finite."""
    if t == 0:
        return 0.0
    memo = _leak_memo(coin)
    dists = (radius + 1 - i0, radius + 1 + i0)
    key = (t, *dists)
    window = memo.windows.pop(key, None)
    if window is None:
        t_rate = t * coin.rate_scale
        tilts = [_edge_tilt(memo, t, sign, dist, _theta_max(dist, t_rate))
                 for sign, dist in zip((1, -1), dists)]
        # both edges from one stacked exponential; rows 0..d-1 sum to Tr
        rows = mat_exp(np.array([m for _, _, m in tilts]))[:, : coin.dim].sum(axis=1)
        window = ([(theta, mu) for theta, mu, _ in tilts], rows)
        if len(memo.windows) == LEAK_MEMO_WINDOWS:
            del memo.windows[next(iter(memo.windows))]  # the window used longest ago
    memo.windows[key] = window
    tilts, rows = window
    total = 0.0
    for (theta, mu), moment, dist in zip(tilts, rows @ v, dists):
        if not np.isfinite(moment) or moment < np.finfo(float).tiny:
            total += 1.0
        else:
            total += float(np.exp(min(mu + np.log(moment) - theta * dist, 0.0)))
    return min(1.0, total)


def leak_bound(coin: Coin, rho0, i0: int, radius: int, t: float) -> float:
    """Certified bound on the mass beyond sites -radius..radius at time t.

    The sum over both edges of the Chernoff bound e^{-theta D} Tr(e^{M(theta)}
    rho0), M(theta) = t (S + e^theta R + e^-theta L), with D the distance from
    i0 to the edge plus one, capped at 1. M(theta) is real, read from
    ``Coin.symbol`` with no rebuild per call. theta minimises
    lambda(theta) - theta D, lambda the Perron root, over ``_theta_max``
    (``_edge_tilt``): model steps on the slope and curvature of this convex
    function, kept in a bracket and cut at eigenvalue crossings, one LAPACK
    dgeev with eigenvectors and one dgesv per evaluation. That range grows as
    t Coin.rate_scale -> 0, so the bound vanishes with t (about e t from an
    edge start of the scalar walk) instead of stalling at (2 + D)^{-2D}. The
    moments of both edges, each shifted by its lambda so that it cannot
    overflow, come from one stacked exponential; a moment that is not a
    positive normal float (it underflows when the abscissa belongs to a
    level rho barely reaches) gives that edge the trivial bound 1. The coin
    keeps the last LEAK_MEMO_WINDOWS windows (t, radius, i0): a new one takes
    0.25-0.56 ms at d <= 3 and a repeated one 7 us, with the same result to
    the bit (2-vCPU Xeon, one BLAS thread). Against theta minimising the
    exact moment the bound is within a factor 1.7 on random coins and states
    (median 1.00001). When the levels decouple, theta suits the level that
    dominates the edge, and the bound loosens by up to the inverse of rho's
    weight on that level.
    """
    _check_time(t)
    if abs(_integer(i0, "i0")) > _integer(radius, "radius"):
        raise ValueError(f"start site {i0} outside truncation radius {radius}")
    return _leak_bound(coin, density_for(coin, rho0), i0, radius, t)


def evolve(gen: BlockGenerator, rho0, i0: int, t: float) -> BlockState:
    """State at time t >= 0 from rho0 concentrated at site i0."""
    v = _start(gen, rho0, i0)
    return BlockState(radius=gen.radius, blocks=_blocks(gen, v, i0, t),
                      leaked_mass=_leak_bound(gen.coin, v, i0, gen.radius, t))


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
    v = _start(gen, rho0, i0)
    rows = np.array(list(_trace_rows(gen, v, np.diff(times, prepend=0.0))))
    per_offset = np.fft.hfft(rows.reshape(len(times), gen.radius + 1), n=gen.n_sites, axis=1)
    profiles = np.roll(per_offset, gen.radius + i0, axis=1) / gen.n_sites
    if times.size and times[0] == 0:
        profiles[0] = 0.0
        profiles[0, i0 + gen.radius] = v[:gen.coin.dim].sum()
    return profiles


def transition_probability(gen: BlockGenerator, rho0, i0: int, j: int, t: float) -> float:
    """p_{j i0; rho}(t) = Tr(rho_t(j))."""
    j = _check_site(gen, j, "j")
    return float(np.trace(_site_block(gen, _start(gen, rho0, i0), i0, j, t)).real)


def conditioned_state(gen: BlockGenerator, rho0, i0: int, k: int, beta: float) -> np.ndarray:
    """Internal state at site k given the walker is observed there at time beta."""
    k = _check_site(gen, k, "k")
    return _condition_blocks(_site_block(gen, _start(gen, rho0, i0), i0, k, beta)[None], [k])[0]


def _condition_blocks(blocks: np.ndarray, sites) -> np.ndarray:
    """Each block of a (n, d, d) stack divided by its trace, in one stacked ``eigh``.

    Eigenvalues down to -1e-8 are clipped to 0 before the state is
    renormalised; a block whose trace is at most SITE_PROB_FLOOR, or whose
    conditioned state has a lower eigenvalue, raises, naming the first such
    entry of ``sites``.
    """
    p = np.einsum("ijj->i", blocks).real
    light = np.flatnonzero(p <= SITE_PROB_FLOOR)
    if light.size:
        raise ValueError(
            f"site {sites[light[0]]} carries probability {p[light[0]]:.3e}; conditioning "
            f"on a negligible-probability site is ill-defined"
        )
    w, v = np.linalg.eigh(blocks / p[:, None, None])
    low = w.min(axis=1)
    bad = np.flatnonzero(low < -1e-8)
    if bad.size:
        raise ArithmeticError(
            f"conditioned state at site {sites[bad[0]]} has eigenvalue {low[bad[0]]:.3e}"
        )
    w = np.clip(w, 0.0, None)
    sigma = (v * w[:, None, :]) @ v.conj().transpose(0, 2, 1)
    return sigma / np.einsum("ijj->i", sigma).real[:, None, None]


def chapman_kolmogorov_residual(gen: BlockGenerator, rho0, i0: int, j: int,
                                alpha: float, beta: float) -> float:
    """|p(alpha+beta) - sum_k p(alpha | from k) p(beta, k)| at site j.

    The left side is one propagation to alpha+beta, read at site j. The
    right side re-launches the walk from every site k that carries mass at
    time beta, started in the conditioned internal state there. The launches
    share only the propagator e^{alpha L_k}, exponentiated once for momenta
    0..radius: its trace rows meet the launches in one product, and the
    weights of the offsets j - k read each launch's occupation of j from
    those half traces. When alpha == beta that propagator also carries the
    walk to beta, so the right side takes one exponential; the left side
    keeps its own at alpha+beta, so the semigroup law stays under test. Their
    agreement with the left side is the identity under test. Raises if the
    leak bound at alpha+beta reaches LEAK_TOL.
    """
    if not (np.isfinite([alpha, beta]).all() and min(alpha, beta) >= 0):
        raise ValueError(f"alpha and beta must be finite and nonnegative, got {alpha}, {beta}")
    j = _check_site(gen, j, "j")
    v = _start(gen, rho0, i0)
    leak = _leak_bound(gen.coin, v, i0, gen.radius, alpha + beta)
    if leak >= LEAK_TOL:
        raise RuntimeError(
            f"truncation leak bound {leak:.3e} at time alpha+beta; enlarge the radius"
        )
    lhs = float(np.trace(_site_block(gen, v, i0, j, alpha + beta)).real)

    flow = mat_exp(gen.symbols, alpha)
    at_beta = _ring(gen, flow @ v, i0) if beta == alpha > 0 else _blocks(gen, v, i0, beta)
    probs = np.einsum("ijj->i", at_beta).real
    occupied = np.flatnonzero(probs > SITE_PROB_FLOOR)
    launches = hvec(_condition_blocks(at_beta[occupied], occupied - gen.radius))
    trace_rows = flow[:, : gen.coin.dim].sum(axis=1)
    weights = _site_weights(gen, j + gen.radius - occupied)
    at_j = np.einsum("kq,qk->k", weights, trace_rows @ launches.T).real
    return abs(lhs - float(at_j @ probs[occupied]))


def return_integral(gen: BlockGenerator, rho0, i0: int, horizon: float, *,
                    with_half: bool = False):
    """int_0^T p_{i0 i0; rho}(t) dt in closed form.

    For each momentum, ``mat_exp_integral`` doubles the pair (e^{tau L_k},
    int_0^tau e^{t L_k} hvec(rho0) dt) up to tau = T; the return integral is
    the mean of the integrals' traces over the ring's momenta, (tr_0 + 2
    sum_{q >= 1} Re tr_q) / N from momenta 0..radius. With ``with_half`` it
    returns (value at T, value at T/2) from the pair (E, c) at T/2, the full
    integral being E c + c. The leak bound is checked at T only (and at T/2
    with ``with_half``), not at every t <= T; one that reaches LEAK_TOL raises.
    """
    if not (np.isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    v = _start(gen, rho0, i0)
    for t in (horizon, horizon / 2.0) if with_half else (horizon,):
        leak = _leak_bound(gen.coin, v, i0, gen.radius, t)
        if leak >= LEAK_TOL:
            raise RuntimeError(
                f"truncation leak bound {leak:.3e} at time {t:g}; enlarge the radius"
            )
    e, c = mat_exp_integral(gen.symbols, v, horizon / 2.0 if with_half else horizon)
    if with_half:
        c = np.stack((np.einsum("kab,kb->ka", e, c) + c, c))
    values = (c[..., : gen.coin.dim].sum(axis=-1) @ _site_weights(gen, 0)[0]).real
    return tuple(values.tolist()) if with_half else float(values)


def skeleton_partials(gen: BlockGenerator, rho0, i0: int, j: int, delta: float,
                      n_steps: int) -> np.ndarray:
    """Partial sums sum_{n=0}^{k} p_{j i0; rho}(n delta) for k = 0..n_steps.

    Term n applies the n-th power of e^{delta L_k} and projects onto site j
    (``_site_series``); term 0 is the initial occupation of site j exactly.
    """
    if not (np.isfinite(delta) and delta > 0):
        raise ValueError(f"delta must be positive and finite, got {delta}")
    n_steps = _integer(n_steps, "n_steps")
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    steps = np.full(n_steps + 1, float(delta))
    steps[0] = 0.0
    return np.cumsum(_site_series(gen, rho0, i0, _integer(j, "j"), steps)[:, 0])


def choose_radius(coin: Coin, i0: int, t: float, rho0=None) -> int:
    """Smallest doubling radius whose leak bound at time t is below LEAK_TOL.

    Doubles from max(RADIUS_START, 2|i0|) up to MAX_RADIUS and evaluates
    ``leak_bound`` for each candidate; nothing is evolved, and rho0 is
    checked once. The bound is taken for rho0, or for the maximally mixed
    state when rho0 is omitted. A start site beyond MAX_RADIUS / 2 is a
    ValueError; running out of radii is a RuntimeError.
    """
    _check_time(t)
    i0 = _integer(i0, "i0")
    radius = max(RADIUS_START, 2 * abs(i0))
    if radius > MAX_RADIUS:
        raise ValueError(f"start site {i0} needs a radius of {radius}, above {MAX_RADIUS}")
    v = density_for(coin, np.eye(coin.dim) / coin.dim if rho0 is None else rho0)
    while radius <= MAX_RADIUS:
        if _leak_bound(coin, v, i0, radius, t) < LEAK_TOL:
            return radius
        radius *= 2
    raise RuntimeError(
        f"no radius up to {MAX_RADIUS} keeps the leak bound below {LEAK_TOL:.1e} at t={t}"
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
