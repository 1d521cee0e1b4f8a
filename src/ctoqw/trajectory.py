"""Monte Carlo unraveling of the walk: jump sampling and drift estimation.

Between jumps the (unnormalized) internal state follows the linear flow
sigma_t = e^{G0 t} rho e^{G0* t}, whose trace P(t) is exactly the
no-jump-yet probability. A jump time is drawn by solving P(t) = u for
uniform u; the jump goes right with probability proportional to
Tr(A sigma A*) and left with Tr(C sigma C*), and the state restarts from the
normalized post-jump density. Averaging X_T / T over many independent paths
estimates the net velocity m.

Sampling uses the linear unnormalized evolution rather than the nonlinear
normalized ODE; the two are equivalent (the normalization cancels in every
sampled probability). On v = vec(sigma) the flow is e^{tS} with S the
k-independent part of the walk's Fourier symbol L_k = S + e^{ik} R +
e^{-ik} L, P(t) = vec(I)^T e^{tS} v, and the jump weights are the traces of
R v and L v. With the step h = 1/|S|_2, the powers e^{2^j h S} (one
exponential, then repeated squaring, cached per coin) bracket the jump time
within one step: double until P drops to u, then halve. Inside that step
e^{x h S} is its Taylor sum up to (hS)^18 / 18!, with remainder at most
e/19! < 3e-17 in operator norm for 0 <= x <= 1, so P is a polynomial in x
that Newton steps with bisection invert, stopping once a Newton step leaves
the time unchanged or the bracket is within REL_TIME_TOL; the state at the
jump comes from the same Taylor terms. Nothing here needs G0 to be
diagonalizable.

Reproducibility: every path k of a run with seed s draws from its own
counter-based stream keyed by (s, k), so results do not depend on scheduling
and any path can be regenerated in isolation.

Two drivers share one sampler. simulate_path draws one jump at a time
(JumpSampler.next_jump). estimate_drift runs all its paths in lockstep: the
live states form one (P, d^2) array, each bracket level is one product with
a cached power, the in-step polynomials come from one (P, 19) coefficient
product, Newton runs vectorised over the rows not yet converged with the
serial stopping rule per row, and the direction and post-jump state are
row-wise on R v and L v. Each path reads its own stream in the serial order
(jump time, then direction). Batched products sum in another order, so jump
times agree with simulate_path on path_rng(s, k) to the Newton tolerance,
and the end site agrees unless a uniform falls within about 1e-10 of a
decision boundary. A batch of one costs several times a serial jump, so
single paths stay serial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import mat_exp, unvec, vec
from .model import Coin, check_density, no_jump_generator, symbol_parts

REL_TIME_TOL = 1e-10
MAX_JUMPS = 10 ** 6
# Taylor terms of e^{x h S} within one step; |hS|_2 = 1 bounds the rest by e/19!.
_TAYLOR_TERMS = 19
# Exponents of the in-step polynomials, lowest first.
_DEGREES = np.arange(_TAYLOR_TERMS)
# Bracket-doubling guard, in units of the fastest jump timescale.
_GUARD_FACTOR = 1e9
_GUARD_ERROR = ("survival never crossed the target within the guard horizon; "
                "the jump rate may vanish on a trapped subspace")
_MAX_JUMPS_ERROR = (f"exceeded {MAX_JUMPS} jumps before the horizon; the walk should "
                    f"not explode, so this indicates a bug or a pathological coin")
# Rounds of (jump time, direction) uniforms drawn per stream at once in lockstep.
_PREFETCH_ROUNDS = 32


@dataclass
class TrajectoryPath:
    """One sampled path: jump times plus site/state history.

    ``sites`` and ``states`` carry the pre-jump starting values first, so
    they are one longer than ``jump_times``: sites[k] is the position after
    the k-th jump and states[k] the internal density right after it.
    """

    jump_times: np.ndarray
    sites: np.ndarray
    states: list
    horizon: float


@dataclass
class DriftEstimate:
    mean: float
    stderr: float
    n_paths: int
    horizon: float
    seed: int
    # Jumps over all paths.
    jumps: int


class JumpSampler:
    """Per-coin cached machinery for drawing jumps from any current state.

    States are handled as v = vec(sigma); S, R, L are the coin's
    superoperators from :func:`symbol_parts`, and survival from v after time
    t is vec(I)^T e^{tS} v. The step is h = 1/|S|_2 (module docstring).
    """

    def __init__(self, coin: Coin):
        self.coin = coin
        rate = coin.rate_operator()
        lam = float(np.linalg.eigvalsh(rate).max())
        if lam <= 0.0:
            raise ValueError("total jump rate vanishes; the coin never jumps")
        self.rate_scale = lam

        stay, self._right, self._left = symbol_parts(coin)
        self._h = 1.0 / float(np.linalg.norm(stay, 2))
        # Trace of an unvectorized state: the entries of vec(X) at stride d + 1.
        self._diag = slice(None, None, coin.dim + 1)
        # _powers[j] = e^{2^j h S}, extended on demand by squaring.
        self._powers = [mat_exp(stay, self._h)]
        # (hS)^j / j! for j < _TAYLOR_TERMS, and their traces as row vectors.
        hs = self._h * stay
        self._taylor = np.empty((_TAYLOR_TERMS,) + hs.shape, dtype=complex)
        self._taylor[0] = np.eye(len(hs))
        for j in range(1, _TAYLOR_TERMS):
            np.matmul(hs, self._taylor[j - 1] / j, out=self._taylor[j])
        self._taylor_trace = self._taylor[:, self._diag, :].sum(axis=1)

    def _power(self, j: int) -> np.ndarray:
        while len(self._powers) <= j:
            self._powers.append(self._powers[-1] @ self._powers[-1])
        return self._powers[j]

    def _trace(self, v: np.ndarray) -> float:
        return float(v[self._diag].sum().real)

    def _traces(self, rows: np.ndarray) -> np.ndarray:
        return rows[:, self._diag].sum(axis=1).real

    def _bracket(self, v: np.ndarray, u: np.ndarray, cap: np.ndarray):
        """Row-wise doubling then halving of :meth:`next_jump`.

        Returns (live, start, base): live marks the rows whose jump falls
        before their cap, and for those survival crosses u[k] within
        (start[k], start[k] + h] with base[k] the state at start[k].
        """
        h = self._h
        start = np.zeros(len(v))
        base = v.copy()
        level = np.zeros(len(v), dtype=int)
        live = np.ones(len(v), dtype=bool)
        todo = np.arange(len(v))
        j = 0
        while todo.size:
            span = h * 2 ** j
            ahead = v[todo] @ self._power(j).T
            above = self._traces(ahead) > u[todo]
            level[todo] = j
            live[todo[above & (span >= cap[todo])]] = False
            go = above & (span < cap[todo])
            todo, ahead = todo[go], ahead[go]
            if todo.size and span > _GUARD_FACTOR / self.rate_scale:
                raise RuntimeError(_GUARD_ERROR)
            start[todo], base[todo] = span, ahead
            j += 1
        for i in range(j - 3, -1, -1):
            rows = np.flatnonzero(live & (level >= i + 2))
            ahead = base[rows] @ self._power(i).T
            above = self._traces(ahead) > u[rows]
            rows = rows[above]
            start[rows] += h * 2 ** i
            base[rows] = ahead[above]
        return live, start, base

    def _next_jumps(self, v: np.ndarray, u: np.ndarray, cap: np.ndarray):
        """Batched :meth:`next_jump` up to the jump, on rows v = vec(sigma).

        u[k] is row k's jump-time uniform and cap[k] its time cap. Returns
        (rows, dt, sigma) for the rows that jump before their cap: the jump
        times and the unnormalized states just before the jump.
        """
        h = self._h
        live, start, base = self._bracket(v, u, cap)
        coef = (base @ self._taylor_trace.T).real
        hi = start + h
        capped = np.flatnonzero(live & (hi > cap))
        if capped.size:
            end, begin = cap[capped], start[capped]
            s = (coef[capped] * np.power.outer((end - begin) / h, _DEGREES)).sum(axis=1)
            stop = (end <= begin) | (s > u[capped])
            live[capped[stop]] = False
            hi[capped[~stop]] = end[~stop]
        rows = np.flatnonzero(live)
        start, base, coef = start[rows], base[rows], coef[rows]
        dt = _invert_survival(coef, start, hi[rows], u[rows], h)

        # sigma = (sum_k x^k (hS)^k / k!) base, the Taylor sum of next_jump.
        n = v.shape[1]
        flow = np.power.outer((dt - start) / h, _DEGREES) @ self._taylor.reshape(_TAYLOR_TERMS, -1)
        sigma = (flow.reshape(-1, n, n) @ base[:, :, None])[:, :, 0]
        return rows, dt, sigma

    def next_jump(self, rho: np.ndarray, rng, t_cap: float | None = None):
        """Draw (dt, direction, rho_after), or None if no jump before t_cap.

        Uniform variates are consumed in a fixed order: first the jump time,
        then (when a jump happens) the direction.
        """
        v = vec(rho)
        u = rng.random()
        if t_cap is not None and t_cap <= 0.0:
            return None
        h = self._h

        # Double until survival at 2^j h drops to u, then halve: the jump lies
        # in (start, start + h] with survival `base` at start above u.
        j, start, base = 0, 0.0, v
        while True:
            span = h * 2 ** j
            ahead = self._power(j) @ v
            if self._trace(ahead) <= u:
                break
            if t_cap is not None and span >= t_cap:
                return None
            if span > _GUARD_FACTOR / self.rate_scale:
                raise RuntimeError(_GUARD_ERROR)
            start, base = span, ahead
            j += 1
        for i in range(j - 2, -1, -1):
            ahead = self._power(i) @ base
            if self._trace(ahead) > u:
                start, base = start + h * 2 ** i, ahead

        # Within the step, survival is the polynomial in x = (t - start) / h
        # with coefficients vec(I)^T (hS)^k base / k!, exact up to e/19!;
        # coef lists them highest degree first for Horner's rule.
        coef = (self._taylor_trace @ base).real.tolist()[::-1]

        def surv(t):
            x = (t - start) / h
            s = ds = 0.0
            for c in coef:
                ds = ds * x + s
                s = s * x + c
            return s, ds / h

        lo, hi = start, start + h
        if t_cap is not None and hi > t_cap:
            if t_cap <= start or surv(t_cap)[0] > u:
                return None
            hi = t_cap

        x = 0.5 * (lo + hi)
        for _ in range(200):
            s, ds = surv(x)
            if s > u:
                lo = x
            else:
                hi = x
            step = x - (s - u) / ds if ds < 0 else math.nan
            if step == x:  # Newton no longer moves x: the jump is at x
                lo = hi = x
            if hi - lo <= REL_TIME_TOL * max(hi, 1e-300):
                break
            x = step if lo < step < hi else 0.5 * (lo + hi)
        dt = 0.5 * (lo + hi)

        sigma = ((dt - start) / h) ** _DEGREES @ (self._taylor @ base)
        right, left = self._right @ sigma, self._left @ sigma
        w_right, w_left = self._trace(right), self._trace(left)
        total = w_right + w_left
        if not (total > 0.0):
            raise ArithmeticError("zero total jump weight at the sampled time")
        direction = 1 if rng.random() < w_right / total else -1
        post = unvec(right if direction == 1 else left, self.coin.dim)
        post = (post + post.conj().T) / 2.0
        tr = float(np.trace(post).real)
        if tr <= 0.0:
            raise ArithmeticError("post-jump state has nonpositive trace")
        return dt, direction, post / tr


def _invert_survival(coef, start, hi, u, h):
    """Row-wise Newton with bisection of :meth:`JumpSampler.next_jump`.

    Row k solves survival = u[k] for t in (start[k], hi[k]], survival being
    the polynomial coef[k] in x = (t - start[k]) / h; each row stops by the
    serial rule (a Newton step that leaves x unchanged, a bracket within
    REL_TIME_TOL, or 200 iterations).
    """
    dt = np.empty(len(u))
    todo = np.arange(len(u))
    # poly[k] = (survival, d survival / dt) coefficients, lowest degree first.
    poly = np.zeros((len(u), 2, _TAYLOR_TERMS))
    poly[:, 0] = coef
    poly[:, 1, :-1] = coef[:, 1:] * _DEGREES[1:] / h
    lo = start
    x = 0.5 * (lo + hi)
    # Rows with ds >= 0 take the midpoint, so their Newton step may divide by 0.
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(200):
            s, ds = np.einsum("kij,kj->ik", poly, np.power.outer((x - start) / h, _DEGREES))
            above = s > u
            lo, hi = np.where(above, x, lo), np.where(above, hi, x)
            step = x - (s - u) / ds
            fixed = (ds < 0) & (step == x)
            lo, hi = np.where(fixed, x, lo), np.where(fixed, x, hi)
            mid = 0.5 * (lo + hi)
            done = hi - lo <= REL_TIME_TOL * np.maximum(hi, 1e-300)
            x = np.where((ds < 0) & (lo < step) & (step < hi), step, mid)
            if done.any():
                dt[todo[done]] = mid[done]
                keep = ~done
                todo, x, lo, hi, u, start, poly = (
                    a[keep] for a in (todo, x, lo, hi, u, start, poly))
                if not todo.size:
                    return dt
    dt[todo] = 0.5 * (lo + hi)
    return dt


def sample_next_jump(coin: Coin, rho, rng):
    """One jump from a fresh sampler: (dt, direction, rho_after)."""
    return JumpSampler(coin).next_jump(check_density(rho), rng)


def _simulate(sampler: JumpSampler, i0: int, rho0, horizon: float, rng) -> TrajectoryPath:
    rho = check_density(rho0)
    t = 0.0
    site = int(i0)
    jump_times: list[float] = []
    sites = [site]
    states = [rho]
    while True:
        drawn = sampler.next_jump(rho, rng, t_cap=horizon - t)
        if drawn is None:
            break
        dt, direction, rho = drawn
        t += dt
        site += direction
        jump_times.append(t)
        sites.append(site)
        states.append(rho)
        if len(jump_times) >= MAX_JUMPS:
            raise RuntimeError(_MAX_JUMPS_ERROR)
    return TrajectoryPath(
        jump_times=np.array(jump_times),
        sites=np.array(sites, dtype=int),
        states=states,
        horizon=float(horizon),
    )


def simulate_path(coin: Coin, i0: int, rho0, horizon: float, rng) -> TrajectoryPath:
    """Sample one trajectory up to the horizon."""
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    return _simulate(JumpSampler(coin), i0, rho0, horizon, rng)


def path_rng(seed: int, path_index: int) -> np.random.Generator:
    """The deterministic sub-stream for one path of a seeded run."""
    return np.random.Generator(np.random.Philox(key=[seed, path_index]))


def _lockstep(sampler: JumpSampler, rho, horizon: float, rngs) -> tuple[np.ndarray, int]:
    """Net displacement at the horizon of one path per stream, and the jump total.

    Every path evolves as :func:`_simulate` would evolve it with its stream:
    round r draws the (r+1)-th jump of every path still short of the
    horizon, as one batched :meth:`JumpSampler._next_jumps` over the live
    rows v = vec(sigma). Each stream is read in blocks (``random(n)`` yields
    the same numbers as n single draws), in the serial order: jump time,
    then direction.
    """
    d = sampler.coin.dim
    block = 2 * _PREFETCH_ROUNDS
    uniforms = np.empty((len(rngs), block))
    paths = np.arange(len(rngs))
    moved = np.zeros(len(rngs), dtype=int)
    v = np.tile(vec(rho), (len(rngs), 1))
    t = np.zeros(len(rngs))
    jumps = 0
    r = 0
    while paths.size:
        col = 2 * (r % _PREFETCH_ROUNDS)
        if col == 0:
            for k in paths:
                uniforms[k] = rngs[k].random(block)
        rows, dt, sigma = sampler._next_jumps(v, uniforms[paths, col], horizon - t)
        paths = paths[rows]
        if not paths.size:
            break
        right, left = sigma @ sampler._right.T, sigma @ sampler._left.T
        w_right = sampler._traces(right)
        total = w_right + sampler._traces(left)
        if not np.all(total > 0.0):
            raise ArithmeticError("zero total jump weight at the sampled time")
        step = np.where(uniforms[paths, col + 1] < w_right / total, 1, -1)
        # Rows reshaped C-order are the transposed states; hermitising and
        # the trace do not care.
        post = np.where((step == 1)[:, None], right, left).reshape(-1, d, d)
        post = (post + post.conj().swapaxes(1, 2)) / 2.0
        tr = np.trace(post, axis1=1, axis2=2).real
        if np.any(tr <= 0.0):
            raise ArithmeticError("post-jump state has nonpositive trace")
        v = (post / tr[:, None, None]).reshape(len(paths), -1)
        t = t[rows] + dt
        moved[paths] += step
        jumps += paths.size
        r += 1
        if r >= MAX_JUMPS:
            raise RuntimeError(_MAX_JUMPS_ERROR)
    return moved, jumps


def estimate_drift(coin: Coin, rho0, horizon: float, n_paths: int, seed: int,
                   i0: int = 0) -> DriftEstimate:
    """Mean of X_T / T over independent paths, with its standard error.

    Path k draws from the stream keyed by (seed, k), in the order
    ``simulate_path(coin, i0, rho0, horizon, path_rng(seed, k))`` draws, so
    the estimate is reproducible for a fixed seed and agrees with the same
    reduction over those paths (module docstring); all paths are sampled
    together in lockstep. The walk is translation invariant, so i0 does not
    change the estimate.
    """
    if horizon < 100:
        raise ValueError("drift estimation needs horizon >= 100 (drift regime)")
    if n_paths < 100:
        raise ValueError("drift estimation needs at least 100 paths")
    rngs = [path_rng(seed, k) for k in range(n_paths)]
    moved, jumps = _lockstep(JumpSampler(coin), check_density(rho0), horizon, rngs)
    vals = moved / horizon
    mean = math.fsum(vals) / n_paths
    var = math.fsum((v - mean) ** 2 for v in vals) / (n_paths - 1)
    return DriftEstimate(
        mean=mean,
        stderr=math.sqrt(var / n_paths),
        n_paths=n_paths,
        horizon=float(horizon),
        seed=int(seed),
        jumps=jumps,
    )


def survival_probability(coin: Coin, rho, t: float) -> float:
    """No-jump probability Tr(e^{G0 t} rho e^{G0* t}) from a given state."""
    e = mat_exp(no_jump_generator(coin), float(t))
    return float(np.trace(e @ check_density(rho) @ e.conj().T).real)


def write_path_csv(f, path: TrajectoryPath) -> None:
    """CSV export with header jump_index,time,site; row 0 is the start."""
    f.write("jump_index,time,site\n")
    f.write(f"0,0,{int(path.sites[0])}\n")
    for k, (t, s) in enumerate(zip(path.jump_times, path.sites[1:]), start=1):
        f.write(f"{k},{float(t):.17g},{int(s)}\n")


def drift_to_dict(est: DriftEstimate) -> dict:
    return {
        "mean": est.mean,
        "stderr": est.stderr,
        "n_paths": est.n_paths,
        "horizon": est.horizon,
        "seed": est.seed,
    }
