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
sampled probability). On the real coordinates v = hvec(sigma) the flow is
e^{tS} with S the k-independent part of the walk's real Fourier symbol L_k =
S + e^{ik} R + e^{-ik} L, P(t) is the trace (the sum of the first d
coordinates) of e^{tS} v, the jump weights are the traces of R v and L v,
and a right jump leaves R v divided by its trace. With the step h = 1/|S|_2,
e^{x h S} for 0 <= x <= 1 is its Taylor sum up to (hS)^18 / 18!, with
remainder at most e/19! < 3e-17 in operator norm; e^{hS} is that sum at x =
1, so the sampler needs no general matrix exponential. Per coin it caches
the grid e^{k h S} for k = 0..K (K = 64 steps make a window; both stacks are
built by batched doubling) and the grid's trace rows, so one product gives P
at every grid time of a window, and the jump lies in the step that ends at
the first grid time where P is at most u. If P is still above u at the end
of the first window, the powers e^{2^j K h S} (extended by squaring) bracket
the jump within one window first (JumpSampler._bracket, row-wise, so a
single draw passes it one row): double until P drops to u, then halve; then
the grid places it in a step of that window. Inside the step P is a
polynomial in x that Halley steps with bisection invert (Newton's step where
Halley's denominator is not positive), starting where the chord between the
two bracketing grid survivals meets u and stopping once a step corrects the
time by at most REL_TIME_TOL relative or the bracket is within REL_TIME_TOL;
the state at the jump comes from the same Taylor terms, and the jump weights
from the trace rows of R and L. Nothing here needs G0 to be diagonalizable.

Reproducibility: every path k of a run with seed s draws from its own
counter-based stream keyed by (s, k), so results do not depend on scheduling
and any path can be regenerated in isolation.

Two drivers share one sampler. simulate_path records one path's full
history, one jump at a time (JumpSampler.next_jump). sample_sites returns
only the end sites and jump counts of many paths, run in lockstep: the live
states form one (P, d^2) array, one product with the grid's trace rows
places every row's jump in a step (rows past their first window take the
window chain, one product per level), the in-step polynomials and their
first two time derivatives come from one coefficient product, Halley runs
vectorised over all rows with the serial stopping rule per row (a finished
row stays in the batch, frozen; on the three-level coin nearly every round
takes three passes), both jump weights come from one product with the trace
rows, and the post-jump states from one product with R and L stacked;
estimate_drift is its reduction and reports the rounds and passes. Each path
reads its own stream in the serial order (jump time, then direction).
Batched products sum in another order, so jump times agree with
simulate_path on path_rng(s, k) to REL_TIME_TOL, and the end site agrees
unless a uniform falls within about 1e-10 of a decision boundary. Single
paths stay serial: one row of _next_jumps costs 190-250 us against 29-40 us
for next_jump (three-level coin, README timings).

With the same caveat, the site at tau < T on stream k is the end site of the
horizon-tau run on that stream: both read the same uniforms in the same
order, and the draw capped at tau decides "no jump before tau" in both. So
occupations at several times take one sample_sites call per time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import hunvec, hvec, mat_exp
from .model import Coin, density_for, no_jump_generator

REL_TIME_TOL = 1e-10
MAX_JUMPS = 10 ** 6
# Grid steps per window: the sampler caches e^{k h S} for k = 0..K.
K = 64
# Taylor terms of e^{x h S} within one step; |hS|_2 = 1 bounds the rest by e/19!.
_TAYLOR_TERMS = 19
# Exponents of the in-step polynomials, lowest first, and 1/j! as a stack.
_DEGREES = np.arange(_TAYLOR_TERMS)
_INV_FACTORIALS = 1.0 / np.array([math.factorial(j) for j in _DEGREES])[:, None, None]
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
    # Lockstep rounds, and the jump-time root finder's passes summed over them.
    rounds: int
    solver_passes: int


class JumpSampler:
    """Per-coin cached machinery for drawing jumps from any current state.

    States are handled as v = hvec(sigma); S, R, L are the coin's real
    superoperators, read from ``Coin.symbol``, and survival from v after time
    t is the trace row (ones on the first d coordinates) times e^{tS} v. The
    step is h = 1/|S|_2 and a window is K steps (module docstring).
    """

    def __init__(self, coin: Coin):
        self.coin = coin
        rate = coin.rate_operator()
        lam = float(np.linalg.eigvalsh(rate).max())
        if lam <= 0.0:
            raise ValueError("total jump rate vanishes; the coin never jumps")
        self.rate_scale = lam

        stay, right, left = coin.symbol
        n, d = len(stay), coin.dim
        # Both jump superoperators stacked, so one product gives R v and L v.
        self._rl = np.concatenate([right, left])
        self._h = h = 1.0 / float(np.linalg.norm(stay, 2))
        # (hS)^j / j! for j < _TAYLOR_TERMS; _steps[k] = e^{k h S} for k <= K,
        # e^{hS} being their sum (smallest terms first).
        self._taylor = _power_stack(h * stay, _TAYLOR_TERMS - 1) * _INV_FACTORIALS
        self._steps = _power_stack(self._taylor[::-1].sum(axis=0), K)
        # Trace rows (Tr X is the sum of the first d coordinates): survival at
        # every grid time, the in-step polynomial coefficients, and the right
        # and left jump weights.
        self._grid_trace = self._steps[:, :d, :].sum(axis=1)
        self._taylor_trace = self._taylor[:, :d, :].sum(axis=1)
        self._rl_trace = self._rl.reshape(2, n, n)[:, :d, :].sum(axis=1)
        # Rows of survival's in-step coefficients and of its first two time
        # derivatives', lowest degree first: d/dt x^j = j x^{j-1} / h.
        up = np.diag(_DEGREES[1:] / h, 1)
        first = up @ self._taylor_trace
        self._poly_trace = np.concatenate([self._taylor_trace, first, up @ first])
        # _powers[j] = e^{2^j K h S}, extended on demand by squaring.
        self._powers = [self._steps[K]]

    def _power(self, j: int) -> np.ndarray:
        while len(self._powers) <= j:
            self._powers.append(self._powers[-1] @ self._powers[-1])
        return self._powers[j]

    def _traces(self, rows: np.ndarray) -> np.ndarray:
        # The grid's first trace row is that of e^{0 hS} = I.
        return rows @ self._grid_trace[0]

    def _bracket(self, v: np.ndarray, u: np.ndarray, cap: np.ndarray):
        """The one window chain, doubling then halving, for rows of both drivers.

        Every row's survival is above u[k] at the end of its first window.
        Returns (live, start, base): live marks the rows whose jump falls
        before their cap, and for those survival crosses u[k] within
        (start[k], start[k] + K h] with base[k] the state at start[k].
        """
        window = K * self._h
        start = np.full(len(v), window)
        base = v @ self._power(0).T
        level = np.zeros(len(v), dtype=int)
        live = window < cap
        todo = np.flatnonzero(live)
        if todo.size and window > _GUARD_FACTOR / self.rate_scale:
            raise RuntimeError(_GUARD_ERROR)
        j = 1
        while todo.size:
            span = window * 2 ** j
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
            start[rows] += window * 2 ** i
            base[rows] = ahead[above]
        return live, start, base

    def _next_jumps(self, v: np.ndarray, u: np.ndarray, cap: np.ndarray):
        """Batched :meth:`next_jump` up to the jump, on rows v = hvec(sigma).

        u[k] is row k's jump-time uniform and cap[k] its time cap. Returns
        (rows, dt, sigma, passes) for the rows that jump before their cap:
        the jump times, the unnormalized states just before the jump, and
        the root finder's passes over the batch.
        """
        h = self._h
        n_rows, n = v.shape
        start = np.zeros(n_rows)
        live = np.ones(n_rows, dtype=bool)
        # grid[k, r]: survival of row r at k h into its window.
        grid = self._grid_trace @ v.T
        far = np.flatnonzero(grid[K] > u)
        if far.size:
            v = v.copy()
            live[far], start[far], v[far] = self._bracket(v[far], u[far], cap[far])
            grid[:, far] = self._grid_trace @ v[far].T
        k = np.minimum(np.count_nonzero(grid[1:] > u, axis=0), K - 1)
        start += k * h
        cols = np.arange(n_rows)
        s_lo, s_hi = grid[k, cols], grid[k + 1, cols]
        base = (self._steps[k] @ v[:, :, None])[:, :, 0]
        # poly[i]: the i-th time derivative's coefficients, one column per row.
        poly = (self._poly_trace @ base.T).reshape(3, _TAYLOR_TERMS, n_rows)
        hi = start + h
        capped = np.flatnonzero(live & (hi > cap))
        if capped.size:
            end, begin = cap[capped], start[capped]
            powers = _power_stack((end - begin) / h, _TAYLOR_TERMS - 1)
            s = (poly[0][:, capped] * powers).sum(axis=0)
            stop = (end <= begin) | (s > u[capped])
            live[capped[stop]] = False
            hi[capped[~stop]] = end[~stop]
        rows = np.flatnonzero(live)
        start, hi, u, base = start[rows], hi[rows], u[rows], base[rows]
        s_lo, s_hi = s_lo[rows], s_hi[rows]
        # The root finder's start, as in next_jump: the chord between the grid
        # survivals at the step's ends meets u there, else the midpoint.
        with np.errstate(divide="ignore", invalid="ignore"):
            x = np.where(s_lo > s_hi, start + h * (s_lo - u) / (s_lo - s_hi), np.nan)
        x = np.where((start < x) & (x < hi), x, 0.5 * (start + hi))
        dt, passes = _invert_survival(poly[:, :, rows], start, hi, u, h, x)

        # sigma = (sum_j x^j (hS)^j / j!) base, the Taylor sum of next_jump.
        powers = _power_stack((dt - start) / h, _TAYLOR_TERMS - 1)
        flow = powers.T @ self._taylor.reshape(_TAYLOR_TERMS, -1)
        sigma = (flow.reshape(-1, n, n) @ base[:, :, None])[:, :, 0]
        return rows, dt, sigma, passes

    def next_jump(self, rho: np.ndarray, rng, t_cap: float = math.inf):
        """Draw (dt, direction, rho_after), or None if no jump before t_cap.

        Uniform variates are consumed in a fixed order: first the jump time,
        then (when a jump happens) the direction.
        """
        v = hvec(rho)
        u = rng.random()
        if t_cap <= 0.0:
            return None
        h = self._h

        # Survival at every grid time k h of the window from `start`, whose
        # state is `base`: the jump lies in the first step that ends at or
        # below u. If the first window ends above u, _bracket finds the window.
        start, base = 0.0, v
        grid = self._grid_trace @ v
        if grid[K] > u:
            live, start, base = self._bracket(v[None], np.array([u]), np.array([t_cap]))
            if not live[0]:
                return None
            start, base = float(start[0]), base[0]
            grid = self._grid_trace @ base
        k = min(int(np.count_nonzero(grid[1:] > u)), K - 1)
        start += k * h
        s_lo, s_hi = grid[k:k + 2].tolist()

        # Within the step, survival is the polynomial in x = (t - start) / h
        # with coefficients Tr of (hS)^j base / j!, exact up to e/19!;
        # coef lists them highest degree first for Horner's rule.
        base = self._steps[k] @ base
        terms = self._taylor @ base
        coef = (self._taylor_trace @ base).tolist()[::-1]

        def surv(t):
            # Survival and its first two time derivatives at t.
            x = (t - start) / h
            s = ds = dds = 0.0
            for c in coef:
                dds = dds * x + ds
                ds = ds * x + s
                s = s * x + c
            return s, ds / h, 2.0 * dds / (h * h)

        lo, hi = start, start + h
        if hi > t_cap:
            if t_cap <= start or surv(t_cap)[0] > u:
                return None
            hi = t_cap

        # Halley starts where the chord between the grid survivals at the
        # step's ends meets u, or at the midpoint when that falls outside.
        x = start + h * (s_lo - u) / (s_lo - s_hi) if s_lo > s_hi else math.nan
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        for _ in range(200):
            s, ds, dds = surv(x)
            if s > u:
                lo = x
            else:
                hi = x
            step = _root_step(x, s - u, ds, dds)
            if lo <= step <= hi and abs(step - x) <= REL_TIME_TOL * x:
                lo = hi = step  # the correction is within tolerance: the jump is at step
            if hi - lo <= REL_TIME_TOL * max(hi, 1e-300):
                break
            x = step if lo < step < hi else 0.5 * (lo + hi)
        dt = 0.5 * (lo + hi)

        sigma = ((dt - start) / h) ** _DEGREES @ terms
        w_right, w_left = (self._rl_trace @ sigma).tolist()
        total = w_right + w_left
        if not (total > 0.0):
            raise ArithmeticError("zero total jump weight at the sampled time")
        direction = 1 if rng.random() < w_right / total else -1
        # The trace of the post-jump state is the chosen weight.
        n = len(sigma)
        weight, jump = (w_right, self._rl[:n]) if direction == 1 else (w_left, self._rl[n:])
        if weight <= 0.0:
            raise ArithmeticError("post-jump state has nonpositive trace")
        return dt, direction, hunvec(jump @ sigma / weight)


def _root_step(x, f, ds, dds):
    """Halley's step from x for survival - u = f with time derivatives ds and
    dds; Newton's where Halley's denominator is not positive; NaN (so the
    caller bisects) where the slope is not negative."""
    if not ds < 0.0:
        return math.nan
    den = 2.0 * ds * ds - f * dds
    return x - 2.0 * f * ds / den if den > 0.0 else x - f / ds


def _power_stack(b: np.ndarray, top: int) -> np.ndarray:
    """[b^0, b^1, ..., b^top] on a new first axis by doubling, b^{m+i} =
    b^i b^m for all i <= m at once: matrix powers of a square matrix (the
    factors stacked into one tall matrix, so one product per doubling),
    elementwise powers of a vector."""
    out = np.empty((top + 1,) + b.shape, dtype=b.dtype)
    out[0] = np.eye(len(b)) if b.ndim == 2 else 1.0
    out[1] = b
    m = 1
    while m < top:
        end = min(2 * m, top)
        if b.ndim == 2:
            np.matmul(out[1:end - m + 1].reshape(-1, len(b)), out[m],
                      out=out[m + 1:end + 1].reshape(-1, len(b)))
        else:
            np.multiply(out[1:end - m + 1], out[m], out=out[m + 1:end + 1])
        m *= 2
    return out


def _invert_survival(poly, start, hi, u, h, x):
    """Row-wise Halley with bisection of :meth:`JumpSampler.next_jump`.

    Row k solves survival = u[k] for t in (start[k], hi[k]] from x[k],
    survival and its first two time derivatives being the polynomials with
    coefficients poly[:, :, k], lowest degree first, in (t - start[k]) / h
    (``JumpSampler._poly_trace``); each row takes the serial step
    (:func:`_root_step`) and stops by the serial rule (a step that corrects the time by at most
    REL_TIME_TOL relative, a bracket within REL_TIME_TOL, or 200 passes).
    Returns the times and the number of passes.
    """
    lo = start
    for passes in range(1, 201):
        s, ds, dds = np.einsum("ijk,jk->ik", poly, _power_stack((x - start) / h, _TAYLOR_TERMS - 1))
        above = s > u
        lo, hi = np.where(above, x, lo), np.where(above, hi, x)
        # _root_step row-wise; a NaN divisor leaves a NaN step, which bisects.
        f = s - u
        den = 2.0 * ds * ds - f * dds
        falling = ds < 0.0
        halley = falling & (den > 0.0)
        step = x - (np.where(halley, 2.0 * f * ds, f)
                    / np.where(halley, den, np.where(falling, ds, np.nan)))
        fixed = (lo <= step) & (step <= hi) & (np.abs(step - x) <= REL_TIME_TOL * x)
        mid = np.where(fixed, step, 0.5 * (lo + hi))
        done = fixed | (hi - lo <= REL_TIME_TOL * np.maximum(hi, 1e-300))
        if done.all():
            return mid, passes
        # A finished row's bracket collapses onto its time, and every
        # later pass leaves it there: the row is frozen, not removed.
        lo, hi = np.where(done, mid, lo), np.where(done, mid, hi)
        x = np.where((lo < step) & (step < hi), step, mid)
    return 0.5 * (lo + hi), passes


def _check_horizon(horizon: float) -> None:
    # NaN fails every comparison, so a NaN or infinite horizon would never cap
    # a path: it would run to MAX_JUMPS.
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon must be positive and finite, got {horizon}")


def sample_next_jump(coin: Coin, rho, rng):
    """One jump from a fresh sampler: (dt, direction, rho_after)."""
    return JumpSampler(coin).next_jump(density_for(coin, rho), rng)


def simulate_path(coin: Coin, i0: int, rho0, horizon: float, rng) -> TrajectoryPath:
    """Sample one trajectory up to the horizon, recording every jump."""
    _check_horizon(horizon)
    rho = density_for(coin, rho0)
    sampler = JumpSampler(coin)
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


def path_rng(seed: int, path_index: int) -> np.random.Generator:
    """The deterministic sub-stream for one path of a seeded run."""
    return np.random.Generator(np.random.Philox(key=[seed, path_index]))


def sample_sites(coin: Coin, rho0, horizon: float, n_paths: int, seed: int,
                 i0: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Site at the horizon and jump count of each of n_paths independent paths.

    Path k is ``simulate_path(coin, i0, rho0, horizon, path_rng(seed, k))``
    without its history. Round r draws the (r+1)-th jump of every path still
    short of the horizon as one batched :meth:`JumpSampler._next_jumps`; each
    stream is read in blocks, ``random(n)`` giving the same n single draws.
    """
    return _lockstep(coin, rho0, horizon, n_paths, seed, i0)[:2]


def _lockstep(coin: Coin, rho0, horizon: float, n_paths: int, seed: int, i0: int = 0):
    """:func:`sample_sites` plus its cost: (sites, jumps, rounds, passes),
    with the root finder's passes summed over the rounds."""
    _check_horizon(horizon)
    rho = density_for(coin, rho0)
    sampler = JumpSampler(coin)
    rngs = [path_rng(seed, k) for k in range(n_paths)]
    block = 2 * _PREFETCH_ROUNDS
    uniforms = np.empty((n_paths, block))
    paths = np.arange(n_paths)
    sites = np.full(n_paths, int(i0))
    jumps = np.zeros(n_paths, dtype=int)
    v = np.tile(hvec(rho), (n_paths, 1))
    t = np.zeros(n_paths)
    r = passes = 0
    while paths.size:
        col = 2 * (r % _PREFETCH_ROUNDS)
        if col == 0:
            for k in paths:
                uniforms[k] = rngs[k].random(block)
        rows, dt, sigma, round_passes = sampler._next_jumps(v, uniforms[paths, col], horizon - t)
        passes += round_passes
        r += 1
        paths = paths[rows]
        if not paths.size:
            break
        w_right, w_left = (sigma @ sampler._rl_trace.T).T
        total = w_right + w_left
        if not np.all(total > 0.0):
            raise ArithmeticError("zero total jump weight at the sampled time")
        right = uniforms[paths, col + 1] < w_right / total
        # The trace of the post-jump state is the chosen weight.
        weight = np.where(right, w_right, w_left)
        if np.any(weight <= 0.0):
            raise ArithmeticError("post-jump state has nonpositive trace")
        both = (sigma @ sampler._rl.T).reshape(len(paths), 2, -1)
        v = both[np.arange(len(paths)), (~right).astype(int)] / weight[:, None]
        t = t[rows] + dt
        sites[paths] += np.where(right, 1, -1)
        jumps[paths] += 1
        if r >= MAX_JUMPS:
            raise RuntimeError(_MAX_JUMPS_ERROR)
    return sites, jumps, r, passes


def estimate_drift(coin: Coin, rho0, horizon: float, n_paths: int,
                   seed: int) -> DriftEstimate:
    """Mean of X_T / T over independent paths from site 0, with its standard error.

    A reduction over :func:`sample_sites`, reproducible for a fixed seed.
    """
    _check_horizon(horizon)
    if horizon < 100:
        raise ValueError("drift estimation needs horizon >= 100 (drift regime)")
    if n_paths < 100:
        raise ValueError("drift estimation needs at least 100 paths")
    sites, jumps, rounds, passes = _lockstep(coin, rho0, horizon, n_paths, seed)
    vals = sites / horizon
    mean = math.fsum(vals) / n_paths
    var = math.fsum((v - mean) ** 2 for v in vals) / (n_paths - 1)
    return DriftEstimate(
        mean=mean,
        stderr=math.sqrt(var / n_paths),
        n_paths=n_paths,
        horizon=float(horizon),
        seed=int(seed),
        jumps=int(jumps.sum()),
        rounds=rounds,
        solver_passes=passes,
    )


def survival_probability(coin: Coin, rho, t: float) -> float:
    """No-jump probability Tr(e^{G0 t} rho e^{G0* t}) from a given state."""
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"survival time must be finite and nonnegative, got {t}")
    e = mat_exp(no_jump_generator(coin), float(t))
    return float(np.trace(e @ density_for(coin, rho) @ e.conj().T).real)


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
