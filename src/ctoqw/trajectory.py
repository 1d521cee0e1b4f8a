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
1, so the sampler needs no general matrix exponential. Each coin has one
sampler, built on first use and cached weakly by coin, which every entry
point reads. It caches the grid e^{k h S} for k = 0..K (K = 64 steps make a
window; both stacks are built by batched doubling) and the grid's trace
rows, so one product gives P at every grid time of a window, and the jump
lies in the step that ends at the first grid time where P is at most u. If
P is still above u at the end of the first window, the powers e^{2^j K h S}
(extended by squaring) bracket the jump within one window first
(JumpSampler._bracket, row-wise, so a single draw passes it one row): double
until P drops to u, then halve; then the grid places it in a step of that
window. Inside the step P is a
polynomial in x that Halley steps with bisection invert (Newton's step where
Halley's denominator is not positive). They start from the cubic Hermite
inverse of log P over the step, built from P and dP/dx at both of its ends
(exact when log P is linear in time, as for a scalar coin; the midpoint where
P is not positive or a slope not negative there), and stop once a step
corrects the time by at most REL_TIME_TOL relative or the bracket is within
REL_TIME_TOL; the state at the jump comes from the same Taylor terms, and both jump
weights and both post-jump states from one product with the stacked rows
[Tr R; Tr L; R; L]. survival_probability reads P(t) off the same grid:
whole windows by the chain, whole steps by the grid, and the rest of a step
by the Taylor trace row. Nothing here needs G0 to be diagonalizable.

Reproducibility: every path k of a run with seed s draws from its own
counter-based stream keyed by (s, k), so results do not depend on scheduling
and any path can be regenerated in isolation.

Two drivers share the sampler. simulate_path records one path's full
history, one jump at a time (JumpSampler.next_jump, which takes and returns
coordinates; the path converts its states to matrices once, at the end).
sample_sites returns only the end sites and jump counts of many paths, run
in lockstep: the live states form one (P, d^2) array, one product with the
trace rows of the first _NEAR_STEPS grid times and of the window's end
places most rows' jumps in a step (rows still above u there count the rest
of the window; rows past their first window take the window chain, one
product per level), the in-step polynomials and their first two time
derivatives come from one coefficient product, Halley runs vectorised over
all rows with the serial stopping rule per row (a finished row stays in the
batch, frozen; on the three-level coin a round takes at most two passes, on a
scalar coin one), and one product with [Tr R; Tr L; R; L] gives both jump weights
and both post-jump states; estimate_drift is its reduction and reports the
rounds and passes. Each path
reads its own stream in the serial order (jump time, then direction).
Batched products sum in another order, so jump times agree with
simulate_path on path_rng(s, k) to REL_TIME_TOL, and the end site agrees
unless a uniform falls within about 1e-10 of a decision boundary. Single
paths stay serial: one row of _next_jumps costs 155-280 us against 27-49 us
for next_jump (three-level coin, README timings).

With the same caveat, the site at tau < T on stream k is the end site of the
horizon-tau run on that stream: both read the same uniforms in the same
order, and the draw capped at tau decides "no jump before tau" in both. So
occupations at several times take one sample_sites call per time.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .linalg import hunvec
# Unused here, but bench/tracer.py wraps this binding.
from .linalg import mat_exp  # noqa: F401
from .model import Coin, _integer, density_for

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
# Grid steps every lockstep row counts; only rows still above u count the rest.
_NEAR_STEPS = 16
# Rounds of (jump time, direction) uniforms drawn per stream at once in lockstep.
_PREFETCH_ROUNDS = 32


@dataclass
class TrajectoryPath:
    """One sampled path: jump times plus site/state history.

    ``sites`` and ``states`` carry the pre-jump starting values first, so
    they are one longer than ``jump_times``: sites[k] is the position after
    the k-th jump and states[k] the internal density right after it
    (``states`` is an (n + 1, d, d) array).
    """

    jump_times: np.ndarray
    sites: np.ndarray
    states: np.ndarray
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
    step is h = 1/|S|_2 and a window is K steps (module docstring). It holds
    no reference to its coin, so the per-coin cache does not keep coins alive.
    """

    def __init__(self, coin: Coin):
        # lambda_max(C*C + A*A), the fastest jump rate: the unit of the bracket guard.
        self.top_rate = float(np.linalg.eigvalsh(coin.rate_operator()).max())
        if self.top_rate <= 0.0:
            raise ValueError("total jump rate vanishes; the coin never jumps")

        stay, right, left = coin.symbol
        d = coin.dim
        self._h = h = 1.0 / float(np.linalg.norm(stay, 2))
        # (hS)^j / j! for j < _TAYLOR_TERMS; _steps[k] = e^{k h S} for k <= K,
        # e^{hS} being their sum (smallest terms first).
        self._taylor = _power_stack(h * stay, _TAYLOR_TERMS - 1) * _INV_FACTORIALS
        self._steps = _power_stack(self._taylor[::-1].sum(axis=0), K)
        # Trace rows (Tr X is the sum of the first d coordinates): survival at
        # every grid time and the in-step polynomial coefficients.
        self._grid_trace = self._steps[:, :d, :].sum(axis=1)
        self._near_trace = self._grid_trace[list(range(1, _NEAR_STEPS + 1)) + [K]]
        self._taylor_trace = self._taylor[:, :d, :].sum(axis=1)
        # The Taylor trace rows, then the row of survival's slope in x at the
        # step's end (sum_j j c_j), above the terms' rows: one product gives a
        # step's survival coefficients, that slope and its Taylor terms.
        self._taylor_rows = np.concatenate([self._taylor_trace, _DEGREES[None] @ self._taylor_trace,
                                            self._taylor.reshape(-1, len(stay))])
        # [Tr R; Tr L; R; L]: one product gives both jump weights and both
        # post-jump states.
        self._jumps = np.concatenate([right[:d].sum(axis=0, keepdims=True),
                                      left[:d].sum(axis=0, keepdims=True), right, left])
        # Rows of survival's in-step coefficients and of its first two time
        # derivatives', lowest degree first: d/dt x^j = j x^{j-1} / h.
        up = np.diag(_DEGREES[1:] / h, 1)
        first = up @ self._taylor_trace
        self._poly_trace = np.concatenate([self._taylor_trace, first, up @ first])
        # _powers[j] = e^{2^j K h S}, extended on demand by squaring. A tuple
        # swapped whole, so threads sharing the cached sampler always see a
        # consistent chain.
        self._powers = (self._steps[K],)

    def _power(self, j: int) -> np.ndarray:
        powers = self._powers
        while len(powers) <= j:
            powers += (powers[-1] @ powers[-1],)
            self._powers = powers
        return powers[j]

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
        todo = live.nonzero()[0]
        if todo.size and window > _GUARD_FACTOR / self.top_rate:
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
            if todo.size and span > _GUARD_FACTOR / self.top_rate:
                raise RuntimeError(_GUARD_ERROR)
            start[todo], base[todo] = span, ahead
            j += 1
        for i in range(j - 3, -1, -1):
            rows = (live & (level >= i + 2)).nonzero()[0]
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
        live = np.ones(n_rows, dtype=bool)
        # near[i, r]: survival of row r at (i + 1) h into its window for
        # i < _NEAR_STEPS, and at the window's end in the last row.
        near = self._near_trace @ v.T
        far = (near[-1] > u).nonzero()[0]
        if far.size:
            v = v.copy()
            live[far], offset, v[far] = self._bracket(v[far], u[far], cap[far])
            near[:, far] = self._near_trace @ v[far].T
        # The step is the number of grid times in the window at which survival
        # is still above u; only rows above it after _NEAR_STEPS count the rest.
        k = (near[:-1] > u).sum(axis=0)
        slow = (k == _NEAR_STEPS).nonzero()[0]
        if slow.size:
            rest = self._grid_trace[_NEAR_STEPS + 1:] @ v[slow].T
            k[slow] += (rest > u[slow]).sum(axis=0)
        np.minimum(k, K - 1, out=k)
        start = k * h
        if far.size:
            start[far] += offset
        base = np.einsum("rij,rj->ri", self._steps[k], v)
        # poly[i]: the i-th time derivative's coefficients, one column per row.
        poly = (self._poly_trace @ base.T).reshape(3, _TAYLOR_TERMS, n_rows)
        hi = start + h
        capped = (live & (hi > cap)).nonzero()[0]
        if capped.size:
            end, begin = cap[capped], start[capped]
            powers = _power_stack((end - begin) / h, _TAYLOR_TERMS - 1)
            s = (poly[0][:, capped] * powers).sum(axis=0)
            stop = (end <= begin) | (s > u[capped])
            live[capped[stop]] = False
            hi[capped[~stop]] = end[~stop]
        rows = np.arange(n_rows)
        if not live.all():
            rows = live.nonzero()[0]
            start, hi, u, base, poly = start[rows], hi[rows], u[rows], base[rows], poly[:, :, rows]
        # The root finder's start, as in next_jump: the Hermite inverse of
        # log-survival over the step, from survival and its slope at the
        # step's ends (poly[0] and poly[1] at x = 0 and x = 1), else the
        # midpoint. Rows that fail the guard may divide by zero or take the
        # log of a non-positive number; np.where discards them.
        (s_lo, ds_lo), (s_hi, ds_hi) = poly[:2, 0], poly[:2].sum(axis=1)
        ok = (s_hi > 0.0) & (s_lo > s_hi) & (ds_lo < 0.0) & (ds_hi < 0.0) & (u > 0.0)
        with np.errstate(all="ignore"):
            x = start + h * _log_hermite(np.log(s_lo), np.log(s_hi), h * ds_lo / s_lo,
                                         h * ds_hi / s_hi, np.log(u))
        x = np.where(ok & (start < x) & (x < hi), x, 0.5 * (start + hi))
        dt, passes = _invert_survival(poly, start, hi, u, h, x)

        # sigma = (sum_j x^j (hS)^j / j!) base, the Taylor sum of next_jump.
        powers = _power_stack((dt - start) / h, _TAYLOR_TERMS - 1)
        flow = powers.T @ self._taylor.reshape(_TAYLOR_TERMS, -1)
        sigma = np.einsum("rij,rj->ri", flow.reshape(-1, n, n), base)
        return rows, dt, sigma, passes

    def next_jump(self, v: np.ndarray, rng, t_cap: float = math.inf):
        """Draw (dt, direction, v_after), or None if no jump before t_cap.

        v and v_after are coordinates hvec(rho) of the state before and right
        after the jump. Uniform variates are consumed in a fixed order: first
        the jump time, then (when a jump happens) the direction.
        """
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
        # with coefficients Tr of the terms (hS)^j base / j!, exact up to
        # e/19!; coef lists them highest degree first for Horner's rule, and
        # ds_lo, ds_hi are its slopes in x at the step's ends.
        terms = self._taylor_rows @ (self._steps[k] @ base)
        coef = terms[:_TAYLOR_TERMS].tolist()[::-1]
        ds_lo, ds_hi = coef[-2], float(terms[_TAYLOR_TERMS])
        terms = terms[_TAYLOR_TERMS + 1:].reshape(_TAYLOR_TERMS, -1)

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

        # Halley starts at the Hermite inverse of log-survival over the step,
        # or at the midpoint where survival is not positive, a slope not
        # negative, or the start falls outside.
        x = math.nan
        if s_hi > 0.0 and s_lo > s_hi and ds_lo < 0.0 and ds_hi < 0.0 and u > 0.0:
            x = start + h * _log_hermite(math.log(s_lo), math.log(s_hi), ds_lo / s_lo,
                                         ds_hi / s_hi, math.log(u))
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
        # Both jump weights, then the right and the left post-jump state.
        out = self._jumps @ sigma
        w_right, w_left = out[:2].tolist()
        total = w_right + w_left
        if not (total > 0.0):
            raise ArithmeticError("zero total jump weight at the sampled time")
        direction = 1 if rng.random() < w_right / total else -1
        # The trace of the post-jump state is the chosen weight.
        n = len(sigma)
        weight, post = (w_right, out[2:n + 2]) if direction == 1 else (w_left, out[n + 2:])
        if weight <= 0.0:
            raise ArithmeticError("post-jump state has nonpositive trace")
        return dt, direction, post / weight

    def survival(self, v: np.ndarray, t: float) -> float:
        """Survival from v = hvec(rho) after time t >= 0, read off the grid:
        whole windows by the chain e^{2^j K h S}, whole steps by e^{k h S},
        and the rest of a step by the Taylor trace row."""
        h = self._h
        windows, rest = divmod(t, K * h)
        windows, j = int(windows), 0
        while windows:
            if windows & 1:
                v = self._power(j) @ v
            windows >>= 1
            j += 1
        x = rest / h
        k = min(int(x), K - 1)
        return float((x - k) ** _DEGREES @ (self._taylor_trace @ (self._steps[k] @ v)))


def _log_hermite(y0, y1, dy0, dy1, y):
    """The step fraction x where the cubic Hermite inverse of log-survival reaches y.

    Log-survival runs from y0 at x = 0 to y1 < y0 at x = 1 with slopes dy0,
    dy1 in x; as a function of tau = (y - y0) / (y1 - y0) the inverse x has
    end slopes m_i = (y1 - y0) / dy_i, so x = tau (1 - tau)^2 m0 + tau^2
    (3 - 2 tau) + tau^2 (tau - 1) m1, which is exactly tau when log-survival
    is linear in x (m0 = m1 = 1). Products, not powers, so a Python float
    overflows to inf, not to OverflowError; floats or arrays.
    """
    span = y1 - y0
    tau = (y - y0) / span
    rest = 1.0 - tau
    return tau * (rest * rest * span / dy0 + tau * (3.0 - 2.0 * tau) - tau * rest * span / dy1)


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
    lo, hi = start.copy(), hi.copy()
    for passes in range(1, 201):
        s, ds, dds = np.einsum("ijk,jk->ik", poly, _power_stack((x - start) / h, _TAYLOR_TERMS - 1))
        f = s - u
        above = f > 0.0
        np.copyto(lo, x, where=above)
        np.copyto(hi, x, where=~above)
        # _root_step row-wise: where the slope is not negative every term is
        # NaN, so the step is NaN and the row bisects.
        falling = np.where(ds < 0.0, ds, np.nan)
        den = 2.0 * falling * falling - f * dds
        num = 2.0 * f * falling
        newton = ~(den > 0.0)
        np.copyto(num, f, where=newton)
        np.copyto(den, falling, where=newton)
        step = x - num / den
        fixed = (lo <= step) & (step <= hi) & (np.abs(step - x) <= REL_TIME_TOL * x)
        mid = 0.5 * (lo + hi)
        np.copyto(mid, step, where=fixed)
        done = hi - lo <= REL_TIME_TOL * np.maximum(hi, 1e-300)
        done |= fixed
        if done.all():
            return mid, passes
        # A finished row's bracket collapses onto its time, and every
        # later pass leaves it there: the row is frozen, not removed.
        np.copyto(lo, mid, where=done)
        np.copyto(hi, mid, where=done)
        np.copyto(mid, step, where=(lo < step) & (step < hi))
        x = mid
    return 0.5 * (lo + hi), passes


def _check_horizon(horizon: float) -> None:
    # NaN fails every comparison, so a NaN or infinite horizon would never cap
    # a path: it would run to MAX_JUMPS.
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon must be positive and finite, got {horizon}")


# One sampler per coin, built on first use. Samplers hold no reference to
# their coin, so an entry goes when its coin does.
_SAMPLERS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _sampler(coin: Coin) -> JumpSampler:
    sampler = _SAMPLERS.get(coin)
    if sampler is None:
        sampler = _SAMPLERS[coin] = JumpSampler(coin)
    return sampler


def sample_next_jump(coin: Coin, rho, rng):
    """One jump from rho with the coin's sampler: (dt, direction, rho_after)."""
    dt, direction, v = _sampler(coin).next_jump(density_for(coin, rho), rng)
    return dt, direction, hunvec(v)


def simulate_path(coin: Coin, i0: int, rho0, horizon: float, rng) -> TrajectoryPath:
    """Sample one trajectory up to the horizon, recording every jump."""
    _check_horizon(horizon)
    v = density_for(coin, rho0)
    sampler = _sampler(coin)
    t = 0.0
    site = _integer(i0, "i0")
    jump_times: list[float] = []
    sites = [site]
    coords = [v]
    while True:
        drawn = sampler.next_jump(v, rng, t_cap=horizon - t)
        if drawn is None:
            break
        dt, direction, v = drawn
        t += dt
        site += direction
        jump_times.append(t)
        sites.append(site)
        coords.append(v)
        if len(jump_times) >= MAX_JUMPS:
            raise RuntimeError(_MAX_JUMPS_ERROR)
    return TrajectoryPath(
        jump_times=np.array(jump_times),
        sites=np.array(sites, dtype=int),
        states=hunvec(np.array(coords)),
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
    if _integer(n_paths, "n_paths") < 0:
        raise ValueError(f"n_paths must be nonnegative, got {n_paths}")
    v = density_for(coin, rho0)
    sampler = _sampler(coin)
    rngs = [path_rng(seed, k) for k in range(n_paths)]
    block = 2 * _PREFETCH_ROUNDS
    # Row i of every per-row array is path paths[i], short of the horizon
    # after r jumps; moves[i] is its net displacement so far.
    paths = np.arange(n_paths)
    uniforms = np.empty((n_paths, block))
    moves = np.zeros(n_paths, dtype=int)
    n = len(v)
    v = np.tile(v, (n_paths, 1))
    t = np.zeros(n_paths)
    sites = np.full(n_paths, _integer(i0, "i0"))
    jumps = np.zeros(n_paths, dtype=int)
    r = passes = 0
    while paths.size:
        col = 2 * (r % _PREFETCH_ROUNDS)
        if col == 0:
            for i, k in enumerate(paths):
                rngs[k].random(out=uniforms[i])
        rows, dt, sigma, round_passes = sampler._next_jumps(v, uniforms[:, col], horizon - t)
        passes += round_passes
        if rows.size < paths.size:
            # The rows that do not jump have reached the horizon.
            ended = np.ones(paths.size, dtype=bool)
            ended[rows] = False
            sites[paths[ended]] += moves[ended]
            jumps[paths[ended]] = r
            paths, uniforms, moves, t = paths[rows], uniforms[rows], moves[rows], t[rows]
        r += 1
        if not paths.size:
            break
        # Both jump weights, then the right and the left post-jump states.
        out = sigma @ sampler._jumps.T
        w_right, w_left = out[:, 0], out[:, 1]
        total = w_right + w_left
        if not total.min() > 0.0:
            raise ArithmeticError("zero total jump weight at the sampled time")
        right = uniforms[:, col + 1] < w_right / total
        # The trace of the post-jump state is the chosen weight.
        weight = np.where(right, w_right, w_left)
        if not weight.min() > 0.0:
            raise ArithmeticError("post-jump state has nonpositive trace")
        v = np.where(right[:, None], out[:, 2:n + 2], out[:, n + 2:]) / weight[:, None]
        t += dt
        moves += np.where(right, 1, -1)
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
    """No-jump probability Tr(e^{G0 t} rho e^{G0* t}) from a given state,
    read off the coin's sampler grid (:meth:`JumpSampler.survival`)."""
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"survival time must be finite and nonnegative, got {t}")
    return _sampler(coin).survival(density_for(coin, rho), float(t))


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
