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
that Newton steps with bisection invert; the state at the jump comes from
the same Taylor terms. Nothing here needs G0 to be diagonalizable.

Reproducibility: every path k of a run with seed s draws from its own
counter-based stream keyed by (s, k), so results do not depend on scheduling
and any path can be regenerated in isolation.
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
# Bracket-doubling guard, in units of the fastest jump timescale.
_GUARD_FACTOR = 1e9


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
                raise RuntimeError(
                    "survival never crossed the target within the guard "
                    "horizon; the jump rate may vanish on a trapped subspace"
                )
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
            if hi - lo <= REL_TIME_TOL * max(hi, 1e-300):
                break
            step = x - (s - u) / ds if ds < 0 else math.nan
            x = step if lo < step < hi else 0.5 * (lo + hi)
        dt = 0.5 * (lo + hi)

        sigma = ((dt - start) / h) ** np.arange(_TAYLOR_TERMS) @ (self._taylor @ base)
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
            raise RuntimeError(
                f"exceeded {MAX_JUMPS} jumps before the horizon; the walk "
                f"should not explode, so this indicates a bug or a "
                f"pathological coin"
            )
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


def estimate_drift(coin: Coin, rho0, horizon: float, n_paths: int, seed: int,
                   i0: int = 0) -> DriftEstimate:
    """Mean of X_T / T over independent paths, with its standard error.

    Path k draws from the stream keyed by (seed, k); the estimate is
    reproducible for a fixed seed and unchanged by evaluation order.
    """
    if horizon < 100:
        raise ValueError("drift estimation needs horizon >= 100 (drift regime)")
    if n_paths < 100:
        raise ValueError("drift estimation needs at least 100 paths")
    sampler = JumpSampler(coin)
    rho = check_density(rho0)
    vals = []
    for k in range(n_paths):
        path = _simulate(sampler, i0, rho, horizon, path_rng(seed, k))
        vals.append((path.sites[-1] - i0) / horizon)
    mean = math.fsum(vals) / n_paths
    var = math.fsum((v - mean) ** 2 for v in vals) / (n_paths - 1)
    return DriftEstimate(
        mean=mean,
        stderr=math.sqrt(var / n_paths),
        n_paths=n_paths,
        horizon=float(horizon),
        seed=int(seed),
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
