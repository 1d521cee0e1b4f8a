"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single "ACCEPTANCE n: PASS/FAIL" line with the measured
quantities and its wall time, then asserts. Run with -s to see the lines for
passing criteria too.
"""

import time

import numpy as np
from scipy.special import ive

from ctoqw import (
    Verdict,
    classify,
    drift,
    estimate_drift,
    internal_lindblad,
    sample_sites,
    solve_drift_operator,
    stationary_states,
    validate_coin,
)
from ctoqw.coins import (
    SQRT2,
    diagonal_jumps_coin,
    scalar_coin,
    shared_basis_vectors,
    shared_eigenbasis_coin,
    three_level_coin,
    tilted_pair_boundary,
    tilted_pair_coin,
)
from ctoqw.lattice import (
    BlockGenerator,
    chapman_kolmogorov_residual,
    choose_radius,
    evolve,
    return_integral,
    skeleton_partials,
    transition_probability,
)

from helpers import random_coin, random_density, random_diagonal_coin, random_unitary


def report(num: int, ok: bool, elapsed: float, budget: float, detail: str) -> None:
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {num}: {status} ({elapsed:.1f}s) {detail}")
    assert ok, detail
    assert elapsed < budget, f"runtime {elapsed:.1f}s exceeds {budget:g}s budget"


def test_acceptance_1_stationary_reproduction():
    t0 = time.perf_counter()
    targets = {
        0.0: (np.array([[21.0, -19.0 - 2.0j, 0.0],
                        [-19.0 + 2.0j, 32.0, 0.0],
                        [0.0, 0.0, 0.0]]) / 53.0, -6.0 / 53.0),
        1.0: (np.diag([0.5, 0.5, 0.0]).astype(complex), 0.0),
    }
    errs = []
    for c, (rho_target, m_target) in targets.items():
        coin = three_level_coin(c)
        sa = stationary_states(coin)
        assert sa.unique_stationary
        rho_err = float(np.abs(sa.rho_inv - rho_target).max())
        m_err = abs(drift(coin, sa.rho_inv) - m_target)
        errs.append((rho_err, m_err))
    elapsed = time.perf_counter() - t0
    ok = all(re < 1e-9 and me < 1e-9 for re, me in errs)
    report(1, ok, elapsed, 1.0,
           f"rho_inv errs {errs[0][0]:.1e}/{errs[1][0]:.1e}, "
           f"m errs {errs[0][1]:.1e}/{errs[1][1]:.1e}")


def test_acceptance_2_tilted_closed_forms():
    t0 = time.perf_counter()
    max_m_err = 0.0
    for h in [0.0, 0.5, 1.0, 4.0 / 3.0, 2.0]:
        coin = tilted_pair_coin(0.0, h)
        sa = stationary_states(coin)
        m = drift(coin, sa.rho_inv)
        target = 2.0 * h * (3.0 * h - 4.0) / (4.0 * h * h + 6.0 * h + 7.0)
        max_m_err = max(max_m_err, abs(m - target))
    h_minus, h_plus = tilted_pair_boundary(0.5)
    verdicts_ok = True
    for h in (h_minus, h_plus):
        verdicts_ok &= classify(tilted_pair_coin(0.5, h)).verdict is Verdict.RECURRENT
        for off in (h - 0.1, h + 0.1):
            verdicts_ok &= classify(tilted_pair_coin(0.5, off)).verdict is Verdict.TRANSIENT
    elapsed = time.perf_counter() - t0
    ok = max_m_err < 1e-9 and verdicts_ok
    report(2, ok, elapsed, 1.0,
           f"max |m - formula| = {max_m_err:.1e}, boundary verdicts "
           f"{'correct' if verdicts_ok else 'WRONG'}")


def test_acceptance_3_classification_fixtures():
    t0 = time.perf_counter()
    u = shared_basis_vectors()
    proj = [np.outer(u[:, k], u[:, k].conj()) for k in (0, 1)]
    mixing_ham = np.array([[1.0, 0.3], [0.3, 1.0]])
    cases = [
        (diagonal_jumps_coin(2.0 * SQRT2), Verdict.RECURRENT, None),
        (diagonal_jumps_coin(3.0), Verdict.TRANSIENT, None),
        (shared_eigenbasis_coin(1.5, 1.0), Verdict.TRANSIENT, None),
        (shared_eigenbasis_coin(1.0, 2.0), Verdict.RECURRENT, None),
        (shared_eigenbasis_coin(1.7, 2.0), Verdict.PARTIALLY_RECURRENT, proj[0]),
        (shared_eigenbasis_coin(1.0, 2.6), Verdict.PARTIALLY_RECURRENT, proj[1]),
        (shared_eigenbasis_coin(2.0, 1.0, ham=mixing_ham), Verdict.TRANSIENT, None),
        (three_level_coin(0.0), Verdict.TRANSIENT, None),
        (three_level_coin(1.0), Verdict.RECURRENT, None),
    ]
    wrong = []
    for idx, (coin, verdict, state) in enumerate(cases):
        res = classify(coin)
        if res.verdict is not verdict:
            wrong.append(f"case {idx}: {res.verdict.value} != {verdict.value}")
        elif state is not None and (
            res.transient_state is None
            or np.abs(res.transient_state - state).max() > 1e-8
        ):
            wrong.append(f"case {idx}: wrong transient_state")
    elapsed = time.perf_counter() - t0
    report(3, not wrong, elapsed, 1.0,
           f"{len(cases) - len(wrong)}/{len(cases)} fixtures correct"
           + (f"; {'; '.join(wrong)}" if wrong else ""))


def test_acceptance_4_law_of_large_numbers():
    t0 = time.perf_counter()
    coin = three_level_coin(0.0)
    rho_inv = stationary_states(coin).rho_inv
    est = estimate_drift(coin, rho_inv, 2000.0, 400, 101)
    target = -6.0 / 53.0
    z = (est.mean - target) / est.stderr
    elapsed = time.perf_counter() - t0
    ok = abs(est.mean - target) < 3.0 * est.stderr and est.stderr < 0.02
    report(4, ok, elapsed, 300.0,
           f"mean {est.mean:.6f} vs {target:.6f}, stderr {est.stderr:.6f}, "
           f"z = {z:+.2f}")


def test_acceptance_5_composition_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    worst = 0.0
    for coin in (three_level_coin(0.0), shared_eigenbasis_coin(1.0, 2.0)):
        radius = choose_radius(coin, 0, 2.0)
        gen = BlockGenerator(coin, radius)
        rho0 = np.eye(coin.dim, dtype=complex) / coin.dim
        for _ in range(10):
            alpha, beta = 1.0 - rng.random(), 1.0 - rng.random()
            j = int(rng.integers(-1, 2))
            resid = chapman_kolmogorov_residual(gen, rho0, 0, j, alpha, beta)
            worst = max(worst, resid)
    elapsed = time.perf_counter() - t0
    report(5, worst <= 1e-7, elapsed, 60.0,
           f"worst residual {worst:.2e} over 20 random splits")


def test_acceptance_6_divergence_character():
    t0 = time.perf_counter()
    scalar = scalar_coin(1.0, 1.0)
    gen_s = BlockGenerator(scalar, 256)
    one = np.array([[1.0 + 0j]])
    i_100 = return_integral(gen_s, one, 0, 100.0)
    i_400 = return_integral(gen_s, one, 0, 400.0)
    parts_s = skeleton_partials(gen_s, one, 0, 0, 1.0, 400)
    ratio_i = i_400 / i_100
    ratio_s = parts_s[400] / parts_s[100]
    recurrent_ok = 1.8 <= ratio_i <= 2.2 and 1.8 <= ratio_s <= 2.2

    c0 = three_level_coin(0.0)
    gen_t = BlockGenerator(c0, 256)
    mixed = np.eye(3, dtype=complex) / 3.0
    j_200 = return_integral(gen_t, mixed, 0, 200.0)
    j_400 = return_integral(gen_t, mixed, 0, 400.0)
    parts_t = skeleton_partials(gen_t, mixed, 0, 0, 1.0, 400)
    rel_i = (j_400 - j_200) / j_200
    rel_s = (parts_t[400] - parts_t[200]) / parts_t[200]
    transient_ok = rel_i < 0.05 and rel_s < 0.05

    elapsed = time.perf_counter() - t0
    ok = recurrent_ok and transient_ok
    report(6, ok, elapsed, 120.0,
           f"recurrent ratios I {ratio_i:.3f}, S {ratio_s:.3f} (want [1.8, 2.2]); "
           f"transient rel change I {rel_i:.3%}, S {rel_s:.3%} (want < 5%)")


def test_acceptance_7_classical_reduction():
    t0 = time.perf_counter()
    coin = scalar_coin(1.0, 1.0)
    radius = choose_radius(coin, 0, 5.0)
    gen = BlockGenerator(coin, radius)
    one = np.array([[1.0 + 0j]])
    bessel_err = max(
        abs(transition_probability(gen, one, 0, 0, t) - ive(0, 2.0 * t))
        for t in np.linspace(0.0, 5.0, 26)
    )

    n_paths, horizon, lam = 10_000, 5.0, 2.0 * 5.0
    counts = sample_sites(coin, one, horizon, n_paths, 7)[1]
    mean_se = np.sqrt(lam / n_paths)
    # Poisson fourth central moment lam(1+3lam) sets the variance of s^2
    var_se = np.sqrt((lam + 2.0 * lam * lam) / n_paths)
    mean_err = abs(counts.mean() - lam)
    var_err = abs(counts.var(ddof=1) - lam)
    moments_ok = mean_err < 3.0 * mean_se and var_err < 3.0 * var_se

    elapsed = time.perf_counter() - t0
    ok = bessel_err < 1e-6 and moments_ok
    report(7, ok, elapsed, 120.0,
           f"max Bessel error {bessel_err:.1e}; jump count mean off by "
           f"{mean_err:.3f} (3se {3 * mean_se:.3f}), variance off by "
           f"{var_err:.3f} (3se {3 * var_se:.3f})")


def test_acceptance_8_invariant_suites():
    t0 = time.perf_counter()
    rng = np.random.default_rng(88)
    worst = {
        "lindblad_trace": 0.0,
        "trace_total": 0.0,
        "eig_floor": 0.0,
        "covariance": 0.0,
        "drift_residual": 0.0,
        "off_diagonal": 0.0,
    }
    n_unique = 0
    for k in range(200):
        d = 2 if k % 2 == 0 else 3
        diagonal = k % 4 == 0
        coin = (random_diagonal_coin(rng, d, diagonal_ham=True) if diagonal
                else random_coin(rng, d))

        rho = random_density(rng, d)
        worst["lindblad_trace"] = max(
            worst["lindblad_trace"], abs(np.trace(internal_lindblad(coin, rho)))
        )

        sa = stationary_states(coin)
        if sa.unique_stationary:
            n_unique += 1
            m = drift(coin, sa.rho_inv)
            _, residual = solve_drift_operator(coin, m)
            worst["drift_residual"] = max(worst["drift_residual"], residual)
            un = random_unitary(rng, d)
            rotated = validate_coin(
                un @ coin.left @ un.conj().T,
                un @ coin.right @ un.conj().T,
                un @ coin.ham @ un.conj().T,
            )
            sa2 = stationary_states(rotated)
            cov = float(np.abs(sa2.rho_inv - un @ sa.rho_inv @ un.conj().T).max())
            cov = max(cov, abs(drift(rotated, sa2.rho_inv) - m))
            worst["covariance"] = max(worst["covariance"], cov)

        radius = choose_radius(coin, 0, 1.0)
        gen = BlockGenerator(coin, radius)
        rho0 = (np.diag(rng.dirichlet(np.ones(d))).astype(complex) if diagonal
                else np.eye(d, dtype=complex) / d)
        state = evolve(gen, rho0, 0, 1.0)
        worst["trace_total"] = max(worst["trace_total"], abs(state.total_trace() - 1.0))
        worst["eig_floor"] = max(worst["eig_floor"], -state.min_eigenvalue())
        if diagonal:
            off = max(
                float(np.abs(b - np.diag(np.diag(b))).max()) for b in state.blocks
            )
            worst["off_diagonal"] = max(worst["off_diagonal"], off)

    elapsed = time.perf_counter() - t0
    ok = (
        worst["lindblad_trace"] <= 1e-12
        and worst["trace_total"] <= 1e-8
        and worst["eig_floor"] <= 1e-9
        and worst["covariance"] <= 1e-8
        and worst["drift_residual"] <= 1e-8
        and worst["off_diagonal"] <= 1e-12
    )
    report(8, ok, elapsed, 300.0,
           f"200 coins ({n_unique} unique-stationary): trace-ann "
           f"{worst['lindblad_trace']:.1e}, lattice trace {worst['trace_total']:.1e}, "
           f"eig floor {worst['eig_floor']:.1e}, covariance {worst['covariance']:.1e}, "
           f"drift residual {worst['drift_residual']:.1e}, diag cone "
           f"{worst['off_diagonal']:.1e}")
