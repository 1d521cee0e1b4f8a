"""Law of large numbers for sampled paths, and the finite-horizon bias.

X_T / T converges to the drift m computed from the stationary state. At
finite T the expectation carries a correction that depends on the initial
internal state: integrating the jump-rate imbalance along the internal
evolution gives E[X_T] exactly, so the bias constant is computable without
any sampling. Starting from rho_inv removes the bias entirely.
"""

import numpy as np

from ctoqw import (
    drift,
    estimate_drift,
    hvec,
    internal_lindblad_matrix,
    stationary_states,
)
from ctoqw.linalg import mat_exp_integral
from ctoqw.coins import three_level_coin

coin = three_level_coin(0.0)
sa = stationary_states(coin)
m = drift(coin, sa.rho_inv)
print(f"three-level coin, c=0: m = {m:+.9f} (= -6/53)\n")

# E[X_T] = int_0^T tr(Q rho_s) ds with Q = A*A - C*C and rho_s the internal
# state at time s. In Hermitian coordinates (hvec) the internal generator L_0
# is a real matrix and tr(Q rho) is the dot product hvec(Q) . hvec(rho);
# mat_exp_integral gives int_0^T e^{s L_0} hvec(rho0) ds by doubling the pair
# (e^{tau L_0}, int_0^tau e^{s L_0} hvec(rho0) ds) from a short tau, with no
# assumption that L_0 diagonalizes.
q = coin.right.conj().T @ coin.right - coin.left.conj().T @ coin.left
sup = internal_lindblad_matrix(coin)


def exact_mean(rho0, t):
    return float(hvec(q) @ mat_exp_integral(sup, hvec(rho0), t)[1])


mixed = np.eye(3, dtype=complex) / 3.0
print("exact E[X_T]/T by initial internal state:")
print(f"{'T':>6} {'from I/3':>12} {'from rho_inv':>13}")
for t in (50.0, 200.0, 1000.0, 2000.0):
    print(f"{t:6.0f} {exact_mean(mixed, t) / t:12.7f} "
          f"{exact_mean(sa.rho_inv, t) / t:13.7f}")
bias = exact_mean(mixed, 2000.0) - m * 2000.0
print(f"\nthe I/3 start carries a constant offset E[X_T] - mT = {bias:+.6f},")
print("so the time-average converges at rate 1/T; the rho_inv start has none.\n")

# Monte Carlo check: 200 paths to T=500 from the stationary state
est = estimate_drift(coin, sa.rho_inv, 500.0, 200, 31415)
z = (est.mean - m) / est.stderr
print(f"sampled X_T/T over {est.n_paths} paths to T={est.horizon:.0f}: "
      f"{est.mean:+.6f} +/- {est.stderr:.6f}  (z = {z:+.2f} vs m)")
