"""Finite-horizon signatures of recurrence and transience.

Recurrence means the return-probability integral diverges. On a finite
horizon the distinction shows up as growth law: for the symmetric scalar
walk the integral grows like sqrt(T) (doubling when T quadruples), while a
transient walk's integral converges to a plateau. The delta-skeleton series
shows the same dichotomy in discrete time.
"""

import numpy as np

from ctoqw import BlockGenerator, classify, return_integral, skeleton_partials
from ctoqw.coins import scalar_coin, three_level_coin

RADIUS = 128

for label, coin, rho0 in [
    ("scalar a=c=1", scalar_coin(1.0, 1.0), np.array([[1.0 + 0j]])),
    ("three-level c=0", three_level_coin(0.0), np.eye(3, dtype=complex) / 3.0),
]:
    verdict = classify(coin).verdict.value
    gen = BlockGenerator(coin, RADIUS)
    print(f"{label}: classified {verdict}")

    horizons = (25.0, 50.0, 100.0)
    vals = [return_integral(gen, rho0, 0, t) for t in horizons]
    print(f"  integral I(T) at T={horizons}: "
          + ", ".join(f"{vv:.4f}" for vv in vals))
    print(f"  I(100)/I(25) = {vals[2] / vals[0]:.3f}  "
          f"(sqrt growth would give 2.0, a plateau 1.0)")

    parts = skeleton_partials(gen, rho0, 0, 0, 1.0, 100)
    print(f"  skeleton sums S(N) at N=(25, 50, 100): "
          f"{parts[25]:.4f}, {parts[50]:.4f}, {parts[100]:.4f}")
    print(f"  S(100)/S(25) = {parts[100] / parts[25]:.3f}\n")

print("the transient coin's drift is small (|m| = 6/53), so its return")
print("probability is only exponentially cut off past t ~ 2v/m^2 ~ 100 and")
print("the plateau emerges slowly; the growth ratio still separates the two.")
print("the verdict itself comes from the classifier, with no integration.")
