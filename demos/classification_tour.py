"""Tour of the recurrence classifier across the built-in coin families.

Every verdict is read from the drift spectrum, the slopes at k = 0 of the
branches of the walk's symbol through 0; a unique stationary state has the
one slope m. Each family probes a different case: diagonal jump pairs,
shared-eigenbasis pairs (slopes |a_i|^2 - |c_i|^2, including the partially
recurrent cases), a mixing Hamiltonian on top of a scalar pair, and the
tilted non-normal pair whose drift has a closed form in the tilt parameters.
"""

import numpy as np

from ctoqw import classify
from ctoqw.coins import (
    SQRT2,
    diagonal_jumps_coin,
    scalar_coin,
    shared_eigenbasis_coin,
    three_level_coin,
    tilted_pair_boundary,
    tilted_pair_coin,
)


def show(label, coin):
    res = classify(coin)
    m = "None" if res.m is None else f"{res.m:+.6f}"
    print(f"  {label:<34} {res.verdict.value:<18} m={m:<10} rule={res.rule}")
    if "drift_slopes" in res.diagnostics:
        slopes = ", ".join(f"{x:+.6f}" for x in res.diagnostics["drift_slopes"])
        print(f"    drift slopes: [{slopes}]")
    if res.transient_state is not None:
        state = np.array2string(res.transient_state, precision=3, suppress_small=True)
        print(f"    transient for: {state}")


print("diagonal jump pair, balance point at |a| = 2*sqrt(2):")
show("a = 2*sqrt(2)", diagonal_jumps_coin(2.0 * SQRT2))
show("a = 3", diagonal_jumps_coin(3.0))

print("\nshared eigenbasis family (a, c are the tunable eigenvalues):")
show("a=1.5, c=1.0  (both moduli differ)", shared_eigenbasis_coin(1.5, 1.0))
show("a=1.0, c=2.0  (both moduli match)", shared_eigenbasis_coin(1.0, 2.0))
show("a=1.7, c=2.0  (first level differs)", shared_eigenbasis_coin(1.7, 2.0))
show("a=1.0, c=2.6  (second level differs)", shared_eigenbasis_coin(1.0, 2.6))
ham = np.array([[1.0, 0.3], [0.3, 1.0]])
show("a=2.0, c=1.0 + mixing Hamiltonian", shared_eigenbasis_coin(2.0, 1.0, ham=ham))

print("\ntilted pair at y=0: drift follows m(h) = 2h(3h-4)/(4h^2+6h+7):")
for h in (0.0, 0.5, 1.0, 4.0 / 3.0, 2.0):
    res = classify(tilted_pair_coin(0.0, h))
    formula = 2.0 * h * (3.0 * h - 4.0) / (4.0 * h * h + 6.0 * h + 7.0)
    print(f"  h = {h:<8.4f} m = {res.m:+.9f}  formula {formula:+.9f}  "
          f"verdict {res.verdict.value}")

print("\ntilted pair at y=1/2: zero-drift boundary sits at h = (2 +/- sqrt(71))/12:")
h_minus, h_plus = tilted_pair_boundary(0.5)
for h in (h_minus, h_minus + 0.1, h_plus - 0.1, h_plus):
    show(f"h = {h:+.6f}", tilted_pair_coin(0.5, h))

print("\nscalar and three-level references:")
show("scalar a=c=1", scalar_coin(1.0, 1.0))
show("scalar a=2, c=1", scalar_coin(2.0, 1.0))
show("three-level c=0", three_level_coin(0.0))
show("three-level c=1", three_level_coin(1.0))
