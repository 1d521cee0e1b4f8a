"""Ring-lattice evolution against the classical closed form.

A one-dimensional internal space turns the walk into a classical birth-death
process: for a = c = 1 the return probability is p_00(t) = e^{-2t} I_0(2t),
and for general scalar rates the mean position grows as (|a|^2 - |c|^2) t.

The lattice module computes these values exactly in momentum space: each
momentum k evolves under its own Fourier symbol L_k (here the 1 x 1 number
e^{ik} + e^{-ik} - 2), and an inverse discrete Fourier transform over the
ring of sites -radius..radius gives the site profile. The ring differs from
the infinite line only by mass that wraps around it, and ``leak_bound`` is a
certified Chernoff bound on that mass; ``choose_radius`` picks the first
doubling radius that pushes it below 1e-8.
"""

import numpy as np
from scipy.special import ive

from ctoqw import (
    BlockGenerator,
    choose_radius,
    evolve,
    leak_bound,
    return_integral,
    transition_probability,
)
from ctoqw.coins import scalar_coin

coin = scalar_coin(1.0, 1.0)
one = np.array([[1.0 + 0j]])
radius = choose_radius(coin, 0, 5.0)
gen = BlockGenerator(coin, radius)

print(f"symmetric scalar walk, ring radius {radius}, "
      f"leak bound at t=5: {leak_bound(coin, one, 0, radius, 5.0):.1e}")
print(f"{'t':>5} {'p00 lattice':>14} {'e^-2t I0(2t)':>14} {'error':>10}")
worst = 0.0
for t in np.linspace(0.0, 5.0, 11):
    p = transition_probability(gen, one, 0, 0, float(t))
    exact = float(ive(0, 2.0 * t))
    worst = max(worst, abs(p - exact))
    print(f"{t:5.1f} {p:14.9f} {exact:14.9f} {abs(p - exact):10.2e}")
print(f"max error {worst:.2e}")
print(f"int_0^5 p00 dt: {return_integral(gen, one, 0, 5.0):.12f}\n")

# a deliberately small ring: the bound reports the wrap-around it allows
for r in (4, 8, 16):
    print(f"radius {r:2d}: leak bound at t=5 {leak_bound(coin, one, 0, r, 5.0):.2e}")
print()

# biased rates: the occupation profile drifts at |a|^2 - |c|^2 = 3 sites per
# unit time while spreading diffusively
coin = scalar_coin(2.0, 1.0)
radius = choose_radius(coin, 0, 4.0)
gen = BlockGenerator(coin, radius)
print(f"biased scalar walk (a=2, c=1), ring radius {radius}")
print(f"{'t':>5} {'mean':>10} {'3t':>8} {'std':>8} {'leak bound':>11}")
for t in (1.0, 2.0, 4.0):
    state = evolve(gen, one, 0, t)
    probs = state.trace_profile()
    mean = float(probs @ state.sites)
    var = float(probs @ (state.sites - mean) ** 2)
    print(f"{t:5.1f} {mean:10.5f} {3.0 * t:8.1f} {np.sqrt(var):8.4f} {state.leaked_mass:11.1e}")
