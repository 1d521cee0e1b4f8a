"""Continuous-time open quantum walks on the integer line.

A walk is specified by a coin (C, A)_H: left/right jump operators and an
on-site Hamiltonian acting on a finite internal space. The package computes
stationary internal states and the net velocity, classifies coins as
recurrent / transient / partially recurrent, evolves lattice distributions,
and samples quantum-jump trajectories.
States are real coordinates in a basis of the Hermitian matrices (``hvec``).
Lattice evolution is exact in momentum space (one d^2 x d^2 Fourier symbol
L_k per momentum, on a ring window of sites), with a certified Chernoff bound
``leak_bound`` on the mass the infinite-line walk carries outside the window.
"""

from .classify import ClassificationResult, Verdict, classify
from .lattice import (
    BlockGenerator,
    BlockState,
    chapman_kolmogorov_residual,
    choose_radius,
    conditioned_state,
    evolve,
    leak_bound,
    probability_series,
    return_integral,
    skeleton_partials,
    trace_profile_series,
    transition_probability,
    write_profile_csv,
    write_series_csv,
)
from .linalg import hunvec, hvec, mat_exp, null_space, superop_matrix, unvec, vec
from .model import (
    Coin,
    check_density,
    coin_from_dict,
    coin_to_dict,
    density_from_pure,
    load_coin,
    no_jump_generator,
    save_coin,
    validate_coin,
)
from .stationary import (
    StationaryAnalysis,
    common_eigenstructure,
    drift,
    drift_spectrum,
    internal_lindblad,
    internal_lindblad_matrix,
    solve_drift_operator,
    stationary_states,
)
from .trajectory import (
    DriftEstimate,
    JumpSampler,
    TrajectoryPath,
    drift_to_dict,
    estimate_drift,
    path_rng,
    sample_next_jump,
    sample_sites,
    simulate_path,
    survival_probability,
    write_path_csv,
)
from . import coins

__version__ = "0.1.0"

__all__ = [
    "ClassificationResult",
    "Verdict",
    "classify",
    "BlockGenerator",
    "BlockState",
    "chapman_kolmogorov_residual",
    "choose_radius",
    "conditioned_state",
    "evolve",
    "leak_bound",
    "probability_series",
    "return_integral",
    "skeleton_partials",
    "trace_profile_series",
    "transition_probability",
    "write_profile_csv",
    "write_series_csv",
    "hunvec",
    "hvec",
    "mat_exp",
    "null_space",
    "superop_matrix",
    "unvec",
    "vec",
    "Coin",
    "check_density",
    "coin_from_dict",
    "coin_to_dict",
    "density_from_pure",
    "load_coin",
    "no_jump_generator",
    "save_coin",
    "validate_coin",
    "StationaryAnalysis",
    "common_eigenstructure",
    "drift",
    "drift_spectrum",
    "internal_lindblad",
    "internal_lindblad_matrix",
    "solve_drift_operator",
    "stationary_states",
    "DriftEstimate",
    "JumpSampler",
    "TrajectoryPath",
    "drift_to_dict",
    "estimate_drift",
    "path_rng",
    "sample_next_jump",
    "sample_sites",
    "simulate_path",
    "survival_probability",
    "write_path_csv",
    "coins",
    "__version__",
]
