"""Recurrence classification of coins.

The verdict machinery follows the two tractable regimes:

* a unique stationary internal state exists: the walk is recurrent exactly
  when the net velocity m vanishes, transient otherwise;
* dimension 2 with several stationary states: the jump operators then share
  an orthonormal eigenbasis, and the verdict is read off the per-eigenvector
  rate magnitudes |a_i|, |c_i| together with the mixing entry of the
  Hamiltonian in that basis. One eigenvector can be the sole transient
  initial state (PartiallyRecurrent).

Everything else is reported as Undetermined with diagnostics; there is no
known criterion for dimension >= 3 without a unique stationary state, and the
tool must not overclaim.

Recurrence sits on a measure-zero boundary (m = 0, or |a_i| = |c_i|), so exact
inputs land on it only up to round-off. All boundary comparisons use an
absolute tolerance of 1e-9 after rescaling the coin to unit total jump rate
(|C|_F^2 + |A|_F^2 = 1), which makes the tolerance meaningful across scales.
The reported m is in the original units.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .model import Coin, validate_coin
from .stationary import common_eigenstructure, drift, stationary_states

# Absolute tolerance for m = 0 and |a_i| = |c_i| on the rescaled coin.
BOUNDARY_TOL = 1e-9


class Verdict(str, Enum):
    RECURRENT = "Recurrent"
    TRANSIENT = "Transient"
    PARTIALLY_RECURRENT = "PartiallyRecurrent"
    UNDETERMINED = "Undetermined"


@dataclass(frozen=True)
class ClassificationResult:
    """Verdict plus the branch that produced it.

    ``m`` is set only when the stationary state is unique; ``transient_state``
    only for PartiallyRecurrent, where it is the one pure initial state from
    which the walk escapes.
    """

    verdict: Verdict
    rule: str
    unique_stationary: bool
    m: float | None = None
    transient_state: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict)


def _normalized(coin: Coin) -> tuple[Coin, float]:
    """Rescale so |C|_F^2 + |A|_F^2 = 1; time dilates by the returned s2."""
    s2 = float(np.linalg.norm(coin.left)) ** 2 + float(np.linalg.norm(coin.right)) ** 2
    s = np.sqrt(s2)
    return validate_coin(coin.left / s, coin.right / s, coin.ham / s2), s2


def _shared_basis_verdict(u, c_diag, a_diag, ham_shared, diagnostics) -> ClassificationResult:
    """Verdict for a d=2 coin written in the shared eigenbasis of (C, A)."""
    tol = BOUNDARY_TOL
    h2 = complex(ham_shared[0, 1])
    gaps = [abs(abs(a_diag[i]) - abs(c_diag[i])) for i in (0, 1)]
    diagnostics = dict(diagnostics, rate_gaps=gaps, ham_mixing=abs(h2))

    if abs(h2) > tol:
        # A mixing Hamiltonian with several stationary states forces both
        # jump operators to be scalar; anything else means the tolerance
        # split the cases inconsistently upstream.
        if abs(a_diag[0] - a_diag[1]) > tol or abs(c_diag[0] - c_diag[1]) > tol:
            return ClassificationResult(
                verdict=Verdict.UNDETERMINED,
                rule="inconsistent-shared-basis-structure",
                unique_stationary=False,
                diagnostics=diagnostics,
            )
        verdict = Verdict.RECURRENT if gaps[0] <= tol else Verdict.TRANSIENT
        return ClassificationResult(
            verdict=verdict,
            rule="shared-basis-mixing-ham",
            unique_stationary=False,
            diagnostics=diagnostics,
        )

    equal = [g <= tol for g in gaps]
    if not equal[0] and not equal[1]:
        return ClassificationResult(
            verdict=Verdict.TRANSIENT,
            rule="shared-basis-both-unequal",
            unique_stationary=False,
            diagnostics=diagnostics,
        )
    if equal[0] and equal[1]:
        return ClassificationResult(
            verdict=Verdict.RECURRENT,
            rule="shared-basis-both-equal",
            unique_stationary=False,
            diagnostics=diagnostics,
        )
    j = 0 if not equal[0] else 1
    state = np.outer(u[:, j], u[:, j].conj())
    return ClassificationResult(
        verdict=Verdict.PARTIALLY_RECURRENT,
        rule="shared-basis-one-unequal",
        unique_stationary=False,
        transient_state=state,
        diagnostics=dict(diagnostics, transient_index=j),
    )


def _support_dims(basis) -> list:
    """Ranks of the positive and negative parts of each kernel direction.

    These are the dimensions of candidate invariant subspaces: any PSD
    stationary element is supported on an invariant subspace.
    """
    out = []
    for b in basis:
        w = np.linalg.eigvalsh(b)
        out.append((int(np.sum(w > 1e-8)), int(np.sum(w < -1e-8))))
    return out


def classify(coin: Coin) -> ClassificationResult:
    """Recurrence verdict for a coin, with the deciding branch recorded."""
    cn, s2 = _normalized(coin)
    sa = stationary_states(cn)

    if sa.unique_stationary:
        mn = drift(cn, sa.rho_inv)
        if abs(mn) <= BOUNDARY_TOL:
            verdict, rule = Verdict.RECURRENT, "unique-stationary-zero-drift"
        else:
            verdict, rule = Verdict.TRANSIENT, "unique-stationary-nonzero-drift"
        return ClassificationResult(
            verdict=verdict,
            rule=rule,
            unique_stationary=True,
            m=mn * s2,
            diagnostics={"kernel_dim": 1},
        )

    diagnostics = {"kernel_dim": sa.kernel_dim}
    if sa.degenerate:
        diagnostics["degenerate"] = sa.note

    if coin.dim == 2:
        shared = common_eigenstructure(cn.left, cn.right)
        if shared is None:
            return ClassificationResult(
                verdict=Verdict.UNDETERMINED,
                rule="no-shared-eigenbasis",
                unique_stationary=False,
                diagnostics=diagnostics,
            )
        u, c_diag, a_diag = shared
        ham_shared = u.conj().T @ cn.ham @ u
        return _shared_basis_verdict(u, c_diag, a_diag, ham_shared, diagnostics)

    diagnostics["support_dims"] = _support_dims(sa.stationary_basis)
    return ClassificationResult(
        verdict=Verdict.UNDETERMINED,
        rule="multiple-stationary-no-criterion",
        unique_stationary=False,
        diagnostics=diagnostics,
    )
