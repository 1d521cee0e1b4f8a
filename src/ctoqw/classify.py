"""Recurrence classification of coins.

Both tractable regimes are read from the drift spectrum
(:func:`ctoqw.stationary.drift_spectrum`), the slopes at k = 0 of the
branches of the walk's symbol L_k through 0:

* a unique stationary internal state exists: the one slope is the net
  velocity m, and the walk is recurrent exactly when it vanishes;
* dimension 2 with several stationary states: every slope zero gives
  Recurrent, none zero gives Transient, and a mix gives PartiallyRecurrent,
  the state of the nonzero-slope branch being the sole transient initial
  state. In a shared eigenbasis of (C, A) the slopes are |a_i|^2 - |c_i|^2.

Every other coin with several stationary states is Undetermined, reporting
its slopes as ``diagnostics["drift_slopes"]``: there is no published
criterion for dimension >= 3 without a unique stationary state, and the tool
must not overclaim. A degenerate stationary analysis is Undetermined too.

Recurrence sits on a measure-zero boundary (a slope equal to 0), so exact
inputs land on it only up to round-off. A slope counts as zero when its size
is at most 1e-9 (|C|_F^2 + |A|_F^2), computed on the coin as given. Rescaling
(C, A, H) -> (sC, sA, s^2 H) multiplies both sides by s^2, so the test is
scale-invariant, and m and the slopes are reported as computed.

The spectrum and the stationary analysis read the kernels of L_0 from one
SVD per coin (``Coin.lindblad_svd``), split once per coin. The small solves
on them call LAPACK directly: at d <= 4, numpy.linalg's per-call overhead
is most of their cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .model import Coin
# common_eigenstructure and drift are unused here but stay bound: bench/tracer.py wraps them.
from .stationary import common_eigenstructure, drift  # noqa: F401
from .stationary import drift_spectrum, stationary_states

# Tolerance for a zero slope (m = 0), relative to |C|_F^2 + |A|_F^2.
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
    which the walk escapes. With several stationary states and no degeneracy,
    ``diagnostics["drift_slopes"]`` holds the drift spectrum.
    """

    verdict: Verdict
    rule: str
    unique_stationary: bool
    m: float | None = None
    transient_state: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict)


def classify(coin: Coin) -> ClassificationResult:
    """Recurrence verdict for a coin, with the deciding branch recorded."""
    tol = BOUNDARY_TOL * (float(np.linalg.norm(coin.left)) ** 2
                          + float(np.linalg.norm(coin.right)) ** 2)
    sa = stationary_states(coin)
    diagnostics = {"kernel_dim": sa.kernel_dim}
    if sa.degenerate:
        verdict, rule = Verdict.UNDETERMINED, "degenerate-stationary-kernel"
        diagnostics["degenerate"] = sa.note
        return ClassificationResult(verdict, rule, False, diagnostics=diagnostics)

    slopes, states = drift_spectrum(coin)
    zero = np.abs(slopes) <= tol
    unique = sa.unique_stationary
    if not unique:
        diagnostics["drift_slopes"] = [float(x) for x in slopes]
    transient_state = None
    if unique and zero[0]:
        verdict, rule = Verdict.RECURRENT, "unique-stationary-zero-drift"
    elif unique:
        verdict, rule = Verdict.TRANSIENT, "unique-stationary-nonzero-drift"
    elif coin.dim != 2:
        verdict, rule = Verdict.UNDETERMINED, "multiple-stationary-no-criterion"
    elif zero.all():
        verdict, rule = Verdict.RECURRENT, "shared-basis-both-equal"
    elif not zero.any():
        verdict, rule = Verdict.TRANSIENT, "shared-basis-both-unequal"
    else:
        verdict, rule = Verdict.PARTIALLY_RECURRENT, "shared-basis-one-unequal"
        transient_state = states[int(np.flatnonzero(~zero)[0])]
    return ClassificationResult(verdict, rule, unique, m=float(slopes[0]) if unique else None,
                                transient_state=transient_state, diagnostics=diagnostics)
