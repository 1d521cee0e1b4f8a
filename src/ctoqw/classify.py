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
inputs land on it only up to round-off. All boundary comparisons use an
absolute tolerance of 1e-9 after rescaling the coin to unit total jump rate
(|C|_F^2 + |A|_F^2 = 1), which makes the tolerance meaningful across scales.
The reported m and slopes are in the original units.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .model import Coin, validate_coin
# common_eigenstructure is unused here but stays bound: bench/tracer.py wraps it.
from .stationary import common_eigenstructure  # noqa: F401
from .stationary import drift, drift_spectrum, stationary_states

# Absolute tolerance for a zero slope (m = 0) on the rescaled coin.
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


def _normalized(coin: Coin) -> tuple[Coin, float]:
    """Rescale so |C|_F^2 + |A|_F^2 = 1; time dilates by the returned s2."""
    s2 = float(np.linalg.norm(coin.left)) ** 2 + float(np.linalg.norm(coin.right)) ** 2
    s = np.sqrt(s2)
    return validate_coin(coin.left / s, coin.right / s, coin.ham / s2), s2


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
        verdict, rule = Verdict.UNDETERMINED, "degenerate-stationary-kernel"
        diagnostics["degenerate"] = sa.note
        return ClassificationResult(verdict, rule, False, diagnostics=diagnostics)

    slopes, states = drift_spectrum(cn, sa.stationary_basis)
    diagnostics["drift_slopes"] = [float(x) * s2 for x in slopes]
    zero = np.abs(slopes) <= BOUNDARY_TOL
    transient_state = None
    if coin.dim != 2:
        verdict, rule = Verdict.UNDETERMINED, "multiple-stationary-no-criterion"
    elif zero.all():
        verdict, rule = Verdict.RECURRENT, "shared-basis-both-equal"
    elif not zero.any():
        verdict, rule = Verdict.TRANSIENT, "shared-basis-both-unequal"
    else:
        verdict, rule = Verdict.PARTIALLY_RECURRENT, "shared-basis-one-unequal"
        transient_state = states[int(np.flatnonzero(~zero)[0])]
    return ClassificationResult(verdict, rule, False, transient_state=transient_state,
                                diagnostics=diagnostics)
