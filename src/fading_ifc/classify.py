"""Sub-class taxonomy for two-user ergodic fading interference channels.

A state is labeled by comparing each transmitter's cross gain against
its direct gain: Strong when both cross links dominate, Weak when both
are strictly dominated, Mixed otherwise.  One-sided labels apply when
exactly one cross gain vanishes in the state, and Degenerate when both
do.  At the channel level the taxonomy is: very strong in expectation
(the averaged condition below), then uniformly strong / weak / mixed
when every state carries the same label pattern, then hybrid as the
catch-all; each with a one-sided variant when one cross link is
identically zero across all states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .channel import (
    FadingProcess,
    FadingState,
    PowerBudget,
    PowerPolicy,
)
from .allocate import _prepare_waterfill


class StateLabel(str, Enum):
    Strong = "Strong"
    Weak = "Weak"
    Mixed = "Mixed"
    OneSidedStrong = "OneSidedStrong"
    OneSidedWeak = "OneSidedWeak"
    Degenerate = "Degenerate"


class Sidedness(str, Enum):
    TwoSided = "TwoSided"
    OneSidedAtRx1 = "OneSidedAtRx1"
    OneSidedAtRx2 = "OneSidedAtRx2"


class ChannelSubclass(str, Enum):
    EVS = "EVS"
    US = "US"
    UW = "UW"
    UM = "UM"
    Hybrid = "Hybrid"
    OneSidedEVS = "OneSidedEVS"
    OneSidedUS = "OneSidedUS"
    OneSidedUW = "OneSidedUW"
    OneSidedHybrid = "OneSidedHybrid"


class EvsCheck(NamedTuple):
    """Averaged very-strong condition: holds iff lhs < rhs strictly."""

    lhs: float
    rhs: float
    holds: bool


class NoisyInterferenceCheck(NamedTuple):
    per_state: tuple[bool, ...]
    overall: bool


@dataclass(frozen=True)
class ClassificationReport:
    """Per-state labels plus the channel-level verdict."""

    labels: tuple[StateLabel, ...]
    subclass: ChannelSubclass
    evs_check: EvsCheck
    sidedness: Sidedness


def classify_state(state: FadingState) -> StateLabel:
    """Label one fading state.

    Strong needs g21 >= g11 and g12 >= g22 (ties count as strong); Weak
    needs both strict reversals.  With exactly one cross gain zero the
    comparison runs on the surviving cross link only.
    """
    if state.g21 == 0.0 and state.g12 == 0.0:
        return StateLabel.Degenerate
    if state.g21 == 0.0:
        return StateLabel.OneSidedStrong if state.g12 >= state.g22 else StateLabel.OneSidedWeak
    if state.g12 == 0.0:
        return StateLabel.OneSidedStrong if state.g21 >= state.g11 else StateLabel.OneSidedWeak
    if state.g21 >= state.g11 and state.g12 >= state.g22:
        return StateLabel.Strong
    if state.g21 < state.g11 and state.g12 < state.g22:
        return StateLabel.Weak
    return StateLabel.Mixed


_LABELS = tuple(StateLabel)


def _state_label_codes(process: FadingProcess) -> np.ndarray:
    """classify_state for every state at once, as indices into _LABELS."""
    g11, g12, g21, g22 = process.gain_arrays
    rx2_clean, rx1_clean = g21 == 0.0, g12 == 0.0
    # With one cross gain zero the surviving cross link decides.
    one_sided_strong = np.where(rx2_clean, g12 >= g22, g21 >= g11)
    cases = [
        (rx2_clean & rx1_clean, StateLabel.Degenerate),
        ((rx2_clean | rx1_clean) & one_sided_strong, StateLabel.OneSidedStrong),
        (rx2_clean | rx1_clean, StateLabel.OneSidedWeak),
        ((g21 >= g11) & (g12 >= g22), StateLabel.Strong),
        ((g21 < g11) & (g12 < g22), StateLabel.Weak),
    ]
    return np.select(
        [mask for mask, _ in cases],
        [_LABELS.index(label) for _, label in cases],
        default=_LABELS.index(StateLabel.Mixed),
    )


def _evs_check(process: FadingProcess):
    """evs_condition of one process at any budget, with the powers it used.

    Returns check(budget) -> (EvsCheck, x1, x2), where x1 and x2 are the
    two users' single-link waterfilling powers at that budget.  Each
    direct link's gains are sorted once, here (_prepare_waterfill), so a
    search over budgets costs O(n) per budget and gives the same floats
    as evs_condition at each.
    """
    g11, g12, g21, g22 = process.gain_arrays
    p = process.prob_array
    fill1 = _prepare_waterfill(g11, p)
    fill2 = _prepare_waterfill(g22, p)
    rx1_interfered = bool((g12 > 0).any())
    rx2_interfered = bool((g21 > 0).any())

    def rate(*terms) -> float:
        # E[log2(1 + g x + ...)] over (g, x) pairs, summed left to right
        # in one buffer: the same floats as the plain expression, with
        # fewer n-arrays alive at once.
        (g, x), *rest = terms
        acc = g * x
        acc += 1.0
        for g, x in rest:
            acc += g * x
        return float(p @ np.log2(acc, out=acc))

    def check(budget: PowerBudget) -> tuple[EvsCheck, np.ndarray, np.ndarray]:
        x1, _ = fill1(budget.p1_bar)
        x2, _ = fill2(budget.p2_bar)
        lhs = rate((g11, x1)) + rate((g22, x2))
        bounds = []
        if rx1_interfered:
            bounds.append(rate((g11, x1), (g12, x2)))
        if rx2_interfered:
            bounds.append(rate((g21, x1), (g22, x2)))
        rhs = min(bounds) if bounds else math.inf
        return EvsCheck(lhs=lhs, rhs=rhs, holds=bool(lhs < rhs)), x1, x2

    return check


def evs_condition(process: FadingProcess, budget: PowerBudget) -> EvsCheck:
    """Averaged very-strong interference test at the waterfilling policies.

    lhs is the sum of both users' interference-free waterfilling rates;
    rhs is the smallest fading-averaged sum capacity among receivers
    that actually see interference (a receiver with an identically zero
    cross gain imposes no constraint).  holds iff lhs < rhs strictly.
    A search over many budgets of one process should build _evs_check
    once instead, which sorts the gains once.
    """
    return _evs_check(process)(budget)[0]


def um_orientation(process: FadingProcess) -> int | None:
    """Uniformly mixed pattern check on raw gain comparisons.

    Returns +1 when every state has g21 < g11 and g12 >= g22 (user 1's
    cross link uniformly weak, user 2's uniformly strong), -1 for the
    mirror image, None when neither pattern is uniform.
    """
    g11, g12, g21, g22 = process.gain_arrays
    if bool(np.all(g21 < g11)) and bool(np.all(g12 >= g22)):
        return 1
    if bool(np.all(g12 < g22)) and bool(np.all(g21 >= g11)):
        return -1
    return None


def channel_sidedness(process: FadingProcess) -> Sidedness:
    """One-sided iff exactly one cross link vanishes in every state."""
    _, g12, g21, _ = process.gain_arrays
    rx2_clean = bool(np.all(g21 == 0))
    rx1_clean = bool(np.all(g12 == 0))
    if rx2_clean and not rx1_clean:
        return Sidedness.OneSidedAtRx1
    if rx1_clean and not rx2_clean:
        return Sidedness.OneSidedAtRx2
    return Sidedness.TwoSided


def classify_channel(process: FadingProcess, budget: PowerBudget) -> ClassificationReport:
    """Full channel-level classification.

    Precedence: the averaged very-strong condition wins outright; next
    the uniform sub-classes (every state strong, every state weak, or a
    uniform mixed orientation); anything else is hybrid.  One-sided
    variants apply when one cross link is identically zero, with the
    strong/weak split taken on the surviving cross link's raw gains so
    that states with a vanishing cross gain count as weak.
    """
    codes = _state_label_codes(process)
    sidedness = channel_sidedness(process)
    evs = evs_condition(process, budget)
    g11, g12, g21, g22 = process.gain_arrays

    if sidedness is not Sidedness.TwoSided:
        if evs.holds:
            subclass = ChannelSubclass.OneSidedEVS
        else:
            cross, direct = (
                (g12, g22) if sidedness is Sidedness.OneSidedAtRx1 else (g21, g11)
            )
            if bool(np.all(cross >= direct)):
                subclass = ChannelSubclass.OneSidedUS
            elif bool(np.all(cross < direct)):
                subclass = ChannelSubclass.OneSidedUW
            else:
                subclass = ChannelSubclass.OneSidedHybrid
    elif evs.holds:
        subclass = ChannelSubclass.EVS
    elif bool(np.all(codes == _LABELS.index(StateLabel.Strong))):
        subclass = ChannelSubclass.US
    elif bool(np.all(codes == _LABELS.index(StateLabel.Weak))):
        subclass = ChannelSubclass.UW
    elif um_orientation(process) is not None:
        subclass = ChannelSubclass.UM
    else:
        subclass = ChannelSubclass.Hybrid
    return ClassificationReport(
        labels=tuple(_LABELS[k] for k in codes.tolist()),
        subclass=subclass,
        evs_check=evs,
        sidedness=sidedness,
    )


def noisy_interference_condition(
    process: FadingProcess, policy: PowerPolicy
) -> NoisyInterferenceCheck:
    """Per-state amplitude test under which treating interference as noise
    is sum-rate optimal.

    With amplitudes h_jk = sqrt(g_jk), state h passes when
    h11 h12 (1 + g21 P1) + h22 h21 (1 + g12 P2) <= h11 h22.
    """
    g11, g12, g21, g22 = process.gain_arrays
    p1, p2 = policy.arrays
    h11, h12 = np.sqrt(g11), np.sqrt(g12)
    h21, h22 = np.sqrt(g21), np.sqrt(g22)
    lhs = h11 * h12 * (1.0 + g21 * p1) + h22 * h21 * (1.0 + g12 * p2)
    per_state = lhs <= h11 * h22
    return NoisyInterferenceCheck(
        per_state=tuple(bool(b) for b in per_state), overall=bool(per_state.all())
    )
