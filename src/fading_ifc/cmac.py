"""Compound multiple-access rate machinery for two-user fading channels.

Both receivers must decode both messages, so each fading-averaged
receiver imposes a pentagon of rate pairs and the channel operates in
the intersection.  This module computes the pentagons, the exact
fixed-policy sum rate and weighted-rate maximum over the intersection,
an eleven-label taxonomy of which bound is the bottleneck, and the sum
capacity over power policies.

The taxonomy compares four fading-averaged rates at a policy:
S1 (both direct links), S2 (both cross links), S3a (sum capacity at
receiver 2), S3b (sum capacity at receiver 1).  Plain cases C1, C2,
C3a, C3b have a strict bottleneck; C3c ties the two receiver sums; the
B labels tie a link-sum bound with one or both receiver bounds.  The
sum-capacity search has two paths.  In a plain case one bound binds,
and its optimal policy is closed form (waterfilling, or opportunistic
multiuser waterfilling at one receiver); the candidate is accepted when
its case conditions hold and a weak-duality bound certifies it.  Every
other answer, the ties above all, is the maximum of the min of the
polytope's concave pieces, found in one direct maximization and then
labelled.  Restricted variants (used by the interference-channel
layer) drop S2 or one receiver's sum bound from every condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .channel import (
    ConvergenceError,
    FadingProcess,
    PowerBudget,
    PowerPolicy,
)
from .allocate import (
    RateObjective,
    _erate,
    _waterfill_powers,
    dual_bound,
    kkt_multipliers,
    mac_opportunistic_waterfill,
    maximize_min_concave,
)
from .channel import PreconditionError

# Equality comparisons between case rates; strict comparisons are plain.
CASE_EQ_TOL = 1e-9
# The internal engine accepts equality cases a little looser because its
# candidates come from iterative solvers.
_ENGINE_EQ_TOL = 1e-7


@dataclass(frozen=True)
class MacPentagon:
    """Fading-averaged rate caps at one receiver: individual and sum."""

    r1_cap: float
    r2_cap: float
    sum_cap: float


class CaseLabel(str, Enum):
    C1 = "C1"
    C2 = "C2"
    C3a = "C3a"
    C3b = "C3b"
    C3c = "C3c"
    B1_3a = "B1_3a"
    B1_3b = "B1_3b"
    B1_3c = "B1_3c"
    B2_3a = "B2_3a"
    B2_3b = "B2_3b"
    B2_3c = "B2_3c"


@dataclass(frozen=True)
class WeightPair:
    """Positive weights (mu1, mu2) for boundary-point maximization."""

    mu1: float
    mu2: float

    def __post_init__(self) -> None:
        for name in ("mu1", "mu2"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and not isinstance(value, bool)):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            if not math.isfinite(value) or value <= 0:
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
            object.__setattr__(self, name, float(value))


class CaseSumRates(NamedTuple):
    s1: float
    s2: float
    s3a: float
    s3b: float


def mac_bounds(process: FadingProcess, policy: PowerPolicy, receiver: int) -> MacPentagon:
    """Pentagon of one receiver: E[C(g_1 P1)], E[C(g_2 P2)], E[C(g_1 P1 + g_2 P2)]."""
    if receiver not in (1, 2):
        raise ValueError(f"receiver must be 1 or 2, got {receiver!r}")
    g11, g12, g21, g22 = process.gain_arrays
    ga, gb = (g11, g12) if receiver == 1 else (g21, g22)
    p = process.prob_array
    p1, p2 = policy.arrays
    return MacPentagon(
        r1_cap=_erate(p, ga * p1),
        r2_cap=_erate(p, gb * p2),
        sum_cap=_erate(p, ga * p1 + gb * p2),
    )


def sum_rate_fixed_policy(process: FadingProcess, policy: PowerPolicy) -> float:
    """Exact max of R1 + R2 over the two-pentagon intersection at this policy.

    Equals min(sum_cap_1, sum_cap_2, A + B) with A and B the per-user
    caps minimized over receivers.
    """
    pen1 = mac_bounds(process, policy, 1)
    pen2 = mac_bounds(process, policy, 2)
    a = min(pen1.r1_cap, pen2.r1_cap)
    b = min(pen1.r2_cap, pen2.r2_cap)
    return min(pen1.sum_cap, pen2.sum_cap, a + b)


def case_sum_rates(process: FadingProcess, policy: PowerPolicy) -> CaseSumRates:
    """The four bottleneck sum rates at a fixed policy.

    S1 sums the direct-link rates, S2 the cross-link rates; S3a and S3b
    are the receiver-2 and receiver-1 sum capacities respectively.
    """
    g11, g12, g21, g22 = process.gain_arrays
    p = process.prob_array
    p1, p2 = policy.arrays
    return CaseSumRates(
        s1=_erate(p, g11 * p1) + _erate(p, g22 * p2),
        s2=_erate(p, g21 * p1) + _erate(p, g12 * p2),
        s3a=_erate(p, g21 * p1 + g22 * p2),
        s3b=_erate(p, g11 * p1 + g12 * p2),
    )


_FULL_ACTIVE = ("s1", "s2", "s3a", "s3b")

# Three-way ties, then two-way ties, then strict bottlenecks (_match_case).
_CANONICAL_ORDER = (
    CaseLabel.B1_3c,
    CaseLabel.B2_3c,
    CaseLabel.C3c,
    CaseLabel.B1_3a,
    CaseLabel.B2_3a,
    CaseLabel.B1_3b,
    CaseLabel.B2_3b,
    CaseLabel.C1,
    CaseLabel.C2,
    CaseLabel.C3a,
    CaseLabel.C3b,
)


def _case_condition(
    label: CaseLabel,
    rates: CaseSumRates,
    active: Sequence[str],
    eq: float,
) -> bool:
    """Evaluate one label's conditions on the active bound set.

    Strict comparisons are plain; equality comparisons use ``eq``.
    Clauses referencing an inactive bound are dropped; a label whose
    defining bounds are inactive is False outright.
    """
    s = {"s1": rates.s1, "s2": rates.s2, "s3a": rates.s3a, "s3b": rates.s3b}

    def has(name: str) -> bool:
        return name in active

    def lt(x: str, names: Sequence[str]) -> bool:
        return all(s[x] < s[nm] for nm in names if has(nm))

    def eqq(x: str, y: str) -> bool:
        return abs(s[x] - s[y]) <= eq

    if label is CaseLabel.C1:
        return lt("s1", ("s3a", "s3b"))
    if label is CaseLabel.C2:
        return has("s2") and lt("s2", ("s3a", "s3b"))
    if label is CaseLabel.C3a:
        return has("s3a") and lt("s3a", ("s3b", "s1", "s2"))
    if label is CaseLabel.C3b:
        return has("s3b") and lt("s3b", ("s3a", "s1", "s2"))
    if label is CaseLabel.C3c:
        if not (has("s3a") and has("s3b") and eqq("s3a", "s3b")):
            return False
        m = min(s["s3a"], s["s3b"])
        return m < s["s1"] and (not has("s2") or m < s["s2"])
    if label is CaseLabel.B1_3a:
        return has("s3a") and eqq("s1", "s3a") and lt("s3a", ("s3b",)) and lt("s1", ("s3b",))
    if label is CaseLabel.B2_3a:
        return (
            has("s2")
            and has("s3a")
            and eqq("s2", "s3a")
            and lt("s3a", ("s3b",))
            and lt("s2", ("s3b",))
        )
    if label is CaseLabel.B1_3b:
        return has("s3b") and eqq("s1", "s3b") and lt("s3b", ("s3a",)) and lt("s1", ("s3a",))
    if label is CaseLabel.B2_3b:
        return (
            has("s2")
            and has("s3b")
            and eqq("s2", "s3b")
            and lt("s3b", ("s3a",))
            and lt("s2", ("s3a",))
        )
    if label is CaseLabel.B1_3c:
        return (
            has("s3a")
            and has("s3b")
            and eqq("s3a", "s3b")
            and eqq("s1", "s3a")
            and (not has("s2") or s["s1"] < s["s2"])
        )
    if label is CaseLabel.B2_3c:
        return (
            has("s2")
            and has("s3a")
            and has("s3b")
            and eqq("s3a", "s3b")
            and eqq("s2", "s3a")
            and s["s2"] < s["s1"]
        )
    raise AssertionError(label)


def _match_case(
    rates: CaseSumRates, active: Sequence[str] = _FULL_ACTIVE, eq: float = CASE_EQ_TOL
) -> CaseLabel | None:
    """First label in canonical order whose conditions hold, else None.

    In exact arithmetic the conditions are mutually exclusive; with
    floating point an equality window can overlap a strict comparison
    or a smaller tie.  The order tries the labels with more tied bounds
    first: at a policy where bounds are tied exactly, round-off puts one
    of them a few ulps below the others, and the strict label (or a
    two-way tie standing for a three-way one) would then read the
    round-off as the bottleneck.  Every tie label requires its tied
    bounds to be the bottleneck, so the order changes nothing outside
    the windows.
    """
    for label in _CANONICAL_ORDER:
        if _case_condition(label, rates, active, eq):
            return label
    return None


def identify_case(process: FadingProcess, policy: PowerPolicy) -> CaseLabel:
    """Label which bound is the sum-rate bottleneck at this policy."""
    rates = case_sum_rates(process, policy)
    label = _match_case(rates)
    if label is None:
        raise ValueError(
            "no case condition matched at this policy "
            f"(S1={rates.s1:.12g}, S2={rates.s2:.12g}, "
            f"S3a={rates.s3a:.12g}, S3b={rates.s3b:.12g}); "
            "tighten the solver tolerance that produced it"
        )
    return label


def _engine_objectives(process: FadingProcess, use_s2: bool, use_s3a: bool, use_s3b: bool):
    g11, g12, g21, g22 = process.gain_arrays
    p = process.prob_array
    zero = np.zeros_like(p)
    objs = {
        "s1": RateObjective(p, [(1.0, g11, zero), (1.0, zero, g22)]),
        "s2": RateObjective(p, [(1.0, g21, zero), (1.0, zero, g12)]),
        "s3a": RateObjective(p, [(1.0, g21, g22)]),
        "s3b": RateObjective(p, [(1.0, g11, g12)]),
    }
    active = ["s1"]
    if use_s2:
        active.append("s2")
    if use_s3a:
        active.append("s3a")
    if use_s3b:
        active.append("s3b")
    # Polytope ground truth: receiver sum caps plus per-user caps min'd
    # over receivers; the cross combinations only exist when cross-link
    # decoding is part of the model (use_s2).
    polytope = [objs[name] for name in active if name != "s2"]
    if use_s2:
        polytope.append(objs["s2"])
        polytope.append(RateObjective(p, [(1.0, g11, zero), (1.0, zero, g12)]))
        polytope.append(RateObjective(p, [(1.0, g21, zero), (1.0, zero, g22)]))
    return objs, active, polytope


def _sum_capacity_engine(
    process: FadingProcess,
    budget: PowerBudget,
    *,
    use_s2: bool = True,
    use_s3a: bool = True,
    use_s3b: bool = True,
    tol: float = 1e-6,
) -> tuple[float, PowerPolicy, CaseLabel]:
    """Sum capacity over power policies: closed forms, then one direct solve.

    A single-bound case (C1, C2, C3a, C3b) has a closed-form optimum for
    its bound: waterfilling on the direct or cross links, or
    opportunistic multiuser waterfilling at one receiver.  Each candidate
    is accepted when its own case conditions hold, its case rate equals
    the polytope sum rate at the candidate within 1e-7, and the dual
    bound of that rate at the candidate's KKT multipliers is within 1e-3
    of the value (the rate is one piece of the polytope, so the bound
    caps the polytope's maximum too).  Otherwise several bounds are tied
    at the optimum (C3c and the B labels) or no certificate holds, and
    the polytope's min of concave pieces is maximized directly in one
    maximize_min_concave call, whose answer is labelled at progressively
    looser equality tolerance.  ConvergenceError is raised when that
    call's bundle KKT residual exceeds 1e-3 or no label matches.
    """
    if not (use_s3a or use_s3b):
        raise ValueError("at least one receiver sum bound must stay active")
    g11, g12, g21, g22 = process.gain_arrays
    p = process.prob_array
    n = process.n_states
    b1, b2 = budget.p1_bar, budget.p2_bar
    objs, active, polytope = _engine_objectives(process, use_s2, use_s3a, use_s3b)

    def rates_of(x1, x2) -> CaseSumRates:
        return CaseSumRates(*(objs[name].value(x1, x2) for name in CaseSumRates._fields))

    def polytope_value(x1, x2) -> float:
        return min(o.value(x1, x2) for o in polytope)

    def mac_candidate(receiver):
        try:
            rep = mac_opportunistic_waterfill(process, receiver, budget, tol)
            return rep.policy.arrays
        except PreconditionError:
            return np.zeros(n), np.zeros(n)

    def links(ga, gb):
        return _waterfill_powers(ga, p, b1)[0], _waterfill_powers(gb, p, b2)[0]

    singles = [(CaseLabel.C1, "s1", links(g11, g22))]
    if use_s2:
        singles.append((CaseLabel.C2, "s2", links(g21, g12)))
    if use_s3a:
        singles.append((CaseLabel.C3a, "s3a", mac_candidate(2)))
    if use_s3b:
        singles.append((CaseLabel.C3b, "s3b", mac_candidate(1)))
    for label, name, (x1, x2) in singles:
        r = rates_of(x1, x2)
        if not _case_condition(label, r, active, _ENGINE_EQ_TOL):
            continue
        value = polytope_value(x1, x2)
        if abs(value - getattr(r, name)) > 1e-7:
            continue
        policy = PowerPolicy.from_arrays(x1, x2)
        lam = kkt_multipliers(process, policy, objs[name], budget)
        bound = dual_bound(process, objs[name], budget, lam)
        if bound is not None and bound <= value + 1e-3:
            return value, policy, label

    rep = maximize_min_concave(process, polytope, budget, tol, max_iters=20000)
    if rep.kkt_residual > 1e-3:
        raise ConvergenceError(
            "direct maximization of the compound-MAC sum rate did not converge "
            f"(KKT residual {rep.kkt_residual:.3g})"
        )
    x1, x2 = rep.policy.arrays
    value = polytope_value(x1, x2)
    r = rates_of(x1, x2)
    for eq in (_ENGINE_EQ_TOL, 1e-6, 1e-5, 1e-4, 1e-3):
        label = _match_case(r, active, eq)
        if label is not None:
            return value, rep.policy, label
    raise ConvergenceError(
        "no case label matched the maximized policy "
        f"(S1={r.s1:.9g}, S2={r.s2:.9g}, S3a={r.s3a:.9g}, S3b={r.s3b:.9g})"
    )


def sum_capacity(
    process: FadingProcess, budget: PowerBudget, tol: float = 1e-6
) -> tuple[float, PowerPolicy, CaseLabel]:
    """Sum capacity of the ergodic fading compound MAC.

    Runs the case search over all eleven labels (_sum_capacity_engine)
    and returns (value in bits, optimal policy, accepted case label).
    """
    return _sum_capacity_engine(process, budget, tol=tol)


def weighted_max_fixed_policy(
    process: FadingProcess, policy: PowerPolicy, weights: WeightPair
) -> tuple[float, float, float]:
    """Exact maximizer of mu1 R1 + mu2 R2 over the intersection polytope.

    Closed-form corner selection: the heavier user is served first up
    to its cap, the other takes what the sum cap leaves.  Returns
    (R1, R2, weighted value); for mu1 = mu2 the corner is sum-optimal.
    """
    pen1 = mac_bounds(process, policy, 1)
    pen2 = mac_bounds(process, policy, 2)
    a = min(pen1.r1_cap, pen2.r1_cap)
    b = min(pen1.r2_cap, pen2.r2_cap)
    cs = min(pen1.sum_cap, pen2.sum_cap)
    if weights.mu1 <= weights.mu2:
        r2 = min(b, cs)
        r1 = min(a, cs - r2)
    else:
        r1 = min(a, cs)
        r2 = min(b, cs - r1)
    return r1, r2, weights.mu1 * r1 + weights.mu2 * r2


def _boundary_objectives(process: FadingProcess, weights: WeightPair) -> list[RateObjective]:
    """Concave supporting objectives whose min equals the weighted LP value.

    By LP duality the weighted maximum over the polytope at a fixed
    policy is min(mu1 A + mu2 B, mu_lo Cs + (mu_hi - mu_lo) X, mu_hi Cs)
    with X the lighter user's cap; expanding each of A, B, Cs over its
    two receiver choices gives ten concave functions of the policy.
    """
    g11, g12, g21, g22 = process.gain_arrays
    p = process.prob_array
    zero = np.zeros_like(p)
    a_choices = (g11, g21)
    b_choices = (g12, g22)
    cs_choices = ((g11, g12), (g21, g22))
    mu1, mu2 = weights.mu1, weights.mu2
    objs = []
    for a in a_choices:
        for b in b_choices:
            objs.append(RateObjective(p, [(mu1, a, zero), (mu2, zero, b)]))
    if mu1 <= mu2:
        for sa, sb in cs_choices:
            for b in b_choices:
                objs.append(RateObjective(p, [(mu1, sa, sb), (mu2 - mu1, zero, b)]))
        for sa, sb in cs_choices:
            objs.append(RateObjective(p, [(mu2, sa, sb)]))
    else:
        for sa, sb in cs_choices:
            for a in a_choices:
                objs.append(RateObjective(p, [(mu2, sa, sb), (mu1 - mu2, a, zero)]))
        for sa, sb in cs_choices:
            objs.append(RateObjective(p, [(mu1, sa, sb)]))
    return objs


def region_boundary(
    process: FadingProcess, budget: PowerBudget, weight_grid: Sequence[WeightPair]
) -> list[tuple[WeightPair, float, float]]:
    """Sample the capacity-region boundary at the given weight pairs.

    Each weight pair's supporting point maximizes the weighted rate sum
    over policies; rows come back sorted by mu1/mu2 ascending, so R1 is
    nondecreasing and R2 nonincreasing along the list.
    """
    pairs = list(weight_grid)
    if not pairs:
        raise ValueError("weight_grid must be non-empty")
    ordered = sorted(pairs, key=lambda w: w.mu1 / w.mu2)
    rows: list[tuple[WeightPair, float, float]] = []
    for wp in ordered:
        objs = _boundary_objectives(process, wp)
        rep = maximize_min_concave(process, objs, budget, 1e-6, max_iters=8000)
        if not rep.converged and rep.kkt_residual > 1e-3:
            raise ConvergenceError(
                f"boundary point at weights ({wp.mu1:g}, {wp.mu2:g}) did not converge "
                f"(KKT residual {rep.kkt_residual:.3g})"
            )
        r1, r2, _ = weighted_max_fixed_policy(process, rep.policy, wp)
        rows.append((wp, r1, r2))
    return rows
