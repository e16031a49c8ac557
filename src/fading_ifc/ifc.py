"""Sum-capacities and achievable schemes for fading interference sub-classes.

Each operation targets one regime of the two-user ergodic fading
Gaussian interference channel.  Very strong channels get the exact
rectangle capacity at per-link waterfilling; uniformly strong channels
reduce to the compound-MAC case machinery with the cross-link sum
bound removed; uniformly weak one-sided channels maximize a
treat-interference-as-noise rate; uniformly mixed channels cap the
pooled rate at the strong receiver with the weak side's bound; the
two-sided weak case only gets an upper bound.  A rate-splitting scheme
(private/common power split at the interfered receiver) and separable
and time-duplexing baselines cover achievability on one-sided hybrids.

Several objectives here are not concave (dividing by interference
terms introduces convex pieces), so those maximizers run a fixed
battery of deterministic starts as the rows of one projected ascent
(allocate._ascend), refine each row's best point with an SLSQP
epigraph solve, and for small state counts sweep budget faces with one
refining grid (_face_grid): both budget faces for the min-of-rates
searches, the P2 face for the treat-as-noise sum capacity, and the two
faces times each weak state's private fraction for rate splitting.
Returned values are certified by KKT residuals or by the grid itself.
Rate splitting searches over (P1, c, q), user 2's power written as its
common part c plus its private part q, so user 2's feasible set is the
plain budget set of _project_capped over 2n coordinates and the SLSQP
polish needs no coupling row between c and q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .channel import (
    ConvergenceError,
    FadingProcess,
    PowerBudget,
    PowerPolicy,
    PreconditionError,
)
from .allocate import (
    PerStateMinRate,
    RateObjective,
    _ascend,
    _epigraph_polish,
    _erate,
    _project_capped,
    _slsqp_polish,
    _waterfill_powers,
    kkt_residual,
)
from .classify import Sidedness, channel_sidedness, evs_condition, um_orientation
from .cmac import _sum_capacity_engine


def _swapped_budget(budget: PowerBudget) -> PowerBudget:
    return PowerBudget(p1_bar=budget.p2_bar, p2_bar=budget.p1_bar)


def _swapped_allocation(allocation: "HkAllocation") -> "HkAllocation":
    """The same allocation with the users' power columns exchanged."""
    return HkAllocation(allocation.policy.swap_users(), allocation.alpha)


class NotEVS(PreconditionError):
    """The very-strong capacity formula does not apply to this channel."""


class NotUniformlyStrong(PreconditionError):
    """Some state fails the strong comparison on a live cross link."""


class NotUniformlyWeak(PreconditionError):
    """Some state fails the strict weak comparison on a cross link."""


class NotUniformlyMixed(PreconditionError):
    """No uniform mixed orientation holds across the states."""


class MinimaxCase(Enum):
    Case1_S1smaller = "Case1_S1smaller"
    Case2_S2smaller = "Case2_S2smaller"
    Case3_equal = "Case3_equal"


@dataclass(frozen=True)
class HkAllocation:
    """Power policy plus the per-state private-power fraction of user 2.

    alpha_h * P2(h) rides as private power only receiver 1 must not
    decode; the rest is common and decoded by both receivers.  On a
    channel whose interference enters at receiver 2, the schemes return
    alpha for user 1's power instead; the two properties below read the
    receiver-1 orientation.
    """

    policy: PowerPolicy
    alpha: tuple[float, ...]

    def __post_init__(self) -> None:
        alpha = tuple(float(a) for a in self.alpha)
        n = self.policy.arrays[0].shape[0]
        if len(alpha) != n:
            raise PreconditionError(f"alpha has {len(alpha)} entries for {n} states")
        for i, a in enumerate(alpha):
            if not math.isfinite(a) or a < -1e-12 or a > 1.0 + 1e-12:
                raise PreconditionError(f"alpha[{i}] must lie in [0, 1], got {a!r}")
        object.__setattr__(self, "alpha", tuple(min(1.0, max(0.0, a)) for a in alpha))

    @property
    def private_powers(self) -> np.ndarray:
        _, p2 = self.policy.arrays
        return np.asarray(self.alpha) * p2

    @property
    def common_powers(self) -> np.ndarray:
        _, p2 = self.policy.arrays
        return (1.0 - np.asarray(self.alpha)) * p2


def _require_receiver1_sided(process: FadingProcess) -> None:
    """Interference must enter at receiver 1 only (g21 = 0 everywhere).

    Every caller swaps a receiver-2-sided channel first, so only a
    two-sided channel fails here.
    """
    if np.any(process.gain_arrays[2] != 0):
        raise PreconditionError(
            "process is two-sided: both cross links carry nonzero gain in some state"
        )


def interference_free_outer_bound(process: FadingProcess, budget: PowerBudget) -> float:
    """Sum of the two single-link waterfilling rates, in bits.

    No achievable pair can beat the interference-free links, so every
    scheme's sum rate sits below this number.
    """
    g11, _, _, g22 = process.gain_arrays
    p = process.prob_array
    total = 0.0
    for g, b in ((g11, budget.p1_bar), (g22, budget.p2_bar)):
        powers, _ = _waterfill_powers(g, p, b)
        total += _erate(p, g * powers)
    return total


def evs_sum_capacity(
    process: FadingProcess, budget: PowerBudget
) -> tuple[float, PowerPolicy, tuple[float, float]]:
    """Exact sum capacity when interference is ergodically very strong.

    Both users waterfill their own link as if alone; the capacity
    region is the rectangle of the two single-link rates, and the sum
    capacity is the rectangle corner.  Raises NotEVS when the defining
    condition fails.
    """
    check = evs_condition(process, budget)
    if not check.holds:
        raise NotEVS(
            "very-strong condition fails: interference-free sum "
            f"{check.lhs:.6g} bits is not below the weakest interfered "
            f"receiver's pooled rate {check.rhs:.6g} bits"
        )
    g11, _, _, g22 = process.gain_arrays
    p = process.prob_array
    x1, _ = _waterfill_powers(g11, p, budget.p1_bar)
    x2, _ = _waterfill_powers(g22, p, budget.p2_bar)
    r1 = _erate(p, g11 * x1)
    r2 = _erate(p, g22 * x2)
    return r1 + r2, PowerPolicy.from_arrays(x1, x2), (r1, r2)


def _strong_bound_flags(process: FadingProcess) -> tuple[bool, bool]:
    """Check the uniformly strong precondition; return the live sum bounds.

    A cross link that is identically zero imposes no decoding burden on
    its receiver, so that receiver's sum bound drops; the surviving
    cross links must dominate the paired direct links in every state.
    """
    g11, g12, g21, g22 = process.gain_arrays
    cross1_live = bool(np.any(g21 != 0))
    cross2_live = bool(np.any(g12 != 0))
    if not (cross1_live or cross2_live):
        raise NotUniformlyStrong("no live cross link; the channel has no interference")
    if cross1_live:
        bad = np.nonzero(g21 < g11)[0]
        if bad.size:
            i = int(bad[0])
            raise NotUniformlyStrong(
                f"state {i}: cross gain into receiver 2 ({g21[i]:g}) is below "
                f"the direct gain {g11[i]:g}"
            )
    if cross2_live:
        bad = np.nonzero(g12 < g22)[0]
        if bad.size:
            i = int(bad[0])
            raise NotUniformlyStrong(
                f"state {i}: cross gain into receiver 1 ({g12[i]:g}) is below "
                f"the direct gain {g22[i]:g}"
            )
    return cross1_live, cross2_live


def us_sum_capacity(
    process: FadingProcess, budget: PowerBudget
) -> tuple[float, PowerPolicy]:
    """Sum capacity of a uniformly strong channel via the case machinery.

    Strong interference lets both receivers decode both messages, so
    the channel behaves as a compound MAC whose cross-link sum bound
    never binds; the ordered case search runs with that bound removed
    (and with a clean receiver's sum bound removed in the one-sided
    variant).
    """
    use_s3a, use_s3b = _strong_bound_flags(process)
    value, policy, _ = _sum_capacity_engine(
        process, budget, use_s2=False, use_s3a=use_s3a, use_s3b=use_s3b
    )
    return value, policy


def us_separable_sum_rate(
    process: FadingProcess, budget: PowerBudget
) -> tuple[float, PowerPolicy]:
    """Sum rate when each fading state is coded as its own channel.

    Every state is treated as a standalone strong interference channel
    whose code must respect the power budgets by itself, so each state
    transmits at full budget (its sum rate grows in both powers) and
    the value is the expectation of the per-state minima of the live
    receiver sums and the direct-link sum.  Always at or below
    us_sum_capacity, which pools power and codes across states.
    """
    use_s3a, use_s3b = _strong_bound_flags(process)
    g11, g12, g21, g22 = process.gain_arrays
    p = process.prob_array
    zero = np.zeros_like(p)
    branches = []
    if use_s3b:
        branches.append([(1.0, g11, g12)])
    if use_s3a:
        branches.append([(1.0, g21, g22)])
    branches.append([(1.0, g11, zero), (1.0, zero, g22)])
    objective = PerStateMinRate(p, branches)
    x1 = np.full(process.n_states, budget.p1_bar)
    x2 = np.full(process.n_states, budget.p2_bar)
    return objective.value(x1, x2), PowerPolicy.from_arrays(x1, x2)


def _face_points(probs: np.ndarray, cap: float, m: int, lo=None, hi=None) -> np.ndarray:
    """Vectors x >= 0 with probs @ x = cap, gridded over the free coords.

    lo/hi optionally restrict each free coordinate's sweep (used by the
    refinement passes).  Shape (K, n).
    """
    n = probs.shape[0]
    if cap <= 0:
        return np.zeros((1, n))
    if n == 1:
        return np.array([[cap / probs[0]]])
    axes = []
    for i in range(n - 1):
        full_hi = cap / probs[i]
        a = 0.0 if lo is None else max(0.0, lo[i])
        b = full_hi if hi is None else min(full_hi, hi[i])
        if b < a:
            a, b = b, b
        axes.append(np.linspace(a, b, m))
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n - 1)
    last = (cap - mesh @ probs[:-1]) / probs[-1]
    keep = last >= -1e-12
    mesh, last = mesh[keep], np.maximum(last[keep], 0.0)
    return np.concatenate([mesh, last[:, None]], axis=1)


# Product points evaluated per call of a grid's evaluate, to bound memory.
_GRID_CHUNK = 16384


def _face_grid(faces, evaluate, floor: int):
    """Maximize evaluate over a product of budget faces, refined twice.

    Each face is (probs, cap, m): the points x >= 0 with probs @ x = cap,
    gridded with m points per free coordinate (_face_points).  After
    each of the three passes every face's window closes to one coarse
    cell, (cap / min probs) / (m - 1), on each side of the best point so
    far, and m halves, but not below ``floor``.  evaluate(*points) takes
    one (K, n_j) array per face and returns K values.  Returns the best
    value and the best point of each face.
    """
    best_v, best = -np.inf, None
    windows = [(None, None)] * len(faces)
    counts = [m for _, _, m in faces]
    for _ in range(3):
        grids = [
            _face_points(probs, cap, m, lo, hi)
            for (probs, cap, _), m, (lo, hi) in zip(faces, counts, windows)
        ]
        sizes = [g.shape[0] for g in grids]
        total = math.prod(sizes)
        for start in range(0, total, _GRID_CHUNK):
            idx = np.unravel_index(np.arange(start, min(start + _GRID_CHUNK, total)), sizes)
            vals = evaluate(*(g[i] for g, i in zip(grids, idx)))
            i = int(np.argmax(vals))
            if vals[i] > best_v:
                best_v, best = float(vals[i]), [g[k[i]] for g, k in zip(grids, idx)]
        windows = []
        for (probs, cap, _), m, c in zip(faces, counts, best):
            span = (cap / probs.min()) / max(m - 1, 1)
            windows.append((c[:-1] - span, c[:-1] + span))
        counts = [max(floor, m // 2 + 1) for m in counts]
    return best_v, best


_ASCENT_ITERS = 400


def _deterministic_starts(process, budget) -> np.ndarray:
    """Eight fixed start policies, shape (2, 8, n) as _ascend takes them:
    uniform, per-link waterfilling, mixes."""
    g11, _, _, g22 = process.gain_arrays
    p = process.prob_array
    n = process.n_states
    b1, b2 = budget.p1_bar, budget.p2_bar
    u1 = np.full(n, b1)
    u2 = np.full(n, b2)
    w1, _ = _waterfill_powers(g11, p, b1)
    w2, _ = _waterfill_powers(g22, p, b2)
    zero = np.zeros(n)
    return np.array([
        [u1, w1, w1, u1, u1, w1, u1, w1],
        [u2, w2, u2, w2, 0.5 * u2, 0.5 * u2, zero, zero],
    ])


def _multistart_ascent(process, budget, objectives):
    """_ascend on min(objectives) from the eight deterministic starts."""
    p = process.prob_array
    caps = np.array([[budget.p1_bar], [budget.p2_bar]])
    vals, points, _ = _ascend(
        objectives, _deterministic_starts(process, budget),
        lambda x: _project_capped(x, p, caps), p, budget, _ASCENT_ITERS,
    )
    return vals, points


def _minimax_driver(process, budget, objectives):
    """Shared search for min-of-smooth-rate objectives that need not be concave.

    Multistart projected ascent, SLSQP epigraph polish of every start's
    best point, and a budget-face grid for up to three states; returns
    (value, x1, x2) for the best candidate found.
    """
    p = process.prob_array
    b1, b2 = budget.p1_bar, budget.p2_bar

    def value_at(x1, x2):
        return min(o.value(x1, x2) for o in objectives)

    best = (-np.inf, np.zeros_like(p), np.zeros_like(p))
    vals, points = _multistart_ascent(process, budget, objectives)
    for v, x1, x2 in zip(vals, *points):
        v = float(v)
        out = _epigraph_polish(p, objectives, b1, b2, x1, x2)
        if out is not None:
            vp = value_at(*out)
            if vp > v:
                v, (x1, x2) = vp, out
        if v > best[0]:
            best = (v, x1, x2)
    if process.n_states <= 3:
        # Valid because every objective here is nondecreasing in each
        # power, so an optimum spends both budgets.
        grid_v, (gx1, gx2) = _face_grid(
            [(p, b1, 33), (p, b2, 33)],
            lambda X1, X2: np.min([o.value(X1, X2) for o in objectives], axis=0),
            floor=9,
        )
        if grid_v > best[0]:
            out = _epigraph_polish(p, objectives, b1, b2, gx1, gx2)
            if out is not None and value_at(*out) > grid_v:
                best = (value_at(*out), *out)
            else:
                best = (grid_v, gx1, gx2)
    return best


def _weak_link_check(g_cross: np.ndarray, g_direct: np.ndarray, into: str) -> None:
    bad = np.nonzero(~(g_cross < g_direct))[0]
    if bad.size:
        i = int(bad[0])
        raise NotUniformlyWeak(
            f"state {i}: interfering gain into {into} ({g_cross[i]:g}) is not "
            f"below the paired direct gain {g_direct[i]:g}"
        )


def uw1_sum_capacity(
    process: FadingProcess, budget: PowerBudget
) -> tuple[float, PowerPolicy]:
    """Sum capacity of a one-sided uniformly weak channel.

    The interfered receiver treats the crossing signal as noise:
    maximize E[C(g11 P1 / (1 + g12 P2))] + E[C(g22 P2)] when the
    interference enters at receiver 1; when it enters at receiver 2 the
    user indices swap, and the returned policy is in the caller's user
    order.  For fixed P2 the optimal P1 is a waterfill over the
    effective gains, which makes an exhaustive sweep of the P2 budget
    face affordable for small state counts.  The result is the best
    candidate found, SLSQP-polished; when its KKT residual exceeds 1e-6
    a longer polish runs and the policy with the smaller residual is
    kept, so the returned residual is not bounded.
    """
    if channel_sidedness(process) is Sidedness.OneSidedAtRx2:
        value, policy = uw1_sum_capacity(process.swap_users(), _swapped_budget(budget))
        return value, policy.swap_users()
    _require_receiver1_sided(process)
    g11, g12, _, g22 = process.gain_arrays
    _weak_link_check(g12, g22, "receiver 1")
    p = process.prob_array
    n = process.n_states
    b1, b2 = budget.p1_bar, budget.p2_bar
    zero = np.zeros(n)
    objective = RateObjective(
        p, [(1.0, g11, g12), (-1.0, zero, g12), (1.0, zero, g22)]
    )

    def waterfill_p1(X2: np.ndarray) -> np.ndarray:
        return _waterfill_powers(g11 / (1.0 + g12 * X2), p, b1)[0]

    # The objective strictly increases in every power for weak states,
    # so both budgets bind and the P2 face is exhaustive.
    best_v, best_x1, best_x2 = _minimax_driver(process, budget, [objective])
    if n <= 4:
        grid_v, (gx2,) = _face_grid(
            [(p, b2, 17 if n == 4 else 33)],
            lambda X2: objective.value(waterfill_p1(X2), X2),
            floor=11,
        )
        if grid_v > best_v:
            best_v, best_x1, best_x2 = grid_v, waterfill_p1(gx2), gx2
    out = _epigraph_polish(p, [objective], b1, b2, best_x1, best_x2)
    if out is not None and objective.value(*out) > best_v:
        best_v, (best_x1, best_x2) = objective.value(*out), out
    policy = PowerPolicy.from_arrays(best_x1, best_x2)
    res = kkt_residual(process, policy, objective, budget)
    if res > 1e-6:
        out = _epigraph_polish(p, [objective], b1, b2, best_x1, best_x2, maxiter=800)
        if out is not None and objective.value(*out) >= best_v - 1e-9:
            cand = PowerPolicy.from_arrays(*out)
            if kkt_residual(process, cand, objective, budget) < res:
                policy = cand
                best_v = objective.value(*out)
    return best_v, policy


def um_sum_capacity(
    process: FadingProcess, budget: PowerBudget
) -> tuple[float, PowerPolicy]:
    """Sum capacity of a uniformly mixed channel.

    With user 1's cross link weak and user 2's strong in every state,
    the sum capacity is the max over policies of the smaller of the
    strong receiver's pooled rate and the weak side's
    treat-as-noise bound.
    """
    orient = um_orientation(process)
    if orient is None:
        raise NotUniformlyMixed(
            "no uniform mixed orientation: need g11 > g21 and g12 >= g22 in "
            "every state, or the mirror image"
        )
    if orient < 0:
        value, policy = um_sum_capacity(process.swap_users(), _swapped_budget(budget))
        return value, policy.swap_users()
    g11, g12, g21, g22 = process.gain_arrays
    p = process.prob_array
    zero = np.zeros_like(p)
    pooled_rx1 = RateObjective(p, [(1.0, g11, g12)])
    weak_side_rx2 = RateObjective(
        p, [(1.0, g21, g22), (-1.0, g21, zero), (1.0, g11, zero)]
    )
    objectives = [pooled_rx1, weak_side_rx2]
    best_v, x1, x2 = _minimax_driver(process, budget, objectives)
    return best_v, PowerPolicy.from_arrays(x1, x2)


def uw2_upper_bound(process: FadingProcess, budget: PowerBudget) -> float:
    """Sum-capacity upper bound for two-sided uniformly weak channels.

    Max over policies of the smaller of the two treat-as-noise bounds;
    a genie argument shows no scheme can beat either one.
    """
    g11, g12, g21, g22 = process.gain_arrays
    _weak_link_check(g12, g22, "receiver 1")
    _weak_link_check(g21, g11, "receiver 2")
    p = process.prob_array
    zero = np.zeros_like(p)
    weak_rx1 = RateObjective(p, [(1.0, g11, g12), (-1.0, zero, g12), (1.0, zero, g22)])
    weak_rx2 = RateObjective(p, [(1.0, g21, g22), (-1.0, g21, zero), (1.0, g11, zero)])
    best_v, _, _ = _minimax_driver(process, budget, [weak_rx1, weak_rx2])
    return best_v


def hk_sum_rates(process: FadingProcess, allocation: HkAllocation) -> tuple[float, float]:
    """The two competing sum rates of the rate-splitting scheme.

    S1 serves user 1 around the private interference and user 2 at full
    power; S2 charges user 2's private part at receiver 2 and the rest
    jointly at receiver 1.  The scheme achieves min(S1, S2); at
    alpha = 1 the two coincide identically.  On a channel whose
    interference enters at receiver 2 the users swap roles, as in
    hk_optimize, and alpha splits user 1's power.
    """
    if channel_sidedness(process) is Sidedness.OneSidedAtRx2:
        return hk_sum_rates(process.swap_users(), _swapped_allocation(allocation))
    _require_receiver1_sided(process)
    g11, g12, _, g22 = process.gain_arrays
    p = process.prob_array
    x1, x2 = allocation.policy.arrays
    q = np.asarray(allocation.alpha) * x2
    den = 1.0 + g12 * q
    s1 = _erate(p, g11 * x1 / den) + _erate(p, g22 * x2)
    s2 = _erate(p, g22 * q) + _erate(p, (g11 * x1 + g12 * (x2 - q)) / den)
    return s1, s2


def hk_region_bounds(
    process: FadingProcess, allocation: HkAllocation
) -> tuple[float, float, float, float]:
    """Fading-averaged rate caps of the rate-splitting region.

    Returns (r1_cap, r2_cap_direct, r2_cap_split, sum_cap): user 1
    decoding around private interference, user 2's clean direct cap,
    user 2 split across the two receivers, and the joint bound at
    receiver 1.  On a channel whose interference enters at receiver 2
    the users swap roles, as in hk_sum_rates.
    """
    if channel_sidedness(process) is Sidedness.OneSidedAtRx2:
        return hk_region_bounds(process.swap_users(), _swapped_allocation(allocation))
    _require_receiver1_sided(process)
    g11, g12, _, g22 = process.gain_arrays
    p = process.prob_array
    x1, x2 = allocation.policy.arrays
    q = np.asarray(allocation.alpha) * x2
    den = 1.0 + g12 * q
    r1_cap = _erate(p, g11 * x1 / den)
    r2_cap_direct = _erate(p, g22 * x2)
    r2_cap_split = _erate(p, g22 * q) + _erate(p, g12 * (x2 - q) / den)
    sum_cap = _erate(p, g22 * q) + _erate(p, (g11 * x1 + g12 * (x2 - q)) / den)
    return r1_cap, r2_cap_direct, r2_cap_split, sum_cap


def _hk_rates(process: FadingProcess) -> tuple[RateObjective, RateObjective]:
    """S1 and S2 as objectives over (P1, c, q): user 2's power P2 = c + q
    splits into the common part c and the private part q."""
    g11, g12, _, g22 = process.gain_arrays
    zero = np.zeros(process.n_states)
    s1 = RateObjective(
        process.prob_array,
        [(1.0, g11, zero, g12), (-1.0, zero, zero, g12), (1.0, zero, g22, g22)],
    )
    s2 = RateObjective(
        process.prob_array,
        [(1.0, zero, zero, g22), (1.0, g11, g12, g12), (-1.0, zero, zero, g12)],
    )
    return s1, s2


def _hk_generic(process, budget) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Multistart search over (P1, c, q) for min(S1, S2); returns (value, P1, c, q).

    User 2's feasible set {c, q >= 0, p @ (c + q) <= b2, q = 0 on strong
    states} is the capped set of _project_capped over its 2n coordinates
    with probabilities (p, p): a strong state's q enters the projection
    at zero and stays there, since the shift is never negative.
    """
    _, g12, _, g22 = process.gain_arrays
    p = process.prob_array
    n = process.n_states
    b1, b2 = budget.p1_bar, budget.p2_bar
    strong = g12 >= g22
    rates = _hk_rates(process)
    held = np.array([np.zeros(n, bool), np.zeros(n, bool), strong])
    pp = np.concatenate([p, p])

    best = (-np.inf, np.zeros(n), np.zeros(n), np.zeros(n))

    def consider(x1, c, q):
        nonlocal best
        v = min(o.value(x1, c, q) for o in rates)
        if v > best[0]:
            best = (v, x1.copy(), c.copy(), q.copy())

    def polish(x1, c, q):
        out = _epigraph_polish(p, rates, b1, b2, x1, c, q, held=held)
        if out is not None:
            consider(*out)

    def project(x):
        cq = np.concatenate([x[1], np.where(strong, 0.0, x[2])], axis=-1)
        cq = _project_capped(cq, pp, b2)
        return np.array([_project_capped(x[0], p, b1), cq[..., :n], cq[..., n:]])

    # The first four policy starts, each at full and at half private power.
    starts = np.repeat(_deterministic_starts(process, budget)[:, :4], 2, axis=1)
    q0 = np.where(strong, 0.0, np.tile([1.0, 0.5], 4)[:, None] * starts[1])
    _, points, _ = _ascend(
        rates, np.array([starts[0], starts[1] - q0, q0]), project, p, budget, _ASCENT_ITERS
    )
    for x1, c, q in zip(*points):
        consider(x1, c, q)
        polish(x1, c, q)
    if n <= 2:
        # Exhaustive sweep: budget faces for the powers (both sum rates
        # increase in every power), and for each weak state its private
        # fraction as the face (alpha, 1 - alpha) of unit probabilities.
        free = np.flatnonzero(~strong)

        def private(X2, fractions):
            Q = np.zeros_like(X2)
            for j, f in zip(free, fractions):
                Q[..., j] = f[..., 0] * X2[..., j]
            return Q

        def evaluate(X1, X2, *fractions):
            Q = private(X2, fractions)
            return np.minimum(*(o.value(X1, X2 - Q, Q) for o in rates))

        _, (gx1, gx2, *fractions) = _face_grid(
            [(p, b1, 21), (p, b2, 21)] + [(np.ones(2), 1.0, 11)] * free.size, evaluate, floor=9
        )
        q = private(gx2, fractions)
        consider(gx1, gx2 - q, q)
        polish(*best[1:])
    if not np.isfinite(best[0]):
        raise ConvergenceError("rate-splitting search found no finite candidate")
    return best


def _minimax_case(s1: float, s2: float, tol: float = 1e-7) -> MinimaxCase:
    if abs(s1 - s2) <= tol:
        return MinimaxCase.Case3_equal
    return MinimaxCase.Case1_S1smaller if s1 < s2 else MinimaxCase.Case2_S2smaller


def hk_optimize(
    process: FadingProcess, budget: PowerBudget
) -> tuple[float, HkAllocation, MinimaxCase]:
    """Best rate-splitting sum rate over policies and power splits.

    Strong states carry no private power (splitting never helps there);
    weak states search the full split range.  Three regimes shortcut to
    known answers: very strong channels return the interference-free
    optimum at zero split, all-strong channels reduce to the uniformly
    strong sum capacity, all-weak channels to the treat-as-noise sum
    capacity at full private power.  When the interference enters at
    receiver 2 the users swap roles: the policy comes back in the
    caller's user order and alpha splits user 1's power.
    """
    if channel_sidedness(process) is Sidedness.OneSidedAtRx2:
        value, alloc, case = hk_optimize(process.swap_users(), _swapped_budget(budget))
        return value, _swapped_allocation(alloc), case
    _require_receiver1_sided(process)
    g11, g12, _, g22 = process.gain_arrays
    p = process.prob_array
    n = process.n_states
    strong = g12 >= g22
    zeros = np.zeros(n)
    rates = _hk_rates(process)

    if evs_condition(process, budget).holds:
        x1, _ = _waterfill_powers(g11, p, budget.p1_bar)
        x2, _ = _waterfill_powers(g22, p, budget.p2_bar)
        s1, s2 = (o.value(x1, x2, zeros) for o in rates)
        if s1 < s2:
            alloc = HkAllocation(PowerPolicy.from_arrays(x1, x2), (0.0,) * n)
            return s1, alloc, MinimaxCase.Case1_S1smaller
    if bool(strong.all()):
        value, policy = us_sum_capacity(process, budget)
        s1, s2 = (o.value(*policy.arrays, zeros) for o in rates)
        return value, HkAllocation(policy, (0.0,) * n), _minimax_case(s1, s2)
    if not bool(strong.any()):
        value, policy = uw1_sum_capacity(process, budget)
        return value, HkAllocation(policy, (1.0,) * n), MinimaxCase.Case3_equal

    value, x1, c, q = _hk_generic(process, budget)
    x2 = c + q
    alpha = np.divide(q, x2, out=np.zeros(n), where=x2 > 0)
    s1, s2 = (o.value(x1, c, q) for o in rates)
    alloc = HkAllocation(PowerPolicy.from_arrays(x1, x2), tuple(alpha))
    return value, alloc, _minimax_case(s1, s2)


def separable_one_sided_baseline(
    process: FadingProcess, budget: PowerBudget
) -> tuple[float, HkAllocation]:
    """Independent coding per state with the natural split pattern.

    Weak states use full private power (treat as noise), strong states
    none (decode the interference); the objective is the expectation of
    the per-state minimum of the two split sum rates, maximized over
    policies.  Never exceeds the jointly coded optimum.  When the
    interference enters at receiver 2 the users swap roles as in
    hk_optimize.
    """
    if channel_sidedness(process) is Sidedness.OneSidedAtRx2:
        value, alloc = separable_one_sided_baseline(
            process.swap_users(), _swapped_budget(budget)
        )
        return value, _swapped_allocation(alloc)
    _require_receiver1_sided(process)
    g11, g12, _, g22 = process.gain_arrays
    p = process.prob_array
    n = process.n_states
    strong = g12 >= g22
    alpha = np.where(strong, 0.0, 1.0)
    zero = np.zeros(n)
    ga = g12 * alpha
    s1_rows = [(1.0, g11, ga), (-1.0, zero, ga), (1.0, zero, g22)]
    s2_rows = [(1.0, zero, g22 * alpha), (1.0, g11, g12), (-1.0, zero, ga)]
    objective = PerStateMinRate(p, [s1_rows, s2_rows])

    def branch_row(rows):
        rate = RateObjective(p, rows)

        def fun(z):
            return rate.branch_values(z[:n], z[n : 2 * n])[0] - z[2 * n :]

        def jac(z):
            g1, g2 = rate.gradient(z[:n], z[n : 2 * n])
            return np.hstack([np.diag(g1 / p), np.diag(g2 / p), -np.eye(n)])

        return {"type": "ineq", "fun": fun, "jac": jac}

    # Per-state epigraph SLSQP over (P1, P2, t): maximize E[t_h] with each
    # t_h under every branch rate of its state.
    rows = [branch_row(s1_rows), branch_row(s2_rows)]
    grad = np.concatenate([np.zeros(2 * n), -p])

    def polish(x1, x2):
        t0 = objective.branch_values(x1, x2).min(axis=0)
        out = _slsqp_polish(
            p, budget.p1_bar, budget.p2_bar, lambda z: -float(p @ z[2 * n :]),
            lambda z: grad, (x1, x2), rows, extra0=t0, extra_bounds=[(None, None)] * n,
        )
        return None if out is None else out[:2]

    vals, points = _multistart_ascent(process, budget, [objective])
    i = int(np.argmax(vals))
    best = (float(vals[i]), *points[:, i])
    if n <= 64:
        out = polish(best[1], best[2])
        if out is not None and objective.value(*out) > best[0]:
            best = (objective.value(*out), *out)
    if n <= 3:
        grid_v, (gx1, gx2) = _face_grid(
            [(p, budget.p1_bar, 25), (p, budget.p2_bar, 25)], objective.value, floor=9
        )
        if grid_v > best[0]:
            out = polish(gx1, gx2)
            if out is not None and objective.value(*out) > grid_v:
                best = (objective.value(*out), *out)
            else:
                best = (grid_v, gx1, gx2)
    policy = PowerPolicy.from_arrays(best[1], best[2])
    return best[0], HkAllocation(policy, tuple(alpha))


def tdm_baseline(process: FadingProcess, budget: PowerBudget) -> float:
    """Time-duplexing sum rate: each user active half the time at 2x power."""
    g11, _, _, g22 = process.gain_arrays
    p = process.prob_array
    return 0.5 * (
        _erate(p, g11 * 2.0 * budget.p1_bar) + _erate(p, g22 * 2.0 * budget.p2_bar)
    )
