"""Constrained power optimization over discrete fading processes.

Three layers.  At the bottom, exact single-user waterfilling with the
water level found by sorting, the same exact shift that projects onto
the budget set.  Above it, two-user opportunistic waterfilling of the
sum rate at one receiver, solved through its Lagrangian dual: one
bisection over the ratio of the two budget multipliers, one exact
waterfill per step, and a block-coordinate polish.  At the top, a
projected-supergradient maximizer for minima of concave fading-averaged
rate objectives, with a sequential-quadratic polish.  Any candidate
policy can be audited by its KKT residual and, for objectives whose
per-state Lagrangian maximum is closed form, by a weak-duality upper
bound at its KKT multipliers.

Every rate objective is one RateObjective: coefficient tensors for a
fading-averaged minimum over branches of weighted log terms, evaluated
for one policy or a batch.  Every ascent in the package, here and in
the non-concave searches of ``ifc``, is one loop (_ascend) that runs
all its starts as rows of one array.

Rates are bits per channel use.  Budgets are long-run averages: a
policy is feasible when E[P_k] <= budget_k + POWER_TOL and every
per-state power is nonnegative.  States where a user's gain is zero
never receive power from that user.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy import optimize as sciopt

from .channel import (
    POWER_TOL,
    ConvergenceError,
    FadingProcess,
    PowerBudget,
    PowerPolicy,
    PreconditionError,
)

LN2 = math.log(2.0)

# Powers below this are treated as inactive in stationarity checks.
ACTIVE_TOL = 1e-9


def _erate(p: np.ndarray, x: np.ndarray) -> float:
    """Fading-averaged rate E[log2(1 + x)] in bits."""
    return float(p @ np.log2(1.0 + x))


@dataclass(frozen=True)
class WaterfillResult:
    """Outcome of single-user waterfilling.

    The policy stores the computed powers in user 1's column (the op is
    agnostic about which physical user the gains belong to); callers
    recombine columns as needed via ``powers``.
    """

    policy: PowerPolicy
    water_level: float
    achieved_rate: float

    @property
    def powers(self) -> np.ndarray:
        return self.policy.arrays[0]


@dataclass(frozen=True)
class OptimizerReport:
    """A policy, its objective value in bits, and optimality evidence.

    ``iterations`` counts the solver's main steps: ascent steps for
    maximize_min_concave, 0 when the polish from its start already meets
    tol and no ascent ran; for mac_opportunistic_waterfill, the ratio
    bisection steps plus the polish rounds when both users transmit,
    1 when one user waterfills alone and 0 when both are silent.
    ``converged`` means ``kkt_residual`` is at most the caller's tol.
    """

    policy: PowerPolicy
    value: float
    iterations: int
    kkt_residual: float
    converged: bool


def _capped_shift(y: np.ndarray, p: np.ndarray):
    """The shift theta with p @ (y - theta)+ = cap, as a function of cap.

    Exact by sorting (Duchi et al. 2008, Condat 2016): with a row sorted
    in descending order the support of (y - theta)+ is a prefix.  The
    candidate shift of each prefix rises with the prefix until the
    support is complete and falls after it, so theta is the largest
    candidate that stays at or below its own last entry.  The sort and
    the prefix sums of p and p*y are taken once, here; the returned
    shift(cap) does only O(n) arithmetic per row, so calling it at many
    caps gives the same floats as one call per cap.  Needs finite y of
    shape (..., n); shift takes cap > 0, a scalar or one cap per row.
    """
    ps = p[y.argsort(axis=-1)[..., ::-1]]
    ys = np.sort(y, axis=-1)[..., ::-1]
    cum_py = (ps * ys).cumsum(axis=-1)
    cum_p = ps.cumsum(axis=-1)

    def shift(cap) -> np.ndarray:
        t_cand = cum_py - np.asarray(cap)[..., None]
        t_cand /= cum_p
        admissible = t_cand <= ys
        # The one-entry prefix always qualifies in exact arithmetic, but a
        # cap far below the entries' spacing can round its candidate above
        # them.
        admissible[..., 0] = True
        t_cand[~admissible] = -np.inf
        return t_cand.max(axis=-1)

    return shift


# The smallest gain whose reciprocal is finite: 1/g overflows below it.
_MIN_GAIN = float(np.nextafter(1.0 / np.finfo(float).max, 1.0))
# The largest received power g * nu a waterfill may reach: a rate term
# adds 1 and at most three such powers, and the sum must stay finite.
_MAX_RECEIVED = float(np.finfo(float).max) / 4


def _prepare_waterfill(gains: np.ndarray, probs: np.ndarray):
    """Waterfilling of fixed gains at any budget: fill(budget) -> (powers, nu).

    Each row of powers is P = (nu - 1/g)+ with probs @ P = budget.
    gains is (n,) or (m, n), and every row has the same dead states:
    those whose gain is zero, or so small (below about 5.6e-309) that
    1/g overflows; they get zero power.  The water level nu (one per
    row) is minus the exact shift of -1/g over the live states
    (_capped_shift), whose sort is taken here, once; each fill is O(n).
    A budget <= 0 or a gain row with no live entry gives zero power at
    nu = 0.  A budget so large that some row's received power g * nu
    is not finite (or leaves no room to add rate terms) raises
    PreconditionError naming the budget.
    """
    g = np.asarray(gains, dtype=float)
    p = np.asarray(probs, dtype=float)
    live = (g >= _MIN_GAIN).reshape(-1, g.shape[-1]).all(axis=0)
    if live.any():
        # Only the live states enter the sort: an infinite 1/g would give
        # a -inf entry and break the prefix search.
        shift = _capped_shift(-1.0 / g[..., live], p[live])
        g_top = g[..., live].max(axis=-1)

    def fill(budget: float) -> tuple[np.ndarray, np.ndarray]:
        if not (budget > 0) or not live.any():
            return np.zeros_like(g), np.zeros(g.shape[:-1])
        # A prefix whose candidate shift overflows is never the one chosen
        # unless the level itself is out of range, which the check catches.
        with np.errstate(over="ignore"):
            nu = -shift(budget)
            top = nu * g_top
        if not (top <= _MAX_RECEIVED).all():
            raise PreconditionError(
                f"budget {budget:g} is too large to waterfill: the received power "
                f"g * nu reaches {top.max():g}, beyond what a rate can represent"
            )
        # 1/g is recomputed here rather than kept, so that only the sorted
        # prefix is held between fills.  Dead states stay at zero.
        powers = np.divide(1.0, g, out=np.zeros_like(g), where=live)
        np.subtract(nu[..., None], powers, out=powers, where=live)
        return np.maximum(powers, 0.0, out=powers), nu

    return fill


def _waterfill_powers(
    gains: np.ndarray, probs: np.ndarray, budget: float
) -> tuple[np.ndarray, np.ndarray]:
    """Waterfill each row of gains at one budget (_prepare_waterfill)."""
    return _prepare_waterfill(gains, probs)(budget)


def waterfill(gain_dist: Iterable[tuple[float, float]], budget: float) -> WaterfillResult:
    """Waterfill one user's power over a discrete gain distribution.

    ``gain_dist`` is a sequence of (gain, probability) pairs whose
    probabilities are positive and sum to 1 within 1e-6.  Returns the
    per-state powers P(g) = max(water_level - 1/g, 0), the water level,
    and the achieved rate E[log2(1 + g P(g))].
    """
    try:
        table = np.array(list(gain_dist), dtype=float)
    except (TypeError, ValueError) as exc:
        raise PreconditionError(
            "gain_dist must be a sequence of numeric (gain, probability) pairs"
        ) from exc
    if table.size == 0:
        raise PreconditionError("gain_dist must be non-empty")
    if table.ndim != 2 or table.shape[1] != 2:
        raise PreconditionError("gain_dist must be a sequence of (gain, probability) pairs")
    gains, probs = table.T.copy()
    if (gains < 0).any() or not np.isfinite(gains).all():
        raise PreconditionError("gains must be finite and >= 0")
    if (
        not np.isfinite(probs).all()
        or (probs <= 0).any()
        or abs(float(probs.sum()) - 1.0) > 1e-6
    ):
        raise PreconditionError(
            f"probabilities must be positive and sum to 1, got sum {probs.sum():g}"
        )
    probs = probs / probs.sum()
    if not (budget > 0):
        raise PreconditionError(f"budget must be > 0, got {budget!r}")
    if not (gains > 0).any():
        raise PreconditionError("all gains are zero")
    powers, nu = _waterfill_powers(gains, probs, budget)
    rate = float(probs @ np.log2(1.0 + gains * powers))
    policy = PowerPolicy.from_arrays(powers, np.zeros_like(powers))
    return WaterfillResult(policy=policy, water_level=float(nu), achieved_rate=rate)


class RateObjective:
    """Fading-averaged minimum over branches of weighted log rate terms.

    f(P) = E[min_k sum_r w_kr log2(1 + c_kr . P)], where P stacks the
    per-state powers (P1, P2, and any further power variable) and each
    coefficient c_kr,j is a per-state nonnegative vector (scalars
    broadcast).  The constructor builds the one-branch case, a plain
    weighted sum; PerStateMinRate builds several.  The terms are stored
    as tensors: ``weights`` of shape (branches, terms), and ``coef`` of
    shape (powers, branches, terms, n), so coef[j] holds the
    coefficients of power variable j; shorter branches are padded with
    zero terms.  Every method takes the power variables as arrays of
    shape (n,) or (m, n), the latter a batch of m policies.  Negative
    weights are allowed; whether the combination is concave is the
    caller's responsibility.
    """

    __slots__ = ("probs", "weights", "coef")

    def __init__(self, probs, terms: Sequence[tuple]):
        self._load(probs, [terms])

    def _load(self, probs, branches) -> None:
        self.probs = np.asarray(probs, dtype=float)
        n = self.probs.shape[0]
        branches = [list(branch) for branch in branches]
        width = max(len(branch) for branch in branches)
        self.weights = np.zeros((len(branches), width))
        self.coef = np.zeros((len(branches[0][0]) - 1, len(branches), width, n))
        for i, branch in enumerate(branches):
            for r, (w, *c) in enumerate(branch):
                self.weights[i, r] = w
                self.coef[:, i, r] = [np.broadcast_to(np.asarray(cj, dtype=float), (n,)) for cj in c]

    def _received(self, powers) -> np.ndarray:
        """c_kr . P per state, shape (..., branches, terms, n)."""
        return np.einsum("vkrn,v...n->...krn", self.coef, np.asarray(powers))

    def _rates(self, received: np.ndarray) -> np.ndarray:
        """Per-state branch rates in nats, shape (..., branches, n).

        The terms are added in their given order (einsum may not).
        """
        return (self.weights[:, :, None] * np.log1p(received)).sum(axis=-2)

    def _follow(self, received: np.ndarray, rates: np.ndarray) -> np.ndarray:
        """The gradient, shape (powers, ..., n), when each state follows the
        lowest-index branch that minimizes ``rates``."""
        follow = rates.argmin(axis=-2)[..., None, :] == np.arange(self.weights.shape[0])[:, None]
        scaled = self.weights[:, :, None] * follow[..., None, :] / (1.0 + received)
        return np.einsum("vkrn,...krn->v...n", self.coef, scaled) * (self.probs / LN2)

    def branch_values(self, *powers) -> np.ndarray:
        """Per-state branch rates in bits, shape (..., branches, n)."""
        return self._rates(self._received(powers)) / LN2

    def value(self, *powers):
        """f in bits: a float, or one value per batch row."""
        v = self.branch_values(*powers).min(axis=-2) @ self.probs
        return float(v) if v.ndim == 0 else v

    def gradient(self, *powers) -> tuple[np.ndarray, ...]:
        """A supergradient, one array per power variable.

        Each state follows its lowest-index minimizing branch.
        """
        received = self._received(powers)
        return tuple(self._follow(received, self._rates(received)))


def PerStateMinRate(probs, branches) -> RateObjective:
    """Expectation of a per-state minimum over branch rates.

    Each branch is a list of (weight, a, b) log terms as in
    RateObjective, and the minimum is taken inside the expectation:
    f(P1, P2) = E[min_i sum_r w_ir log2(1 + a_ir P1 + b_ir P2)].
    """
    objective = RateObjective.__new__(RateObjective)
    objective._load(probs, branches)
    return objective


def _project_capped(y: np.ndarray, p: np.ndarray, cap) -> np.ndarray:
    """Project each row of y onto {x >= 0, p.x <= cap} in the p-weighted metric.

    The projection is a constant downward shift followed by clipping:
    x = (y - theta)+.  The exact shift at which the budget binds
    (_capped_shift) is negative when the clipped point is within budget,
    so theta is that shift or zero, whichever is larger.  y is (..., n);
    cap is a scalar or one budget per row, and a row whose cap is not
    positive is silenced (its shift is meaningless but finite).
    """
    cap = np.asarray(cap, dtype=float)
    theta = np.maximum(_capped_shift(y, p)(cap), 0.0)
    return np.maximum(y - theta[..., None], 0.0) * (cap > 0)[..., None]


def _kkt_multiplier(p: np.ndarray, powers: np.ndarray, G: np.ndarray, slack: float) -> float:
    """One user's budget multiplier at a policy, from G = grad/p.

    Zero when the budget slack exceeds 1e-9; otherwise the
    probability-weighted least-squares fit of G over the active set, or
    max G when no state is active, clamped nonnegative.
    """
    if slack > 1e-9:
        return 0.0
    active = powers > ACTIVE_TOL
    if active.any():
        return max(0.0, float(p[active] @ G[active]) / float(p[active].sum()))
    return max(0.0, float(G.max()))


def kkt_multipliers(
    process: FadingProcess, policy: PowerPolicy, objective, budget: PowerBudget
) -> tuple[float, float]:
    """The two budget multipliers that kkt_residual audits a policy with."""
    p = process.prob_array
    grads = objective.gradient(*policy.arrays)
    caps = (budget.p1_bar, budget.p2_bar)
    return tuple(
        _kkt_multiplier(p, x, g / p, cap - float(p @ x))
        for x, g, cap in zip(policy.arrays, grads, caps)
    )


def kkt_residual(process: FadingProcess, policy: PowerPolicy, objective, budget: PowerBudget) -> float:
    """Stationarity and complementary-slackness violation of a policy.

    The residual is the max over both users of: |grad/p - lambda| on
    active coordinates, (grad/p - lambda)+ on inactive ones, budget
    overshoot, negativity, and lambda times any budget slack.  lambda
    is the probability-weighted least-squares multiplier over the
    active set (clamped nonnegative), or zero when the budget is slack.
    """
    p = process.prob_array
    p1, p2 = policy.arrays
    grad1, grad2 = objective.gradient(p1, p2)
    worst = 0.0
    for powers, grad, cap in ((p1, grad1, budget.p1_bar), (p2, grad2, budget.p2_bar)):
        G = grad / p
        slack = cap - float(p @ powers)
        active = powers > ACTIVE_TOL
        lam = _kkt_multiplier(p, powers, G, slack)
        if active.any():
            worst = max(worst, float(np.abs(G[active] - lam).max()))
        if (~active).any():
            worst = max(worst, float(np.maximum(G[~active] - lam, 0.0).max()))
        worst = max(worst, -slack, float(-powers.min()) if powers.size else 0.0)
        worst = max(worst, lam * max(slack, 0.0))
    return float(max(worst, 0.0))


def dual_bound(
    process: FadingProcess, objective: RateObjective, budget: PowerBudget, lam
) -> float | None:
    """Weak-duality upper bound on max f(P) over feasible policies, in bits.

    D(lam) = E[max_P f_h(P) - lam . P] + lam . b bounds every feasible
    value for any lam >= 0 (Yu & Lui 2006).  The per-state maximum is
    closed form when each user enters at most one log term, each with a
    positive weight w: the term spends its received power through the
    cheaper user, so with u = max(a/lam1, b/lam2) it contributes
    w phi(w u), phi(u) = log2(u/ln2) - 1/ln2 + 1/u for u > ln2 and 0
    otherwise.  Returns None when the form does not apply (several
    branches, a user in two terms, a nonpositive weight) or a zero
    (or vanishingly small) multiplier leaves a term unbounded.
    """
    if objective.weights.shape[0] != 1:
        return None
    p = process.prob_array
    lam1, lam2 = lam
    if ((objective.coef[:, 0] > 0).any(axis=-1).sum(axis=-1) > 1).any():
        return None
    acc = 0.0
    for w, a, b in zip(objective.weights[0], *objective.coef[:, 0]):
        if not w > 0:
            return None
        with np.errstate(divide="ignore", invalid="ignore"):
            u = w * np.maximum(
                np.where(a > 0, a / lam1, 0.0), np.where(b > 0, b / lam2, 0.0)
            )
        if not np.isfinite(u).all():
            return None
        live = u > LN2
        ul = u[live]
        acc += w * float(p[live] @ (np.log2(ul / LN2) - 1.0 / LN2 + 1.0 / ul))
    return float(acc + lam1 * budget.p1_bar + lam2 * budget.p2_bar)


def kkt_residual_bundle(
    process: FadingProcess, policy: PowerPolicy, objectives, budget: PowerBudget
) -> float:
    """KKT residual for max-min over several objectives.

    Objectives within 1e-6 (relative) of the minimum form the active
    bundle; stationarity must hold for some convex combination of their
    gradients.  The best combination is found by a small linear
    program minimizing the worst coordinate violation.
    """
    p = process.prob_array
    p1, p2 = policy.arrays
    vals = [obj.value(p1, p2) for obj in objectives]
    m = min(vals)
    bundle = [o for o, v in zip(objectives, vals) if v <= m + 1e-6 * (1.0 + abs(m))]
    if len(bundle) == 1:
        return kkt_residual(process, policy, bundle[0], budget)

    grads = [obj.gradient(p1, p2) for obj in bundle]
    k = len(bundle)
    n = p.shape[0]
    rows_ub = []
    rhs_ub = []
    extra = 0.0
    # Variables: theta_1..theta_k, lam1, lam2, t.
    for u, (powers, cap) in enumerate(((p1, budget.p1_bar), (p2, budget.p2_bar))):
        G = np.stack([g[u] / p for g in grads], axis=0)
        spend = float(p @ powers)
        lam_col = k + u
        active = powers > ACTIVE_TOL
        for h in range(n):
            row = np.zeros(k + 3)
            row[:k] = G[:, h]
            row[lam_col] = -1.0
            row[-1] = -1.0
            rows_ub.append(row.copy())
            rhs_ub.append(0.0)
            if active[h]:
                neg = -row
                neg[-1] = -1.0
                rows_ub.append(neg)
                rhs_ub.append(0.0)
        extra = max(extra, spend - cap, float(-powers.min()) if powers.size else 0.0)
    bounds = [(0.0, 1.0)] * k
    for u, (powers, cap) in enumerate(((p1, budget.p1_bar), (p2, budget.p2_bar))):
        spend = float(p @ powers)
        if cap - spend > 1e-9:
            bounds.append((0.0, 0.0))
        else:
            bounds.append((0.0, None))
    bounds.append((0.0, None))
    c = np.zeros(k + 3)
    c[-1] = 1.0
    a_eq = np.zeros((1, k + 3))
    a_eq[0, :k] = 1.0
    res = sciopt.linprog(
        c,
        A_ub=np.array(rows_ub),
        b_ub=np.array(rhs_ub),
        A_eq=a_eq,
        b_eq=np.array([1.0]),
        bounds=bounds,
        method="highs",
    )
    if res.status == 0:
        return float(max(res.fun, extra, 0.0))
    return float(max(min(kkt_residual(process, policy, o, budget) for o in bundle), extra))


def _slsqp_polish(p, b1, b2, fun, jac, powers, rows=(), extra0=(), extra_bounds=(),
                  maxiter=300, held=None):
    """Minimize fun over z = (power blocks, extra) with SLSQP, from (powers, extra0).

    ``powers`` is a sequence of per-state power blocks of shape (n,):
    the first is user 1's power and every later one a part of user 2's,
    so the budget rows are E[block 1] <= b1 and E[sum of the rest] <= b2.
    The caller's inequality rows come first, then the two budget rows;
    the powers are bounded below by zero, and held at zero where the
    optional boolean mask ``held`` (one row per block) is set; the extra
    variables are bounded by ``extra_bounds``.  Returns (blocks...,
    extra) with the powers repaired to strict feasibility (clipped at
    zero, then each user's blocks scaled down together onto its budget,
    or zeroed when the budget is not positive), or None when SLSQP
    raises on the problem.
    """
    n = p.shape[0]
    k = len(powers)
    z0 = np.concatenate([*powers, extra0])
    # Each user's coordinates in z, with their probabilities.
    users = [(slice(lo * n, hi * n), np.tile(p, hi - lo), cap)
             for lo, hi, cap in ((0, 1, b1), (1, k, b2))]
    cons = list(rows)
    for span, w, cap in users:
        grad = np.zeros(z0.shape[0])
        grad[span] = -w

        def val(z, span=span, w=w, cap=cap):
            return cap - float(w @ z[span])

        cons.append({"type": "ineq", "fun": val, "jac": lambda z, grad=grad: grad})
    bounds = [(0.0, None)] * (k * n) + list(extra_bounds)
    if held is not None:
        for i in np.flatnonzero(held):
            bounds[i] = (0.0, 0.0)
    try:
        res = sciopt.minimize(
            fun,
            z0,
            jac=jac,
            bounds=bounds,
            constraints=cons,
            method="SLSQP",
            options={"ftol": 1e-12, "maxiter": maxiter},
        )
    except (ValueError, OverflowError):
        return None
    x = np.maximum(res.x[: k * n], 0.0)
    for span, w, cap in users:
        spend = float(w @ x[span])
        if spend > cap > 0:
            x[span] *= cap / spend
        elif spend > cap:
            x[span] = 0.0
    return (*x.reshape(k, n), res.x[k * n :])


def _epigraph_polish(p, objectives, b1, b2, *powers, maxiter=300, held=None):
    """SLSQP on the epigraph form: maximize t s.t. every objective >= t.

    Variables are the power blocks, as _slsqp_polish takes them (user 1,
    then one or more parts of user 2; ``held`` pins coordinates at
    zero), and t.  Returns the feasible power blocks, or None when the
    solver fails.
    """
    n = p.shape[0]
    k = len(powers)
    rows = []
    for obj in objectives:

        def val(z, obj=obj):
            return obj.value(*z[: k * n].reshape(k, n)) - z[-1]

        def jac(z, obj=obj):
            return np.concatenate([*obj.gradient(*z[: k * n].reshape(k, n)), [-1.0]])

        rows.append({"type": "ineq", "fun": val, "jac": jac})
    grad = np.zeros(k * n + 1)
    grad[-1] = -1.0
    t0 = min(o.value(*powers) for o in objectives)
    out = _slsqp_polish(
        p, b1, b2, lambda z: -z[-1], lambda z: grad, powers, rows,
        extra0=[t0], extra_bounds=[(None, None)], maxiter=maxiter, held=held,
    )
    return None if out is None else out[:-1]


def _ascend(objectives, x, project, p: np.ndarray, budget: PowerBudget,
            steps: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Projected supergradient ascent on min(objectives), one row per start.

    x is (powers, starts, n): one array of start rows per power
    variable; project maps such an array onto the feasible set row by
    row.  Each step moves every row along the gradient of its own
    minimizing objective, scaled by 1/p (the p-weighted metric), with
    step c/sqrt(t), c the larger budget (at least 1e-3).  Iterates are
    averaged over doubling windows, and each row keeps the best point
    among its raw iterates and window averages.  Returns the best values
    (starts,), the best points (powers, starts, n) and the number of
    steps taken.
    """
    # All objectives' branches side by side in one tensor, so that one
    # evaluation serves every objective and every row.
    sizes = [o.weights.shape[0] for o in objectives]
    fused = PerStateMinRate(p, [
        [(w, *c) for w, *c in zip(o.weights[k], *o.coef[:, k])]
        for o, size in zip(objectives, sizes) for k in range(size)
    ])
    first = np.cumsum([0] + sizes[:-1])
    owner = np.repeat(np.arange(len(objectives)), sizes)

    def evaluate(z):
        received = fused._received(z)
        rates = fused._rates(received)
        return received, rates, (np.minimum.reduceat(rates, first, axis=-2) @ p) / LN2

    scale = max(budget.p1_bar, budget.p2_bar, 1e-3)
    x = project(np.asarray(x, dtype=float))
    best_v = np.full(x.shape[1], -np.inf)
    best = x.copy()

    def keep(z, vals) -> None:
        v = vals.min(axis=1)
        better = v > best_v
        np.copyto(best_v, v, where=better)
        np.copyto(best, z, where=better[:, None])

    avg = x.copy()
    window_start = 1
    next_check = 16
    for t in range(1, steps + 1):
        received, rates, vals = evaluate(x)
        keep(x, vals)
        # Each row follows the branches of its own minimizing objective.
        mine = owner == vals.argmin(axis=1)[:, None]
        g = fused._follow(received, np.where(mine[:, :, None], rates, np.inf))
        x = project(x + (scale / math.sqrt(t)) * g / p)
        avg += (x - avg) / (t - window_start + 1)
        if t == next_check:
            keep(avg, evaluate(avg)[2])
            if t >= 4 * window_start:
                window_start = t
                avg = x.copy()
            next_check *= 2
    return best_v, best, steps


def maximize_min_concave(
    process: FadingProcess,
    objectives,
    budget: PowerBudget,
    tol: float = 1e-6,
    *,
    max_iters: int = 50000,
) -> OptimizerReport:
    """Maximize min_i f_i(P) over feasible policies, f_i concave.

    Starts from the uniform policy at full budget.  For n <= 400 states
    an epigraph SLSQP polish runs from there first, and its point is
    returned, after no ascent step, when its bundle KKT residual
    (kkt_residual_bundle) is at most tol.  Otherwise projected
    supergradient ascent (_ascend) runs from the same start for
    max_iters steps, followed by the same polish from its best point
    (n <= 400).  Concavity of each objective is the caller's
    responsibility.
    """
    if tol <= 0:
        raise ValueError(f"tol must be > 0, got {tol!r}")
    objs = list(objectives)
    if not objs:
        raise ValueError("objectives must be non-empty")
    p = process.prob_array
    n = process.n_states
    b1, b2 = budget.p1_bar, budget.p2_bar
    start = np.array([[np.full(n, b1)], [np.full(n, b2)]])

    def report(x1, x2, value, iterations):
        policy = PowerPolicy.from_arrays(x1, x2)
        residual = kkt_residual_bundle(process, policy, objs, budget)
        return OptimizerReport(policy, value, iterations, residual, bool(residual <= tol))

    if n <= 400:
        out = _epigraph_polish(p, objs, b1, b2, start[0, 0], start[1, 0])
        if out is not None:
            rep = report(*out, min(o.value(*out) for o in objs), 0)
            if rep.converged:
                return rep
    caps = np.array([[b1], [b2]])
    vals, points, iterations = _ascend(
        objs, start, lambda x: _project_capped(x, p, caps), p, budget, max(max_iters, 1)
    )
    best_val = float(vals[0])
    best = tuple(points[:, 0])
    if n <= 400:
        out = _epigraph_polish(p, objs, b1, b2, best[0], best[1])
        if out is not None:
            v = min(o.value(*out) for o in objs)
            if v > best_val:
                best_val = v
                best = out
    return report(best[0], best[1], best_val, iterations)


def mac_opportunistic_waterfill(
    process: FadingProcess, receiver: int, budget: PowerBudget, tol: float = 1e-6
) -> OptimizerReport:
    """Maximize the ergodic sum rate at one receiver of a two-user MAC.

    Solves max E[log2(1 + g_1 P1 + g_2 P2)] s.t. E[P_k] <= budget_k
    through its Lagrangian dual (Tse & Hanly 1998).  At multipliers
    (lambda1, lambda2) each state is served by the user with the larger
    g_k/lambda_k alone, so only the ratio rho = lambda1/lambda2 picks
    the winners, and for a fixed rho one exact waterfill on
    max(g_1, rho g_2) with budget b1 + b2/rho gives both users' powers.
    A geometric bisection over rho meets user 1's budget; the received
    power of states tied at g_1 = rho g_2 is split so user 1's budget
    binds exactly.  A block-coordinate waterfilling polish follows and
    stops at the first round that no longer raises the objective; it
    keeps feasibility and never lowers the objective.
    """
    if receiver not in (1, 2):
        raise ValueError(f"receiver must be 1 or 2, got {receiver!r}")
    g11, g12, g21, g22 = process.gain_arrays
    ga, gb = (g11, g12) if receiver == 1 else (g21, g22)
    p = process.prob_array
    if not (ga > 0).any() and not (gb > 0).any():
        raise PreconditionError(
            f"receiver {receiver} sees zero gain from both transmitters in every state"
        )
    b1, b2 = budget.p1_bar, budget.p2_bar
    active1 = b1 > 0 and bool((ga > 0).any())
    active2 = b2 > 0 and bool((gb > 0).any())
    objective = RateObjective(p, [(1.0, ga, gb)])

    def report(p1, p2, iters):
        pol = PowerPolicy.from_arrays(p1, p2)
        val = objective.value(p1, p2)
        res = kkt_residual(process, pol, objective, budget)
        return OptimizerReport(pol, val, iters, res, bool(res <= tol))

    if not (active1 and active2):
        # At most one user transmits: one exact waterfill, or none.
        x1, _ = _waterfill_powers(ga, p, b1)
        x2, _ = _waterfill_powers(gb, p, b2)
        return report(x1, x2, int(active1 or active2))

    # q is the winner's power in user-1 units: user 2 spends rho*q.  User
    # 1's spending falls as rho rises, so the bisection keeps its sign.
    def winner_powers(rho):
        h = np.maximum(ga, rho * gb)
        q, _ = _waterfill_powers(h, p, b1 + b2 / rho)
        return h, q, ga >= rho * gb

    lo, hi = 1e-30, 1e30
    steps = 0
    mid = math.sqrt(lo * hi)
    while lo < mid < hi:
        steps += 1
        _, q, one_wins = winner_powers(mid)
        if float(p @ np.where(one_wins, q, 0.0)) > b1:
            lo = mid
        else:
            hi = mid
        mid = math.sqrt(lo * hi)
    rho = hi
    h, q, one_wins = winner_powers(rho)
    p1_cur = np.where(one_wins, q, 0.0)
    p2_cur = np.where(one_wins, 0.0, rho * q)

    # Split the received level of tied states so user 1's average power
    # meets its budget exactly (linear in the fraction).
    tie = (q > 0) & (ga > 0) & (gb > 0) & (np.abs(ga - rho * gb) <= 1e-7 * h)
    if tie.any():
        level = h * q
        fixed = float(p[~tie] @ p1_cur[~tie])
        tie_spend = float(p[tie] @ (level[tie] / ga[tie]))
        frac = min(max((b1 - fixed) / tie_spend, 0.0), 1.0) if tie_spend > 0 else 0.0
        p1_cur[tie] = frac * level[tie] / ga[tie]
        p2_cur[tie] = (1.0 - frac) * level[tie] / gb[tie]

    # Block-coordinate polish: each user waterfills on its gain scaled
    # down by the other's received power.  Each half-step is an exact
    # block maximum, so the objective ascends and budgets bind exactly;
    # the polish stops once a round no longer raises it.
    value = objective.value(p1_cur, p2_cur)
    rounds = 0
    for rounds in range(1, 401):
        eff1 = np.where(ga > 0, ga / (1.0 + gb * p2_cur), 0.0)
        p1_cur, _ = _waterfill_powers(eff1, p, b1)
        eff2 = np.where(gb > 0, gb / (1.0 + ga * p1_cur), 0.0)
        p2_cur, _ = _waterfill_powers(eff2, p, b2)
        last, value = value, objective.value(p1_cur, p2_cur)
        if value <= last + 1e-15 * (1.0 + abs(last)):
            break
    return report(p1_cur, p2_cur, steps + rounds)
