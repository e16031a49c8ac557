"""Independent reference implementations used to cross-check the optimizers.

Everything here is deliberately dumb: dense grids and central finite
differences, no reuse of the library's search code beyond pure rate
evaluation.  Agreement between these oracles and the fast paths is the
evidence the fast paths are right.
"""

import numpy as np
from scipy import optimize as sciopt

from fading_ifc.channel import (
    FadingProcess,
    PowerBudget,
    PowerPolicy,
    make_discrete_channel,
)

LN2 = float(np.log(2.0))


def channel(states, probs=None) -> FadingProcess:
    """Build a process from (g11, g12, g21, g22) tuples, equiprobable by default."""
    states = list(states)
    if probs is None:
        probs = [1.0 / len(states)] * len(states)
    return make_discrete_channel(zip(states, probs))


def _face_axis(b: float, step: float, center=None, halfwidth=None) -> np.ndarray:
    """Grid of first-state powers x_a with (x_a + x_b)/2 = b, x_a, x_b >= 0.

    Optionally restricted to a window around a previous incumbent.
    """
    lo, hi = 0.0, 2.0 * b
    if center is not None:
        lo = max(lo, center - halfwidth)
        hi = min(hi, center + halfwidth)
    axis = np.arange(lo, hi + 0.5 * step, step)
    return np.minimum(axis, hi)


def brute_face_sum_capacity(process: FadingProcess, budget: PowerBudget, step: float = 0.01) -> float:
    """Exhaustive fixed-policy sum rate over a per-state power grid.

    Every rate cap E[log2(1 + a P1 + b P2)] is nondecreasing in each
    power coordinate, so the max of their min is attained where both
    users spend their full average budget; each face power then stays
    within twice the budget automatically.  On that face each cap is
    concave in the two free coordinates, hence so is their min, so the
    coarse argmax brackets the true peak and two shrinking window
    passes (step/10, step/100) remove the discretization error.
    """
    g11, g12, g21, g22 = process.gain_arrays
    p = process.prob_array
    n = process.n_states
    if n == 1:
        X1 = np.array([[budget.p1_bar]])
        X2 = np.array([[budget.p2_bar]])
        return _face_best(p, (g11, g12, g21, g22), X1, X2)[0]
    if n != 2 or not np.allclose(p, 0.5):
        raise NotImplementedError("oracle handles 1-state or 2-state equiprobable only")

    c1 = c2 = None
    best = -np.inf
    for k in range(3):
        s = step / 10.0**k
        w = None if k == 0 else 1.5 * (step / 10.0 ** (k - 1))
        a1 = _face_axis(budget.p1_bar, s, c1, w)
        a2 = _face_axis(budget.p2_bar, s, c2, w)
        X1 = np.column_stack([a1, 2.0 * budget.p1_bar - a1])
        X2 = np.column_stack([a2, 2.0 * budget.p2_bar - a2])
        value, i, j = _face_best(p, (g11, g12, g21, g22), X1, X2)
        best = max(best, value)
        c1, c2 = float(a1[i]), float(a2[j])
    return best


def _face_best(p, gains, X1, X2):
    """Max of the fixed-policy sum rate over the cartesian power grid."""
    g11, g12, g21, g22 = gains
    n = p.shape[0]

    def pooled(ga, gb):
        acc = 0.0
        for h in range(n):
            acc = acc + p[h] * np.log1p(ga[h] * X1[:, h, None] + gb[h] * X2[None, :, h])
        return acc / LN2

    def solo(gv, X):
        acc = 0.0
        for h in range(n):
            acc = acc + p[h] * np.log1p(gv[h] * X[:, h])
        return acc / LN2

    r1 = np.minimum(solo(g11, X1), solo(g21, X1))
    r2 = np.minimum(solo(g12, X2), solo(g22, X2))
    value = np.minimum(np.minimum(pooled(g11, g12), pooled(g21, g22)), r1[:, None] + r2[None, :])
    flat = int(value.argmax())
    i, j = np.unravel_index(flat, value.shape)
    return float(value[i, j]), int(i), int(j)


def waterfill_bisect(gains, probs, budget: float, iters: int = 200) -> np.ndarray:
    """Waterfilling powers (nu - 1/g)+ with nu bisected until probs @ P = budget."""
    g = np.asarray(gains, dtype=float)
    p = np.asarray(probs, dtype=float)
    inv = np.full_like(g, np.inf)
    inv[g > 0] = 1.0 / g[g > 0]
    lo, hi = 0.0, budget / float(p[g > 0].sum()) + float(inv[g > 0].max())
    for _ in range(iters):
        nu = 0.5 * (lo + hi)
        if float(p @ np.maximum(nu - inv, 0.0)) > budget:
            hi = nu
        else:
            lo = nu
    return np.maximum(0.5 * (lo + hi) - inv, 0.0)


def mac_iterative_waterfill(process: FadingProcess, receiver: int, budget: PowerBudget,
                            max_rounds: int = 20000) -> tuple[float, np.ndarray, np.ndarray]:
    """Sum-rate MAC optimum by iterative waterfilling (Yu et al. 2004).

    Each user in turn waterfills (by bisection) against the other's
    received power as noise, until a round no longer raises the sum
    rate E[log2(1 + g_1 P1 + g_2 P2)].  Returns (value, P1, P2).
    """
    g11, g12, g21, g22 = process.gain_arrays
    ga, gb = (g11, g12) if receiver == 1 else (g21, g22)
    p = process.prob_array

    def value(x1, x2):
        return float(p @ np.log2(1.0 + ga * x1 + gb * x2))

    def solo(g, noise, cap):
        if cap <= 0 or not (g > 0).any():
            return np.zeros_like(g)
        return waterfill_bisect(g / noise, p, cap)

    x1 = np.zeros_like(p)
    x2 = np.zeros_like(p)
    best = value(x1, x2)
    for _ in range(max_rounds):
        x1 = solo(ga, 1.0 + gb * x2, budget.p1_bar)
        x2 = solo(gb, 1.0 + ga * x1, budget.p2_bar)
        last, best = best, value(x1, x2)
        if best <= last + 1e-16:
            break
    return best, x1, x2


def face_grid_max(objective, budget: PowerBudget, points: int = 61) -> float:
    """Max of a one-branch RateObjective over a full-budget face grid, 1-2 states.

    Each state's power follows from the first state's power and the
    budget; a nonnegative-coefficient objective is nondecreasing in
    every power, so its maximum lies on that face.
    """
    p = objective.probs
    if p.shape[0] == 1:
        X1 = np.array([[budget.p1_bar]])
        X2 = np.array([[budget.p2_bar]])
    elif p.shape[0] == 2:
        axes = []
        for cap in (budget.p1_bar, budget.p2_bar):
            t = np.linspace(0.0, cap / p[0], points)
            axes.append(np.column_stack([t, np.maximum(cap - p[0] * t, 0.0) / p[1]]))
        X1, X2 = axes
    else:
        raise NotImplementedError("face grid handles 1 or 2 states only")
    acc = 0.0
    for w, a, b in zip(objective.weights[0], *objective.coef[:, 0]):
        acc = acc + w * (np.log1p(a * X1[:, None, :] + b * X2[None, :, :]) @ p)
    return float(acc.max()) / LN2


def capped_projection_qp(y, probs, cap: float, held=None):
    """Projection onto {x >= 0, x = 0 where held, probs @ x <= cap}.

    Solves the quadratic program min sum_h p_h (x_h - y_h)^2 by SLSQP
    from the origin: the p-weighted metric in which the ascent steps
    grad/p are taken.
    """
    y, p = np.asarray(y, dtype=float), np.asarray(probs, dtype=float)
    held = np.zeros(y.shape, bool) if held is None else np.asarray(held)

    def fun(z):
        return float(p @ (z - y) ** 2)

    def jac(z):
        return 2.0 * p * (z - y)

    cons = [{"type": "ineq", "fun": lambda z: cap - float(p @ z), "jac": lambda z: -p}]
    bounds = [(0.0, 0.0) if h else (0.0, None) for h in held]
    res = sciopt.minimize(fun, np.zeros(y.size), jac=jac, bounds=bounds, constraints=cons,
                          method="SLSQP", options={"ftol": 1e-15, "maxiter": 1000})
    return res.x


def central_diff_gradient(fn, x1: np.ndarray, x2: np.ndarray, h: float = 1e-6):
    """Central finite differences of fn(x1, x2) in every power coordinate."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    g1 = np.zeros_like(x1)
    g2 = np.zeros_like(x2)
    for i in range(x1.size):
        e = np.zeros_like(x1)
        e[i] = h
        g1[i] = (fn(x1 + e, x2) - fn(x1 - e, x2)) / (2.0 * h)
        g2[i] = (fn(x1, x2 + e) - fn(x1, x2 - e)) / (2.0 * h)
    return g1, g2


def random_feasible_policy(rng: np.random.Generator, process: FadingProcess, budget: PowerBudget) -> PowerPolicy:
    """Draw a nonnegative policy whose average powers respect the budget."""
    p = process.prob_array
    cols = []
    for cap in (budget.p1_bar, budget.p2_bar):
        shape = rng.uniform(0.0, 1.0, size=process.n_states)
        spend = float(p @ shape)
        scale = rng.uniform(0.0, 1.0) * cap / spend if spend > 0 else 0.0
        cols.append(shape * scale)
    return PowerPolicy.from_arrays(cols[0], cols[1])


def random_two_state_channel(rng: np.random.Generator):
    """Criterion-style random instance: gains U[0.1, 5], budgets U[0.5, 2]."""
    gains = rng.uniform(0.1, 5.0, size=(2, 4))
    budget = PowerBudget(*rng.uniform(0.5, 2.0, size=2))
    return channel([tuple(row) for row in gains]), budget
