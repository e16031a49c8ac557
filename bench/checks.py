"""Output checks computed apart from the program.

Nothing here imports ``fading_ifc``: every number the CLI prints is
re-derived from the channel arrays the benchmark generated, with the
harness's own sort-based waterfill, its own very-strong test, the rate
formula of each scheme written out again, and a dense budget-face grid
for channels with one or two states.  Larger channels get a lower bound
instead: the rate at a policy the harness finds itself, by iterative
waterfilling or SLSQP, which a reported optimum may not fall below.

Each check returns a list of problems.  A problem is a string that
starts with the check class it belongs to (``closed_form:``,
``feasible:`` ...), so a test can corrupt one output and ask whether the
matching class reports it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

# CSV cells carry 6 significant digits; a value re-evaluated at a rounded
# policy moves by a few 1e-6 bits.  A corruption of 1e-2 bits is far outside.
TOL = 1e-4
# A refined face grid lands within this many bits of the true maximum.
GRID_TOL = 1e-3
# Relative slack on a budget for policy cells rounded to 6 digits.
BUDGET_RTOL = 1e-5
# Refinement passes of the face grid.
GRID_PASSES = 4
# The very-strong bisection over symmetric budgets, as the CLI's
# ``_PBAR_FLOOR``, ``_PBAR_CAP`` and ``_PBAR_RES``.
PBAR_FLOOR, PBAR_CAP, PBAR_RES = 0.01, 100.0, 1e-3
# Channels up to this many states get the harness's SLSQP lower bound.
SLSQP_MAX_STATES = 64

@dataclass(frozen=True)
class Chan:
    """Gains (n,), probabilities (n,) and the two budgets of one channel."""

    g11: np.ndarray
    g12: np.ndarray
    g21: np.ndarray
    g22: np.ndarray
    p: np.ndarray
    b1: float
    b2: float

    @property
    def n(self) -> int:
        return self.p.shape[0]

    def swapped(self) -> "Chan":
        return Chan(self.g22, self.g21, self.g12, self.g11, self.p, self.b2, self.b1)

    def with_budget(self, b1: float, b2: float) -> "Chan":
        return Chan(self.g11, self.g12, self.g21, self.g22, self.p, b1, b2)

    def to_doc(self) -> dict:
        return {
            "states": [
                {"g11": float(a), "g12": float(b), "g21": float(c), "g22": float(d), "p": float(q)}
                for a, b, c, d, q in zip(self.g11, self.g12, self.g21, self.g22, self.p)
            ],
            "budget": {"p1": float(self.b1), "p2": float(self.b2)},
        }


def make_chan(states, b1: float, b2: float) -> Chan:
    """``states`` is a list of (g11, g12, g21, g22, prob)."""
    a = np.array(states, dtype=float).reshape(-1, 5)
    p = a[:, 4] / a[:, 4].sum()
    return Chan(a[:, 0], a[:, 1], a[:, 2], a[:, 3], p, float(b1), float(b2))


# ---------------------------------------------------------------- formulas


def cap(x):
    return np.log2(1.0 + x)


def E(p, x):
    """Expectation over states; x has states on its last axis."""
    return np.asarray(x) @ p


def waterfill(g: np.ndarray, p: np.ndarray, budget: float) -> np.ndarray:
    """Exact waterfill by sorting: powers (nu - 1/g)+ with E[P] = budget."""
    out = np.zeros_like(g, dtype=float)
    live = np.flatnonzero(g > 0)
    if budget <= 0 or live.size == 0:
        return out
    inv = 1.0 / g[live]
    order = np.argsort(inv, kind="stable")
    inv_s, p_s = inv[order], p[live][order]
    levels = (budget + np.cumsum(p_s * inv_s)) / np.cumsum(p_s)
    nu = levels[np.flatnonzero(levels > inv_s).max()]
    out[live] = np.maximum(nu - inv, 0.0)
    return out


def solo_rates(ch: Chan) -> tuple[float, float, np.ndarray, np.ndarray]:
    x1 = waterfill(ch.g11, ch.p, ch.b1)
    x2 = waterfill(ch.g22, ch.p, ch.b2)
    return float(E(ch.p, cap(ch.g11 * x1))), float(E(ch.p, cap(ch.g22 * x2))), x1, x2


def outer(ch: Chan) -> float:
    r1, r2, _, _ = solo_rates(ch)
    return r1 + r2


def tdm(ch: Chan) -> float:
    return 0.5 * float(E(ch.p, cap(2 * ch.b1 * ch.g11)) + E(ch.p, cap(2 * ch.b2 * ch.g22)))


def very_strong(ch: Chan) -> bool:
    """Averaged very-strong test at the single-link waterfilling policies."""
    r1, r2, x1, x2 = solo_rates(ch)
    bounds = []
    if (ch.g12 > 0).any():
        bounds.append(float(E(ch.p, cap(ch.g11 * x1 + ch.g12 * x2))))
    if (ch.g21 > 0).any():
        bounds.append(float(E(ch.p, cap(ch.g21 * x1 + ch.g22 * x2))))
    return r1 + r2 < (min(bounds) if bounds else np.inf)


def pbar_max(ch: Chan) -> float:
    """Largest symmetric budget keeping the very-strong test true (bisection)."""

    def holds(b):
        return very_strong(ch.with_budget(b, b))

    if not holds(PBAR_FLOOR):
        return 0.0
    if holds(PBAR_CAP):
        return PBAR_CAP
    lo, hi = PBAR_FLOOR, PBAR_CAP
    while hi - lo > PBAR_RES:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if holds(mid) else (lo, mid)
    return lo


def sidedness(ch: Chan) -> str:
    rx2_clean, rx1_clean = bool((ch.g21 == 0).all()), bool((ch.g12 == 0).all())
    if rx2_clean and not rx1_clean:
        return "rx1"
    if rx1_clean and not rx2_clean:
        return "rx2"
    return "two"


def subclass(ch: Chan) -> str:
    """The channel-level taxonomy, written from its definition."""
    side = sidedness(ch)
    evs = very_strong(ch)
    if side != "two":
        if evs:
            return "OneSidedEVS"
        cross, direct = (ch.g12, ch.g22) if side == "rx1" else (ch.g21, ch.g11)
        if (cross >= direct).all():
            return "OneSidedUS"
        if (cross < direct).all():
            return "OneSidedUW"
        return "OneSidedHybrid"
    if evs:
        return "EVS"
    strong = (ch.g21 >= ch.g11) & (ch.g12 >= ch.g22) & (ch.g12 > 0) & (ch.g21 > 0)
    weak = (ch.g21 < ch.g11) & (ch.g12 < ch.g22) & (ch.g12 > 0) & (ch.g21 > 0)
    if strong.all():
        return "US"
    if weak.all():
        return "UW"
    if um_orientation(ch) is not None:
        return "UM"
    return "Hybrid"


def um_orientation(ch: Chan):
    if (ch.g21 < ch.g11).all() and (ch.g12 >= ch.g22).all():
        return 1
    if (ch.g12 < ch.g22).all() and (ch.g21 >= ch.g11).all():
        return -1
    return None


# Rate of each scheme at a policy.  Arrays may carry leading batch axes
# (the grid oracle evaluates many policies at once); states are last.


def rate_polytope(ch: Chan, x1, x2):
    """Compound MAC: both receivers decode both messages."""
    p = ch.p
    s3b = E(p, cap(ch.g11 * x1 + ch.g12 * x2))
    s3a = E(p, cap(ch.g21 * x1 + ch.g22 * x2))
    a = np.minimum(E(p, cap(ch.g11 * x1)), E(p, cap(ch.g21 * x1)))
    b = np.minimum(E(p, cap(ch.g12 * x2)), E(p, cap(ch.g22 * x2)))
    return np.minimum(np.minimum(s3a, s3b), a + b)


def rate_us(ch: Chan, x1, x2):
    """Uniformly strong: the cross-link sum bound is dropped, as is the sum
    bound of a receiver whose cross link is identically zero."""
    p = ch.p
    out = E(p, cap(ch.g11 * x1)) + E(p, cap(ch.g22 * x2))
    if (ch.g12 > 0).any():
        out = np.minimum(out, E(p, cap(ch.g11 * x1 + ch.g12 * x2)))
    if (ch.g21 > 0).any():
        out = np.minimum(out, E(p, cap(ch.g21 * x1 + ch.g22 * x2)))
    return out


def rate_evs(ch: Chan, x1, x2):
    return E(ch.p, cap(ch.g11 * x1)) + E(ch.p, cap(ch.g22 * x2))


def tin1(ch: Chan, x1, x2):
    """Receiver 1 treats user 2 as noise; user 2 is clean."""
    return E(ch.p, cap(ch.g11 * x1 / (1 + ch.g12 * x2))) + E(ch.p, cap(ch.g22 * x2))


def tin2(ch: Chan, x1, x2):
    return E(ch.p, cap(ch.g22 * x2 / (1 + ch.g21 * x1))) + E(ch.p, cap(ch.g11 * x1))


def rate_uw1(ch: Chan, x1, x2):
    return tin1(ch, x1, x2) if sidedness(ch) == "rx1" else tin2(ch, x1, x2)


def rate_um(ch: Chan, x1, x2):
    if um_orientation(ch) == 1:
        return np.minimum(E(ch.p, cap(ch.g11 * x1 + ch.g12 * x2)), tin2(ch, x1, x2))
    return np.minimum(E(ch.p, cap(ch.g21 * x1 + ch.g22 * x2)), tin1(ch, x1, x2))


def rate_uw2(ch: Chan, x1, x2):
    return np.minimum(tin1(ch, x1, x2), tin2(ch, x1, x2))


def hk_pair(ch: Chan, x1, x2, q):
    """The two rate-splitting sum rates, interference at receiver 1 only;
    q is user 2's private power."""
    g11, g12, g22 = ch.g11, ch.g12, ch.g22
    den = 1 + g12 * q
    s1 = E(ch.p, cap(g11 * x1 / den)) + E(ch.p, cap(g22 * x2))
    s2 = E(ch.p, cap(g22 * q)) + E(ch.p, cap((g11 * x1 + g12 * (x2 - q)) / den))
    return s1, s2


def rate_hk(ch: Chan, x1, x2, q):
    s1, s2 = hk_pair(ch, x1, x2, q)
    return np.minimum(s1, s2)


def rate_separable(ch: Chan, x1, x2, q):
    """Per-state coding: the expectation of the per-state minimum."""
    g11, g12, g22 = ch.g11, ch.g12, ch.g22
    den = 1 + g12 * q
    s1 = cap(g11 * x1 / den) + cap(g22 * x2)
    s2 = cap(g22 * q) + cap((g11 * x1 + g12 * (x2 - q)) / den)
    return E(ch.p, np.minimum(s1, s2))


def rate_us_separable(ch: Chan, x1, x2):
    per = cap(ch.g11 * x1) + cap(ch.g22 * x2)
    if (ch.g12 > 0).any():
        per = np.minimum(per, cap(ch.g11 * x1 + ch.g12 * x2))
    if (ch.g21 > 0).any():
        per = np.minimum(per, cap(ch.g21 * x1 + ch.g22 * x2))
    return E(ch.p, per)


# ---------------------------------------------------------------- grid oracle


def _face(p: np.ndarray, budget: float, t: np.ndarray) -> np.ndarray:
    """Budget-face points for one or two states, parameterized by state 0's power."""
    if p.shape[0] == 1:
        return np.full((t.shape[0], 1), budget / p[0])
    return np.stack([t, np.maximum(budget - p[0] * t, 0.0) / p[1]], axis=-1)


def grid_max(ch: Chan, rate, free_q: np.ndarray | None = None) -> float:
    """Maximum of ``rate`` over both budget faces (and private fractions).

    Valid for rates nondecreasing in each power, so the optimum spends
    both budgets; the private power of a free state sweeps [0, P2].
    Each pass refines every axis to +-2 cells around the best point.
    """
    assert ch.n <= 2
    dims = []
    if ch.n == 2:
        dims += [(0.0, ch.b1 / ch.p[0]), (0.0, ch.b2 / ch.p[0])]
    n_free = 0 if free_q is None else int(free_q.sum())
    dims += [(0.0, 1.0)] * n_free
    m = {0: 1, 1: 2001, 2: 401, 3: 61, 4: 25}[len(dims)]
    best = -np.inf
    for _ in range(GRID_PASSES if dims else 1):
        axes = [np.linspace(lo, hi, m) for lo, hi in dims]
        mesh = np.meshgrid(*axes, indexing="ij") if axes else []
        flat = [a.reshape(-1) for a in mesh]
        k = flat[0].shape[0] if flat else 1
        if ch.n == 2:
            x1 = _face(ch.p, ch.b1, flat[0])
            x2 = _face(ch.p, ch.b2, flat[1])
            fr = flat[2:]
        else:
            x1 = _face(ch.p, ch.b1, np.zeros(k))
            x2 = _face(ch.p, ch.b2, np.zeros(k))
            fr = flat
        if free_q is None:
            vals = rate(ch, x1, x2)
        else:
            q = np.zeros_like(x2)
            q[:, free_q] = np.stack(fr, axis=-1) * x2[:, free_q] if fr else 0.0
            vals = rate(ch, x1, x2, q)
        i = int(np.argmax(vals))
        best = max(best, float(vals[i]))
        if not dims:
            break
        point = [a[i] for a in flat]
        dims = [
            (max(lo, c - 2 * (hi - lo) / (m - 1)), min(hi, c + 2 * (hi - lo) / (m - 1)))
            for (lo, hi), c in zip(dims, point)
        ]
        m = max(m // 2 + 1, 9) if len(dims) >= 3 else m
    return best


# ---------------------------------------------------------------- lower bounds


def mac_waterfill(gx, gy, p, bx: float, by: float):
    """Sum-rate optimal powers of the MAC E[C(gx X + gy Y)]: each user in
    turn waterfills against the other's received power as noise."""
    x, y = waterfill(gx, p, bx), np.zeros_like(p)
    for _ in range(1000):
        y_new = waterfill(gy / (1 + gx * x), p, by)
        x_new = waterfill(gx / (1 + gy * y_new), p, bx)
        step = max(np.abs(x_new - x).max(), np.abs(y_new - y).max())
        x, y = x_new, y_new
        if step < 1e-12:
            break
    return x, y


def polytope_pieces(ch: Chan, x1, x2):
    """The compound-MAC rate as a minimum of concave pieces."""
    p = ch.p
    a = (E(p, cap(ch.g11 * x1)), E(p, cap(ch.g21 * x1)))
    b = (E(p, cap(ch.g12 * x2)), E(p, cap(ch.g22 * x2)))
    return np.array([E(p, cap(ch.g11 * x1 + ch.g12 * x2)), E(p, cap(ch.g21 * x1 + ch.g22 * x2)),
                     *(u + v for u in a for v in b)])


def _feasible(ch: Chan, x1, x2):
    x1, x2 = np.maximum(x1, 0.0), np.maximum(x2, 0.0)
    return x1 * min(1.0, ch.b1 / max(ch.p @ x1, 1e-300)), x2 * min(1.0, ch.b2 / max(ch.p @ x2, 1e-300))


def slsqp_lower_bound(ch: Chan, pieces, rate) -> float:
    """Best rate found by SLSQP on the epigraph max t, t <= every piece,
    from the solo waterfills, flat powers and two random starts."""
    n = ch.n
    _, _, w1, w2 = solo_rates(ch)
    rng = np.random.default_rng(0)
    starts = [(w1, w2), (np.full(n, ch.b1), np.full(n, ch.b2))]
    starts += [(ch.b1 * rng.dirichlet(np.ones(n)) / ch.p, ch.b2 * rng.dirichlet(np.ones(n)) / ch.p)
               for _ in range(2)]
    cons = [
        {"type": "ineq", "fun": lambda z: pieces(ch, z[:n], z[n:-1]) - z[-1]},
        {"type": "ineq", "fun": lambda z: np.array([ch.b1 - ch.p @ z[:n], ch.b2 - ch.p @ z[n:-1]])},
    ]
    grad = np.zeros(2 * n + 1)
    grad[-1] = -1.0
    best = -np.inf
    for x1, x2 in starts:
        z0 = np.concatenate([x1, x2, [np.min(pieces(ch, x1, x2))]])
        res = minimize(lambda z: -z[-1], z0, jac=lambda z: grad, method="SLSQP",
                       bounds=[(0.0, None)] * (2 * n) + [(None, None)], constraints=cons,
                       options={"maxiter": 500, "ftol": 1e-12})
        best = max(best, float(rate(ch, *_feasible(ch, res.x[:n], res.x[n:-1]))))
    return best


def lower_bound(ch: Chan, scheme: str):
    """A value of the scheme's rate the harness reaches itself on a channel
    too large for the grid oracle, or None for a scheme it has none for."""
    if scheme == "cmac":
        best = max(float(rate_polytope(ch, *mac_waterfill(ch.g11, ch.g12, ch.p, ch.b1, ch.b2))),
                   float(rate_polytope(ch, *mac_waterfill(ch.g21, ch.g22, ch.p, ch.b1, ch.b2))))
        if ch.n <= SLSQP_MAX_STATES:
            best = max(best, slsqp_lower_bound(ch, polytope_pieces, rate_polytope))
        return best
    if ch.n > SLSQP_MAX_STATES:
        return None
    if scheme == "uw2_bound":
        return slsqp_lower_bound(ch, lambda c, a, b: np.array([tin1(c, a, b), tin2(c, a, b)]),
                                 rate_uw2)
    if scheme == "uw1":
        return slsqp_lower_bound(ch, lambda c, a, b: np.array([rate_uw1(c, a, b)]), rate_uw1)
    return None


# ---------------------------------------------------------------- CSV parsing


def parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        return [], []
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def parse_policy(cell: str):
    if not cell:
        return None
    pairs = [c.split("|") for c in cell.split(";")]
    return np.array([float(a) for a, _ in pairs]), np.array([float(b) for _, b in pairs])


def parse_alpha(cell: str):
    return None if not cell else np.array([float(a) for a in cell.split(";")])


def has_failed_row(text: str) -> bool:
    return any(ln.startswith("FAILED") for ln in text.splitlines())


def close(a: float, b: float, tol: float = TOL) -> bool:
    return abs(a - b) <= tol + 1e-5 * abs(b)


# ---------------------------------------------------------------- sumcap


def _oriented(ch: Chan, x1, x2):
    """Interference-at-receiver-1 view of a one-sided channel and policy."""
    if sidedness(ch) == "rx2":
        return ch.swapped(), x2, x1
    return ch, x1, x2


def check_feasible(ch: Chan, x1, x2, what: str) -> list[str]:
    out = []
    for u, x, b in ((1, x1, ch.b1), (2, x2, ch.b2)):
        if x.shape != (ch.n,):
            return [f"feasible: {what} policy has {x.shape[0]} states, channel has {ch.n}"]
        spend = float(ch.p @ x)
        if (x < 0).any() or spend > b * (1 + BUDGET_RTOL) + 1e-9:
            out.append(f"feasible: {what} user {u} spends {spend:.9g} of budget {b:.9g}")
    return out


def scheme_rate(ch: Chan, scheme: str, x1, x2, alpha):
    """Re-evaluate a scheme's rate formula at an emitted policy."""
    if scheme == "cmac":
        return rate_polytope(ch, x1, x2)
    if scheme == "evs":
        return rate_evs(ch, x1, x2)
    if scheme == "us":
        return rate_us(ch, x1, x2)
    if scheme == "uw1":
        return rate_uw1(ch, x1, x2)
    if scheme == "um":
        return rate_um(ch, x1, x2)
    if scheme in ("hk", "separable") and alpha is not None:
        c, y1, y2 = _oriented(ch, x1, x2)
        fn = rate_hk if scheme == "hk" else rate_separable
        return fn(c, y1, y2, alpha * y2)
    if scheme == "separable":
        return rate_us_separable(ch, x1, x2)
    return None


def hk_oracle(ch: Chan) -> float:
    """Face-grid rate-splitting optimum of a receiver-1 sided channel; the
    private power of each weak state is free."""
    return grid_max(ch, rate_hk, free_q=ch.g12 < ch.g22)


def separable_oracle(ch: Chan) -> float:
    """Face-grid separable optimum: weak states all private, strong none."""
    weak = ch.g12 < ch.g22
    return grid_max(ch, lambda c, a, b, q: rate_separable(c, a, b, np.where(weak, b, 0.0)),
                    free_q=np.zeros(ch.n, dtype=bool))


def oracle_value(ch: Chan, scheme: str):
    """Dense-grid maximum of a scheme's rate for a 1-2 state channel."""
    if ch.n > 2:
        return None
    if scheme in ("cmac",):
        return grid_max(ch, rate_polytope)
    if scheme in ("us",):
        return grid_max(ch, rate_us)
    if scheme == "uw1":
        return grid_max(ch, rate_uw1)
    if scheme == "um":
        return grid_max(ch, rate_um)
    if scheme == "uw2_bound":
        return grid_max(ch, rate_uw2)
    if scheme in ("hk", "separable") and sidedness(ch) != "two":
        c = ch.swapped() if sidedness(ch) == "rx2" else ch
        return hk_oracle(c) if scheme == "hk" else separable_oracle(c)
    return None


def check_sumcap(ch: Chan, text: str, schemes: list[str], oracle: bool) -> tuple[list[str], dict]:
    """Check one ``sumcap`` CSV; returns problems and {scheme: value}."""
    header, rows = parse_csv(text)
    if header != ["scheme", "value_bits", "case_label", "policy", "alpha"]:
        return [f"format: unexpected header {header}"], {}
    if [r[0] for r in rows] != schemes or any(len(r) != 5 for r in rows):
        return [f"format: rows {[r[0] for r in rows]} do not match schemes {schemes}"], {}
    probs: list[str] = []
    values = {r[0]: float(r[1]) for r in rows}
    out_ref, tdm_ref = outer(ch), tdm(ch)
    for scheme, v_txt, label, pol_cell, al_cell in rows:
        v = float(v_txt)
        if scheme == "outer" and not close(v, out_ref):
            probs.append(f"closed_form: outer {v:.6g} != waterfill {out_ref:.6g}")
        if scheme == "tdm" and not close(v, tdm_ref):
            probs.append(f"closed_form: tdm {v:.6g} != {tdm_ref:.6g}")
        if scheme == "evs" and not close(v, out_ref):
            probs.append(f"evs_equals_outer: evs {v:.6g} != outer {out_ref:.6g}")
        if v > out_ref + TOL:
            probs.append(f"dominance: {scheme} {v:.6g} above the outer bound {out_ref:.6g}")
        pol = parse_policy(pol_cell)
        if pol is not None:
            x1, x2 = pol
            feas = check_feasible(ch, x1, x2, scheme)
            probs += feas
            alpha = parse_alpha(al_cell)
            if not feas:
                r = scheme_rate(ch, scheme, x1, x2, alpha)
                if r is not None and not close(float(r), v):
                    probs.append(
                        f"rate_formula: {scheme} reports {v:.6g}, its formula gives {float(r):.6g}"
                    )
        if oracle:
            g = oracle_value(ch, scheme)
            if g is not None and not close(v, g, GRID_TOL):
                probs.append(f"grid_oracle: {scheme} reports {v:.6g}, the face grid gives {g:.6g}")
        else:
            lb = lower_bound(ch, scheme)
            if lb is not None and v < lb - TOL:
                probs.append(f"optimal: {scheme} reports {v:.6g}, the harness reaches {lb:.6g}")
    pairs = (("hk", "separable"), ("uw1", "separable"), ("uw2_bound", "tdm"))
    for hi, lo in pairs:
        if hi in values and lo in values and values[hi] < values[lo] - TOL:
            probs.append(f"dominance: {hi} {values[hi]:.6g} below {lo} {values[lo]:.6g}")
    if subclass(ch) == "OneSidedUW":
        # Treating interference as noise is optimal there, so the jointly
        # coded and the separable optimum both equal it.
        for s in ("hk", "separable"):
            if s in values and "uw1" in values and not close(values[s], values["uw1"]):
                probs.append(f"one_sided_uw: {s} {values[s]:.6g} != uw1 {values['uw1']:.6g}")
    return probs, values


def check_swap_twin(a: dict, b: dict) -> list[str]:
    out = []
    for s in ("cmac", "outer", "tdm", "uw2_bound"):
        if s in a and s in b and not close(a[s], b[s]):
            out.append(f"swap_twin: {s} {a[s]:.6g} on the channel, {b[s]:.6g} on its twin")
    return out


# ---------------------------------------------------------------- figures


def rayleigh_chan(g12: np.ndarray, g21: np.ndarray, pbar: float) -> Chan:
    n = g12.shape[0]
    one = np.ones(n)
    return Chan(one, g12, g21, one, np.full(n, 1.0 / n), pbar, pbar)


def check_ray_evs(text: str, draws: dict) -> list[str]:
    """``draws`` maps sigma2 to the (g12, g21) samples of that row."""
    header, rows = parse_csv(text)
    if header != ["sigma2", "pbar_max", "infeasible", "evs_sum_capacity_bits", "tdm_bits"]:
        return [f"format: unexpected header {header}"]
    if len(rows) != len(draws):
        return [f"format: {len(rows)} rows for {len(draws)} sigma2 values"]
    out = []
    for row, (sigma2, (g12, g21)) in zip(rows, draws.items()):
        pb, infeasible = float(row[1]), row[2] == "1"
        ch = rayleigh_chan(g12, g21, pb)
        if infeasible:
            if very_strong(ch.with_budget(PBAR_FLOOR, PBAR_FLOOR)):
                out.append(f"very_strong: sigma2 {sigma2} marked infeasible but holds at {PBAR_FLOOR}")
            continue
        # pbar_max is the largest budget on the bisection's grid where the
        # test holds; the printed value is rounded to 6 digits.
        lo = pb * (1 - 1e-5)
        if not very_strong(ch.with_budget(lo, lo)):
            out.append(f"very_strong: test fails at the reported pbar_max {pb} (sigma2 {sigma2})")
        hi = pb + 1.01 * PBAR_RES
        if pb < PBAR_CAP and very_strong(ch.with_budget(hi, hi)):
            out.append(f"very_strong: test still holds above pbar_max {pb} (sigma2 {sigma2})")
        ch = ch.with_budget(pb, pb)
        v, t = float(row[3]), float(row[4])
        if not close(v, outer(ch)):
            out.append(f"evs_equals_outer: sigma2 {sigma2} evs {v:.6g} != outer {outer(ch):.6g}")
        if not close(t, tdm(ch)):
            out.append(f"closed_form: sigma2 {sigma2} tdm {t:.6g} != {tdm(ch):.6g}")
    return out


def binary_one_sided(h1: float, h2: float, p1: float, pbar: float) -> Chan:
    states = [(1.0, h * h, 0.0, 1.0, p) for h, p in ((h1, p1), (h2, 1.0 - p1)) if p > 0]
    return make_chan(states, pbar, pbar)


def check_hk_hybrid(text: str, p1_grid: list[float]) -> list[str]:
    header, rows = parse_csv(text)
    want = "p1,r_hk_bits,r_ind_bits,r_outer_bits,alpha_weak,alpha_strong".split(",")
    if header != want or len(rows) != len(p1_grid):
        return [f"format: hk-hybrid has header {header} and {len(rows)} rows"]
    out = []
    for row, p1 in zip(rows, p1_grid):
        pb = pbar_max(binary_one_sided(0.5, 2.0, p1, 1.0)) + 1.5
        ch = binary_one_sided(0.5, 2.0, p1, pb)
        hk, ind, ob = float(row[1]), float(row[2]), float(row[3])
        if not close(ob, outer(ch)):
            out.append(f"closed_form: p1={p1} outer {ob:.6g} != {outer(ch):.6g}")
        if not (ob + TOL >= hk and hk + TOL >= ind):
            out.append(f"dominance: p1={p1} outer {ob:.6g} >= hk {hk:.6g} >= separable {ind:.6g} fails")
        if p1 in (0.0, 1.0) and abs(hk - ind) > TOL:
            out.append(f"dominance: p1={p1} single-state hk {hk:.6g} != separable {ind:.6g}")
        gh, gs = hk_oracle(ch), separable_oracle(ch)
        if not close(hk, gh, GRID_TOL):
            out.append(f"grid_oracle: p1={p1} hk {hk:.6g}, face grid {gh:.6g}")
        if not close(ind, gs, GRID_TOL):
            out.append(f"grid_oracle: p1={p1} separable {ind:.6g}, face grid {gs:.6g}")
    return out
