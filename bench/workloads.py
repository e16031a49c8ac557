"""The workloads: seeded inputs, the CLI operations run on them, and
the checks that judge each operation's output.

An operation is one ``fading_ifc.cli.main`` invocation.  Its output goes
to a file; ``check`` receives the text of that file and returns the
problems it finds (see ``checks.py``).  Operations are checked in order,
so a check may compare with the values of an earlier operation.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import checks as C


@dataclass
class Op:
    name: str
    argv: list[str]  # without --out
    check: Callable[[str], list[str]]
    values: dict = field(default_factory=dict)  # filled by check, read by later checks


def _write(workdir: str, name: str, ch: C.Chan) -> str:
    path = os.path.join(workdir, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ch.to_doc(), fh)
    return path


def _sumcap_op(workdir, name, ch, schemes, oracle) -> Op:
    path = _write(workdir, name, ch)
    op = Op(name, ["sumcap", "--channel", path, "--scheme", ",".join(schemes)], None)

    def check(text, op=op):
        probs, op.values = C.check_sumcap(ch, text, schemes, oracle)
        return probs

    op.check = check
    return op


# ---------------------------------------------------------------- rayleigh-large

# One ray-evs operation per grid.  The three of them sit below the two cmac
# operations in time, so op_p50_s reads the slowest ray-evs and does not
# flip between operation kinds.
_SIGMA2 = ((2.0, 3.0, 4.0, 5.0), (2.5, 3.5, 4.5, 5.5), (6.0, 7.0, 8.0, 9.0))


def _mixed_rayleigh(rng, n: int, s12: float, s21: float, pbar: float) -> C.Chan:
    g = rng.exponential(1.0, size=(4, n))
    return C.Chan(g[0], s12 * g[1], s21 * g[2], g[3], np.full(n, 1.0 / n), pbar, pbar)


def rayleigh_cross(sigma2: float, samples: int, seed: int):
    """Cross gains (g12, g21) of an equiprobable Rayleigh channel with unit
    direct links: ``default_rng(seed)`` draws g12, then g21, exponential
    with mean sigma2.  This is the stream ``figure ray-evs --seed`` samples,
    written out here so that a change to the program's stream fails the
    ray-evs check instead of changing the inputs unseen."""
    rng = np.random.default_rng(seed)
    g12 = rng.exponential(sigma2, samples)
    return g12, rng.exponential(sigma2, samples)


def _case_op(op: Op, label: str) -> Op:
    """Also require the compound-MAC case label the input was made for."""
    base = op.check

    def check(text):
        probs = base(text)
        rows = C.parse_csv(text)[1]
        if rows and rows[0][2] != label:
            probs.append(f"format: case label {rows[0][2]}, the workload expects {label}")
        return probs

    op.check = check
    return op


def rayleigh_large(seed: int, workdir: str, tiny: bool = False) -> list[Op]:
    """Many-state Rayleigh channels: sampling, waterfills, the MAC dual."""
    samples, n = (2000, 1000) if tiny else (20000, 2000)
    rng = np.random.default_rng([seed, 2])
    ops = []
    for grid in _SIGMA2:
        cells = ",".join(f"{s:g}" for s in grid)
        ops.append(Op(f"ray-evs:{cells}",
                      ["figure", "ray-evs", "--sigma2-grid", cells, "--samples", str(samples),
                       "--seed", str(seed)],
                      lambda text, grid=grid: C.check_ray_evs(
                          text, {s: rayleigh_cross(s, samples, seed) for s in grid})))
    schemes = ["cmac", "outer", "tdm"]
    for s12, s21, label in ((0.3, 3.0, "C3b"), (3.0, 0.3, "C3a")):
        ch = _mixed_rayleigh(rng, n, s12, s21, 1.0)
        ops.append(_case_op(_sumcap_op(workdir, f"mixed-{label}-{n}", ch, schemes, oracle=False),
                            label))
    return ops


# ---------------------------------------------------------------- scheme-suite

# Ratio bands of each cross gain to the direct gain it competes with
# (g12/g22, g21/g11), and of the first budget.  They keep each channel in
# its subclass with margin, and the UW band keeps the case the
# compound-MAC engine accepts (C2), and with it the work, the same from
# seed to seed.
_WEAK = (0.1, 0.6)
_STRONG = (1.3, 3.0)
_BANDS = {
    "EVS": ((4.0, 8.0), (4.0, 8.0), (0.5, 1.5)),
    "US": ((1.02, 1.2), (3.0, 6.0), (3.0, 6.0)),
    "UW": ((0.05, 0.35), (0.05, 0.35), (0.5, 3.0)),
    "UM": (_STRONG, _WEAK, (0.5, 3.0)),
    "Hybrid": (None, None, (2.0, 5.0)),
}


def _receiver1_binds(ch: C.Chan) -> bool:
    """At receiver 1's sum-rate optimal MAC powers, receiver 1's sum bound
    lies clearly below the other bounds of a uniformly strong channel.  The
    case engine then accepts C3b from that candidate alone; otherwise it
    lands in B1_3b and runs a blend, which doubles the cost of ``us``."""
    x1, x2 = C.mac_waterfill(ch.g11, ch.g12, ch.p, ch.b1, ch.b2)
    s3b = C.E(ch.p, C.cap(ch.g11 * x1 + ch.g12 * x2))
    others = [C.E(ch.p, C.cap(ch.g11 * x1)) + C.E(ch.p, C.cap(ch.g22 * x2))]
    if (ch.g21 > 0).any():
        others.append(C.E(ch.p, C.cap(ch.g21 * x1 + ch.g22 * x2)))
    return s3b < min(others) - 0.05


def _draw(rng, kind: str, n: int) -> C.Chan:
    """One channel of the given subclass, by rejection on the harness's own
    classification; the state pattern is fixed and only values vary."""
    one_sided = kind.startswith("OneSided")
    band12, band21, budget = _BANDS[kind.removeprefix("OneSided")]
    strong = np.arange(n) % 2 == 0  # Hybrid: strong and weak states alternate

    def ratio(band):
        if band is None:
            return np.where(strong, rng.uniform(*_STRONG, n), rng.uniform(*_WEAK, n))
        return rng.uniform(*band, n)

    for _ in range(1000):
        d = rng.uniform(0.5, 2.0, size=(2, n))
        g12 = d[1] * ratio(band12)
        g21 = np.zeros(n) if one_sided else d[0] * ratio(band21)
        b1 = rng.uniform(*budget)
        ch = C.Chan(d[0], g12, g21, d[1], rng.dirichlet(np.full(n, 4.0)), b1,
                    b1 * rng.uniform(0.7, 1.3))
        if C.subclass(ch) == kind and (not kind.endswith("US") or _receiver1_binds(ch)):
            return ch
    raise RuntimeError(f"no {kind} channel drawn in 1000 tries")


# The schemes run on each subclass.  Every scheme runs on at least one
# channel where its precondition holds, and the closed forms tdm and outer
# everywhere, for the dominance checks; a solver that another channel
# already exercises is not repeated, to keep a round short enough for
# several repeats per run (README.md).  The compound MAC is left out on
# one-sided channels: with one cross gain identically zero it forces that
# user's rate to zero, and auto never selects it there.  The rate-splitting
# search on the one-sided Hybrid (hk there) is left out: one call takes 6-9 s.
_SCHEMES = {
    "EVS": ["evs", "tdm", "outer"],
    "US": ["us", "separable", "tdm", "outer"],
    "UW": ["cmac", "uw2_bound", "tdm", "outer"],
    "UM": ["um", "tdm", "outer"],
    "Hybrid": ["cmac", "tdm", "outer"],
    "OneSidedUW": ["uw1", "hk", "tdm", "outer"],
    "OneSidedHybrid": ["separable", "tdm", "outer"],
    "OneSidedUS": ["hk", "tdm", "outer"],
}

def scheme_suite(seed: int, workdir: str, tiny: bool = False) -> list[Op]:
    """Every subclass, every scheme, small state counts, and the one-state
    point of the hk-hybrid figure."""
    rng = np.random.default_rng([seed, 3])
    plan = [("EVS", 2), ("US", 2), ("UW", 4), ("UM", 2), ("Hybrid", 2), ("OneSidedUW", 8),
            ("OneSidedHybrid", 2), ("OneSidedUS", 2)]
    if tiny:
        plan = [("EVS", 2), ("UW", 2), ("Hybrid", 2), ("OneSidedUW", 4)]
    ops: list[Op] = []
    for kind, n in plan:
        ch = _draw(rng, kind, n)
        if kind == "OneSidedUW":
            ch = ch.swapped()  # its receiver-2 mirror runs the CLI's user-swap path
        op = _sumcap_op(workdir, f"{kind}-{n}", ch, _SCHEMES[kind], oracle=n <= 2)
        ops.append(op)
        if kind == "UW":
            twin = _sumcap_op(workdir, f"{kind}-{n}-twin", ch.swapped(), _SCHEMES[kind],
                              oracle=n <= 2)
            twin.check = lambda text, a=op, b=twin, base=twin.check: (
                base(text) + C.check_swap_twin(a.values, b.values))
            ops.append(twin)
    ops.append(Op("hk-hybrid:1", ["figure", "hk-hybrid", "--p1-grid", "1"],
                  lambda text: C.check_hk_hybrid(text, [1.0])))
    return ops


BUILDERS = {
    "rayleigh-large": rayleigh_large,
    "scheme-suite": scheme_suite,
}
