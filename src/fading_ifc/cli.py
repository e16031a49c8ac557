"""Command-line surface: classify channels, compute sum rates, emit figure data.

Three commands share one executable.  ``classify`` prints a JSON report
of the per-state labels and the channel-level subclass.  ``sumcap``
evaluates one or more schemes on a channel file and prints CSV rows
(scheme auto picks the scheme the classification calls for).
``figure`` regenerates the three CSV datasets behind the study's plots:
Rayleigh very-strong feasibility versus cross-link variance, joint
versus separable coding on binary one-sided channels, and the
rate-splitting scheme on a hybrid binary channel.

Exit codes: 0 success, 1 internal or optimizer non-convergence, 2
malformed input (the message names the offending field), 3 scheme
precondition failure, or a budget too large to waterfill (the message
names the budget).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from .channel import (
    ChannelFormatError,
    ConvergenceError,
    FadingProcess,
    PowerBudget,
    PowerPolicy,
    PreconditionError,
    load_channel_json,
    sample_rayleigh_channel,
)
from .classify import (
    ChannelSubclass,
    Sidedness,
    _evs_check,
    channel_sidedness,
    classify_channel,
)
from .cmac import WeightPair, identify_case, region_boundary, sum_capacity
from . import ifc

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_MALFORMED = 2
EXIT_PRECONDITION = 3

SCHEMES = (
    "auto",
    "cmac",
    "evs",
    "us",
    "uw1",
    "um",
    "uw2_bound",
    "hk",
    "separable",
    "tdm",
    "outer",
)


@dataclass
class RunConfig:
    """Validated per-invocation parameters."""

    channel_path: str | None = None
    seed: int = 0
    samples: int = 20000
    tol: float = 1e-6
    output_path: str | None = None
    scheme: str = "auto"
    pbar: float = 1.0
    sigma2_grid: list[float] = field(default_factory=list)
    p1_grid: list[float] = field(default_factory=list)
    mu_grid: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not (self.tol > 0):
            raise ChannelFormatError(f"tol must be > 0, got {self.tol!r}")
        if self.samples < 1:
            raise ChannelFormatError(f"samples must be >= 1, got {self.samples!r}")
        for name in ("sigma2_grid", "p1_grid", "mu_grid"):
            grid = getattr(self, name)
            if grid and sorted(grid) != grid:
                raise ChannelFormatError(f"{name.replace('_', '-')} must be ascending")


def _fmt(x: float) -> str:
    return f"{float(x):.6g}"


def _parse_grid(text: str, name: str) -> list[float]:
    """Accept 'a:b:step' (inclusive endpoints) or a comma list of values."""
    try:
        if ":" in text:
            a_s, b_s, step_s = text.split(":")
            a, b, step = float(a_s), float(b_s), float(step_s)
            if step <= 0 or b < a:
                raise ValueError
            out = []
            k = 0
            while True:
                v = a + k * step
                if v > b + 1e-9 * max(1.0, abs(b)):
                    break
                out.append(min(v, b))
                k += 1
            return out
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise ChannelFormatError(
            f"{name} must be 'a:b:step' or comma-separated numbers, got {text!r}"
        ) from None


def _emit(config: RunConfig, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if config.output_path:
        with open(config.output_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


class _RowWriter:
    """Incremental CSV writer so figure runs can flush partial output."""

    def __init__(self, config: RunConfig, header: str):
        self.path = config.output_path
        self.fh = open(self.path, "w", encoding="utf-8") if self.path else sys.stdout
        self.fh.write(header + "\n")

    def row(self, cells) -> None:
        self.fh.write(",".join(cells) + "\n")
        self.fh.flush()

    def close(self) -> None:
        if self.path:
            self.fh.close()


def _policy_cell(policy: PowerPolicy | None) -> str:
    if policy is None:
        return ""
    p1, p2 = policy.arrays
    return ";".join(f"{a:.6g}|{b:.6g}" for a, b in zip(p1.tolist(), p2.tolist()))


def _alpha_cell(alpha) -> str:
    if alpha is None:
        return ""
    return ";".join(f"{a:.6g}" for a in alpha)


def cmd_classify(config: RunConfig) -> int:
    process, budget = load_channel_json(config.channel_path)
    report = classify_channel(process, budget)
    doc = {
        "subclass": report.subclass.value,
        "sidedness": report.sidedness.value,
        "state_labels": [lab.value for lab in report.labels],
        "evs_check": {
            "lhs_bits": report.evs_check.lhs,
            "rhs_bits": report.evs_check.rhs,
            "holds": report.evs_check.holds,
        },
        "n_states": process.n_states,
        "budget": {"p1": budget.p1_bar, "p2": budget.p2_bar},
    }
    _emit(config, [json.dumps(doc, indent=2)])
    return EXIT_OK


_AUTO = {
    ChannelSubclass.EVS: "evs",
    ChannelSubclass.OneSidedEVS: "evs",
    ChannelSubclass.US: "us",
    ChannelSubclass.OneSidedUS: "us",
    ChannelSubclass.OneSidedUW: "uw1",
    ChannelSubclass.UM: "um",
    ChannelSubclass.UW: "uw2_bound",
    ChannelSubclass.Hybrid: "cmac",
    ChannelSubclass.OneSidedHybrid: "hk",
}


def _run_scheme(scheme: str, process: FadingProcess, budget: PowerBudget, tol: float):
    """Evaluate one scheme; returns (value, case_label, policy, alpha)."""
    if scheme == "cmac":
        value, policy, label = sum_capacity(process, budget, tol=tol)
        return value, label.value, policy, None
    if scheme == "evs":
        value, policy, _ = ifc.evs_sum_capacity(process, budget)
        try:
            label = identify_case(process, policy).value
        except ValueError:
            label = ""
        return value, label, policy, None
    if scheme == "us":
        value, policy = ifc.us_sum_capacity(process, budget)
        return value, "", policy, None
    if scheme == "uw1":
        value, policy = ifc.uw1_sum_capacity(process, budget)
        return value, "", policy, None
    if scheme == "um":
        value, policy = ifc.um_sum_capacity(process, budget)
        return value, "", policy, None
    if scheme == "uw2_bound":
        return ifc.uw2_upper_bound(process, budget), "", None, None
    if scheme == "hk":
        value, alloc, case = ifc.hk_optimize(process, budget)
        return value, case.value, alloc.policy, alloc.alpha
    if scheme == "separable":
        if channel_sidedness(process) is Sidedness.TwoSided:
            value, policy = ifc.us_separable_sum_rate(process, budget)
            return value, "", policy, None
        value, alloc = ifc.separable_one_sided_baseline(process, budget)
        return value, "", alloc.policy, alloc.alpha
    if scheme == "tdm":
        return ifc.tdm_baseline(process, budget), "", None, None
    if scheme == "outer":
        return ifc.interference_free_outer_bound(process, budget), "", None, None
    raise ChannelFormatError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")


def cmd_sumcap(config: RunConfig) -> int:
    process, budget = load_channel_json(config.channel_path)
    if config.mu_grid:
        pairs = [WeightPair(mu1=r, mu2=1.0) for r in config.mu_grid]
        rows = region_boundary(process, budget, pairs)
        lines = ["mu1,mu2,r1_bits,r2_bits"]
        for w, r1, r2 in rows:
            lines.append(",".join([_fmt(w.mu1), _fmt(w.mu2), _fmt(r1), _fmt(r2)]))
        _emit(config, lines)
        return EXIT_OK
    lines = ["scheme,value_bits,case_label,policy,alpha"]
    for raw in config.scheme.split(","):
        name = raw.strip()
        if name == "auto":
            name = _AUTO[classify_channel(process, budget).subclass]
        value, label, policy, alpha = _run_scheme(name, process, budget, config.tol)
        lines.append(
            ",".join([name, _fmt(value), label, _policy_cell(policy), _alpha_cell(alpha)])
        )
    _emit(config, lines)
    return EXIT_OK


_PBAR_CAP = 100.0
_PBAR_RES = 1e-3
_PBAR_FLOOR = 0.01


def _evs_pbar_max(process: FadingProcess) -> float:
    """Largest symmetric budget keeping the very-strong condition true.

    Bisection at 1e-3 resolution, capped at 100; returns 0.0 (infeasible)
    when the condition already fails at the 0.01 floor.  Every step
    evaluates evs_condition through one _evs_check, which sorts the
    gains once for the whole bisection.
    """
    check = _evs_check(process)

    def holds(pbar: float) -> bool:
        return check(PowerBudget(p1_bar=pbar, p2_bar=pbar))[0].holds

    lo = _PBAR_FLOOR
    if not holds(lo):
        return 0.0
    if holds(_PBAR_CAP):
        return _PBAR_CAP
    hi = _PBAR_CAP
    while hi - lo > _PBAR_RES:
        mid = 0.5 * (lo + hi)
        if holds(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _figure_ray_evs(config: RunConfig) -> int:
    writer = _RowWriter(
        config, "sigma2,pbar_max,infeasible,evs_sum_capacity_bits,tdm_bits"
    )
    try:
        for sigma2 in config.sigma2_grid:
            process = sample_rayleigh_channel(
                sigma2, n_samples=config.samples, seed=config.seed
            )
            pbar = _evs_pbar_max(process)
            if pbar <= 0.0:
                writer.row([_fmt(sigma2), "0", "1", "0", "0"])
                continue
            budget = PowerBudget(p1_bar=pbar, p2_bar=pbar)
            value, _, _ = ifc.evs_sum_capacity(process, budget)
            tdm = ifc.tdm_baseline(process, budget)
            writer.row([_fmt(sigma2), _fmt(pbar), "0", _fmt(value), _fmt(tdm)])
    except ConvergenceError as exc:
        writer.row(["FAILED", str(exc).replace(",", ";"), "", "", ""])
        writer.close()
        return EXIT_INTERNAL
    writer.close()
    return EXIT_OK


def _binary_one_sided(h1: float, h2: float, p1: float) -> FadingProcess:
    """Unit direct links, cross gain into receiver 1 fading over {h1^2, h2^2}."""
    rows = [(1.0, h * h, 0.0, 1.0, p) for h, p in ((h1, p1), (h2, 1.0 - p1)) if p > 0.0]
    table = np.array(rows).reshape(-1, 5)
    return FadingProcess.from_arrays(table[:, :4], table[:, 4])


def _joint_sum_rate(process: FadingProcess, budget: PowerBudget) -> tuple[float, str]:
    """Best known joint-coding sum rate, picked by the channel's subclass."""
    sub = classify_channel(process, budget).subclass
    if sub in (ChannelSubclass.EVS, ChannelSubclass.OneSidedEVS):
        value, _, _ = ifc.evs_sum_capacity(process, budget)
    elif sub in (ChannelSubclass.US, ChannelSubclass.OneSidedUS):
        value, _ = ifc.us_sum_capacity(process, budget)
    elif sub is ChannelSubclass.OneSidedUW:
        value, _ = ifc.uw1_sum_capacity(process, budget)
    else:
        value, _, _ = ifc.hk_optimize(process, budget)
    return value, sub.value


_SEP_GAP_PAIRS = (
    ("evs", 0.5, 3.5),
    ("evs", 0.5, 2.0),
    ("us", 1.25, 1.75),
    ("us", 1.25, 3.75),
)


def _figure_sep_gap(config: RunConfig) -> int:
    writer = _RowWriter(
        config,
        "family,h1,h2,p1,pbar,subclass,joint_bits,separable_bits,gap_bits",
    )
    try:
        for family, h1, h2 in _SEP_GAP_PAIRS:
            for p1 in config.p1_grid:
                process = _binary_one_sided(h1, h2, p1)
                if family == "evs":
                    pbar = _evs_pbar_max(process)
                    if pbar <= 0.0:
                        pbar = config.pbar
                else:
                    pbar = config.pbar
                budget = PowerBudget(p1_bar=pbar, p2_bar=pbar)
                joint, sub = _joint_sum_rate(process, budget)
                sep, _ = ifc.separable_one_sided_baseline(process, budget)
                writer.row(
                    [
                        family,
                        _fmt(h1),
                        _fmt(h2),
                        _fmt(p1),
                        _fmt(pbar),
                        sub,
                        _fmt(joint),
                        _fmt(sep),
                        _fmt(joint - sep),
                    ]
                )
    except ConvergenceError as exc:
        writer.row(["FAILED", str(exc).replace(",", ";"), "", "", "", "", "", "", ""])
        writer.close()
        return EXIT_INTERNAL
    writer.close()
    return EXIT_OK


def _figure_hk_hybrid(config: RunConfig) -> int:
    h1, h2 = 0.5, 2.0
    writer = _RowWriter(
        config, "p1,r_hk_bits,r_ind_bits,r_outer_bits,alpha_weak,alpha_strong"
    )
    try:
        for p1 in config.p1_grid:
            process = _binary_one_sided(h1, h2, p1)
            pbar = _evs_pbar_max(process) + 1.5
            budget = PowerBudget(p1_bar=pbar, p2_bar=pbar)
            r_hk, alloc, _ = ifc.hk_optimize(process, budget)
            r_ind, _ = ifc.separable_one_sided_baseline(process, budget)
            r_outer = ifc.interference_free_outer_bound(process, budget)
            _, g12, _, g22 = process.gain_arrays
            weak_cells = {True: "", False: ""}
            for idx, strong in enumerate(g12 >= g22):
                weak_cells[not bool(strong)] = _fmt(alloc.alpha[idx])
            writer.row(
                [
                    _fmt(p1),
                    _fmt(r_hk),
                    _fmt(r_ind),
                    _fmt(r_outer),
                    weak_cells[True],
                    weak_cells[False],
                ]
            )
    except ConvergenceError as exc:
        writer.row(["FAILED", str(exc).replace(",", ";"), "", "", "", ""])
        writer.close()
        return EXIT_INTERNAL
    writer.close()
    return EXIT_OK


_FIGURES = {
    "ray-evs": _figure_ray_evs,
    "sep-gap": _figure_sep_gap,
    "hk-hybrid": _figure_hk_hybrid,
}


def cmd_figure(config: RunConfig, name: str) -> int:
    if name == "ray-evs" and not config.sigma2_grid:
        config.sigma2_grid = [1.0, 2.0, 3.0, 4.0, 5.0]
    if name in ("sep-gap", "hk-hybrid") and not config.p1_grid:
        config.p1_grid = [round(0.1 * k, 10) for k in range(11)]
    return _FIGURES[name](config)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fading-ifc",
        description="Fading interference channel classification and sum-rate tool",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, channel_required: bool):
        if channel_required:
            p.add_argument("--channel", required=True, help="channel JSON file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--samples", type=int, default=20000)
        p.add_argument("--tol", type=float, default=1e-6)
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p_cls = sub.add_parser("classify", help="label the channel and its states")
    common(p_cls, True)

    p_sum = sub.add_parser("sumcap", help="sum rates for one or more schemes")
    common(p_sum, True)
    p_sum.add_argument(
        "--scheme",
        default="auto",
        help="comma list from: " + "|".join(SCHEMES),
    )
    p_sum.add_argument(
        "--mu-grid",
        default=None,
        help="weight ratios a:b:step; emits the weighted-rate boundary instead",
    )

    p_fig = sub.add_parser("figure", help="regenerate a figure dataset as CSV")
    p_fig.add_argument("name", choices=sorted(_FIGURES))
    common(p_fig, False)
    p_fig.add_argument("--sigma2-grid", default=None, help="a:b:step or comma list")
    p_fig.add_argument("--p1-grid", default=None, help="a:b:step or comma list")
    p_fig.add_argument(
        "--pbar", type=float, default=1.0, help="fallback symmetric power budget"
    )
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        channel_path=getattr(args, "channel", None),
        seed=args.seed,
        samples=args.samples,
        tol=args.tol,
        output_path=args.out,
        scheme=getattr(args, "scheme", "auto"),
        pbar=getattr(args, "pbar", 1.0),
        sigma2_grid=_parse_grid(args.sigma2_grid, "--sigma2-grid")
        if getattr(args, "sigma2_grid", None)
        else [],
        p1_grid=_parse_grid(args.p1_grid, "--p1-grid")
        if getattr(args, "p1_grid", None)
        else [],
        mu_grid=_parse_grid(args.mu_grid, "--mu-grid")
        if getattr(args, "mu_grid", None)
        else [],
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        if args.command == "classify":
            return cmd_classify(config)
        if args.command == "sumcap":
            return cmd_sumcap(config)
        return cmd_figure(config, args.name)
    except ChannelFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main(argv=None))
