"""Per-layer spans and counts, recorded from outside the program.

``Tracer.install`` replaces each traced function by a wrapper that
records a span: its name, its parent span, its duration and its self
time (duration minus the time of the child spans inside it).  Every
reference to the original in the ``fading_ifc`` module namespaces (module
globals and the values of module-level dicts), in ``scipy.optimize`` and on
the owning class is rebound, and ``uninstall`` puts the originals back.
Spans are aggregated in memory per (parent, name) and per name.

A traced name that the program no longer has is reported as absent
rather than failing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

# (span name, module, attribute).  An attribute "Cls.meth" is a method.
# The layer of a span is the part of its name before the first dot.
TARGETS = [
    ("cli.main", "fading_ifc.cli", "main"),
    ("cli.cmd_sumcap", "fading_ifc.cli", "cmd_sumcap"),
    ("cli.cmd_figure", "fading_ifc.cli", "cmd_figure"),
    ("cli.cmd_classify", "fading_ifc.cli", "cmd_classify"),
    ("cli.run_scheme", "fading_ifc.cli", "_run_scheme"),
    ("cli.evs_pbar_max", "fading_ifc.cli", "_evs_pbar_max"),
    ("cli.joint_sum_rate", "fading_ifc.cli", "_joint_sum_rate"),
    ("cli.figure_ray_evs", "fading_ifc.cli", "_figure_ray_evs"),
    ("cli.figure_sep_gap", "fading_ifc.cli", "_figure_sep_gap"),
    ("cli.figure_hk_hybrid", "fading_ifc.cli", "_figure_hk_hybrid"),
    ("channel.load_channel_json", "fading_ifc.channel", "load_channel_json"),
    ("channel.channel_from_dict", "fading_ifc.channel", "channel_from_dict"),
    ("channel.make_discrete_channel", "fading_ifc.channel", "make_discrete_channel"),
    ("channel.sample_rayleigh_channel", "fading_ifc.channel", "sample_rayleigh_channel"),
    ("channel.expect", "fading_ifc.channel", "expect"),
    ("channel.validate_policy", "fading_ifc.channel", "validate_policy"),
    ("channel.swap_users", "fading_ifc.channel", "FadingProcess.swap_users"),
    ("channel.state_init", "fading_ifc.channel", "FadingState.__post_init__"),
    ("channel.process_init", "fading_ifc.channel", "FadingProcess.__post_init__"),
    ("channel.policy_init", "fading_ifc.channel", "PowerPolicy.__post_init__"),
    ("channel.budget_init", "fading_ifc.channel", "PowerBudget.__post_init__"),
    ("channel.gain_arrays", "fading_ifc.channel", "FadingProcess.gain_arrays"),
    ("channel.prob_array", "fading_ifc.channel", "FadingProcess.prob_array"),
    ("channel.policy_arrays", "fading_ifc.channel", "PowerPolicy.arrays"),
    ("channel.policy_from_arrays", "fading_ifc.channel", "PowerPolicy.from_arrays"),
    ("classify.classify_state", "fading_ifc.classify", "classify_state"),
    ("classify.evs_condition", "fading_ifc.classify", "evs_condition"),
    ("classify.um_orientation", "fading_ifc.classify", "um_orientation"),
    ("classify.channel_sidedness", "fading_ifc.classify", "channel_sidedness"),
    ("classify.classify_channel", "fading_ifc.classify", "classify_channel"),
    ("classify.solo_waterfill", "fading_ifc.classify", "_solo_waterfill"),
    ("allocate.waterfill", "fading_ifc.allocate", "waterfill"),
    ("allocate.waterfill_powers", "fading_ifc.allocate", "_waterfill_powers"),
    ("allocate.project_capped", "fading_ifc.allocate", "_project_capped"),
    ("allocate.kkt", "fading_ifc.allocate", "kkt_residual"),
    ("allocate.kkt", "fading_ifc.allocate", "kkt_residual_bundle"),
    ("allocate.epigraph_polish", "fading_ifc.allocate", "_epigraph_polish"),
    ("allocate.maximize_min_concave", "fading_ifc.allocate", "maximize_min_concave"),
    ("allocate.mac_winner_powers", "fading_ifc.allocate", "_mac_winner_powers"),
    ("allocate.mac_opportunistic_waterfill", "fading_ifc.allocate", "mac_opportunistic_waterfill"),
    ("allocate.objective", "fading_ifc.allocate", "RateObjective.value"),
    ("allocate.objective", "fading_ifc.allocate", "RateObjective.gradient"),
    ("allocate.objective", "fading_ifc.allocate", "PerStateMinRate.value"),
    ("allocate.objective", "fading_ifc.allocate", "PerStateMinRate.gradient"),
    ("allocate.objective", "fading_ifc.allocate", "PerStateMinRate.branch_values"),
    ("cmac.mac_bounds", "fading_ifc.cmac", "mac_bounds"),
    ("cmac.sum_rate_fixed_policy", "fading_ifc.cmac", "sum_rate_fixed_policy"),
    ("cmac.case_sum_rates", "fading_ifc.cmac", "case_sum_rates"),
    ("cmac.identify_case", "fading_ifc.cmac", "identify_case"),
    # The case engine behind both sum_capacity and us_sum_capacity.
    ("cmac.sum_capacity", "fading_ifc.cmac", "_sum_capacity_engine"),
    ("cmac.solo_powers", "fading_ifc.cmac", "_solo_powers"),
    ("cmac.slsqp_max_smooth", "fading_ifc.cmac", "_slsqp_max_smooth"),
    ("cmac.blend", "fading_ifc.cmac", "_blend_candidate"),
    ("cmac.weighted_max_fixed_policy", "fading_ifc.cmac", "weighted_max_fixed_policy"),
    ("cmac.region_boundary", "fading_ifc.cmac", "region_boundary"),
    ("ifc.interference_free_outer_bound", "fading_ifc.ifc", "interference_free_outer_bound"),
    ("ifc.evs_sum_capacity", "fading_ifc.ifc", "evs_sum_capacity"),
    ("ifc.us_sum_capacity", "fading_ifc.ifc", "us_sum_capacity"),
    ("ifc.per_state_epigraph_polish", "fading_ifc.ifc", "_per_state_epigraph_polish"),
    ("ifc.separable", "fading_ifc.ifc", "us_separable_sum_rate"),
    ("ifc.separable", "fading_ifc.ifc", "separable_one_sided_baseline"),
    ("ifc.face_points", "fading_ifc.ifc", "_face_points"),
    ("ifc.grid_minimax", "fading_ifc.ifc", "_grid_minimax"),
    ("ifc.projected_ascent", "fading_ifc.ifc", "_projected_ascent"),
    ("ifc.minimax_driver", "fading_ifc.ifc", "_minimax_driver"),
    ("ifc.waterfill_rows", "fading_ifc.ifc", "_waterfill_rows"),
    ("ifc.solo_powers", "fading_ifc.ifc", "_solo_powers"),
    ("ifc.uw1_sum_capacity", "fading_ifc.ifc", "uw1_sum_capacity"),
    ("ifc.um_sum_capacity", "fading_ifc.ifc", "um_sum_capacity"),
    ("ifc.uw2_upper_bound", "fading_ifc.ifc", "uw2_upper_bound"),
    ("ifc.hk_sum_rates", "fading_ifc.ifc", "hk_sum_rates"),
    ("ifc.project_wedge", "fading_ifc.ifc", "_project_wedge"),
    ("ifc.hk_slsqp", "fading_ifc.ifc", "_hk_slsqp"),
    ("ifc.hk_generic", "fading_ifc.ifc", "_hk_generic"),
    ("ifc.hk_optimize", "fading_ifc.ifc", "hk_optimize"),
    ("ifc.tdm_baseline", "fading_ifc.ifc", "tdm_baseline"),
    ("scipy.minimize", "scipy.optimize", "minimize"),
    ("scipy.linprog", "scipy.optimize", "linprog"),
]

LAYERS = ("channel", "classify", "allocate", "cmac", "ifc", "cli", "scipy")

# Per-layer metrics: (span, statistic, unit, better).  ``self_s`` and
# ``total_s`` are seconds per traced round, counts are per traced round.
REPORT = [
    ("ifc.hk_optimize", "self_s"), ("ifc.hk_optimize", "calls"),
    ("ifc.separable", "self_s"), ("ifc.separable", "calls"),
    ("ifc.minimax_driver", "self_s"), ("ifc.minimax_driver", "calls"),
    ("ifc.projected_ascent", "self_s"), ("ifc.projected_ascent", "calls"),
    ("ifc.grid_minimax", "self_s"),
    ("ifc.waterfill_rows", "self_s"), ("ifc.waterfill_rows", "calls"),
    ("allocate.mac_opportunistic_waterfill", "self_s"),
    ("allocate.mac_opportunistic_waterfill", "calls"),
    ("allocate.mac_opportunistic_waterfill", "iters"),
    ("allocate.waterfill_powers", "self_s"), ("allocate.waterfill_powers", "calls"),
    ("allocate.project_capped", "self_s"), ("allocate.project_capped", "calls"),
    ("allocate.maximize_min_concave", "self_s"), ("allocate.maximize_min_concave", "calls"),
    ("allocate.maximize_min_concave", "iters"),
    ("allocate.maximize_min_concave", "converged_ratio"),
    ("allocate.epigraph_polish", "self_s"), ("allocate.epigraph_polish", "calls"),
    ("allocate.kkt", "self_s"), ("allocate.kkt", "calls"),
    ("allocate.objective", "self_s"), ("allocate.objective", "value_calls"),
    ("allocate.objective", "gradient_calls"),
    ("classify.evs_condition", "calls"),
    ("cmac.sum_capacity", "self_s"), ("cmac.sum_capacity", "total_s"),
    ("cmac.sum_capacity", "calls"),
    ("cmac.blend", "self_s"), ("cmac.blend", "calls"),
    ("cmac.crosscheck", "total_s"), ("cmac.crosscheck", "calls"),
    ("cmac.slsqp_max_smooth", "self_s"), ("cmac.slsqp_max_smooth", "calls"),
    ("scipy.minimize", "self_s"), ("scipy.minimize", "calls"), ("scipy.minimize", "nit"),
    ("scipy.linprog", "self_s"), ("scipy.linprog", "calls"),
] + [(layer, "self_s") for layer in LAYERS]

UNITS = {"self_s": "s", "total_s": "s", "converged_ratio": "ratio"}


def metric_specs() -> list[tuple[str, str, str]]:
    """(metric name, unit, better) for every per-layer metric, in order."""
    out = [(f"{span}.{stat}", UNITS.get(stat, "count"),
            "higher" if stat == "converged_ratio" else "lower") for span, stat in REPORT]
    out += [("trace.wall_s", "s", "lower"), ("trace.overhead", "ratio", "lower")]
    return out


def _counters(span: str, attr: str, result) -> dict:
    """Counts read from a traced call's result."""
    if span == "allocate.mac_opportunistic_waterfill":
        return {"iters": result.iterations}
    if span == "allocate.maximize_min_concave":
        return {"iters": result.iterations, "converged": int(bool(result.converged))}
    if span == "scipy.minimize":
        return {"nit": int(getattr(result, "nit", 0) or 0)}
    if span == "allocate.objective":
        return {"gradient_calls" if attr.endswith("gradient") else "value_calls": 1}
    return {}


class Tracer:
    def __init__(self) -> None:
        # name -> [calls, self seconds, total seconds]
        self.stats: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.edges: dict[tuple[str | None, str], int] = defaultdict(int)
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.stack: list[list] = []
        self.absent: list[str] = []
        self._undo: list[tuple] = []

    # -------------------------------------------------------------- spans

    def _wrap(self, span: str, attr: str, fn, when=None):
        stats, edges, counts, stack = self.stats, self.edges, self.counts, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if when is not None and not when(kwargs):
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else None
            frame = [span, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                st = stats[span]
                st[0] += 1
                st[1] += dt - frame[1]
                st[2] += dt
                if stack:
                    stack[-1][1] += dt
                edges[(parent, span)] += 1
            for key, val in _counters(span, attr, result).items():
                counts[(span, key)] += val
            return result

        return wrapper

    # -------------------------------------------------------------- binding

    def _setattr(self, owner, name, value) -> None:
        self._undo.append((owner, name, inspect.getattr_static(owner, name)))
        setattr(owner, name, value)

    def _rebind_everywhere(self, original, wrapper) -> None:
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "fading_ifc" or modname.startswith("fading_ifc.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is original:
                    self._setattr(mod, key, wrapper)
                elif type(val) is dict:
                    for k, v in list(val.items()):
                        if v is original:
                            self._undo.append((val, k, original))
                            val[k] = wrapper

    def install(self) -> None:
        if self._undo:
            return
        self.absent = []
        for span, modname, attr in TARGETS:
            try:
                mod = importlib.import_module(modname)
                owner, name = mod, attr
                if "." in attr:
                    cls_name, name = attr.split(".")
                    owner = getattr(mod, cls_name)
                raw = inspect.getattr_static(owner, name)
            except (ImportError, AttributeError):
                self.absent.append(f"{modname}.{attr}")
                continue
            if isinstance(raw, functools.cached_property):
                wrapped = self._wrap(span, attr, raw.func)
                self._undo.append((raw, "func", raw.func))
                raw.func = wrapped
            elif isinstance(raw, staticmethod):
                self._setattr(owner, name, staticmethod(self._wrap(span, attr, raw.__func__)))
            elif owner is not mod:
                self._setattr(owner, name, self._wrap(span, attr, raw))
            else:
                wrapped = self._wrap(span, attr, raw)
                self._setattr(mod, name, wrapped)
                self._rebind_everywhere(raw, wrapped)
        # The case engine's crosscheck is the one maximize_min_concave call
        # that passes a target value.
        try:
            cmac = importlib.import_module("fading_ifc.cmac")
            inner = cmac.maximize_min_concave
            self._setattr(cmac, "maximize_min_concave",
                          self._wrap("cmac.crosscheck", "", inner,
                                     when=lambda kw: kw.get("target_value") is not None))
        except (ImportError, AttributeError):
            self.absent.append("fading_ifc.cmac.maximize_min_concave")

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._undo):
            if isinstance(owner, dict):
                owner[name] = value
            elif isinstance(owner, functools.cached_property):
                owner.func = value
            else:
                setattr(owner, name, value)
        self._undo = []

    # -------------------------------------------------------------- results

    def layer_self(self, layer: str) -> float:
        return sum(st[1] for name, st in self.stats.items() if name.split(".")[0] == layer)

    def metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer metrics per traced round."""
        out = {}
        for span, stat in REPORT:
            if span in LAYERS:
                value = self.layer_self(span)
            else:
                calls, self_s, total_s = self.stats.get(span, (0, 0.0, 0.0))
                value = {
                    "calls": calls,
                    "self_s": self_s,
                    "total_s": total_s,
                    "converged_ratio": self.counts[(span, "converged")] / calls if calls else 0.0,
                }.get(stat, self.counts.get((span, stat), 0.0))
            out[f"{span}.{stat}"] = value if stat == "converged_ratio" else value / rounds
        return out

    def dump(self) -> dict:
        return {
            "absent": self.absent,
            "spans": {
                name: {"calls": st[0], "self_s": st[1], "total_s": st[2]}
                for name, st in sorted(self.stats.items())
            },
            "edges": [
                {"parent": parent, "span": span, "calls": calls}
                for (parent, span), calls in sorted(self.edges.items(), key=lambda e: (str(e[0][0]), e[0][1]))
            ],
            "counts": {f"{span}.{key}": val for (span, key), val in sorted(self.counts.items())},
        }
