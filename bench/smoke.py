"""Fast self-test of the benchmark.  Run from the repository root:

    python3 bench/smoke.py

It runs each workload once at a tiny size (untraced, and one traced),
checks that the metric names match BENCHMARK.json, corrupts one output
per check class and asserts that the check reports it, and checks that
the benchmark refuses to run when the program is missing.  It is kept
out of the pytest suite (the file name does not match ``test_*.py``).
Takes one to two minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks as C  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import metric_specs  # noqa: E402

FAILURES: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        FAILURES.append(what)


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_tiny_runs() -> None:
    spec = _spec()
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS), "workload names")
    expect(per_layer == {n: u for n, u, _ in metric_specs()}, "per-layer metrics match spans.py")
    for name in run.WORKLOADS:
        res = run.run_workload(name, seed=1, seconds=0, trace=False, tiny=True, log=sys.stdout)
        got = {k: m["unit"] for k, m in res["metrics"].items()}
        expect(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
               f"{name}: tiny run correct with no failed operation")
        expect(got == e2e and all(m["value"] > 0 for m in res["metrics"].values()),
               f"{name}: end-to-end metrics named as in BENCHMARK.json and nonzero")
    res = run.run_workload("rayleigh-large", seed=1, seconds=0, trace=True, tiny=True, log=sys.stdout)
    m = res["metrics"]
    expect({k: v["unit"] for k, v in m.items()} == per_layer, "traced run reports the per-layer metrics")
    # Two MAC waterfills per cmac call, two cmac calls per round.
    expect(m["allocate.mac_opportunistic_waterfill.calls"]["value"] == 4
           and m["channel.self_s"]["value"] > 0 and m["cli.self_s"]["value"] > 0,
           "traced run counts calls and self time")


def _bump(text: str, row: int, col: int, delta: float) -> str:
    lines = text.splitlines()
    cells = lines[row].split(",")
    cells[col] = f"{float(cells[col]) + delta:.6g}"
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _scale_policy(text: str, row: int, factor: float) -> str:
    lines = text.splitlines()
    cells = lines[row].split(",")
    x1, x2 = C.parse_policy(cells[3])
    cells[3] = ";".join(f"{a * factor:.6g}|{b * factor:.6g}" for a, b in zip(x1, x2))
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _lower_with_policy(text: str, row: int, ch: C.Chan) -> str:
    """Scale a row's policy down by 10% and report the scheme's own rate
    there: a feasible, self-consistent answer that is not the optimum."""
    lines = _scale_policy(text, row, 0.9).splitlines()
    cells = lines[row].split(",")
    x1, x2 = C.parse_policy(cells[3])
    cells[1] = f"{float(C.scheme_rate(ch, cells[0], x1, x2, C.parse_alpha(cells[4]))):.6g}"
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _chan_of(op) -> C.Chan:
    with open(op.argv[op.argv.index("--channel") + 1], encoding="utf-8") as fh:
        doc = json.load(fh)
    states = [(s["g11"], s["g12"], s["g21"], s["g22"], s["p"]) for s in doc["states"]]
    return C.make_chan(states, doc["budget"]["p1"], doc["budget"]["p2"])


def _row(text: str, first_cell: str) -> int:
    return next(i for i, ln in enumerate(text.splitlines()) if ln.split(",")[0] == first_cell)


def test_corruptions() -> None:
    from fading_ifc import cli

    os.makedirs(run.WORK, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="smoke-", dir=run.WORK)
    try:
        ops = {}
        for name in run.WORKLOADS:
            for i, op in enumerate(workloads.BUILDERS[name](1, tmp, tiny=True)):
                _, text = run._run_op(cli, op, os.path.join(tmp, f"{name}-{i}.csv"))
                ops[op.name] = (op, text)
        for name, (op, text) in ops.items():
            expect(text is not None and op.check(text) == [], f"{name}: clean output passes")

        def flags(op_name: str, corrupt, tag: str, alone: bool = False) -> None:
            op, text = ops[op_name]
            tags = {p.split(":")[0] for p in op.check(corrupt(text))}
            expect(tags == {tag} if alone else tag in tags, f"{tag} reports a corrupted {op_name}")

        evs = ops["EVS-2"][1]
        flags("EVS-2", lambda t: _bump(t, _row(evs, "outer"), 1, 1e-2), "closed_form")
        flags("EVS-2", lambda t: _bump(t, _row(evs, "evs"), 1, 1e-2), "evs_equals_outer")
        flags("EVS-2", lambda t: _scale_policy(t, _row(evs, "evs"), 1.01), "feasible")
        hyb = ops["Hybrid-2"][1]
        flags("Hybrid-2", lambda t: _bump(t, _row(hyb, "cmac"), 1, 1e-2), "rate_formula")
        flags("ray-evs:2,3,4,5", lambda t: _bump(t, 1, 1, 1e-2), "very_strong")
        flags("hk-hybrid:1", lambda t: _bump(t, 1, 2, 1e-2), "dominance")
        flags("Hybrid-2", lambda t: _bump(t, _row(hyb, "cmac"), 1, 1e-2), "grid_oracle")
        twin = ops["UW-2-twin"][1]
        flags("UW-2-twin", lambda t: _bump(t, _row(twin, "cmac"), 1, 1e-2), "swap_twin")
        # Lower a value together with its policy: only the lower bound sees it.
        for name, scheme in (("mixed-C3b-1000", "cmac"), ("OneSidedUW-4", "uw1")):
            text = ops[name][1]
            flags(name, lambda t, r=_row(text, scheme), ch=_chan_of(ops[name][0]):
                  _lower_with_policy(t, r, ch), "optimal", alone=scheme == "cmac")
        osuw = ops["OneSidedUW-4"][1]
        flags("OneSidedUW-4", lambda t: _bump(t, _row(osuw, "hk"), 1, -1e-2), "one_sided_uw")
        expect(C.has_failed_row("a,b\nFAILED,reason\n"), "a FAILED row marks the operation failed")
        bad = workloads.Op("missing", ["sumcap", "--channel", os.path.join(tmp, "none.json")], None)
        expect(run._run_op(cli, bad, os.path.join(tmp, "none.csv"))[1] is None,
               "a nonzero exit code marks the operation failed")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def test_failing_operation() -> None:
    """An operation that fails in every round makes the run incorrect."""

    def broken(seed, workdir, tiny=False):
        ok = workloads.Op("outer", ["sumcap", "--channel", run._write_warm_up(workdir),
                                    "--scheme", "outer"], lambda text: [])
        bad = workloads.Op("missing", ["sumcap", "--channel", os.path.join(workdir, "none.json")],
                           lambda text: [])
        return [ok, bad]

    workloads.BUILDERS["broken"] = broken
    try:
        res = run.run_workload("broken", seed=1, seconds=0, trace=False, tiny=True, log=sys.stdout)
    finally:
        del workloads.BUILDERS["broken"]
    expect(not res["correct"] and res["failed"] == res["attempted"] // 2 > 0,
           "an operation failing in every round is counted and makes the run incorrect")


def test_refuses_without_program() -> None:
    tmp = tempfile.mkdtemp(prefix="smoke-bare-", dir=run.WORK)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        os.makedirs(os.path.join(tmp, "bench"))
        for f in os.listdir(HERE):
            if f.endswith((".py", ".md")):
                shutil.copy(os.path.join(HERE, f), os.path.join(tmp, "bench"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "scheme-suite", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180,
        )
        expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
               "without the program the benchmark exits nonzero and prints no result")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    test_tiny_runs()
    test_corruptions()
    test_failing_operation()
    test_refuses_without_program()
    print(f"{len(FAILURES)} failed")
    sys.exit(1 if FAILURES else 0)
