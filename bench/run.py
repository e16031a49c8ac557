"""Benchmark of the fading_ifc CLI.  Run from the repository root:

    python3 bench/run.py --workload scheme-suite --seed 1 --seconds 55 --trace 0

One process runs the workload's operations (in-process calls of
``fading_ifc.cli.main`` on generated channel files, outputs to files) one
at a time, in rounds, for at most about ``--seconds`` and at least two rounds,
with a host probe between operations.  Every output is checked against the
harness's own numbers (``checks.py``).  The last line of stdout is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See README.md.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402

# One BLAS thread: the program's arrays are small, and on a host with few
# cores idle BLAS threads that spin compete with the measured one.  Set
# before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import numpy as np  # noqa: E402
# Bound here, before a traced round rebinds scipy.optimize.minimize, so the
# host probe's solve never counts as the program's.
from scipy.optimize import minimize  # noqa: E402

WORKLOADS = ("rayleigh-large", "scheme-suite")
MIN_ROUNDS = 2
# The host probe's time in a quiet spell of the 2-vCPU machine the
# benchmark was tuned on.  Operation times are reported at this probe speed.
PROBE_NOMINAL_S = 0.0065


def _since_process_start() -> float:
    """Seconds from process start to now, at the kernel's clock-tick resolution."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime", encoding="ascii") as fh:
            uptime = float(fh.read().split()[0])
        return max(uptime - start_ticks / os.sysconf("SC_CLK_TCK"), 0.0)
    except (OSError, ValueError, IndexError):
        return 0.0


# Interpreter start-up before the first line of this file ran.
PRELUDE_S = max(_since_process_start() - (time.perf_counter() - T0), 0.0)

# A one-state channel for the warm-up call.
WARM_UP_DOC = {
    "states": [{"g11": 1.0, "g12": 0.25, "g21": 0.0, "g22": 1.0, "p": 1.0}],
    "budget": {"p1": 1.0, "p2": 1.0},
}


def _write_warm_up(workdir: str) -> str:
    path = os.path.join(workdir, "warm-up.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(WARM_UP_DOC, fh)
    return path


def _warm_up(cli, workdir: str) -> None:
    """One cheap CLI call (argument parsing, channel loading, output) and one
    tiny SLSQP and HiGHS solve, so that the first timed operation pays for
    no lazy loading."""
    from scipy import optimize

    argv = ["sumcap", "--channel", _write_warm_up(workdir), "--scheme", "tdm,outer",
            "--out", os.path.join(workdir, "warm-up.csv")]
    if cli.main(argv) != 0:
        raise RuntimeError("warm-up operation failed")
    optimize.minimize(lambda z: z @ z, np.ones(2), jac=lambda z: 2 * z, method="SLSQP",
                      constraints=[{"type": "ineq", "fun": lambda z: z[0] - 0.5}])
    optimize.linprog(np.ones(2), A_ub=-np.eye(2), b_ub=-np.ones(2), method="highs")


def _host_probe() -> float:
    """Seconds that one fixed piece of the harness's own work takes now: a
    projected-ascent loop on small arrays, a pass over 20000-element arrays
    and a tiny SLSQP solve, the kinds of work the program does.  It reads
    how fast the host runs at the moment (README.md, host speed)."""
    t = time.perf_counter()
    g = np.array([1.3, 0.7, 2.1, 0.4])
    p = np.array([0.2, 0.4, 0.3, 0.1])
    x = np.ones(4)
    for i in range(1, 600):
        x = np.clip(x + p * g / (1.0 + g * x) / math.sqrt(i), 0.0, None)
        x /= max(p @ x, 1e-12)
    a = np.linspace(0.01, 5.0, 20000)
    np.sort(np.log1p(a * x[0]) - np.exp(-a))
    minimize(lambda z: -np.log1p(g @ z), np.full(4, 0.25), method="SLSQP",
             bounds=[(0.0, 1.0)] * 4, constraints=[{"type": "eq", "fun": lambda z: z.sum() - 1.0}])
    return time.perf_counter() - t


def _probe_point() -> float:
    """The better of two probe readings, so that a blip of a few ms does not
    pass for a slow spell."""
    return min(_host_probe(), _host_probe())


def _run_op(cli, op, out_path: str) -> tuple[float, str | None]:
    """Time one CLI invocation; the text is None when the operation failed."""
    if os.path.exists(out_path):
        os.remove(out_path)
    t = time.perf_counter()
    try:
        rc = cli.main(op.argv + ["--out", out_path])
    except Exception:  # the run goes on and counts the operation as failed
        traceback.print_exc()
        rc = -1
    dt = time.perf_counter() - t
    try:
        with open(out_path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError:
        text = None
    if rc != 0 or text is None or checks.has_failed_row(text):
        print(f"operation {op.name} failed: exit code {rc}", file=sys.stderr)
        return dt, None
    return dt, text


def _best_times(times: list[list[tuple[float, float]]]) -> list[float]:
    """Each operation's best time over the rounds that succeeded, at the
    probe's nominal speed.  A slow spell of the host only adds time, so the
    best attempt is the one least slowed; what slowing is left (a run made
    in a slow spell from start to end) the probe read around that attempt
    takes out.  An operation that never succeeded has no time."""
    out = []
    for samples in times:
        if samples:
            dt, probe = min(samples)
            out.append(dt * PROBE_NOMINAL_S / probe)
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, log=sys.stderr) -> dict:
    """Set up, measure and check one workload; returns the result object."""
    from fading_ifc import cli
    import workloads

    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK)
    try:
        ops = workloads.BUILDERS[workload](seed, workdir, tiny=tiny)
        _warm_up(cli, workdir)
        setup_s = PRELUDE_S + time.perf_counter() - T0
        tracer = None
        if trace:
            from spans import Tracer

            tracer = Tracer()
        # times[mode][i] lists (time, probe) of operation i in untraced (0) or
        # traced (1) rounds; probe is the mean of the probe points just before
        # and just after the operation.
        times = {0: [[] for _ in ops], 1: [[] for _ in ops]}
        first: list[str | None] = [None] * len(ops)
        ok = [[] for _ in ops]
        rounds = 0
        t_start = time.perf_counter()
        # A new round starts only while it is expected to end by ``seconds``
        # (at the mean round time so far); at least MIN_ROUNDS run whatever
        # their length.
        while rounds < MIN_ROUNDS or (time.perf_counter() - t_start) * (1 + 1 / rounds) <= seconds:
            # A traced run alternates untraced and traced rounds, so its
            # overhead is measured in the same process.
            mode = 1 if trace and rounds % 2 == 1 else 0
            if mode:
                tracer.install()
            try:
                before = _probe_point()
                for i, op in enumerate(ops):
                    dt, text = _run_op(cli, op, os.path.join(workdir, f"op{i}.csv"))
                    after = _probe_point()
                    if text is not None and first[i] is None:
                        first[i] = text
                    # Repeats reuse identical inputs, so outputs must repeat too.
                    ok[i].append(text is not None and text == first[i])
                    if ok[i][-1]:  # a failed attempt may have stopped early
                        times[mode][i].append((dt, (before + after) / 2))
                    before = after
            finally:
                if mode:
                    tracer.uninstall()
            rounds += 1
        elapsed = time.perf_counter() - t_start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        t_check = time.perf_counter()
        problems: dict[str, list[str]] = {}
        for i, op in enumerate(ops):
            if first[i] is not None:
                try:
                    problems[op.name] = op.check(first[i])
                except (ValueError, IndexError) as exc:  # output the checks cannot parse
                    problems[op.name] = [f"format: {exc!r}"]
        bad = {name for name, probs in problems.items() if probs}
        for name in sorted(bad):
            for prob in problems[name]:
                print(f"check failed: {name}: {prob}", file=log)
        attempted = sum(len(o) for o in ok)
        failed = sum(
            (len(ok[i]) if op.name in bad else ok[i].count(False)) for i, op in enumerate(ops)
        )

        best = _best_times(times[0])
        raw = [min(samples)[0] for samples in times[0] if samples]
        for op, samples in zip(ops, times[0]):
            if samples:
                dt, probe = min(samples)
                got = (f"best {dt:.3f}s of {len(samples)}, probe {probe * 1e3:.2f}ms, "
                       f"at probe speed {dt * PROBE_NOMINAL_S / probe:.3f}s")
            else:
                got = "no success"
            print(f"  {op.name:32s} {got}", file=log)
        print(f"  {rounds} rounds in {elapsed:.1f}s, setup {setup_s:.2f}s, "
              f"checks {time.perf_counter() - t_check:.1f}s; uncorrected wall "
              f"{sum(raw):.3f}s, op p50 {statistics.median(raw) if raw else 0.0:.3f}s", file=log)
        if tracer is None:
            metrics = {
                "setup_s": (setup_s, "s"),
                "wall_s": (sum(best), "s"),
                "op_p50_s": (statistics.median(best) if best else 0.0, "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
        else:
            from spans import metric_specs

            traced_rounds = rounds // 2
            per_layer = tracer.metrics(traced_rounds)
            wall_traced = sum(_best_times(times[1]))
            per_layer["trace.wall_s"] = wall_traced
            per_layer["trace.overhead"] = wall_traced / sum(best) - 1.0 if best else 0.0
            metrics = {name: (per_layer[name], unit) for name, unit, _ in metric_specs()}
            dump = tracer.dump()
            dump["workload"], dump["seed"], dump["traced_rounds"] = workload, seed, traced_rounds
            path = os.path.join(WORK, f"trace-{workload}-seed{seed}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(dump, fh, indent=1)
            if tracer.absent:
                print(f"  absent from the program: {', '.join(tracer.absent)}", file=log)
            print(f"  spans written to {os.path.relpath(path, ROOT)}", file=log)
        # Every operation of these workloads should succeed in every round,
        # so one failed attempt makes the run incorrect.
        return {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import fading_ifc.cli  # noqa: F401
    except ImportError as exc:
        print(f"error: the program is not importable from {ROOT}/src: {exc}", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
