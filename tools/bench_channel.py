"""Best-of-5 timings of the channel layer and of the three `figure` commands.

Times six things, each stored next to the value it produced, so a
speedup that changes a number shows in the same file:

- ``sample_rayleigh_channel``: sigma2 = 2, 20,000 samples, seed 1; the
  value is the sha256 of the sampled gains and probabilities;
- ``load_channel_json``: a 2000-state channel file written by this script
  (all four gains exponential, seed 0); the value is the sha256 of the
  loaded gains and probabilities;
- ``_evs_pbar_max``: the very-strong budget bisection on the five
  channels of ``figure ray-evs``'s default grid (sampling not timed); the
  value is pbar_max per sigma2;
- ``figure ray-evs``, ``figure hk-hybrid`` and ``figure sep-gap``, each
  on its default grid, through ``cli.main``; the value is the sha256 of
  its CSV.

Usage, from the repository root::

    python3 tools/bench_channel.py --src src --label change

``--src`` may point at the ``src/`` of another git checkout, so two trees
can be timed with the same script and recorded side by side under two
labels.  The entry is written to ``BENCH_channel.json`` at the repository
root, replacing any entry with the same label, and records the full id of
the commit checked out where ``--src`` lives; the script refuses to run
when that ``src`` differs from the commit.  Each
time is the best of five runs; BLAS runs one thread (set before numpy
loads).
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

RAY_EVS_GRID = (1.0, 2.0, 3.0, 4.0, 5.0)
FIGURES = ("ray-evs", "hk-hybrid", "sep-gap")
REPEATS = 5
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_channel.json")


def _digest(process) -> str:
    gains = np.column_stack(process.gain_arrays)
    return hashlib.sha256(gains.tobytes() + process.prob_array.tobytes()).hexdigest()


def _best(fn):
    times, value = [], None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        value = fn()
        times.append(time.perf_counter() - t0)
    return min(times), value


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def measure() -> dict:
    from fading_ifc import cli
    from fading_ifc.channel import load_channel_json, sample_rayleigh_channel

    out = {}
    t, proc = _best(lambda: sample_rayleigh_channel(2.0, n_samples=20000, seed=1))
    out["sample_rayleigh_channel"] = {"best_s": t, "sha256": _digest(proc)}

    rng = np.random.default_rng(0)
    n = 2000
    g = rng.exponential(1.0, size=(4, n))
    doc = {
        "states": [
            {"g11": a, "g12": b, "g21": c, "g22": d, "p": 1.0 / n}
            for a, b, c, d in zip(*g.tolist())
        ],
        "budget": {"p1": 1.0, "p2": 1.0},
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "channel.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        t, (proc, _) = _best(lambda: load_channel_json(path))
        out["load_channel_json"] = {"best_s": t, "n_states": n, "sha256": _digest(proc)}

        procs = [sample_rayleigh_channel(s, n_samples=20000, seed=0) for s in RAY_EVS_GRID]
        t, pbars = _best(lambda: [cli._evs_pbar_max(p) for p in procs])
        out["_evs_pbar_max"] = {
            "best_s": t,
            "pbar_max": {f"{s:g}": v for s, v in zip(RAY_EVS_GRID, pbars)},
        }

        for name in FIGURES:
            csv = os.path.join(tmp, f"{name}.csv")

            def figure():
                code = cli.main(["figure", name, "--out", csv])
                with open(csv, "rb") as fh:
                    return code, hashlib.sha256(fh.read()).hexdigest()

            t, (code, sha) = _best(figure)
            out[f"figure {name}"] = {"best_s": t, "exit_code": code, "csv_sha256": sha}
    return out


def _head_commit(src: str) -> str:
    """Full id of HEAD in the checkout holding ``src``, which must match it."""

    def git(*args):
        return subprocess.run(["git", "-C", src, *args], capture_output=True, text=True)

    found = git("rev-parse", "--verify", "HEAD^{commit}")
    if found.returncode != 0:
        sys.exit(f"{src} is not in a git checkout")
    sha = found.stdout.strip()
    if git("diff", "--quiet", sha, "--", ".").returncode != 0:
        sys.exit(f"{src} differs from commit {sha}; commit or stash the change first")
    return sha


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--src", default="src", help="directory holding the fading_ifc package")
    ap.add_argument("--label", required=True, help="entry name, e.g. parent or change")
    args = ap.parse_args()
    src = os.path.abspath(args.src)
    commit = _head_commit(src)
    sys.path.insert(0, src)
    entry = {
        "label": args.label,
        "commit": commit,
        "repeats": REPEATS,
        "hardware": f"{_cpu_model()}, {os.cpu_count()} vCPU, OPENBLAS_NUM_THREADS=1",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "measurements": measure(),
    }
    doc = {"what": __doc__.split("\n\n")[0], "entries": []}
    if os.path.exists(OUT):
        with open(OUT, encoding="utf-8") as fh:
            doc = json.load(fh)
    doc["entries"] = [e for e in doc["entries"] if e["label"] != args.label] + [entry]
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
