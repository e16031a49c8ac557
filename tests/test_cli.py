"""End-to-end CLI behavior: JSON/CSV output, exit codes, determinism."""

import json
import os
import subprocess
import sys

import pytest

import fading_ifc
from fading_ifc.channel import PowerBudget, sample_rayleigh_channel
from fading_ifc.classify import evs_condition
from fading_ifc.cli import _evs_pbar_max

from oracles import channel, evs_pbar_max_bisection

# The CLI runs in a child process, which sees the package wherever this
# process found it, installed or not.
SRC = os.path.dirname(os.path.dirname(os.path.abspath(fading_ifc.__file__)))

EVS_DOC = {
    "states": [{"g11": 1.0, "g12": 4.0, "g21": 4.0, "g22": 1.0, "p": 1.0}],
    "budget": {"p1": 1.0, "p2": 1.0},
}
US_DOC = {
    "states": [
        {"g11": 1.0, "g12": 1.1025, "g21": 6.25, "g22": 1.0, "p": 0.5},
        {"g11": 1.0, "g12": 6.25, "g21": 1.1025, "g22": 1.0, "p": 0.5},
    ],
    "budget": {"p1": 1.0, "p2": 1.0},
}
UW2_DOC = {
    "states": [{"g11": 1.0, "g12": 0.25, "g21": 0.25, "g22": 1.0, "p": 1.0}],
    "budget": {"p1": 1.0, "p2": 1.0},
}
UW1_DOC = {
    "states": [
        {"g11": 1.0, "g12": 0.25, "g21": 0.0, "g22": 1.0, "p": 0.5},
        {"g11": 2.0, "g12": 0.5, "g21": 0.0, "g22": 1.5, "p": 0.5},
    ],
    "budget": {"p1": 1.0, "p2": 1.0},
}
BAD_DOC = {
    "states": [{"g11": 1.0, "g12": 4.0, "g21": 4.0, "g22": 1.0, "p": 0.6}],
    "budget": {"p1": 1.0, "p2": 1.0},
}


def huge_doc(budget):
    states = [(1.0, 4.0, 4.0, 1.0), (2.0, 4.0, 4.0, 1.0)]
    return {
        "states": [dict(zip(("g11", "g12", "g21", "g22"), g), p=0.5) for g in states],
        "budget": {"p1": budget, "p2": budget},
    }


def run_cli(*args, timeout=300, python_flags=()):
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *python_flags, "-m", "fading_ifc.cli", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env={**os.environ, "PYTHONPATH": path},
    )


@pytest.fixture
def channels(tmp_path):
    paths = {}
    for name, doc in (
        ("evs", EVS_DOC),
        ("us", US_DOC),
        ("uw2", UW2_DOC),
        ("uw1", UW1_DOC),
        ("bad", BAD_DOC),
    ):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(doc))
        paths[name] = str(p)
    return paths


class TestClassify:
    def test_very_strong_channel(self, channels):
        res = run_cli("classify", "--channel", channels["evs"])
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert doc["subclass"] == "EVS"
        assert doc["evs_check"]["lhs_bits"] == pytest.approx(2.0, abs=1e-6)
        assert doc["evs_check"]["rhs_bits"] == pytest.approx(2.585, abs=1e-3)
        assert doc["evs_check"]["holds"] is True
        assert doc["n_states"] == 1
        assert doc["state_labels"] == ["Strong"]

    def test_one_sided_all_weak(self, channels):
        res = run_cli("classify", "--channel", channels["uw1"])
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert doc["subclass"] == "OneSidedUW"
        assert doc["sidedness"] == "OneSidedAtRx1"

    def test_malformed_probabilities(self, channels):
        res = run_cli("classify", "--channel", channels["bad"])
        assert res.returncode == 2
        assert "sum" in res.stderr

    def test_missing_file(self, tmp_path):
        res = run_cli("classify", "--channel", str(tmp_path / "nope.json"))
        assert res.returncode == 2
        assert "cannot read" in res.stderr


class TestSumcap:
    def test_auto_on_very_strong(self, channels):
        res = run_cli("sumcap", "--channel", channels["evs"])
        assert res.returncode == 0
        lines = res.stdout.strip().splitlines()
        assert lines[0] == "scheme,value_bits,case_label,policy,alpha"
        fields = lines[1].split(",")
        assert fields[0] == "evs"
        assert float(fields[1]) == pytest.approx(2.0, abs=1e-6)
        assert fields[2] == "C1"

    def test_us_and_separable_rows(self, channels):
        res = run_cli("sumcap", "--channel", channels["us"], "--scheme", "us,separable")
        assert res.returncode == 0
        lines = res.stdout.strip().splitlines()
        assert len(lines) == 3
        us_fields = lines[1].split(",")
        sep_fields = lines[2].split(",")
        assert us_fields[0] == "us"
        assert float(us_fields[1]) == pytest.approx(2.0, abs=1e-4)
        assert sep_fields[0] == "separable"
        assert float(sep_fields[1]) == pytest.approx(1.6334, abs=1e-4)

    def test_precondition_failure_exits_3(self, channels):
        res = run_cli("sumcap", "--channel", channels["uw2"], "--scheme", "us")
        assert res.returncode == 3

    def test_unknown_scheme_exits_2(self, channels):
        res = run_cli("sumcap", "--channel", channels["evs"], "--scheme", "nonsense")
        assert res.returncode == 2

    def test_deterministic_output(self, channels):
        a = run_cli("sumcap", "--channel", channels["uw1"], "--scheme", "uw1,tdm,outer")
        b = run_cli("sumcap", "--channel", channels["uw1"], "--scheme", "uw1,tdm,outer")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_policy_cell_has_per_state_entries(self, channels):
        res = run_cli("sumcap", "--channel", channels["us"], "--scheme", "us")
        row = res.stdout.strip().splitlines()[1]
        policy_cell = row.split(",")[3]
        assert policy_cell.count(";") == 1  # two states
        assert all("|" in part for part in policy_cell.split(";"))

    def test_hk_row_carries_alpha(self, channels):
        res = run_cli("sumcap", "--channel", channels["uw1"], "--scheme", "hk")
        assert res.returncode == 0
        fields = res.stdout.strip().splitlines()[1].split(",")
        assert fields[0] == "hk"
        assert fields[4].count(";") == 1
        assert all(float(a) == 1.0 for a in fields[4].split(";"))

    def test_boundary_mode(self, channels):
        res = run_cli(
            "sumcap", "--channel", channels["evs"], "--mu-grid", "0.5,1,2"
        )
        assert res.returncode == 0
        lines = res.stdout.strip().splitlines()
        assert lines[0] == "mu1,mu2,r1_bits,r2_bits"
        assert len(lines) == 4
        mid = lines[2].split(",")
        assert float(mid[0]) == 1.0 and float(mid[1]) == 1.0
        assert float(mid[2]) == pytest.approx(1.0, abs=1e-4)
        assert float(mid[3]) == pytest.approx(1.0, abs=1e-4)
        r1s = [float(line.split(",")[2]) for line in lines[1:]]
        assert r1s == sorted(r1s)

    def test_output_file(self, channels, tmp_path):
        out = tmp_path / "rows.csv"
        res = run_cli(
            "sumcap", "--channel", channels["evs"], "--scheme", "tdm", "--out", str(out)
        )
        assert res.returncode == 0
        body = out.read_text()
        assert body.splitlines()[0] == "scheme,value_bits,case_label,policy,alpha"
        assert body.splitlines()[1].startswith("tdm,1.58496")


class TestHugeBudget:
    @pytest.mark.parametrize(
        "command", [["classify"], ["sumcap", "--scheme", "evs"], ["sumcap", "--scheme", "cmac"]]
    )
    def test_budget_too_large_to_waterfill_exits_3(self, tmp_path, command):
        # the received power g * nu overflows; no warning, no Infinity in the output
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(huge_doc(1e308)))
        res = run_cli(command[0], "--channel", str(path), *command[1:],
                      python_flags=("-W", "error"))
        assert res.returncode == 3
        assert res.stdout == ""
        assert "budget 1e+308 is too large" in res.stderr

    def test_huge_representable_budget_keeps_its_answer(self, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(huge_doc(1e300)))
        res = run_cli("classify", "--channel", str(path), python_flags=("-W", "error"))
        assert res.returncode == 0
        check = json.loads(res.stdout)["evs_check"]
        assert check["lhs_bits"] == pytest.approx(1993.6568569324174, rel=1e-12)
        assert check["rhs_bits"] == pytest.approx(998.900356561096, rel=1e-12)


class TestFigures:
    def test_ray_evs_small_sigma_is_infeasible(self, tmp_path):
        out = tmp_path / "ray.csv"
        res = run_cli(
            "figure", "ray-evs",
            "--sigma2-grid", "1.0",
            "--samples", "2000",
            "--seed", "0",
            "--out", str(out),
        )
        assert res.returncode == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "sigma2,pbar_max,infeasible,evs_sum_capacity_bits,tdm_bits"
        fields = lines[1].split(",")
        assert fields[0] == "1"
        assert float(fields[1]) == 0.0
        assert fields[2] == "1"

    def test_ray_evs_large_sigma_is_feasible(self, tmp_path):
        out = tmp_path / "ray5.csv"
        res = run_cli(
            "figure", "ray-evs",
            "--sigma2-grid", "5.0",
            "--samples", "2000",
            "--seed", "0",
            "--out", str(out),
        )
        assert res.returncode == 0
        fields = out.read_text().strip().splitlines()[1].split(",")
        assert fields[2] == "0"
        assert float(fields[1]) > 0.1
        assert float(fields[3]) > float(fields[4])  # beats time duplexing

    def test_sep_gap_endpoints_have_no_gap(self, tmp_path):
        out = tmp_path / "gap.csv"
        res = run_cli("figure", "sep-gap", "--p1-grid", "0,1", "--out", str(out))
        assert res.returncode == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "family,h1,h2,p1,pbar,subclass,joint_bits,separable_bits,gap_bits"
        assert len(lines) == 9  # four (h1, h2) pairs, two endpoints each
        for line in lines[1:]:
            fields = line.split(",")
            assert abs(float(fields[8])) <= 1e-6
            assert float(fields[6]) >= float(fields[7]) - 1e-9

    def test_sep_gap_deterministic(self, tmp_path):
        a = run_cli("figure", "sep-gap", "--p1-grid", "0,1")
        b = run_cli("figure", "sep-gap", "--p1-grid", "0,1")
        assert a.stdout == b.stdout

    def test_hk_hybrid_alpha_pattern(self, tmp_path):
        out = tmp_path / "hk.csv"
        res = run_cli("figure", "hk-hybrid", "--p1-grid", "0,1", "--out", str(out))
        assert res.returncode == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "p1,r_hk_bits,r_ind_bits,r_outer_bits,alpha_weak,alpha_strong"
        first = lines[1].split(",")
        last = lines[2].split(",")
        # p1 = 0: only the strong state exists, so the weak alpha cell is empty
        assert first[0] == "0" and first[4] == "" and first[5] == "0"
        assert last[0] == "1" and last[5] == "" and float(last[4]) == 1.0
        for fields in (first, last):
            r_hk, r_ind, r_outer = map(float, fields[1:4])
            assert r_ind <= r_hk + 1e-9
            assert r_hk <= r_outer + 1e-9


class TestEvsPbarMax:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("sigma2", [2.0, 3.5, 6.0])
    def test_matches_plain_bisection(self, sigma2, seed):
        proc = sample_rayleigh_channel(sigma2, n_samples=5000, seed=seed)
        pbar = _evs_pbar_max(proc)
        assert pbar == evs_pbar_max_bisection(proc)
        assert 0.01 <= pbar < 100.0
        assert evs_condition(proc, PowerBudget(pbar, pbar)).holds
        above = pbar + 1.01e-3
        assert not evs_condition(proc, PowerBudget(above, above)).holds

    def test_capped_at_100(self):
        assert _evs_pbar_max(channel([(1, 1e6, 1e6, 1)])) == 100.0


class TestArgumentHandling:
    def test_descending_grid_rejected(self, channels):
        res = run_cli(
            "figure", "ray-evs", "--sigma2-grid", "5,1", "--samples", "200"
        )
        assert res.returncode == 2

    def test_bad_tol_rejected(self, channels):
        res = run_cli("sumcap", "--channel", channels["evs"], "--tol", "0")
        assert res.returncode == 2

    def test_colon_grid_parsing(self, tmp_path):
        out = tmp_path / "gap.csv"
        res = run_cli(
            "figure", "sep-gap", "--p1-grid", "0:1:0.5", "--out", str(out), timeout=600
        )
        assert res.returncode == 0
        p1s = [line.split(",")[3] for line in out.read_text().strip().splitlines()[1:]]
        assert p1s == ["0", "0.5", "1"] * 4

    def test_help_exits_zero(self):
        res = run_cli("--help")
        assert res.returncode == 0
        assert "classify" in res.stdout
