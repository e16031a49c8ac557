"""Case-based sum capacity of the compound MAC and its region boundary."""

from dataclasses import replace

import numpy as np
import pytest

from fading_ifc import allocate, cmac, ifc
from fading_ifc.allocate import RateObjective, dual_bound, kkt_multipliers
from fading_ifc.channel import ConvergenceError, PowerBudget, PowerPolicy
from fading_ifc.cmac import (
    CASE_EQ_TOL,
    CaseLabel,
    WeightPair,
    case_sum_rates,
    identify_case,
    mac_bounds,
    region_boundary,
    sum_capacity,
    sum_rate_fixed_policy,
    weighted_max_fixed_policy,
)

from oracles import brute_face_sum_capacity, channel, random_two_state_channel

B11 = PowerBudget(1.0, 1.0)
FULL = PowerPolicy.constant(1.0, 1.0, 1)


class TestFixedPolicyRates:
    def test_symmetric_strong_state(self):
        rates = case_sum_rates(channel([(1, 4, 4, 1)]), FULL)
        assert rates.s1 == pytest.approx(2.0, abs=1e-12)
        assert rates.s2 == pytest.approx(4.643856189774724, abs=1e-12)
        assert rates.s3a == pytest.approx(2.584962500721156, abs=1e-12)
        assert rates.s3b == pytest.approx(2.584962500721156, abs=1e-12)

    def test_mac_bounds_pentagon(self):
        pen = mac_bounds(channel([(1, 4, 4, 1)]), FULL, 1)
        assert pen.r1_cap == pytest.approx(1.0, abs=1e-12)
        assert pen.r2_cap == pytest.approx(np.log2(5.0), abs=1e-12)
        assert pen.sum_cap == pytest.approx(np.log2(6.0), abs=1e-12)
        with pytest.raises(ValueError, match="receiver"):
            mac_bounds(channel([(1, 4, 4, 1)]), FULL, 0)

    def test_sum_rate_is_min_of_caps(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            proc, budget = random_two_state_channel(rng)
            pol = PowerPolicy.constant(budget.p1_bar, budget.p2_bar, 2)
            pen1 = mac_bounds(proc, pol, 1)
            pen2 = mac_bounds(proc, pol, 2)
            want = min(
                pen1.sum_cap,
                pen2.sum_cap,
                min(pen1.r1_cap, pen2.r1_cap) + min(pen1.r2_cap, pen2.r2_cap),
            )
            assert sum_rate_fixed_policy(proc, pol) == pytest.approx(want, abs=1e-12)

    def test_identify_case_on_balanced_fixture(self):
        # direct-link caps bind strictly below every pooled bound
        assert identify_case(channel([(1, 4, 4, 1)]), FULL) is CaseLabel.C1

    @pytest.mark.parametrize("offset", [1e-12, -1e-12])
    def test_round_off_tie_reads_as_the_tie(self, offset):
        # the receiver sums differ by round-off only, so neither is the bottleneck
        assert identify_case(channel([(1, 1.1025, 1.1025 + offset, 1)]), FULL) is CaseLabel.C3c


class TestSumCapacity:
    @pytest.mark.parametrize(
        "gains, value, label",
        [
            ((1, 4, 4, 1), 2.0, CaseLabel.C1),
            ((4, 0.5, 0.5, 4), 1.1699250014423124, CaseLabel.C2),
            ((1, 4, 0.6, 0.8), 1.2630344058337937, CaseLabel.C3a),
            ((1, 1.1025, 1.1025, 1), 1.6334312103556319, CaseLabel.C3c),
        ],
    )
    def test_single_state_fixtures(self, gains, value, label):
        got, policy, got_label = sum_capacity(channel([gains]), B11)
        assert got == pytest.approx(value, abs=1e-6)
        assert got_label is label
        p = channel([gains]).prob_array
        assert float(p @ policy.arrays[0]) <= B11.p1_bar + 1e-9
        assert float(p @ policy.arrays[1]) <= B11.p2_bar + 1e-9

    def test_silenced_user_boundary_case(self):
        value, policy, label = sum_capacity(channel([(1, 4, 4, 1)]), PowerBudget(0, 1))
        assert value == pytest.approx(1.0, abs=1e-9)
        assert label is CaseLabel.B1_3a
        np.testing.assert_allclose(policy.arrays[0], 0.0, atol=1e-12)
        np.testing.assert_allclose(policy.arrays[1], 1.0, atol=1e-9)

    def test_value_attained_by_returned_policy(self):
        rng = np.random.default_rng(33)
        for _ in range(8):
            proc, budget = random_two_state_channel(rng)
            value, policy, _ = sum_capacity(proc, budget)
            assert sum_rate_fixed_policy(proc, policy) == pytest.approx(value, abs=1e-5)

    def test_matches_brute_force_grid(self):
        rng = np.random.default_rng(101)
        for _ in range(5):
            proc, budget = random_two_state_channel(rng)
            value = sum_capacity(proc, budget)[0]
            oracle = brute_face_sum_capacity(proc, budget, step=0.01)
            assert value == pytest.approx(oracle, abs=1e-3)

    def test_budget_monotonicity(self):
        proc = channel([(1, 1.5, 0.7, 2), (3, 0.4, 2.2, 1)])
        values = [
            sum_capacity(proc, PowerBudget(b, 0.8 * b))[0] for b in (0.4, 1.0, 2.5)
        ]
        assert values[0] <= values[1] + 1e-9 <= values[2] + 2e-9


def _count_ascent_calls(monkeypatch) -> list:
    """Count maximize_min_concave calls under every name the package uses."""
    calls = []
    real = allocate.maximize_min_concave

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for module in (allocate, cmac, ifc):
        if hasattr(module, "maximize_min_concave"):
            monkeypatch.setattr(module, "maximize_min_concave", counted)
    return calls


class TestCrosscheck:
    # receiver 1's sum bound binds alone at the MAC optimum
    C3B = channel([(0.8, 0.6, 4, 1)])

    def test_single_bound_cases_certified_without_ascent(self, monkeypatch):
        calls = _count_ascent_calls(monkeypatch)
        for gains in ((1, 4, 4, 1), (4, 0.5, 0.5, 4), (1, 4, 0.6, 0.8), (0.8, 0.6, 4, 1)):
            sum_capacity(channel([gains]), B11)
        assert calls == []

    def test_many_state_c3b_channel_runs_no_ascent(self, monkeypatch):
        calls = _count_ascent_calls(monkeypatch)
        rng = np.random.default_rng([7, 2])
        g = rng.exponential(1.0, (4, 2000))
        proc = channel(list(zip(g[0], 0.3 * g[1], 3.0 * g[2], g[3])))
        value, policy, label = sum_capacity(proc, B11)
        assert label is CaseLabel.C3b
        assert sum_rate_fixed_policy(proc, policy) == pytest.approx(value, abs=1e-12)
        assert calls == []

    def test_suboptimal_candidate_fails_certificate_and_direct_solve_recovers(self, monkeypatch):
        want = sum_capacity(self.C3B, B11)[0]
        real = cmac.mac_opportunistic_waterfill

        def scaled_down(process, receiver, budget, tol=1e-6):
            rep = real(process, receiver, budget, tol)
            a1, a2 = rep.policy.arrays
            return replace(rep, policy=PowerPolicy.from_arrays(0.5 * a1, 0.5 * a2))

        monkeypatch.setattr(cmac, "mac_opportunistic_waterfill", scaled_down)
        calls = _count_ascent_calls(monkeypatch)
        policy = scaled_down(self.C3B, 1, B11).policy
        assert identify_case(self.C3B, policy) is CaseLabel.C3b
        value = sum_rate_fixed_policy(self.C3B, policy)
        s3b = RateObjective(self.C3B.prob_array, [(1.0, 0.8, 0.6)])
        lam = kkt_multipliers(self.C3B, policy, s3b, B11)
        bound = dual_bound(self.C3B, s3b, B11, lam)
        assert bound is None or bound > value + 1e-3
        got, _, label = sum_capacity(self.C3B, B11)
        assert got == pytest.approx(want, abs=1e-9)
        assert label is CaseLabel.C3b
        assert calls == [1]

    def test_unconverged_direct_solve_raises(self, monkeypatch):
        real = cmac.maximize_min_concave

        def stalled(*args, **kwargs):
            return replace(real(*args, **kwargs), kkt_residual=1e-2, converged=False)

        monkeypatch.setattr(cmac, "maximize_min_concave", stalled)
        with pytest.raises(ConvergenceError, match="did not converge"):
            sum_capacity(channel([(1, 1.1025, 1.1025, 1)]), B11)


class TestWeightedMaximization:
    def test_heavier_user_served_first(self):
        r1, r2, val = weighted_max_fixed_policy(channel([(1, 4, 4, 1)]), FULL, WeightPair(1, 2))
        assert (r1, r2) == pytest.approx((1.0, 1.0))
        assert val == pytest.approx(3.0)

    def test_equal_weights_recover_sum_rate(self):
        rng = np.random.default_rng(55)
        for _ in range(10):
            proc, budget = random_two_state_channel(rng)
            pol = PowerPolicy.constant(budget.p1_bar, budget.p2_bar, 2)
            r1, r2, _ = weighted_max_fixed_policy(proc, pol, WeightPair(1, 1))
            assert r1 + r2 == pytest.approx(sum_rate_fixed_policy(proc, pol), abs=1e-12)

    def test_point_inside_both_pentagons(self):
        rng = np.random.default_rng(77)
        proc, budget = random_two_state_channel(rng)
        pol = PowerPolicy.constant(budget.p1_bar, budget.p2_bar, 2)
        for mu in (WeightPair(1, 3), WeightPair(3, 1), WeightPair(2, 2)):
            r1, r2, _ = weighted_max_fixed_policy(proc, pol, mu)
            for rx in (1, 2):
                pen = mac_bounds(proc, pol, rx)
                assert r1 <= pen.r1_cap + 1e-12
                assert r2 <= pen.r2_cap + 1e-12
                assert r1 + r2 <= pen.sum_cap + 1e-12


class TestRegionBoundary:
    def test_rows_sorted_and_monotone(self):
        grid = [WeightPair(2, 1), WeightPair(1, 2), WeightPair(1, 1)]
        rows = region_boundary(channel([(1, 4, 4, 1)]), B11, grid)
        ratios = [wp.mu1 / wp.mu2 for wp, _, _ in rows]
        assert ratios == sorted(ratios)
        r1s = [r1 for _, r1, _ in rows]
        r2s = [r2 for _, _, r2 in rows]
        assert all(a <= b + 1e-6 for a, b in zip(r1s, r1s[1:]))
        assert all(a >= b - 1e-6 for a, b in zip(r2s, r2s[1:]))

    def test_rectangle_corner_under_very_strong_interference(self):
        rows = region_boundary(channel([(1, 4, 4, 1)]), B11, [WeightPair(1, 1)])
        _, r1, r2 = rows[0]
        assert r1 == pytest.approx(1.0, abs=1e-5)
        assert r2 == pytest.approx(1.0, abs=1e-5)

    def test_equal_weight_point_attains_sum_capacity(self):
        proc = channel([(1, 1.1025, 6.25, 1), (1, 6.25, 1.1025, 1)])
        rows = region_boundary(proc, B11, [WeightPair(1, 1)])
        _, r1, r2 = rows[0]
        want = sum_capacity(proc, B11)[0]
        assert r1 + r2 == pytest.approx(want, abs=1e-4)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            region_boundary(channel([(1, 4, 4, 1)]), B11, [])


class TestToleranceConstant:
    def test_equality_window_is_tight(self):
        assert CASE_EQ_TOL == 1e-9
