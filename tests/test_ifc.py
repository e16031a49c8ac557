"""Sum capacities, bounds, and rate-splitting schemes for the fading IFC."""

import numpy as np
import pytest

from fading_ifc.channel import POWER_TOL, PowerBudget, PowerPolicy, PreconditionError
from fading_ifc.allocate import RateObjective, kkt_residual
from fading_ifc.classify import evs_condition
from fading_ifc.cmac import sum_capacity
from fading_ifc.ifc import (
    HkAllocation,
    MinimaxCase,
    NotEVS,
    NotUniformlyMixed,
    NotUniformlyStrong,
    NotUniformlyWeak,
    evs_sum_capacity,
    hk_optimize,
    hk_region_bounds,
    hk_sum_rates,
    interference_free_outer_bound,
    separable_one_sided_baseline,
    tdm_baseline,
    um_sum_capacity,
    us_separable_sum_rate,
    us_sum_capacity,
    uw1_sum_capacity,
    uw2_upper_bound,
)

from oracles import channel, random_feasible_policy

B11 = PowerBudget(1.0, 1.0)

US_TWO_STATE = channel([(1, 1.1025, 6.25, 1), (1, 6.25, 1.1025, 1)])
UW_ONE_SIDED = channel([(1, 0.25, 0, 1)])
HYBRID_ONE_SIDED = channel([(1, 4, 0, 1), (1, 0.25, 0, 1)])


class TestOuterBound:
    def test_sum_of_solo_waterfilling_rates(self):
        proc = channel([(1, 0, 0, 1), (4, 0, 0, 4)])
        assert interference_free_outer_bound(proc, B11) == pytest.approx(
            3.4008794362821844, abs=1e-9
        )

    def test_single_clean_state(self):
        assert interference_free_outer_bound(channel([(1, 0, 0, 1)]), B11) == pytest.approx(
            2.0, abs=1e-12
        )


class TestEvsSumCapacity:
    def test_exact_rectangle_corner(self):
        value, policy, (r1, r2) = evs_sum_capacity(channel([(1, 4, 4, 1)]), B11)
        assert value == pytest.approx(2.0, abs=1e-12)
        assert (r1, r2) == pytest.approx((1.0, 1.0), abs=1e-12)
        np.testing.assert_allclose(policy.arrays[0], 1.0, atol=1e-9)
        np.testing.assert_allclose(policy.arrays[1], 1.0, atol=1e-9)

    def test_matches_outer_bound(self):
        proc = channel([(1, 30, 30, 1), (4, 40, 40, 4)])
        value, _, _ = evs_sum_capacity(proc, B11)
        assert value == pytest.approx(interference_free_outer_bound(proc, B11), abs=1e-12)

    def test_rejects_merely_strong_channel(self):
        with pytest.raises(NotEVS, match="very-strong"):
            evs_sum_capacity(channel([(1, 1.1025, 1.1025, 1)]), B11)


class TestUsSumCapacity:
    def test_two_state_strong_channel(self):
        value, policy = us_sum_capacity(US_TWO_STATE, B11)
        assert value == pytest.approx(2.0, abs=1e-6)
        p = US_TWO_STATE.prob_array
        assert float(p @ policy.arrays[0]) <= 1.0 + 1e-9

    def test_one_sided_strong_channel(self):
        value, _ = us_sum_capacity(channel([(1, 4, 0, 1)]), B11)
        assert value == pytest.approx(2.0, abs=1e-6)

    def test_weak_state_named_in_error(self):
        with pytest.raises(NotUniformlyStrong, match="state 1"):
            us_sum_capacity(channel([(1, 4, 4, 1), (1, 0.5, 4, 1)]), B11)

    def test_no_interference_rejected(self):
        with pytest.raises(NotUniformlyStrong, match="no live cross link"):
            us_sum_capacity(channel([(1, 0, 0, 1)]), B11)


class TestUsSeparable:
    def test_two_state_gap_fixture(self):
        value, policy = us_separable_sum_rate(US_TWO_STATE, B11)
        assert value == pytest.approx(1.6334312103556319, abs=1e-9)
        np.testing.assert_allclose(policy.arrays[0], 1.0)
        np.testing.assert_allclose(policy.arrays[1], 1.0)

    def test_never_beats_joint_coding(self):
        rng = np.random.default_rng(17)
        for _ in range(6):
            direct = rng.uniform(0.3, 2.0, size=(2, 2))
            cross = direct * rng.uniform(1.0, 4.0, size=(2, 2))
            proc = channel(
                [
                    (direct[0, 0], cross[0, 1], cross[0, 0], direct[0, 1]),
                    (direct[1, 0], cross[1, 1], cross[1, 0], direct[1, 1]),
                ]
            )
            budget = PowerBudget(*rng.uniform(0.5, 2.0, 2))
            sep, _ = us_separable_sum_rate(proc, budget)
            joint, _ = us_sum_capacity(proc, budget)
            assert sep <= joint + 1e-8

    def test_single_state_equals_joint(self):
        proc = channel([(1, 1.1025, 1.1025, 1)])
        sep, _ = us_separable_sum_rate(proc, B11)
        joint, _ = us_sum_capacity(proc, B11)
        assert sep == pytest.approx(joint, abs=1e-6)


class TestUw1SumCapacity:
    def test_single_state_treat_as_noise(self):
        value, policy = uw1_sum_capacity(UW_ONE_SIDED, B11)
        assert value == pytest.approx(1.8479969065549502, abs=1e-6)
        np.testing.assert_allclose(policy.arrays[0], 1.0, atol=1e-6)
        np.testing.assert_allclose(policy.arrays[1], 1.0, atol=1e-6)

    def test_two_state_value_and_stationarity(self):
        proc = channel([(1, 0.25, 0, 1), (2, 0.5, 0, 1.5)])
        value, policy = uw1_sum_capacity(proc, B11)
        assert value == pytest.approx(2.2083855537414117, abs=1e-6)
        g11, g12, _, g22 = proc.gain_arrays
        zero = np.zeros(2)
        obj = RateObjective(
            proc.prob_array, [(1.0, g11, g12), (-1.0, zero, g12), (1.0, zero, g22)]
        )
        assert kkt_residual(proc, policy, obj, B11) <= 1e-6
        assert obj.value(*policy.arrays) == pytest.approx(value, abs=1e-12)

    def test_dominates_random_policies(self):
        proc = channel([(1, 0.25, 0, 1), (2, 0.5, 0, 1.5)])
        value, _ = uw1_sum_capacity(proc, B11)
        g11, g12, _, g22 = proc.gain_arrays
        zero = np.zeros(2)
        obj = RateObjective(
            proc.prob_array, [(1.0, g11, g12), (-1.0, zero, g12), (1.0, zero, g22)]
        )
        rng = np.random.default_rng(7)
        for _ in range(300):
            pol = random_feasible_policy(rng, proc, B11)
            assert obj.value(*pol.arrays) <= value + 1e-9

    def test_side_two_mirrors(self):
        mirrored = channel([(1, 0, 0.25, 1), (1.5, 0, 0.5, 2)])
        value, policy = uw1_sum_capacity(mirrored, PowerBudget(1, 1))
        assert value == pytest.approx(2.2083855537414117, abs=1e-6)
        ref_value, ref_policy = uw1_sum_capacity(
            channel([(1, 0.25, 0, 1), (2, 0.5, 0, 1.5)]), B11
        )
        np.testing.assert_allclose(policy.arrays[0], ref_policy.arrays[1], atol=1e-5)
        np.testing.assert_allclose(policy.arrays[1], ref_policy.arrays[0], atol=1e-5)

    def test_strong_state_rejected(self):
        with pytest.raises(NotUniformlyWeak):
            uw1_sum_capacity(channel([(1, 4, 0, 1)]), B11)

    def test_two_sided_input_rejected_with_hint(self):
        with pytest.raises(PreconditionError, match="two-sided"):
            uw1_sum_capacity(channel([(1, 0.25, 0.25, 1)]), B11)


class TestUmSumCapacity:
    def test_single_state_fixture(self):
        value, _ = um_sum_capacity(channel([(1, 4, 0.25, 1)]), B11)
        assert value == pytest.approx(1.8479969065549502, abs=1e-6)

    def test_two_state_fixture(self):
        proc = channel([(1, 4, 0.25, 1), (1.5, 3, 0.5, 1.2)])
        value, policy = um_sum_capacity(proc, B11)
        assert value == pytest.approx(2.0102662066136925, abs=1e-5)
        p = proc.prob_array
        assert float(p @ policy.arrays[0]) <= 1.0 + 1e-7
        assert float(p @ policy.arrays[1]) <= 1.0 + 1e-7

    def test_mirror_orientation_swaps_back(self):
        proc = channel([(1, 4, 0.25, 1)])
        mirror = proc.swap_users()
        v1, p1 = um_sum_capacity(proc, B11)
        v2, p2 = um_sum_capacity(mirror, B11)
        assert v1 == pytest.approx(v2, abs=1e-6)
        np.testing.assert_allclose(p1.arrays[0], p2.arrays[1], atol=1e-4)

    def test_unmixed_channel_rejected(self):
        with pytest.raises(NotUniformlyMixed, match="orientation"):
            um_sum_capacity(channel([(1, 0.25, 0.25, 1)]), B11)


class TestUw2UpperBound:
    def test_symmetric_single_state(self):
        value = uw2_upper_bound(channel([(1, 0.25, 0.25, 1)]), B11)
        assert value == pytest.approx(1.8479969065549502, abs=1e-6)

    def test_dominates_achievable_schemes(self):
        for proc in (
            channel([(1, 0.25, 0.25, 1)]),
            channel([(1, 0.3, 0.3, 1), (2, 0.5, 0.5, 2)]),
        ):
            bound = uw2_upper_bound(proc, B11)
            assert sum_capacity(proc, B11)[0] <= bound + 1e-6
            assert tdm_baseline(proc, B11) <= bound + 1e-9

    def test_strong_state_rejected(self):
        with pytest.raises(NotUniformlyWeak):
            uw2_upper_bound(channel([(1, 4, 0.25, 1)]), B11)


class TestHkRates:
    def test_half_split_weak_state(self):
        alloc = HkAllocation(PowerPolicy.constant(1, 1, 1), (0.5,))
        s1, s2 = hk_sum_rates(UW_ONE_SIDED, alloc)
        assert s1 == pytest.approx(1.917537839808027, abs=1e-12)
        assert s2 == pytest.approx(1.584962500721156, abs=1e-12)

    def test_zero_split_strong_state(self):
        alloc = HkAllocation(PowerPolicy.constant(1, 1, 1), (0.0,))
        s1, s2 = hk_sum_rates(channel([(1, 4, 0, 1)]), alloc)
        assert s1 == pytest.approx(2.0, abs=1e-12)
        assert s2 == pytest.approx(2.584962500721156, abs=1e-12)

    def test_full_split_collapses_the_two_rates(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            n = int(rng.integers(1, 4))
            gains = rng.uniform(0.1, 5.0, size=(n, 4))
            gains[:, 2] = 0.0
            proc = channel([tuple(row) for row in gains])
            pol = PowerPolicy.from_arrays(
                rng.uniform(0, 2, n), rng.uniform(0, 2, n)
            )
            s1, s2 = hk_sum_rates(proc, HkAllocation(pol, (1.0,) * n))
            assert s1 == s2

    def test_region_bounds_fixture(self):
        alloc = HkAllocation(PowerPolicy.constant(1, 1, 1), (0.5,))
        r1, r2d, r2s, sc = hk_region_bounds(UW_ONE_SIDED, alloc)
        assert r1 == pytest.approx(0.9175378398080271, abs=1e-12)
        assert r2d == pytest.approx(1.0, abs=1e-12)
        assert r2s == pytest.approx(0.7369655941662062, abs=1e-12)
        assert sc == pytest.approx(1.584962500721156, abs=1e-12)

    def test_bounds_compose_into_sum_rates(self):
        alloc = HkAllocation(PowerPolicy.constant(0.8, 1.2, 1), (0.3,))
        r1, r2d, _, sc = hk_region_bounds(UW_ONE_SIDED, alloc)
        s1, s2 = hk_sum_rates(UW_ONE_SIDED, alloc)
        assert s1 == pytest.approx(r1 + r2d, abs=1e-12)
        assert s2 == pytest.approx(sc, abs=1e-12)

    def test_two_sided_input_rejected(self):
        alloc = HkAllocation(PowerPolicy.constant(1, 1, 1), (0.5,))
        with pytest.raises(PreconditionError):
            hk_sum_rates(channel([(1, 4, 4, 1)]), alloc)


class TestHkAllocation:
    def test_alpha_length_checked(self):
        with pytest.raises(PreconditionError, match="alpha"):
            HkAllocation(PowerPolicy.constant(1, 1, 2), (0.5,))

    def test_alpha_range_checked(self):
        with pytest.raises(PreconditionError, match="\\[0, 1\\]"):
            HkAllocation(PowerPolicy.constant(1, 1, 1), (1.5,))

    def test_roundoff_clamped(self):
        alloc = HkAllocation(PowerPolicy.constant(1, 1, 1), (-1e-13,))
        assert alloc.alpha == (0.0,)

    def test_power_split_partition(self):
        alloc = HkAllocation(PowerPolicy.constant(1.0, 2.0, 2), (0.25, 0.75))
        np.testing.assert_allclose(alloc.private_powers, [0.5, 1.5])
        np.testing.assert_allclose(alloc.common_powers + alloc.private_powers, 2.0)


class TestHkOptimize:
    def test_reduces_to_interference_free_on_very_strong(self):
        proc = channel([(1, 6, 0, 1)])
        value, alloc, case = hk_optimize(proc, B11)
        want, _, _ = evs_sum_capacity(proc, B11)
        assert value == pytest.approx(want, abs=1e-9)
        assert alloc.alpha == (0.0,)
        assert case is MinimaxCase.Case1_S1smaller

    def test_reduces_to_us_on_all_strong(self):
        proc = channel([(1, 4, 0, 1), (1, 2, 0, 1)])
        value, alloc, _ = hk_optimize(proc, B11)
        want, _ = us_sum_capacity(proc, B11)
        assert value == pytest.approx(want, abs=1e-9)
        assert alloc.alpha == (0.0, 0.0)

    def test_reduces_to_treat_as_noise_on_all_weak(self):
        proc = channel([(1, 0.25, 0, 1), (2, 0.5, 0, 1.5)])
        value, alloc, case = hk_optimize(proc, B11)
        want, _ = uw1_sum_capacity(proc, B11)
        assert value == pytest.approx(want, abs=1e-9)
        assert alloc.alpha == (1.0, 1.0)
        assert case is MinimaxCase.Case3_equal

    def test_hybrid_two_state(self):
        value, alloc, case = hk_optimize(HYBRID_ONE_SIDED, B11)
        assert value == pytest.approx(1.988323471708746, abs=1e-3)
        assert alloc.alpha[0] == 0.0  # strong state carries no private power
        assert 0.0 <= alloc.alpha[1] <= 1.0
        assert case is MinimaxCase.Case3_equal
        sep, _ = separable_one_sided_baseline(HYBRID_ONE_SIDED, B11)
        assert sep <= value + 1e-9
        assert value <= interference_free_outer_bound(HYBRID_ONE_SIDED, B11) + 1e-9

    def test_receiver2_sided_channel_swaps_users(self):
        proc = channel([(1, 0.25, 0, 1), (2, 0.5, 0, 1.5)])
        value, alloc, case = hk_optimize(proc, PowerBudget(1.0, 0.7))
        twin_value, twin_alloc, twin_case = hk_optimize(
            proc.swap_users(), PowerBudget(0.7, 1.0)
        )
        assert twin_value == value
        assert twin_case is case
        assert twin_alloc.alpha == alloc.alpha
        assert twin_alloc.policy.p1 == alloc.policy.p2
        assert twin_alloc.policy.p2 == alloc.policy.p1

    def test_rate_helpers_accept_receiver2_allocation(self):
        proc = channel([(1, 0.25, 0, 1), (2, 0.5, 0, 1.5)])
        _, alloc, _ = hk_optimize(proc, PowerBudget(1.0, 0.7))
        mirror = proc.swap_users()
        _, mirror_alloc, _ = hk_optimize(mirror, PowerBudget(0.7, 1.0))
        assert hk_sum_rates(mirror, mirror_alloc) == hk_sum_rates(proc, alloc)
        assert hk_region_bounds(mirror, mirror_alloc) == hk_region_bounds(proc, alloc)

    def test_hybrid_value_attained_by_allocation(self):
        value, alloc, _ = hk_optimize(HYBRID_ONE_SIDED, B11)
        s1, s2 = hk_sum_rates(HYBRID_ONE_SIDED, alloc)
        assert min(s1, s2) == pytest.approx(value, abs=1e-6)
        p = HYBRID_ONE_SIDED.prob_array
        assert float(p @ alloc.policy.arrays[0]) <= 1.0 + 1e-7
        assert float(p @ alloc.policy.arrays[1]) <= 1.0 + 1e-7

    @pytest.mark.parametrize("seed", range(6))
    def test_many_state_hybrids(self, seed):
        # Three to five states: no face grid runs, so the ascent and the
        # polish alone decide.
        rng = np.random.default_rng(seed)
        n = 3 + seed % 3
        g11, g22 = rng.uniform(0.5, 3.0, (2, n))
        strong = rng.permutation(np.arange(n) % 2 == 0)
        g12 = g22 * np.where(strong, rng.uniform(1.0, 4.0, n), rng.uniform(0.05, 0.95, n))
        proc = channel(zip(g11, g12, np.zeros(n), g22), rng.dirichlet(np.ones(n)))
        budget = PowerBudget(*rng.uniform(0.5, 2.0, 2))
        assert not evs_condition(proc, budget).holds
        value, alloc, _ = hk_optimize(proc, budget)
        p = proc.prob_array
        x1, x2 = alloc.policy.arrays
        assert float(p @ x1) <= budget.p1_bar + POWER_TOL
        assert float(p @ x2) <= budget.p2_bar + POWER_TOL
        alpha = np.array(alloc.alpha)
        assert (alpha[strong] == 0.0).all()
        assert ((alpha >= 0.0) & (alpha <= 1.0)).all()
        assert min(hk_sum_rates(proc, alloc)) == pytest.approx(value, abs=1e-9)
        sep, _ = separable_one_sided_baseline(proc, budget)
        assert sep <= value + 1e-9
        assert value <= interference_free_outer_bound(proc, budget) + 1e-9


class TestSeparableBaseline:
    def test_all_weak_equals_treat_as_noise(self):
        proc = channel([(1, 0.25, 0, 1), (2, 0.5, 0, 1.5)])
        value, alloc = separable_one_sided_baseline(proc, B11)
        want, _ = uw1_sum_capacity(proc, B11)
        assert value == pytest.approx(want, abs=1e-6)
        assert alloc.alpha == (1.0, 1.0)

    def test_single_state_matches_joint_coding(self):
        for gains in ((1, 0.25, 0, 1), (1, 4, 0, 1)):
            proc = channel([gains])
            sep, _ = separable_one_sided_baseline(proc, B11)
            joint, _, _ = hk_optimize(proc, B11)
            assert sep == pytest.approx(joint, abs=1e-6)

    def test_hybrid_fixture_and_alpha_pattern(self):
        value, alloc = separable_one_sided_baseline(HYBRID_ONE_SIDED, B11)
        assert value == pytest.approx(1.931726093829266, abs=1e-3)
        assert alloc.alpha == (0.0, 1.0)

    def test_receiver2_sided_channel_swaps_users(self):
        budget = PowerBudget(1.0, 0.7)
        value, alloc = separable_one_sided_baseline(HYBRID_ONE_SIDED, budget)
        twin_value, twin_alloc = separable_one_sided_baseline(
            HYBRID_ONE_SIDED.swap_users(), PowerBudget(0.7, 1.0)
        )
        assert twin_value == value
        assert twin_alloc.alpha == alloc.alpha
        assert twin_alloc.policy.p1 == alloc.policy.p2
        assert twin_alloc.policy.p2 == alloc.policy.p1

    def test_budget_respected(self):
        value, alloc = separable_one_sided_baseline(HYBRID_ONE_SIDED, B11)
        p = HYBRID_ONE_SIDED.prob_array
        assert float(p @ alloc.policy.arrays[0]) <= 1.0 + 1e-7
        assert float(p @ alloc.policy.arrays[1]) <= 1.0 + 1e-7


class TestTdmBaseline:
    def test_clean_symmetric_state(self):
        assert tdm_baseline(channel([(1, 0, 0, 1)]), B11) == pytest.approx(
            np.log2(3.0), abs=1e-12
        )

    def test_vanishing_budget(self):
        assert tdm_baseline(channel([(1, 4, 4, 1)]), PowerBudget(0, 0)) == 0.0

    def test_loses_to_very_strong_sum_capacity(self):
        proc = channel([(1, 4, 4, 1)])
        assert tdm_baseline(proc, B11) == pytest.approx(1.584962500721156, abs=1e-12)
        assert tdm_baseline(proc, B11) < evs_sum_capacity(proc, B11)[0]


class TestOuterBoundDominance:
    def test_every_scheme_sits_below_the_outer_bound(self):
        cases = []
        evs_proc = channel([(1, 4, 4, 1)])
        cases.append((evs_sum_capacity(evs_proc, B11)[0], evs_proc))
        cases.append((us_sum_capacity(US_TWO_STATE, B11)[0], US_TWO_STATE))
        cases.append((us_separable_sum_rate(US_TWO_STATE, B11)[0], US_TWO_STATE))
        cases.append((uw1_sum_capacity(UW_ONE_SIDED, B11)[0], UW_ONE_SIDED))
        um_proc = channel([(1, 4, 0.25, 1)])
        cases.append((um_sum_capacity(um_proc, B11)[0], um_proc))
        cases.append((hk_optimize(HYBRID_ONE_SIDED, B11)[0], HYBRID_ONE_SIDED))
        cases.append((separable_one_sided_baseline(HYBRID_ONE_SIDED, B11)[0], HYBRID_ONE_SIDED))
        for proc in (evs_proc, US_TWO_STATE, UW_ONE_SIDED, HYBRID_ONE_SIDED):
            cases.append((tdm_baseline(proc, B11), proc))
            cases.append((sum_capacity(proc, B11)[0], proc))
        for value, proc in cases:
            assert value <= interference_free_outer_bound(proc, B11) + 1e-9
