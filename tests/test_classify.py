"""State labeling, sidedness, and channel sub-class precedence."""

import warnings

import numpy as np
import pytest

from fading_ifc.allocate import _waterfill_powers
from fading_ifc.channel import FadingState, PowerBudget, PowerPolicy
from fading_ifc.classify import (
    ChannelSubclass,
    Sidedness,
    StateLabel,
    _evs_check,
    channel_sidedness,
    classify_channel,
    classify_state,
    evs_condition,
    noisy_interference_condition,
    um_orientation,
)

from oracles import channel

B11 = PowerBudget(1.0, 1.0)


class TestStateLabels:
    @pytest.mark.parametrize(
        "gains, label",
        [
            ((1, 4, 4, 1), StateLabel.Strong),
            ((1, 1, 1, 1), StateLabel.Strong),  # ties count as strong
            ((1, 0.5, 0.5, 1), StateLabel.Weak),
            ((1, 4, 0.5, 1), StateLabel.Mixed),
            ((1, 0.5, 4, 1), StateLabel.Mixed),
            ((1, 0, 0, 1), StateLabel.Degenerate),
            ((1, 4, 0, 1), StateLabel.OneSidedStrong),
            ((1, 0.5, 0, 1), StateLabel.OneSidedWeak),
            ((1, 0, 4, 1), StateLabel.OneSidedStrong),
            ((1, 0, 0.5, 1), StateLabel.OneSidedWeak),
        ],
    )
    def test_labeling(self, gains, label):
        assert classify_state(FadingState(*gains)) is label

    def test_one_sided_comparison_uses_surviving_link(self):
        # g12 = 1 ties g22 = 1: tie is strong even though g21 is absent
        assert classify_state(FadingState(1, 1, 0, 1)) is StateLabel.OneSidedStrong


class TestSidedness:
    def test_two_sided(self):
        assert channel_sidedness(channel([(1, 2, 2, 1)])) is Sidedness.TwoSided

    def test_one_sided_each_way(self):
        assert channel_sidedness(channel([(1, 2, 0, 1)])) is Sidedness.OneSidedAtRx1
        assert channel_sidedness(channel([(1, 0, 2, 1)])) is Sidedness.OneSidedAtRx2

    def test_cross_link_must_vanish_in_every_state(self):
        proc = channel([(1, 2, 0, 1), (1, 2, 3, 1)])
        assert channel_sidedness(proc) is Sidedness.TwoSided


class TestEvsCondition:
    def test_very_strong_single_state(self):
        check = evs_condition(channel([(1, 4, 4, 1)]), B11)
        assert check.lhs == pytest.approx(2.0, abs=1e-12)
        assert check.rhs == pytest.approx(2.584962500721156, abs=1e-12)
        assert check.holds

    def test_strong_but_not_very_strong(self):
        check = evs_condition(channel([(1, 1.1025, 1.1025, 1)]), B11)
        assert not check.holds
        assert check.rhs < check.lhs + 1e-12

    def test_one_sided_uses_interfered_receiver_only(self):
        # receiver 2 is clean (g21 = 0), so only receiver 1's pooled rate caps
        check = evs_condition(channel([(1, 6, 0, 1)]), B11)
        assert check.lhs == pytest.approx(2.0, abs=1e-12)
        assert check.rhs == pytest.approx(3.0, abs=1e-12)
        assert check.holds

    def test_no_interference_means_vacuous_bound(self):
        check = evs_condition(channel([(1, 0, 0, 1)]), B11)
        assert check.rhs == np.inf
        assert check.holds

    def test_averaging_can_rescue_a_weak_state(self):
        # state 2 alone is weak, but the mixture still meets the averaged bound
        proc = channel([(1, 30, 30, 1), (1, 0.5, 0.5, 1)], [0.9, 0.1])
        assert evs_condition(proc, B11).holds
        assert classify_channel(proc, B11).subclass is ChannelSubclass.EVS

    def test_prepared_check_matches_per_budget_calls(self):
        # One _evs_check serves every budget of a process, in any order:
        # zero and subnormal gains, zero and unequal budgets.
        proc = channel(
            [(1e-310, 2, 3, 1), (0.7, 5, 0.2, 0), (2, 1, 4, 1e-310), (1, 0.5, 0.5, 3)],
            [0.1, 0.2, 0.3, 0.4],
        )
        g11, _, _, g22 = proc.gain_arrays
        p = proc.prob_array
        check = _evs_check(proc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for b1, b2 in [(1, 1), (0, 0), (0, 2), (1e-12, 1e4), (3, 1e-3), (50, 0.2), (1, 1)]:
                budget = PowerBudget(b1, b2)
                evs, x1, x2 = check(budget)
                assert evs == evs_condition(proc, budget)
                np.testing.assert_array_equal(x1, _waterfill_powers(g11, p, b1)[0])
                np.testing.assert_array_equal(x2, _waterfill_powers(g22, p, b2)[0])


class TestUmOrientation:
    def test_positive_orientation(self):
        assert um_orientation(channel([(1, 4, 0.25, 1)])) == 1

    def test_mirror_orientation(self):
        assert um_orientation(channel([(1, 0.25, 4, 1)])) == -1

    def test_inconsistent_orientation_is_none(self):
        assert um_orientation(channel([(1, 4, 0.25, 1), (1, 0.25, 4, 1)])) is None

    def test_all_strong_is_not_mixed(self):
        assert um_orientation(channel([(1, 4, 4, 1)])) is None


class TestChannelSubclass:
    def test_evs_beats_uniformly_strong(self):
        # every state is strong AND the averaged very-strong test passes
        rep = classify_channel(channel([(1, 4, 4, 1)]), B11)
        assert rep.subclass is ChannelSubclass.EVS
        assert rep.labels == (StateLabel.Strong,)

    def test_uniformly_strong(self):
        rep = classify_channel(channel([(1, 1.1025, 1.1025, 1)]), B11)
        assert rep.subclass is ChannelSubclass.US
        assert not rep.evs_check.holds

    def test_all_strong_states_can_still_average_to_evs(self):
        # both states are strong yet the averaged very-strong test passes,
        # so the mixture's sum capacity equals the interference-free bound
        proc = channel([(1, 1.1025, 6.25, 1), (1, 6.25, 1.1025, 1)])
        rep = classify_channel(proc, B11)
        assert rep.labels == (StateLabel.Strong, StateLabel.Strong)
        assert rep.subclass is ChannelSubclass.EVS
        assert rep.evs_check.rhs == pytest.approx(2.338912664857043, abs=1e-9)

    def test_uniformly_weak(self):
        rep = classify_channel(channel([(1, 0.25, 0.25, 1)]), B11)
        assert rep.subclass is ChannelSubclass.UW

    def test_uniformly_mixed(self):
        rep = classify_channel(channel([(1, 4, 0.25, 1)]), B11)
        assert rep.subclass is ChannelSubclass.UM

    def test_hybrid_fallback(self):
        proc = channel([(1, 4, 4, 1), (1, 0.25, 0.25, 1)])
        rep = classify_channel(proc, B11)
        assert rep.subclass is ChannelSubclass.Hybrid

    def test_one_sided_variants(self):
        assert (
            classify_channel(channel([(1, 6, 0, 1)]), B11).subclass
            is ChannelSubclass.OneSidedEVS
        )
        assert (
            classify_channel(channel([(1, 1.2, 0, 1)]), B11).subclass
            is ChannelSubclass.OneSidedUS
        )
        assert (
            classify_channel(channel([(1, 0.25, 0, 1)]), B11).subclass
            is ChannelSubclass.OneSidedUW
        )
        hyb = channel([(1, 4, 0, 1), (1, 0.25, 0, 1)])
        assert classify_channel(hyb, B11).subclass is ChannelSubclass.OneSidedHybrid

    def test_one_sided_strong_weak_split_uses_raw_gains(self):
        # a state whose surviving cross gain vanishes counts as weak
        proc = channel([(1, 2, 0, 1), (1, 0, 0, 1)])
        rep = classify_channel(proc, PowerBudget(5.0, 5.0))
        if not rep.evs_check.holds:
            assert rep.subclass is ChannelSubclass.OneSidedHybrid

    def test_report_carries_sidedness(self):
        rep = classify_channel(channel([(1, 0.25, 0, 1)]), B11)
        assert rep.sidedness is Sidedness.OneSidedAtRx1


class TestNoisyInterference:
    def test_tiny_cross_gains_pass(self):
        proc = channel([(1.0, 1e-4, 1e-4, 1.0)])
        check = noisy_interference_condition(proc, PowerPolicy.constant(1, 1, 1))
        assert check.overall and check.per_state == (True,)

    def test_strong_cross_gains_fail(self):
        proc = channel([(1, 4, 4, 1)])
        check = noisy_interference_condition(proc, PowerPolicy.constant(1, 1, 1))
        assert not check.overall

    def test_mixed_states_reported_per_state(self):
        proc = channel([(1.0, 1e-4, 1e-4, 1.0), (1, 4, 4, 1)])
        check = noisy_interference_condition(proc, PowerPolicy.constant(1, 1, 2))
        assert check.per_state == (True, False)
        assert not check.overall
