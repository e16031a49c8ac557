"""Randomized structural invariants over the cheap, closed-form operations."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from fading_ifc.channel import (
    FadingState,
    PowerBudget,
    PowerPolicy,
    channel_from_dict,
    channel_to_dict,
)
from fading_ifc.allocate import _project_capped, _waterfill_powers, dual_bound, waterfill
from fading_ifc.classify import StateLabel, classify_state
from fading_ifc.cmac import _engine_objectives, sum_rate_fixed_policy
from fading_ifc.ifc import HkAllocation, _face_grid, hk_sum_rates, tdm_baseline

from oracles import channel, face_grid_max, waterfill_bisect

finite_gain = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)
pos_gain = st.floats(min_value=1e-3, max_value=50.0, allow_nan=False)
power = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)
multiplier = st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=20.0))


@st.composite
def gain_tuples(draw, n_min=1, n_max=3, positive=False):
    n = draw(st.integers(n_min, n_max))
    g = pos_gain if positive else finite_gain
    return [tuple(draw(g) for _ in range(4)) for _ in range(n)]


@settings(max_examples=50, deadline=None)
@given(g=st.tuples(finite_gain, finite_gain, finite_gain, finite_gain))
def test_every_state_gets_exactly_one_label(g):
    label = classify_state(FadingState(*g))
    assert label in StateLabel


@settings(max_examples=50, deadline=None)
@given(g=st.tuples(pos_gain, pos_gain, pos_gain, pos_gain))
def test_state_label_survives_user_swap(g):
    state = FadingState(*g)
    mirrored = FadingState(g11=state.g22, g12=state.g21, g21=state.g12, g22=state.g11)
    # with all gains positive the label compares the same gain pairs either way
    assert classify_state(state) is classify_state(mirrored)


@settings(max_examples=40, deadline=None)
@given(
    gains=st.lists(st.one_of(st.just(0.0), pos_gain), min_size=1, max_size=6).filter(any),
    budget=st.floats(min_value=0.01, max_value=20.0),
)
def test_waterfill_spends_the_whole_budget(gains, budget):
    probs = [1.0 / len(gains)] * len(gains)
    res = waterfill(list(zip(gains, probs)), budget)
    assert (res.powers >= 0).all()
    spend = float(np.dot(probs, res.powers))
    # powers are nu - 1/g, so round-off scales with the water level nu
    scale = max(budget, res.water_level)
    assert abs(spend - budget) <= 1e-12 * scale
    ref = waterfill_bisect(gains, probs, budget)
    np.testing.assert_allclose(res.powers, ref, rtol=0.0, atol=1e-12 * scale)
    for g, q in zip(gains, res.powers):
        if g == 0.0:
            assert q == 0.0
        if q > 1e-9:
            assert 1.0 / g + q <= res.water_level + 1e-6
    # a batch solves each row as the single-row solve does
    rows = np.array([gains, [3.0 * g for g in gains]])
    batch, levels = _waterfill_powers(rows, np.array(probs), budget)
    for row, powers, level in zip(rows, batch, levels):
        single, nu = _waterfill_powers(row, np.array(probs), budget)
        np.testing.assert_array_equal(powers, single)
        assert level == nu


@settings(max_examples=40, deadline=None)
@given(
    y=st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=1, max_size=6),
    cap=st.floats(min_value=0.0, max_value=5.0),
)
@example(y=[0.0, 0.0, 0.0, 0.0, 3.0], cap=1.5525623477159467e-175)
def test_projection_returns_feasible_point(y, cap):
    y = np.asarray(y, dtype=float)
    p = np.full(y.size, 1.0 / y.size)
    x = _project_capped(y, p, cap)
    assert (x >= -1e-12).all()
    assert float(p @ x) <= cap + 1e-9


@settings(max_examples=40, deadline=None)
@given(
    states=gain_tuples(n_max=2),
    first_prob=st.floats(min_value=0.05, max_value=0.95),
    b1=power,
    b2=power,
    lam=st.tuples(multiplier, multiplier),
)
def test_dual_bound_dominates_grid_maximum(states, first_prob, b1, b2, lam):
    probs = [1.0] if len(states) == 1 else [first_prob, 1.0 - first_prob]
    proc = channel(states, probs)
    budget = PowerBudget(b1, b2)
    objs, _, _ = _engine_objectives(proc, True, True, True)
    for obj in objs.values():
        bound = dual_bound(proc, obj, budget, lam)
        if bound is None:
            # only a zero multiplier leaves a term unbounded
            assert 0.0 in lam
            continue
        best = face_grid_max(obj, budget)
        assert bound >= best - 1e-9 * (1.0 + abs(best))


@settings(max_examples=40, deadline=None)
@given(
    states=gain_tuples(n_max=2),
    first_prob=st.floats(min_value=0.05, max_value=0.95),
    b1=power,
    b2=power,
)
def test_face_grid_reaches_the_oracle_grid(states, first_prob, b1, b2):
    probs = [1.0] if len(states) == 1 else [first_prob, 1.0 - first_prob]
    proc = channel(states, probs)
    p = proc.prob_array
    objs, _, _ = _engine_objectives(proc, True, True, True)
    for obj in objs.values():
        # 61 points per face, as in the oracle: the first pass holds every
        # oracle point, and the refinements may only improve on it
        best, (x1, x2) = _face_grid([(p, b1, 61), (p, b2, 61)], obj.value, floor=9)
        assert best >= face_grid_max(obj, PowerBudget(b1, b2)) - 1e-6
        assert abs(obj.value(x1, x2) - best) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(states=gain_tuples(positive=True), data=st.data())
def test_fixed_policy_sum_rate_is_user_symmetric(states, data):
    proc = channel(states)
    n = proc.n_states
    p1 = [data.draw(power) for _ in range(n)]
    p2 = [data.draw(power) for _ in range(n)]
    pol = PowerPolicy(p1=tuple(p1), p2=tuple(p2))
    swapped = PowerPolicy(p1=tuple(p2), p2=tuple(p1))
    a = sum_rate_fixed_policy(proc, pol)
    b = sum_rate_fixed_policy(proc.swap_users(), swapped)
    assert abs(a - b) <= 1e-9


@settings(max_examples=25, deadline=None)
@given(states=gain_tuples(positive=True), data=st.data())
def test_full_private_split_collapses_the_sum_rates(states, data):
    one_sided = [(g11, g12, 0.0, g22) for g11, g12, _, g22 in states]
    proc = channel(one_sided)
    n = proc.n_states
    pol = PowerPolicy(
        p1=tuple(data.draw(power) for _ in range(n)),
        p2=tuple(data.draw(power) for _ in range(n)),
    )
    s1, s2 = hk_sum_rates(proc, HkAllocation(pol, (1.0,) * n))
    assert s1 == s2


@settings(max_examples=25, deadline=None)
@given(states=gain_tuples(positive=True), b1=power, b2=power)
def test_time_duplexing_is_nonnegative_and_monotone(states, b1, b2):
    proc = channel(states)
    lo = tdm_baseline(proc, PowerBudget(b1, b2))
    hi = tdm_baseline(proc, PowerBudget(b1 + 1.0, b2 + 1.0))
    assert 0.0 <= lo <= hi + 1e-12


@settings(max_examples=25, deadline=None)
@given(states=gain_tuples(positive=True), b1=power, b2=power)
def test_channel_document_round_trip(states, b1, b2):
    proc = channel(states)
    budget = PowerBudget(b1, b2)
    doc = channel_to_dict(proc, budget)
    proc2, budget2 = channel_from_dict(doc)
    assert proc2.states == proc.states
    np.testing.assert_allclose(proc2.probs, proc.probs, atol=1e-12)
    assert budget2 == budget
