"""Channel data model: construction, validation, serialization, sampling."""

import json
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from fading_ifc.channel import (
    POWER_TOL,
    ChannelFormatError,
    FadingProcess,
    FadingState,
    PowerBudget,
    PowerPolicy,
    channel_from_dict,
    channel_to_dict,
    expect,
    load_channel_json,
    make_discrete_channel,
    sample_rayleigh_channel,
    shannon_bits,
    validate_policy,
)


class TestFadingState:
    def test_fields_coerced_to_float(self):
        s = FadingState(1, 2, 3, 4)
        assert s.as_tuple() == (1.0, 2.0, 3.0, 4.0)
        assert all(isinstance(v, float) for v in s.as_tuple())

    @pytest.mark.parametrize("bad", [-0.5, float("nan"), float("inf")])
    def test_rejects_invalid_gain(self, bad):
        with pytest.raises(ChannelFormatError, match="g12"):
            FadingState(1.0, bad, 0.0, 1.0)

    def test_rejects_non_numeric(self):
        with pytest.raises(ChannelFormatError):
            FadingState(1.0, "x", 0.0, 1.0)
        # bool is an int subclass but makes no sense as a gain
        with pytest.raises(ChannelFormatError):
            FadingState(True, 1.0, 0.0, 1.0)


class TestFadingProcess:
    def test_probs_renormalized(self):
        proc = FadingProcess(
            states=(FadingState(1, 0, 0, 1), FadingState(2, 0, 0, 2)),
            probs=(0.5000001, 0.4999999),
        )
        assert math.isclose(sum(proc.probs), 1.0, abs_tol=1e-15)

    def test_prob_sum_off_by_too_much(self):
        with pytest.raises(ChannelFormatError, match="sum"):
            FadingProcess(states=(FadingState(1, 0, 0, 1),), probs=(0.6,))

    def test_zero_prob_rejected(self):
        with pytest.raises(ChannelFormatError, match="probs\\[1\\]"):
            FadingProcess(
                states=(FadingState(1, 0, 0, 1), FadingState(2, 0, 0, 2)),
                probs=(1.0, 0.0),
            )

    def test_length_mismatch(self):
        with pytest.raises(ChannelFormatError, match="2 entries for 1"):
            FadingProcess(states=(FadingState(1, 0, 0, 1),), probs=(0.5, 0.5))

    def test_gain_arrays_layout(self):
        proc = make_discrete_channel([((1, 2, 3, 4), 0.25), ((5, 6, 7, 8), 0.75)])
        g11, g12, g21, g22 = proc.gain_arrays
        np.testing.assert_array_equal(g11, [1, 5])
        np.testing.assert_array_equal(g12, [2, 6])
        np.testing.assert_array_equal(g21, [3, 7])
        np.testing.assert_array_equal(g22, [4, 8])

    def test_non_numeric_probability_names_its_index(self):
        with pytest.raises(ChannelFormatError, match="probs\\[0\\]"):
            FadingProcess(states=(FadingState(1, 0, 0, 1),), probs=("a",))

    @pytest.mark.parametrize(
        "prob", [np.float32(1.0), np.int64(1), Fraction(1, 1), Decimal("1.0")]
    )
    def test_real_probability_types_accepted(self, prob):
        state = FadingState(1, 0, 0, 1)
        assert FadingProcess(states=(state,), probs=(prob,)).probs == (1.0,)
        assert make_discrete_channel([(state, prob)]).probs == (1.0,)

    def test_bool_probability_rejected(self):
        with pytest.raises(ChannelFormatError, match="probs\\[0\\]"):
            FadingProcess(states=(FadingState(1, 0, 0, 1),), probs=(True,))

    def test_array_and_state_constructors_agree(self):
        gains = np.array([[1.0, 2.0, 0.0, 4.0], [5.0, 0.0, 7.0, 8.0]])
        from_states = FadingProcess(
            states=tuple(FadingState(*row) for row in gains), probs=(0.25, 0.75)
        )
        from_arrays = FadingProcess.from_arrays(gains, [0.25, 0.75])
        assert from_arrays == from_states
        assert hash(from_arrays) == hash(from_states)
        assert from_arrays.states == from_states.states
        assert from_arrays.probs == from_states.probs

    def test_nan_in_a_large_build_names_state_and_field(self):
        gains = np.ones((20000, 4))
        gains[13, 1] = np.nan
        with pytest.raises(
            ChannelFormatError, match=r"^states\[13\]: g12 must be finite and >= 0, got nan$"
        ):
            FadingProcess.from_arrays(gains, np.full(20000, 1.0 / 20000))

    def test_storage_is_read_only(self):
        proc = make_discrete_channel([((1, 2, 3, 4), 0.25), ((5, 6, 7, 8), 0.75)])
        for arr in (*proc.gain_arrays, proc.gains, proc.prob_array):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0
        with pytest.raises(AttributeError):
            proc.prob_array = np.array([0.5, 0.5])

    def test_from_arrays_copies_its_input(self):
        gains = np.array([[1.0, 2.0, 3.0, 4.0]])
        probs = np.array([1.0])
        proc = FadingProcess.from_arrays(gains, probs)
        gains[0, 0] = 9.0
        probs[0] = 0.5
        assert proc.gain_arrays[0][0] == 1.0 and proc.probs == (1.0,)

    def test_swap_users_involution(self):
        proc = make_discrete_channel([((1, 2, 3, 4), 0.3), ((5, 6, 7, 8), 0.7)])
        sw = proc.swap_users()
        assert sw.states[0].as_tuple() == (4.0, 3.0, 2.0, 1.0)
        assert sw.swap_users() == proc
        assert sw.probs == proc.probs


class TestShannonBits:
    def test_scalar_and_array(self):
        assert shannon_bits(1.0) == pytest.approx(1.0)
        assert shannon_bits(3.0) == pytest.approx(2.0)
        np.testing.assert_allclose(shannon_bits(np.array([0.0, 7.0])), [0.0, 3.0])


class TestBudgetAndPolicy:
    def test_budget_validation(self):
        b = PowerBudget(0, 2)
        assert b.p1_bar == 0.0 and b.p2_bar == 2.0
        with pytest.raises(ChannelFormatError, match="p2_bar"):
            PowerBudget(1.0, -0.1)
        with pytest.raises(ChannelFormatError):
            PowerBudget(float("inf"), 1.0)

    def test_policy_shape_checked(self):
        with pytest.raises(ChannelFormatError, match="disagree"):
            PowerPolicy(p1=(1.0,), p2=(1.0, 2.0))

    def test_policy_rejects_none_power(self):
        with pytest.raises(TypeError):
            PowerPolicy(p1=(1.0, None), p2=(0.0, 0.0))

    def test_policy_constructors_agree(self):
        a = PowerPolicy.constant(0.5, 1.5, 3)
        b = PowerPolicy.from_arrays(np.full(3, 0.5), np.full(3, 1.5))
        assert a == b
        p1, p2 = a.arrays
        np.testing.assert_array_equal(p1, 0.5)
        np.testing.assert_array_equal(p2, 1.5)

    def test_policy_tuples_and_arrays_agree(self):
        pol = PowerPolicy(p1=(1, 2.5), p2=(0.0, 3.0))
        assert pol.p1 == (1.0, 2.5) and all(isinstance(x, float) for x in pol.p1)
        assert pol.swap_users().p1 == pol.p2
        assert pol.swap_users().swap_users() == pol
        assert hash(pol) == hash(PowerPolicy.from_arrays(np.array([1.0, 2.5]), [0.0, 3.0]))

    def test_policy_arrays_are_read_only(self):
        p1, p2 = PowerPolicy.constant(0.5, 1.5, 3).arrays
        for arr in (p1, p2):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0

    def test_from_arrays_copies_its_input(self):
        x1, x2 = np.array([1.0, 2.0]), np.array([3.0, 4.0])
        pol = PowerPolicy.from_arrays(x1, x2)
        x1[0] = x2[1] = -7.0
        assert pol.p1 == (1.0, 2.0) and pol.p2 == (3.0, 4.0)
        np.testing.assert_array_equal(pol.arrays[0], [1.0, 2.0])

    def test_validate_policy_audit(self):
        proc = make_discrete_channel([((1, 0, 0, 1), 0.5), ((2, 0, 0, 2), 0.5)])
        budget = PowerBudget(1.0, 1.0)
        ok = validate_policy(proc, PowerPolicy(p1=(0.5, 1.5), p2=(2.0, 0.0)), budget)
        assert ok.feasible
        assert ok.mean_p1 == pytest.approx(1.0)
        # overshoot within POWER_TOL still counts as feasible
        near = validate_policy(
            proc, PowerPolicy.constant(1.0 + 0.5 * POWER_TOL, 1.0, 2), budget
        )
        assert near.within_p1
        over = validate_policy(proc, PowerPolicy.constant(1.01, 1.0, 2), budget)
        assert not over.within_p1 and not over.feasible
        neg = validate_policy(proc, PowerPolicy(p1=(-0.1, 0.1), p2=(0.0, 0.0)), budget)
        assert neg.has_negative and not neg.feasible

    def test_policy_state_count_must_match_process(self):
        proc = make_discrete_channel([((1, 0, 0, 1), 1.0)])
        with pytest.raises(ChannelFormatError):
            validate_policy(proc, PowerPolicy.constant(1, 1, 2), PowerBudget(1, 1))


class TestExpect:
    def test_array_and_callable_forms(self):
        proc = make_discrete_channel([((1, 0, 0, 1), 0.25), ((3, 0, 0, 1), 0.75)])
        assert expect(proc, np.array([4.0, 0.0])) == pytest.approx(1.0)
        assert expect(proc, lambda s: s.g11) == pytest.approx(0.25 + 3 * 0.75)
        with pytest.raises(ValueError, match="per-state"):
            expect(proc, np.array([1.0, 2.0, 3.0]))


class TestRayleighSampling:
    def test_shape_and_determinism(self):
        proc = sample_rayleigh_channel(2.0, n_samples=500, seed=7)
        assert proc.n_states == 500
        assert proc.probs[0] == pytest.approx(1.0 / 500)
        again = sample_rayleigh_channel(2.0, n_samples=500, seed=7)
        assert proc == again
        other = sample_rayleigh_channel(2.0, n_samples=500, seed=8)
        assert proc != other

    @pytest.mark.parametrize("bad", [2.5, True, "3"])
    def test_non_integer_sample_count_rejected(self, bad):
        with pytest.raises(ChannelFormatError, match="n_samples"):
            sample_rayleigh_channel(2.0, n_samples=bad)

    def test_stream_draws_g12_then_g21(self):
        proc = sample_rayleigh_channel(2.0, n_samples=300, seed=5)
        rng = np.random.default_rng(5)
        g12 = rng.exponential(scale=2.0, size=300)
        g21 = rng.exponential(scale=2.0, size=300)
        np.testing.assert_array_equal(proc.gain_arrays[1], g12)
        np.testing.assert_array_equal(proc.gain_arrays[2], g21)

    def test_direct_gains_fixed_cross_gains_exponential(self):
        proc = sample_rayleigh_channel(3.0, direct_gains=(1.5, 0.5), n_samples=4000, seed=0)
        g11, g12, g21, g22 = proc.gain_arrays
        np.testing.assert_array_equal(g11, 1.5)
        np.testing.assert_array_equal(g22, 0.5)
        # squared Rayleigh amplitudes are exponential with mean sigma2
        assert g12.mean() == pytest.approx(3.0, rel=0.1)
        assert g21.mean() == pytest.approx(3.0, rel=0.1)
        assert abs(np.corrcoef(g12, g21)[0, 1]) < 0.05


class TestJsonRoundTrip:
    DOC = {
        "states": [
            {"g11": 1.0, "g12": 4.0, "g21": 4.0, "g22": 1.0, "p": 0.25},
            {"g11": 2.0, "g12": 0.5, "g21": 0.5, "g22": 2.0, "p": 0.75},
        ],
        "budget": {"p1": 1.0, "p2": 2.0},
    }

    def test_round_trip(self, tmp_path):
        path = tmp_path / "chan.json"
        path.write_text(json.dumps(self.DOC))
        proc, budget = load_channel_json(str(path))
        assert proc.n_states == 2
        assert budget == PowerBudget(1.0, 2.0)
        assert channel_to_dict(proc, budget) == self.DOC

    @pytest.mark.parametrize(
        "mutate, field",
        [
            (lambda d: d.pop("budget"), "budget"),
            (lambda d: d["states"][0].pop("g21"), "g21"),
            (lambda d: d["states"][1].__setitem__("p", "x"), "states\\[1\\].p"),
            (lambda d: d["budget"].pop("p2"), "p2"),
            (lambda d: d["states"][0].__setitem__("g11", -1.0), "g11"),
        ],
    )
    def test_malformed_documents_name_the_field(self, mutate, field):
        doc = json.loads(json.dumps(self.DOC))
        mutate(doc)
        with pytest.raises(ChannelFormatError, match=field):
            channel_from_dict(doc)

    @pytest.mark.parametrize(
        "value, message",
        [
            (True, "states\\[1\\].g21 must be a number"),
            (float("nan"), "^states\\[1\\]: g21 must be finite"),
        ],
    )
    def test_bad_gain_value_names_entry_and_field(self, value, message):
        doc = json.loads(json.dumps(self.DOC))
        doc["states"][1]["g21"] = value
        with pytest.raises(ChannelFormatError, match=message):
            channel_from_dict(doc)

    def test_unreadable_and_invalid_files(self, tmp_path):
        with pytest.raises(ChannelFormatError, match="cannot read"):
            load_channel_json(str(tmp_path / "missing.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ChannelFormatError, match="not valid JSON"):
            load_channel_json(str(bad))


class TestMakeDiscreteChannel:
    def test_non_numeric_probability_names_its_entry(self):
        with pytest.raises(ChannelFormatError, match="entry 0"):
            make_discrete_channel([((1, 0, 0, 1), "x")])

    def test_non_numeric_gain_names_entry_and_field(self):
        with pytest.raises(ChannelFormatError, match="entry 1: g21"):
            make_discrete_channel([((1, 0, 0, 1), 0.5), ((1, 0, None, 1), 0.5)])

    def test_bad_gain_value_names_state_and_field(self):
        with pytest.raises(ChannelFormatError, match=r"states\[1\]: g11"):
            make_discrete_channel([((1, 0, 0, 1), 0.5), ((-1, 0, 0, 1), 0.5)])

    def test_empty_input_rejected(self):
        with pytest.raises(ChannelFormatError, match="non-empty"):
            make_discrete_channel([])
