"""Power allocation primitives: waterfilling, objectives, KKT audits, max-min solver."""

import warnings

import numpy as np
import pytest

from fading_ifc.channel import PowerBudget, PowerPolicy, PreconditionError, make_discrete_channel
from fading_ifc.allocate import (
    PerStateMinRate,
    RateObjective,
    _ascend,
    _project_capped,
    _waterfill_powers,
    dual_bound,
    kkt_multipliers,
    kkt_residual,
    kkt_residual_bundle,
    mac_opportunistic_waterfill,
    maximize_min_concave,
    waterfill,
)
from fading_ifc.classify import evs_condition

from oracles import (
    capped_projection_qp,
    central_diff_gradient,
    channel,
    mac_iterative_waterfill,
    random_feasible_policy,
)

B11 = PowerBudget(1.0, 1.0)


class TestWaterfill:
    def test_two_level_closed_form(self):
        res = waterfill([(1.0, 0.5), (4.0, 0.5)], 1.0)
        assert res.water_level == pytest.approx(1.625, abs=1e-9)
        np.testing.assert_allclose(res.powers, [0.625, 1.375], atol=1e-9)
        assert res.achieved_rate == pytest.approx(1.70043971814109, abs=1e-9)

    def test_budget_met_exactly(self):
        res = waterfill([(0.3, 0.2), (1.0, 0.5), (7.0, 0.3)], 2.0)
        spend = 0.2 * res.powers[0] + 0.5 * res.powers[1] + 0.3 * res.powers[2]
        assert spend == pytest.approx(2.0, abs=1e-9)

    def test_weak_state_shut_off(self):
        res = waterfill([(1.0, 0.5), (4.0, 0.5)], 0.1)
        assert res.powers[0] == 0.0
        assert res.powers[1] == pytest.approx(0.2, abs=1e-9)
        assert res.water_level == pytest.approx(0.45, abs=1e-9)

    def test_active_states_share_the_water_level(self):
        gains = [0.8, 1.3, 2.1, 5.0]
        res = waterfill([(g, 0.25) for g in gains], 1.5)
        for g, p in zip(gains, res.powers):
            if p > 1e-9:
                assert 1.0 / g + p == pytest.approx(res.water_level, abs=1e-8)

    @pytest.mark.parametrize(
        "dist, budget, msg",
        [
            ([], 1.0, "non-empty"),
            ([(1.0, 0.6)], 1.0, "sum to 1"),
            ([(-1.0, 1.0)], 1.0, "finite"),
            ([(1.0, 1.0)], 0.0, "budget"),
            ([(0.0, 1.0)], 1.0, "zero"),
            ([(1.0, None)], 1.0, "sum to 1"),
            ([(None, 1.0)], 1.0, "finite"),
            ([(1.0, 0.5), (1.0, 0.2, 3.0)], 1.0, "pairs"),
            ([("a", 1.0)], 1.0, "pairs"),
        ],
    )
    def test_input_validation(self, dist, budget, msg):
        with pytest.raises(PreconditionError, match=msg):
            waterfill(dist, budget)

    @pytest.mark.parametrize(
        "gains, budget",
        [
            ([0.0, 0.0], 1.0),
            ([[0.0, 0.0], [0.0, 0.0]], 1.0),
            ([1.0, 4.0], 0.0),
            ([[1.0, 4.0], [2.0, 3.0]], -1.0),
        ],
    )
    def test_silent_user_gets_zero_power(self, gains, budget):
        powers, nu = _waterfill_powers(np.array(gains), np.array([0.5, 0.5]), budget)
        assert powers.shape == np.shape(gains)
        np.testing.assert_array_equal(powers, 0.0)
        np.testing.assert_array_equal(nu, 0.0)

    def test_unrepresentable_reciprocal_gain_is_dead(self):
        # 1/g overflows below about 5.6e-309: such a state gets no power,
        # like a zero gain, and nothing warns.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = waterfill([(1e-310, 1.0)], 1.0)
            half = np.array([0.5, 0.5])
            powers, nu = _waterfill_powers(np.array([1e-310, 1e-310]), half, 1.0)
            mixed, mixed_nu = _waterfill_powers(np.array([1e-310, 1.0]), half, 1.0)
            check = evs_condition(
                make_discrete_channel([((1e-310, 0.5, 0.5, 1.0), 0.5), ((1.0, 0.5, 0.5, 1.0), 0.5)]),
                B11,
            )
        assert res.powers.tolist() == [0.0]
        assert res.water_level == 0.0
        np.testing.assert_array_equal(powers, 0.0)
        assert nu == 0.0
        np.testing.assert_allclose(mixed, [0.0, 2.0])
        assert mixed_nu == pytest.approx(3.0)
        assert np.isfinite([check.lhs, check.rhs]).all()


class TestRateObjective:
    def test_value_matches_direct_formula(self):
        p = np.array([0.4, 0.6])
        obj = RateObjective(p, [(1.0, np.array([1.0, 2.0]), 0.5), (-1.0, 0.0, 0.5)])
        x1 = np.array([1.0, 2.0])
        x2 = np.array([0.5, 1.5])
        want = float(
            p @ np.log2(1 + np.array([1.0, 2.0]) * x1 + 0.5 * x2)
            - p @ np.log2(1 + 0.5 * x2)
        )
        assert obj.value(x1, x2) == pytest.approx(want, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        p = rng.dirichlet(np.ones(3))
        obj = RateObjective(
            p,
            [
                (1.0, rng.uniform(0.1, 4, 3), rng.uniform(0.1, 4, 3)),
                (-1.0, np.zeros(3), rng.uniform(0.1, 4, 3)),
            ],
        )
        x1 = rng.uniform(0.2, 2, 3)
        x2 = rng.uniform(0.2, 2, 3)
        g1, g2 = obj.gradient(x1, x2)
        f1, f2 = central_diff_gradient(obj.value, x1, x2)
        np.testing.assert_allclose(g1, f1, rtol=1e-6, atol=1e-8)
        np.testing.assert_allclose(g2, f2, rtol=1e-6, atol=1e-8)

    def test_scalar_coefficients_broadcast(self):
        obj = RateObjective(np.array([0.5, 0.5]), [(2.0, 1.0, 0.0)])
        assert obj.value(np.ones(2), np.zeros(2)) == pytest.approx(2.0)


class TestPerStateMinRate:
    def test_value_is_expected_min(self):
        p = np.array([0.5, 0.5])
        branches = [[(1.0, 1.0, 0.0)], [(1.0, 0.0, 1.0)]]
        obj = PerStateMinRate(p, branches)
        x1 = np.array([1.0, 3.0])
        x2 = np.array([3.0, 1.0])
        # per state the min of log2(1+x1) and log2(1+x2) is log2(2) = 1
        assert obj.value(x1, x2) == pytest.approx(1.0, abs=1e-12)
        bv = obj.branch_values(x1, x2)
        assert bv.shape == (2, 2)
        np.testing.assert_allclose(bv[0], np.log2(1 + x1))

    def test_gradient_follows_minimizing_branch(self):
        p = np.array([1.0])
        obj = PerStateMinRate(p, [[(1.0, 1.0, 0.0)], [(1.0, 0.0, 1.0)]])
        # branch 1 (user 2's rate) is strictly smaller here
        g1, g2 = obj.gradient(np.array([5.0]), np.array([1.0]))
        assert g1[0] == 0.0
        assert g2[0] == pytest.approx(1.0 / (2.0 * np.log(2.0)))

    def test_gradient_matches_fd_away_from_kinks(self):
        rng = np.random.default_rng(11)
        p = rng.dirichlet(np.ones(2))
        obj = PerStateMinRate(
            p,
            [
                [(1.0, rng.uniform(0.5, 2, 2), rng.uniform(0.5, 2, 2))],
                [(1.0, rng.uniform(0.5, 2, 2), 0.0), (1.0, 0.0, rng.uniform(0.5, 2, 2))],
            ],
        )
        x1 = np.array([0.7, 1.9])
        x2 = np.array([1.1, 0.4])
        gap = np.abs(np.diff(obj.branch_values(x1, x2), axis=0))
        assert gap.min() > 1e-4, "fixture accidentally sits on a kink"
        g1, g2 = obj.gradient(x1, x2)
        f1, f2 = central_diff_gradient(obj.value, x1, x2)
        np.testing.assert_allclose(g1, f1, rtol=1e-5, atol=1e-8)
        np.testing.assert_allclose(g2, f2, rtol=1e-5, atol=1e-8)


class TestBatchedObjectives:
    @staticmethod
    def objectives(rng, n):
        def coef():
            return rng.uniform(0.1, 4.0, n)

        zero = np.zeros(n)
        one_branch = RateObjective(
            rng.dirichlet(np.ones(n)),
            [(1.0, coef(), coef()), (-1.0, zero, coef()), (0.7, zero, coef())],
        )
        # branches of different lengths exercise the zero padding
        per_state_min = PerStateMinRate(
            rng.dirichlet(np.ones(n)),
            [[(1.0, coef(), coef())], [(1.0, coef(), zero), (1.0, zero, coef())]],
        )
        return one_branch, per_state_min

    def test_rows_equal_single_calls(self):
        rng = np.random.default_rng(17)
        for n in (1, 3, 8):
            X1, X2 = rng.uniform(0.0, 3.0, (2, 6, n))
            for obj in self.objectives(rng, n):
                values = obj.value(X1, X2)
                G1, G2 = obj.gradient(X1, X2)
                assert values.shape == (6,) and G1.shape == G2.shape == (6, n)
                for i in range(6):
                    assert values[i] == pytest.approx(obj.value(X1[i], X2[i]), abs=1e-12)
                    g1, g2 = obj.gradient(X1[i], X2[i])
                    np.testing.assert_allclose(G1[i], g1, rtol=0, atol=1e-12)
                    np.testing.assert_allclose(G2[i], g2, rtol=0, atol=1e-12)


class TestAscend:
    def test_each_row_matches_its_own_run(self):
        rng = np.random.default_rng(23)
        proc = channel([(1, 0.3, 0.2, 2), (3, 1.0, 0.4, 1), (0.5, 2.0, 1.5, 0.8)],
                       [0.2, 0.5, 0.3])
        p = proc.prob_array
        budget = PowerBudget(1.3, 0.7)
        g11, g12, g21, g22 = proc.gain_arrays
        objs = [RateObjective(p, [(1.0, g11, g12)]), RateObjective(p, [(1.0, g21, g22)])]
        starts = rng.uniform(0.0, 2.0, (2, 5, 3))

        def project(x):
            return _project_capped(x, p, np.array([[budget.p1_bar], [budget.p2_bar]]))

        values, points, steps = _ascend(objs, starts, project, p, budget, 300)
        assert steps == 300
        for i in range(5):
            alone_v, alone_x, _ = _ascend(objs, starts[:, i : i + 1], project, p, budget, 300)
            assert values[i] == pytest.approx(alone_v[0], abs=1e-12)
            np.testing.assert_allclose(points[:, i], alone_x[:, 0], rtol=0, atol=1e-12)
            x1, x2 = points[:, i]
            assert min(o.value(x1, x2) for o in objs) == pytest.approx(values[i], abs=1e-12)


class TestProjectCapped:
    def test_projection_is_feasible_and_idempotent(self):
        rng = np.random.default_rng(0)
        p = rng.dirichlet(np.ones(5))
        y = rng.normal(0, 2, 5)
        x = _project_capped(y, p, 1.0)
        assert (x >= 0).all()
        assert float(p @ x) <= 1.0 + 1e-9
        np.testing.assert_allclose(_project_capped(x, p, 1.0), x, atol=1e-9)

    def test_interior_points_untouched(self):
        p = np.full(3, 1.0 / 3.0)
        y = np.array([0.1, 0.2, 0.3])
        np.testing.assert_allclose(_project_capped(y, p, 1.0), y, atol=1e-12)

    def test_zero_cap_silences(self):
        p = np.array([0.5, 0.5])
        np.testing.assert_allclose(_project_capped(np.array([3.0, 4.0]), p, 0.0), 0.0)

    def test_matches_weighted_qp_with_held_entries(self):
        # The rate-splitting ascent projects user 2's (common, private)
        # powers as one vector with probabilities (p, p), the private
        # entries of strong states entering at zero.
        rng = np.random.default_rng(21)
        for _ in range(40):
            p = rng.dirichlet(np.ones(3))
            pp = np.concatenate([p, p])
            y = rng.uniform(-1.0, 3.0, 6)
            held = np.concatenate([np.zeros(3, bool), rng.random(3) < 0.3])
            cap = rng.uniform(0.2, 1.5)
            x = _project_capped(np.where(held, 0.0, y), pp, cap)
            assert (x[held] == 0.0).all()
            np.testing.assert_allclose(x, capped_projection_qp(y, pp, cap, held), atol=1e-6)


class TestKktResidual:
    def test_zero_at_waterfilling_optimum(self):
        proc = channel([(1, 0, 0, 1), (4, 0, 0, 1)])
        res = waterfill([(1.0, 0.5), (4.0, 0.5)], 1.0)
        obj = RateObjective(proc.prob_array, [(1.0, np.array([1.0, 4.0]), 0.0)])
        pol = PowerPolicy.from_arrays(res.powers, np.zeros(2))
        assert kkt_residual(proc, pol, obj, B11) <= 1e-8

    def test_positive_at_suboptimal_point(self):
        proc = channel([(1, 0, 0, 1), (4, 0, 0, 1)])
        obj = RateObjective(proc.prob_array, [(1.0, np.array([1.0, 4.0]), 0.0)])
        pol = PowerPolicy(p1=(1.0, 1.0), p2=(0.0, 0.0))
        assert kkt_residual(proc, pol, obj, B11) > 1e-3


class TestMaximizeMinConcave:
    def test_single_objective_reduces_to_waterfilling(self):
        proc = channel([(1, 0, 0, 1), (4, 0, 0, 1)])
        obj = RateObjective(proc.prob_array, [(1.0, np.array([1.0, 4.0]), 0.0)])
        rep = maximize_min_concave(proc, [obj], B11, 1e-6)
        assert rep.value == pytest.approx(1.70043971814109, abs=1e-6)
        assert rep.converged

    def test_minimax_balances_symmetric_objectives(self):
        proc = channel([(1, 0, 0, 1)])
        o1 = RateObjective(proc.prob_array, [(1.0, 1.0, 0.0)])
        o2 = RateObjective(proc.prob_array, [(1.0, 0.0, 1.0)])
        rep = maximize_min_concave(proc, [o1, o2], B11, 1e-6)
        # each objective ignores one user, so both hit log2(2) at full power
        assert rep.value == pytest.approx(1.0, abs=1e-6)

    def test_dominates_random_feasible_policies(self):
        rng = np.random.default_rng(5)
        proc = channel([(1, 0.3, 0.2, 2), (3, 1.0, 0.4, 1)])
        objs = [
            RateObjective(proc.prob_array, [(1.0, proc.gain_arrays[0], proc.gain_arrays[1])]),
            RateObjective(proc.prob_array, [(1.0, proc.gain_arrays[2], proc.gain_arrays[3])]),
        ]
        rep = maximize_min_concave(proc, objs, B11, 1e-6)
        for _ in range(200):
            pol = random_feasible_policy(rng, proc, B11)
            x1, x2 = pol.arrays
            assert min(o.value(x1, x2) for o in objs) <= rep.value + 1e-6

    def test_bundle_residual_small_at_optimum(self):
        proc = channel([(1, 0.3, 0.2, 2), (3, 1.0, 0.4, 1)])
        objs = [
            RateObjective(proc.prob_array, [(1.0, proc.gain_arrays[0], proc.gain_arrays[1])]),
            RateObjective(proc.prob_array, [(1.0, proc.gain_arrays[2], proc.gain_arrays[3])]),
        ]
        rep = maximize_min_concave(proc, objs, B11, 1e-6)
        assert kkt_residual_bundle(proc, rep.policy, objs, B11) <= 1e-4


class TestDualBound:
    def test_tight_at_the_optimum(self):
        # strong duality: at the optimum's own multipliers the bound is the value
        rng = np.random.default_rng(12)
        for n in (1, 3, 16):
            gains = rng.exponential(1.0, (n, 4))
            proc = channel([tuple(r) for r in gains], rng.dirichlet(np.ones(n)))
            budget = PowerBudget(*rng.uniform(0.2, 3.0, 2))
            g11, g12, _, g22 = proc.gain_arrays
            p = proc.prob_array
            links = RateObjective(p, [(1.0, g11, 0.0), (1.0, 0.0, g22)])
            x1, _ = _waterfill_powers(g11, p, budget.p1_bar)
            x2, _ = _waterfill_powers(g22, p, budget.p2_bar)
            rx1 = RateObjective(p, [(1.0, g11, g12)])
            mac = mac_opportunistic_waterfill(proc, 1, budget).policy
            for obj, policy in ((links, PowerPolicy.from_arrays(x1, x2)), (rx1, mac)):
                lam = kkt_multipliers(proc, policy, obj, budget)
                value = obj.value(*policy.arrays)
                assert dual_bound(proc, obj, budget, lam) == pytest.approx(value, abs=1e-9)
                # any other multiplier gives a looser bound
                assert dual_bound(proc, obj, budget, (1.5 * lam[0], lam[1])) > value

    def test_none_outside_the_closed_form(self):
        proc = channel([(1, 2, 0, 0), (3, 1, 0, 0)])
        p = proc.prob_array
        twice = RateObjective(p, [(1.0, 1.0, 0.0), (1.0, 2.0, 0.0)])
        assert dual_bound(proc, twice, B11, (1.0, 1.0)) is None
        negative = RateObjective(p, [(-1.0, 1.0, 0.0)])
        assert dual_bound(proc, negative, B11, (1.0, 1.0)) is None
        joint = RateObjective(p, [(1.0, 1.0, 2.0)])
        assert dual_bound(proc, joint, B11, (0.0, 1.0)) is None
        # a user with no gain in any term needs no multiplier
        solo = RateObjective(p, [(1.0, 1.0, 0.0)])
        assert dual_bound(proc, solo, B11, (1.0, 0.0)) is not None


class TestMacOpportunisticWaterfill:
    def test_opposed_fading_schedules_the_stronger_user(self):
        proc = channel([(4, 1, 0, 0), (1, 4, 0, 0)])
        rep = mac_opportunistic_waterfill(proc, 1, B11)
        assert rep.value == pytest.approx(np.log2(9.0), abs=1e-9)
        np.testing.assert_allclose(rep.policy.arrays[0], [2.0, 0.0], atol=1e-6)
        np.testing.assert_allclose(rep.policy.arrays[1], [0.0, 2.0], atol=1e-6)
        assert rep.kkt_residual <= 1e-6

    def test_budgets_respected(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            gains = rng.uniform(0.1, 5, (3, 4))
            proc = channel([tuple(r) for r in gains])
            budget = PowerBudget(*rng.uniform(0.3, 2.0, 2))
            rep = mac_opportunistic_waterfill(proc, 2, budget)
            p = proc.prob_array
            assert float(p @ rep.policy.arrays[0]) <= budget.p1_bar + 1e-7
            assert float(p @ rep.policy.arrays[1]) <= budget.p2_bar + 1e-7
            assert rep.kkt_residual <= 1e-5

    def test_one_user_is_one_exact_solve(self):
        proc = channel([(1, 0, 0, 0), (4, 0, 0, 0)])
        rep = mac_opportunistic_waterfill(proc, 1, B11)
        assert rep.iterations == 1
        np.testing.assert_allclose(rep.policy.arrays[0], [0.625, 1.375], atol=1e-12)
        np.testing.assert_array_equal(rep.policy.arrays[1], 0.0)
        silent = mac_opportunistic_waterfill(proc, 1, PowerBudget(0.0, 1.0))
        assert silent.iterations == 0
        np.testing.assert_array_equal(silent.policy.arrays[0], 0.0)

    @pytest.mark.parametrize("n", [1, 2, 8, 64])
    def test_matches_iterative_waterfilling(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(3):
            gains = rng.exponential(1.0, (n, 4)) * np.array([1.0, 0.3, 3.0, 1.0])
            proc = channel([tuple(r) for r in gains], rng.dirichlet(np.ones(n)))
            budget = PowerBudget(*rng.uniform(0.2, 3.0, 2))
            for receiver in (1, 2):
                rep = mac_opportunistic_waterfill(proc, receiver, budget)
                want, _, _ = mac_iterative_waterfill(proc, receiver, budget)
                assert rep.value == pytest.approx(want, abs=1e-9)
                assert rep.converged

    def test_tied_states_split_the_budgets(self):
        # both users see the same gain in every state: every state is a tie
        proc = channel([(1, 1, 0, 0), (2, 2, 0, 0), (0.5, 0.5, 0, 0)])
        budget = PowerBudget(0.4, 1.3)
        rep = mac_opportunistic_waterfill(proc, 1, budget)
        want, _, _ = mac_iterative_waterfill(proc, 1, budget)
        assert rep.value == pytest.approx(want, abs=1e-9)
        assert rep.converged
        p = proc.prob_array
        assert float(p @ rep.policy.arrays[0]) == pytest.approx(0.4, abs=1e-12)
        assert float(p @ rep.policy.arrays[1]) == pytest.approx(1.3, abs=1e-12)

    def test_many_states_converge_in_few_steps(self):
        rng = np.random.default_rng(2)
        g = rng.exponential(1.0, (4, 2000))
        proc = channel(list(zip(g[0], 0.3 * g[1], 3.0 * g[2], g[3])))
        for receiver in (1, 2):
            rep = mac_opportunistic_waterfill(proc, receiver, B11)
            assert rep.converged
            assert rep.kkt_residual <= 1e-12
            # about 60 ratio bisection steps, then one or two polish rounds
            assert rep.iterations <= 100

    def test_receiver_argument_checked(self):
        with pytest.raises(ValueError, match="receiver"):
            mac_opportunistic_waterfill(channel([(1, 1, 1, 1)]), 3, B11)

    def test_all_zero_gains_rejected(self):
        with pytest.raises(PreconditionError, match="zero gain"):
            mac_opportunistic_waterfill(channel([(0, 0, 1, 1)]), 1, B11)
