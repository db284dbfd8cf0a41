"""Knapsack allocator oracles: hand instances, exact-vs-brute sweeps, duality."""

import hashlib
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from promolab import allocator
from promolab.allocator import (
    AllocationProblem,
    build_problem,
    check_feasible,
    load_plan_csv,
    plan_totals,
    solve_exact_dp,
    solve_lagrangian,
)
from promolab.datagen import GenConfig, generate_rct
from promolab.errors import InfeasiblePlanError, InstanceTooLargeError, ValidationError
from promolab.nncore import make_rng

import oracles
from oracles import brute_force, full_bisection_lagrangian


def random_problem(rng, n_max=8, m_max=4):
    n = int(rng.integers(1, n_max + 1))
    m = int(rng.integers(2, m_max + 1))
    value = rng.uniform(-1.0, 5.0, size=(n, m))
    cost = rng.uniform(0.05, 2.0, size=(n, m))
    cost[:, 0] = 0.0
    budget = float(rng.uniform(0.0, 0.6 * cost.sum()))
    return AllocationProblem(value=value, cost=cost, budget=budget)


class TestHandInstances:
    def test_two_customer_exact(self):
        # Only one of the two paid arms fits in the budget; the better one wins.
        problem = AllocationProblem(
            value=np.array([[0.0, 5.0], [0.0, 4.0]]),
            cost=np.array([[0.0, 3.0], [0.0, 2.0]]),
            budget=4.0,
        )
        plan = solve_exact_dp(problem)
        assert tuple(plan.arms) == (1, 0)
        assert plan.total_value == 5.0
        assert plan.total_cost == 3.0

    def test_zero_budget_goes_all_control(self):
        problem = AllocationProblem(
            value=np.array([[1.0, 9.0], [2.0, 9.0]]),
            cost=np.array([[0.0, 1.0], [0.0, 1.0]]),
            budget=0.0,
        )
        for solver in (solve_exact_dp, solve_lagrangian, brute_force):
            plan = solver(problem)
            assert tuple(plan.arms) == (0, 0)
            assert plan.total_cost == 0.0

    def test_loose_budget_takes_argmax(self):
        rng = make_rng(31)
        value = rng.uniform(0.0, 3.0, size=(6, 3))
        cost = rng.uniform(0.1, 1.0, size=(6, 3))
        cost[:, 0] = 0.0
        problem = AllocationProblem(value=value, cost=cost, budget=1e6)
        expected = value.argmax(axis=1)
        for solver in (solve_exact_dp, solve_lagrangian):
            plan = solver(problem)
            np.testing.assert_array_equal(plan.arms, expected)

    def test_tie_breaks_to_lowest_arm(self):
        problem = AllocationProblem(
            value=np.array([[2.0, 2.0, 2.0]]),
            cost=np.array([[0.0, 0.5, 1.0]]),
            budget=10.0,
        )
        assert solve_exact_dp(problem).arms[0] == 0
        assert brute_force(problem).arms[0] == 0

    def test_negative_value_arm_never_forced(self):
        # Control beats a paid arm with negative incremental value.
        problem = AllocationProblem(
            value=np.array([[1.0, -2.0]]),
            cost=np.array([[0.0, 0.5]]),
            budget=5.0,
        )
        assert solve_exact_dp(problem).arms[0] == 0


class TestDpAgainstBruteForce:
    def test_exact_on_random_instances(self):
        rng = make_rng(101)
        for trial in range(300):
            problem = random_problem(rng)
            expected = brute_force(problem)
            got = solve_exact_dp(problem)
            assert got.total_value == pytest.approx(expected.total_value, abs=1e-9), trial
            check_feasible(problem, got.arms)
            # reported totals must match an independent recomputation
            value, cost = plan_totals(problem, got.arms)
            assert got.total_value == pytest.approx(value, abs=1e-12)
            assert got.total_cost == pytest.approx(cost, abs=1e-12)

    def test_dp_handles_cost_rounding(self):
        # costs that are not multiples of the resolution still satisfy the budget
        problem = AllocationProblem(
            value=np.array([[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]]),
            cost=np.array([[0.0, 0.33334], [0.0, 0.33334], [0.0, 0.33334]]),
            budget=1.0,
        )
        plan = solve_exact_dp(problem)
        check_feasible(problem, plan.arms)
        assert plan.total_value >= 2.0


def seven_arm_problems():
    coupons = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
    _, truth = generate_rct(GenConfig(n_customers=1500, coupon_values=coupons, seed=71))
    for share in (0.05, 0.1, 0.2, 0.4):
        yield build_problem(truth.mean_enduring, truth.p_direct, coupons, share * truth.n)
    rng = make_rng(72)
    for _ in range(4):
        value = rng.uniform(0.0, 5.0, size=(400, 7))
        cost = rng.uniform(0.05, 2.0, size=(400, 7))
        cost[:, 0] = 0.0
        yield AllocationProblem(value=value, cost=cost, budget=float(rng.uniform(0.05, 0.5) * 400))


class TestLagrangian:
    def test_feasible_and_within_dual_gap(self):
        rng = make_rng(202)
        for trial in range(120):
            problem = random_problem(rng)
            plan = solve_lagrangian(problem)
            check_feasible(problem, plan.arms)
            assert plan.dual_bound is not None
            assert plan.total_value <= plan.dual_bound + 1e-6
            exact = brute_force(problem)
            assert plan.total_value <= exact.total_value + 1e-9
            # certified gap: optimum is sandwiched between plan value and dual
            assert exact.total_value <= plan.dual_bound + 1e-6

    def test_bisection_stops_once_converged(self, monkeypatch):
        # once lo and hi are adjacent floats the remaining steps change
        # nothing, so stopping early must give the full loop's plan exactly.
        # The solver scores through _arms_and_leads, the reference through
        # lagrangian_argmax. Two identical customers that switch arm at
        # lam = 3 both stay active to the end, so the solver's block steps,
        # not its single-customer finish, have to stop at adjacent floats.
        twins = AllocationProblem(value=[[0.0, 3.0]] * 2, cost=[[0.0, 1.0]] * 2, budget=1.0)
        blocks, argmax_calls = [], []
        arms_and_leads, argmax = allocator._arms_and_leads, oracles.lagrangian_argmax

        def counting_blocks(scores):
            blocks.append(scores.shape[1])
            return arms_and_leads(scores)

        def counting_argmax(problem, lam):
            argmax_calls.append(lam)
            return argmax(problem, lam)

        monkeypatch.setattr(allocator, "_arms_and_leads", counting_blocks)
        monkeypatch.setattr(oracles, "lagrangian_argmax", counting_argmax)
        for problem in [*seven_arm_problems(), twins]:
            blocks.clear()
            plan = solve_lagrangian(problem)
            calls = len(blocks)
            argmax_calls.clear()
            reference = full_bisection_lagrangian(problem)
            np.testing.assert_array_equal(plan.arms, reference.arms)
            assert plan.total_value == reference.total_value
            assert plan.total_cost == reference.total_cost
            assert plan.dual_bound == reference.dual_bound
            # a float64 interval shrinks to adjacent floats in about 55 halvings
            assert calls < len(argmax_calls) - 40

    def test_gap_bounded_by_one_customer_spread(self):
        rng = make_rng(203)
        for trial in range(80):
            problem = random_problem(rng)
            plan = solve_lagrangian(problem)
            exact = brute_force(problem)
            spread = float((problem.value.max(axis=1) - problem.value.min(axis=1)).max())
            assert exact.total_value - plan.total_value <= spread + 1e-9

    def test_matches_exact_on_larger_instances(self):
        # not guaranteed optimal, but should land within the dual gap on
        # instances too big for brute force; costs on a cent grid keep the
        # DP reference exact
        rng = make_rng(204)
        value = rng.uniform(0.0, 4.0, size=(300, 5))
        cost = np.round(rng.uniform(0.02, 1.5, size=(300, 5)), 2)
        cost[:, 0] = 0.0
        problem = AllocationProblem(value=value, cost=cost, budget=40.0)
        plan = solve_lagrangian(problem)
        exact = solve_exact_dp(problem, cost_resolution=0.01)
        assert plan.total_value <= exact.total_value + 1e-9
        assert exact.total_value <= plan.dual_bound + 1e-6
        assert plan.total_value >= 0.98 * exact.total_value

    def test_budget_monotonicity(self):
        rng = make_rng(205)
        value = rng.uniform(0.0, 4.0, size=(200, 4))
        cost = rng.uniform(0.05, 1.2, size=(200, 4))
        cost[:, 0] = 0.0
        values = []
        for budget in [0.0, 5.0, 15.0, 40.0, 100.0]:
            plan = solve_lagrangian(AllocationProblem(value=value, cost=cost, budget=budget))
            values.append(plan.total_value)
        assert np.all(np.diff(values) >= -1e-9)


def assert_matches_full_bisection(problem):
    plan = solve_lagrangian(problem)
    reference = full_bisection_lagrangian(problem)
    np.testing.assert_array_equal(plan.arms, reference.arms)
    assert plan.total_value == reference.total_value
    assert plan.total_cost == reference.total_cost
    assert plan.dual_bound == reference.dual_bound


@st.composite
def small_problems(draw):
    n = draw(st.integers(1, 10))
    m = draw(st.integers(1, 6))
    value = draw(hnp.arrays(np.float64, (n, m), elements=st.floats(-100.0, 100.0)))
    cost = draw(hnp.arrays(np.float64, (n, m), elements=st.floats(0.0, 10.0)))
    zero_arm = draw(st.integers(0, m - 1))
    cost[:, zero_arm] = 0.0
    share = draw(st.floats(0.0, 1.0))
    budget = share * float(cost.max(axis=1).sum())
    return AllocationProblem(value=value, cost=cost, budget=budget, zero_arm=zero_arm)


class TestActiveSetExactness:
    """Rescoring only unsettled customers gives the full bisection's plan, bytes and all."""

    @settings(max_examples=200, deadline=None)
    @given(problem=small_problems())
    def test_small_random_problems(self, problem):
        assert_matches_full_bisection(problem)

    def test_collinear_ties_and_duplicated_arms(self):
        # v_j = v_0 + k * c_j on exact grids: at lam = k every arm of a
        # customer scores the same, and bisection midpoints reach integers
        rng = make_rng(501)
        for _ in range(40):
            n, m = int(rng.integers(1, 40)), int(rng.integers(2, 7))
            cost = rng.integers(0, 5, size=(n, m)) * 0.5
            cost[:, 0] = 0.0
            value = rng.integers(0, 4, size=(n, 1)) + rng.integers(0, 4, size=(n, 1)) * cost
            dup = int(rng.integers(1, m))
            value[:, dup], cost[:, dup] = value[:, dup - 1], cost[:, dup - 1]
            budget = float(rng.uniform(0.0, 0.7)) * float(cost.max(axis=1).sum())
            assert_matches_full_bisection(AllocationProblem(value=value, cost=cost, budget=budget))

    def test_arms_a_few_ulps_apart(self):
        # arms 1 and 2 differ by a few ulps in value and cost, so which one
        # scores higher is decided by rounding at every multiplier; a lead
        # of a few ulps at both ends of the bracket must not settle them
        rng = make_rng(506)
        for _ in range(40):
            n = int(rng.integers(5, 200))
            value = rng.uniform(1.0, 5.0, size=n)
            cost = rng.uniform(0.05, 2.0, size=n)
            near_value = value + rng.integers(-3, 4, size=n) * np.spacing(value)
            near_cost = cost + rng.integers(-3, 4, size=n) * np.spacing(cost)
            problem = AllocationProblem(
                value=np.column_stack([np.zeros(n), value, near_value]),
                cost=np.column_stack([np.zeros(n), cost, near_cost]),
                budget=float(rng.uniform(0.05, 0.9)) * float(cost.sum()),
            )
            assert_matches_full_bisection(problem)

    def test_values_and_costs_on_a_tenth_grid(self):
        rng = make_rng(502)
        for _ in range(40):
            n, m = int(rng.integers(1, 60)), int(rng.integers(2, 8))
            value = np.round(rng.uniform(0.0, 3.0, size=(n, m)), 1)
            cost = np.round(rng.uniform(0.0, 2.0, size=(n, m)), 1)
            cost[:, 0] = 0.0
            budget = round(float(rng.uniform(0.0, 0.6)) * float(cost.sum()), 1)
            assert_matches_full_bisection(AllocationProblem(value=value, cost=cost, budget=budget))

    def test_magnitudes_from_micro_to_mega(self):
        rng = make_rng(503)
        for _ in range(40):
            n, m = int(rng.integers(1, 60)), int(rng.integers(2, 8))
            value = rng.uniform(0.0, 5.0, size=(n, m)) * 10.0 ** rng.uniform(-6, 6, size=(n, 1))
            cost = rng.uniform(0.0, 2.0, size=(n, m)) * 10.0 ** rng.uniform(-6, 6, size=(n, 1))
            cost[:, 0] = 0.0
            budget = float(rng.uniform(0.0, 0.6)) * float(cost.sum())
            assert_matches_full_bisection(AllocationProblem(value=value, cost=cost, budget=budget))

    def test_customer_with_only_zero_costs(self):
        rng = make_rng(504)
        value = rng.uniform(0.0, 5.0, size=(30, 5))
        cost = rng.uniform(0.05, 2.0, size=(30, 5))
        cost[:, 0] = 0.0
        cost[7] = 0.0
        value[8] = 1.0  # and one that ties on every arm
        cost[8] = 0.0
        for share in (0.05, 0.2, 0.5):
            budget = share * float(cost.sum())
            assert_matches_full_bisection(AllocationProblem(value=value, cost=cost, budget=budget))

    def test_budget_binding_at_the_first_doubling(self):
        # cost at lam = 1 fits and cost at lam = 0 does not, so every step
        # bisects [0, 1] and the low end keeps the lam = 0 scores
        rng = make_rng(505)
        value = rng.uniform(0.0, 5.0, size=(200, 7))
        cost = rng.uniform(0.05, 2.0, size=(200, 7))
        cost[:, 0] = 0.0
        problem = AllocationProblem(value=value, cost=cost, budget=0.0)
        _, cost_at_0 = plan_totals(problem, oracles.lagrangian_argmax(problem, 0.0))
        _, cost_at_1 = plan_totals(problem, oracles.lagrangian_argmax(problem, 1.0))
        assert cost_at_1 < cost_at_0
        for fraction in (0.0, 0.3, 0.9):
            budget = cost_at_1 + fraction * (cost_at_0 - cost_at_1)
            assert_matches_full_bisection(AllocationProblem(value=value, cost=cost, budget=budget))

    def test_oracle_curve_budgets(self):
        # the benchmark's oracle curve: true means of a 6 000-customer world
        # at eight budget shares
        coupons = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
        _, truth = generate_rct(GenConfig(n_customers=6000, coupon_values=coupons, seed=73))
        for share in (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4):
            problem = build_problem(truth.mean_enduring, truth.p_direct, coupons, share * truth.n)
            assert_matches_full_bisection(problem)

    def test_bisection_rescores_at_most_n_rows(self, monkeypatch):
        # full scorings at lam = 0 and each doubling, then the bisection
        # steps together rescore no more customers than there are (rescoring
        # everyone at every step is about 52 n), and a lone active customer is
        # scored outside the blocks
        blocks = []
        arms_and_leads = allocator._arms_and_leads

        def counting(scores):
            blocks.append(scores.shape[1])
            return arms_and_leads(scores)

        monkeypatch.setattr(allocator, "_arms_and_leads", counting)
        for problem in seven_arm_problems():
            limit = problem.budget + allocator.BUDGET_TOLERANCE
            full, lam = 2, allocator._LAMBDA_START
            while plan_totals(problem, oracles.lagrangian_argmax(problem, lam))[1] > limit:
                full, lam = full + 1, 2.0 * lam
            blocks.clear()
            solve_lagrangian(problem)
            assert blocks[:full] == [problem.n] * full
            assert sum(blocks[full:]) <= problem.n
            assert 1 not in blocks[full:]


def critical_among_settled(value_c, cost_c, n_settled=4):
    """Customer 0 as given, then customers whose arm 1 leads by about 100 at
    every multiplier the bisection visits, so they settle at its first step.

    Each settled customer adds 1 to the cost of every plan.
    """
    m = len(value_c)
    value = np.full((n_settled + 1, m), -1.0)
    cost = np.zeros((n_settled + 1, m))
    value[1:, :2] = 0.0, 100.0
    cost[1:, 1] = 1.0
    value[0], cost[0] = value_c, cost_c
    return value, cost


def visited_scores(monkeypatch, problem, customer):
    """``{lam: scores}`` of one customer at every multiplier the full bisection visits."""
    seen = []
    argmax = oracles.lagrangian_argmax

    def recording(p, lam):
        seen.append(lam)
        return argmax(p, lam)

    with monkeypatch.context() as patch:
        patch.setattr(oracles, "lagrangian_argmax", recording)
        full_bisection_lagrangian(problem)
    return {lam: problem.value[customer] - lam * problem.cost[customer] for lam in seen}


class TestSingleCustomerFinish:
    """Once one customer is active, the steps left score it alone, with the same bytes."""

    def test_step_cap_ends_the_bisection_far_above_the_critical_multiplier(self):
        # customer 0's hull breaks from arm 0 to 3 at 1.5 * 2**-100, from 3 to 2 at
        # 1.5 * 2**-101 and from 2 to the over-budget arm 1 at 2**-150. From the
        # bracket [0, 1] every step is feasible, so the 100-step cap ends it at
        # hi = 2**-100 on arm 3, about 1000 halvings before lo = 0 and hi are
        # adjacent; one step fewer keeps arm 0 and one more takes arm 2.
        tiny = 2.0**-200
        value = np.zeros((5, 4))
        cost = np.zeros((5, 4))
        value[0] = 0.0, 9 * 2.0**-105 + 3 * 2.0**-152, 9 * 2.0**-105, 3 * 2.0**-104
        cost[0] = 0.0, 1.0, 0.25, 0.125
        # four customers near 2**-200, so their totals do not drown customer 0's
        # values; they switch arm at 3/8, 5/16, 7/32 and 9/64 and leave the
        # active set three steps in, so customer 0 alone takes the 97 steps left
        value[1:, 1] = np.array([3.0, 5.0, 7.0, 9.0]) * tiny
        value[1:, 2:] = -tiny
        cost[1:, 1] = np.array([8.0, 16.0, 32.0, 64.0]) * tiny
        problem = AllocationProblem(value=value, cost=cost, budget=0.5)
        assert_matches_full_bisection(problem)
        assert solve_lagrangian(problem).arms[0] == 3

    def test_tied_arms_go_to_the_lowest(self, monkeypatch):
        # arms 1 and 2 are the same arm, and at lam = 1/4 arms 1, 2 and 3 all score 1;
        # the plan fits on arm 1 and not on arm 3, so the bisection visits 1/2, where
        # arms 1 and 2 lead tied, and 1/4, then closes in on 1/4 from below
        value, cost = critical_among_settled([0.0, 1.5, 1.5, 2.0], [0.0, 2.0, 2.0, 4.0])
        problem = AllocationProblem(value=value, cost=cost, budget=4 + 2.0)
        scores = visited_scores(monkeypatch, problem, 0)
        assert np.sum(scores[0.25] == scores[0.25].max()) == 3
        assert scores[0.5][1] == scores[0.5][2] == scores[0.5].max() > scores[0.5][3]
        assert_matches_full_bisection(problem)

    def test_three_arms_crossed_inside_the_last_doubling(self, monkeypatch):
        # customer 0's hull breaks at 7.875, 7.75, 7.625 and 4.5, so inside the
        # last doubling bracket [4, 8] the visited multipliers take arms 3, 2 and 1
        value, cost = critical_among_settled(
            [0.0, 7.875, 15.625, 23.25, 27.75], [0.0, 1.0, 2.0, 3.0, 4.0]
        )
        problem = AllocationProblem(value=value, cost=cost, budget=4 + 1.5)
        scores = visited_scores(monkeypatch, problem, 0)
        inside = {int(np.argmax(s)) for lam, s in scores.items() if 4.0 < lam < 8.0}
        assert inside == {1, 2, 3}
        assert_matches_full_bisection(problem)

    def test_finish_stops_once_lo_and_hi_are_adjacent(self, monkeypatch):
        # the finish picks its customer's arm through the module's max, so a
        # max seen from solve_lagrangian records each step's bracket. The
        # bisection closes in on 1/4 from below (see the test above): hi stays
        # at 1/4 and every step raises lo, until lo and hi are adjacent floats
        # and the next midpoint would be one of them
        brackets = []

        def watched_max(*args, **kwargs):
            frame = sys._getframe(1)
            if frame.f_code is solve_lagrangian.__code__:
                brackets.append(tuple(frame.f_locals[k] for k in ("lo", "mid", "hi")))
            return max(*args, **kwargs)

        monkeypatch.setattr(allocator, "max", watched_max, raising=False)
        value, cost = critical_among_settled([0.0, 1.5, 1.5, 2.0], [0.0, 2.0, 2.0, 4.0])
        solve_lagrangian(AllocationProblem(value=value, cost=cost, budget=4 + 2.0))
        assert 40 < len(brackets) < allocator._LAGRANGIAN_ITERATIONS - 2
        assert all(lo < mid < hi for lo, mid, hi in brackets)
        assert [hi for _, _, hi in brackets[2:]] == [0.25] * (len(brackets) - 2)
        _, mid, hi = brackets[-1]
        assert np.nextafter(mid, np.inf) == hi

    def test_one_active_customer_is_not_rescored_in_blocks(self, monkeypatch):
        blocks = []
        arms_and_leads = allocator._arms_and_leads

        def counting(scores):
            blocks.append(scores.shape[1])
            return arms_and_leads(scores)

        monkeypatch.setattr(allocator, "_arms_and_leads", counting)
        value, cost = critical_among_settled([0.0, 1.5, 1.5, 2.0], [0.0, 2.0, 2.0, 4.0])
        solve_lagrangian(AllocationProblem(value=value, cost=cost, budget=4 + 2.0))
        # lam = 0 and lam = 1 score everyone, then customer 0 is alone for every step
        assert blocks == [5, 5]


class TestValidationAndLimits:
    def test_brute_force_size_guard(self):
        value = np.zeros((30, 4))
        cost = np.zeros((30, 4))
        with pytest.raises(InstanceTooLargeError):
            brute_force(AllocationProblem(value=value, cost=cost, budget=1.0))

    def test_requires_zero_cost_arm(self):
        with pytest.raises(ValidationError):
            AllocationProblem(
                value=np.array([[1.0, 2.0]]),
                cost=np.array([[0.5, 1.0]]),
                budget=1.0,
            )

    def test_rejects_negative_cost(self):
        with pytest.raises(ValidationError):
            AllocationProblem(
                value=np.array([[1.0, 2.0]]),
                cost=np.array([[0.0, -1.0]]),
                budget=1.0,
            )

    def test_rejects_nan_value(self):
        with pytest.raises(ValidationError):
            AllocationProblem(
                value=np.array([[np.nan, 2.0]]),
                cost=np.array([[0.0, 1.0]]),
                budget=1.0,
            )

    def test_check_feasible_raises_past_tolerance(self):
        problem = AllocationProblem(
            value=np.array([[0.0, 1.0]]),
            cost=np.array([[0.0, 2.0]]),
            budget=1.0,
        )
        with pytest.raises(InfeasiblePlanError):
            check_feasible(problem, np.array([1]))


class TestBuildProblem:
    def test_expected_cost_is_coupon_times_propensity(self):
        predicted_value = np.array([[1.0, 2.0], [3.0, 4.0]])
        predicted_direct = np.array([[0.1, 0.5], [0.2, 0.8]])
        coupons = np.array([0.0, 2.0])
        problem = build_problem(predicted_value, predicted_direct, coupons, budget=1.0)
        np.testing.assert_allclose(problem.cost, [[0.0, 1.0], [0.0, 1.6]])
        np.testing.assert_array_equal(problem.value, predicted_value)
        assert problem.zero_arm == 0

    def test_requires_zero_coupon(self):
        with pytest.raises(ValidationError):
            build_problem(
                np.ones((2, 2)),
                np.full((2, 2), 0.5),
                np.array([1.0, 2.0]),
                budget=1.0,
            )


class TestPlanCsv:
    def test_round_trip(self, tmp_path):
        problem = AllocationProblem(
            value=np.array([[0.0, 5.0], [0.0, 4.0], [1.0, 0.0]]),
            cost=np.array([[0.0, 3.0], [0.0, 2.0], [0.0, 1.0]]),
            budget=4.0,
        )
        plan = solve_exact_dp(problem)
        path = tmp_path / "plan.csv"
        plan.to_csv(path, customer_id=np.array([10, 11, 12]))
        header = path.read_text().splitlines()[0]
        assert header == "customer_id,chosen_arm"
        ids, arms = load_plan_csv(path)
        np.testing.assert_array_equal(ids, [10, 11, 12])
        np.testing.assert_array_equal(arms, plan.arms)


def dp_pin_problems():
    """Seeded DP instances: random, tie-heavy and one auto-resolution table."""
    rng = make_rng(404)
    for _ in range(30):
        yield random_problem(rng, n_max=12, m_max=5), 1e-4
    # values and costs on coarse grids, so arms tie in value, in cost or both
    for _ in range(12):
        n = int(rng.integers(2, 15))
        m = int(rng.integers(2, 6))
        value = rng.integers(0, 4, size=(n, m)) * 0.5
        cost = rng.integers(1, 4, size=(n, m)) * 0.25
        cost[:, 0] = 0.0
        budget = float(rng.integers(0, 2 * n)) * 0.25
        yield AllocationProblem(value=value, cost=cost, budget=budget), 0.25
        yield AllocationProblem(value=value, cost=cost, budget=budget), 1e-4
    # budget * n above the cell budget: cost_resolution=None coarsens past 1e-4
    value = rng.uniform(0.0, 5.0, size=(100, 3))
    cost = rng.uniform(0.05, 2.0, size=(100, 3))
    cost[:, 0] = 0.0
    yield AllocationProblem(value=value, cost=cost, budget=60.0), None


class TestDpBytes:
    # SHA-256 over every plan's arms and totals, computed with the solver that
    # allocated a fresh candidate array per (customer, arm)
    PINNED = "b631fea04c26fc0e6dade312fa3994cffd54345656fc2adbab79bf1b5a8505e1"

    def test_plans_pinned(self):
        digest = hashlib.sha256()
        for problem, resolution in dp_pin_problems():
            plan = solve_exact_dp(problem, cost_resolution=resolution)
            digest.update(plan.arms.astype(np.int64).tobytes())
            digest.update(np.array([plan.total_value, plan.total_cost]).tobytes())
        assert digest.hexdigest() == self.PINNED
