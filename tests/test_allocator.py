"""Knapsack allocator oracles: hand instances, exact-vs-brute sweeps, duality."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from promolab.allocator import (
    AllocationPlan,
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
from oracles import BAD_ARMS, brute_force, full_bisection_lagrangian


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


def assert_solver_contract(problem, reference=None):
    """``solve_lagrangian``'s promises on one problem; returns its plan.

    The plan fits, its totals are its arms' totals, ``dual_bound`` is the LP
    optimum (so at least the plan's value and, where enumeration runs, the
    exact optimum) and within one customer's value spread of the value, and
    it is never looser than the bisection's dual, which bounds plans that
    fit the budget itself: the tolerance can add its worth, the LP optimum at
    the tolerance minus that at the budget.
    """
    plan = solve_lagrangian(problem)
    check_feasible(problem, plan.arms)
    assert (plan.total_value, plan.total_cost) == plan_totals(problem, plan.arms)
    scale = 1.0 + float(np.abs(problem.value).max(axis=1).sum())
    tol = 1e-12 * scale
    lp = oracles.lp_optimum(problem)
    assert plan.dual_bound == pytest.approx(lp, rel=1e-9, abs=tol)
    assert plan.dual_bound >= plan.total_value - tol
    spread = float((problem.value.max(axis=1) - problem.value.min(axis=1)).max())
    assert plan.dual_bound - plan.total_value <= spread + tol
    if problem.n_arms**problem.n <= 5_000:
        assert plan.dual_bound >= brute_force(problem).total_value - tol
    if reference is None:
        reference = full_bisection_lagrangian(problem)
    tolerance_worth = lp - oracles.lp_optimum(problem, problem.budget)
    assert plan.dual_bound <= reference.dual_bound + tolerance_worth + tol
    return plan


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


def collinear_ties_and_duplicated_arms():
    # v_j = v_0 + k * c_j on exact grids: at lam = k every arm of a customer
    # scores the same, and one arm repeats the arm before it
    rng = make_rng(501)
    for _ in range(40):
        n, m = int(rng.integers(1, 40)), int(rng.integers(2, 7))
        cost = rng.integers(0, 5, size=(n, m)) * 0.5
        cost[:, 0] = 0.0
        value = rng.integers(0, 4, size=(n, 1)) + rng.integers(0, 4, size=(n, 1)) * cost
        dup = int(rng.integers(1, m))
        value[:, dup], cost[:, dup] = value[:, dup - 1], cost[:, dup - 1]
        budget = float(rng.uniform(0.0, 0.7)) * float(cost.max(axis=1).sum())
        yield AllocationProblem(value=value, cost=cost, budget=budget)


def arms_a_few_ulps_apart():
    # arms 1 and 2 differ by a few ulps in value and cost, so rounding
    # decides which one scores higher at every multiplier
    rng = make_rng(506)
    for _ in range(40):
        n = int(rng.integers(5, 200))
        value = rng.uniform(1.0, 5.0, size=n)
        cost = rng.uniform(0.05, 2.0, size=n)
        near_value = value + rng.integers(-3, 4, size=n) * np.spacing(value)
        near_cost = cost + rng.integers(-3, 4, size=n) * np.spacing(cost)
        yield AllocationProblem(
            value=np.column_stack([np.zeros(n), value, near_value]),
            cost=np.column_stack([np.zeros(n), cost, near_cost]),
            budget=float(rng.uniform(0.05, 0.9)) * float(cost.sum()),
        )


def values_and_costs_on_a_tenth_grid():
    rng = make_rng(502)
    for _ in range(40):
        n, m = int(rng.integers(1, 60)), int(rng.integers(2, 8))
        value = np.round(rng.uniform(0.0, 3.0, size=(n, m)), 1)
        cost = np.round(rng.uniform(0.0, 2.0, size=(n, m)), 1)
        cost[:, 0] = 0.0
        budget = round(float(rng.uniform(0.0, 0.6)) * float(cost.sum()), 1)
        yield AllocationProblem(value=value, cost=cost, budget=budget)


def magnitudes_from_micro_to_mega():
    rng = make_rng(503)
    for _ in range(40):
        n, m = int(rng.integers(1, 60)), int(rng.integers(2, 8))
        value = rng.uniform(0.0, 5.0, size=(n, m)) * 10.0 ** rng.uniform(-6, 6, size=(n, 1))
        cost = rng.uniform(0.0, 2.0, size=(n, m)) * 10.0 ** rng.uniform(-6, 6, size=(n, 1))
        cost[:, 0] = 0.0
        budget = float(rng.uniform(0.0, 0.6)) * float(cost.sum())
        yield AllocationProblem(value=value, cost=cost, budget=budget)


def customers_with_only_zero_costs():
    rng = make_rng(504)
    value = rng.uniform(0.0, 5.0, size=(30, 5))
    cost = rng.uniform(0.05, 2.0, size=(30, 5))
    cost[:, 0] = 0.0
    cost[7] = 0.0
    value[8] = 1.0  # and one that ties on every arm
    cost[8] = 0.0
    for share in (0.05, 0.2, 0.5):
        yield AllocationProblem(value=value, cost=cost, budget=share * float(cost.sum()))


def budgets_binding_at_the_first_doubling():
    # the plan at lam = 1 fits and the plan at lam = 0 does not, so the
    # bracket is [0, 1] and the lo plan is the unconstrained one
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
        yield AllocationProblem(value=value, cost=cost, budget=budget)


def oracle_curve_budgets():
    # the benchmark's oracle curve: true means of a 6 000-customer world at
    # eight budget shares
    coupons = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
    _, truth = generate_rct(GenConfig(n_customers=6000, coupon_values=coupons, seed=73))
    for share in (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4):
        yield build_problem(truth.mean_enduring, truth.p_direct, coupons, share * truth.n)


def one_critical_customer():
    # customer 0 changes arm inside the bracket while four customers near
    # 2**-200 switch arm early; customer 0's hull breaks at 1.5 * 2**-100,
    # 1.5 * 2**-101 and 2**-150, far below the first doubling
    tiny = 2.0**-200
    value = np.zeros((5, 4))
    cost = np.zeros((5, 4))
    value[0] = 0.0, 9 * 2.0**-105 + 3 * 2.0**-152, 9 * 2.0**-105, 3 * 2.0**-104
    cost[0] = 0.0, 1.0, 0.25, 0.125
    value[1:, 1] = np.array([3.0, 5.0, 7.0, 9.0]) * tiny
    value[1:, 2:] = -tiny
    cost[1:, 1] = np.array([8.0, 16.0, 32.0, 64.0]) * tiny
    yield AllocationProblem(value=value, cost=cost, budget=0.5)
    # customers whose arm 1 leads by about 100 at every multiplier, each
    # adding 1 to the cost of every plan, beside customer 0: arms 1 and 2 the
    # same arm and at lam = 1/4 arms 1, 2 and 3 all scoring 1, then a hull
    # breaking at 7.875, 7.75, 7.625 and 4.5, inside the bracket [4, 8]
    for value_c, cost_c, budget in (
        ([0.0, 1.5, 1.5, 2.0], [0.0, 2.0, 2.0, 4.0], 4 + 2.0),
        ([0.0, 7.875, 15.625, 23.25, 27.75], [0.0, 1.0, 2.0, 3.0, 4.0], 4 + 1.5),
    ):
        value = np.full((5, len(value_c)), -1.0)
        cost = np.zeros((5, len(value_c)))
        value[1:, :2] = 0.0, 100.0
        cost[1:, 1] = 1.0
        value[0], cost[0] = value_c, cost_c
        yield AllocationProblem(value=value, cost=cost, budget=budget)


CONTRACT_CASES = [
    seven_arm_problems,
    collinear_ties_and_duplicated_arms,
    arms_a_few_ulps_apart,
    values_and_costs_on_a_tenth_grid,
    magnitudes_from_micro_to_mega,
    customers_with_only_zero_costs,
    budgets_binding_at_the_first_doubling,
    oracle_curve_budgets,
    one_critical_customer,
]


class TestSolverContract:
    """Every plan fits, and its dual bound is the LP optimum, within one spread of its value."""

    @settings(max_examples=200, deadline=None)
    @given(problem=small_problems())
    def test_small_random_problems(self, problem):
        assert_solver_contract(problem)

    @pytest.mark.parametrize("problems", CONTRACT_CASES, ids=lambda case: case.__name__)
    def test_cases(self, problems):
        for problem in problems():
            assert_solver_contract(problem)

    def test_collinear_arms_are_separate_steps(self):
        # arms 1 and 2 lie on the line from arm 0 to arm 3; only arm 1 fits,
        # and arm 2 duplicates arm 1, so the plan stops on arm 1
        problem = AllocationProblem(
            value=[[0.0, 1.0, 1.0, 3.0]], cost=[[0.0, 1.0, 1.0, 3.0]], budget=1.5
        )
        plan = assert_solver_contract(problem)
        assert tuple(plan.arms) == (1,)
        assert plan.dual_bound == pytest.approx(1.5 + 1e-9)


def criterion_4_problems():
    """The instances of acceptance criterion 4, from the same seed."""
    rng = make_rng(271)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(2, 5))
        value = rng.uniform(-1.0, 5.0, size=(n, m))
        cost = np.round(rng.uniform(0.05, 2.0, size=(n, m)), 2)
        cost[:, 0] = 0.0
        budget = round(float(rng.uniform(0.0, 0.6 * cost.sum())), 2)
        yield AllocationProblem(value=value, cost=cost, budget=budget)


def bench_oracle_problems(seeds=(1, 2, 3)):
    """Oracle curves shaped like the benchmark's: 2 000 customers, 7 coupons, 8 shares."""
    coupons = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
    for seed in seeds:
        _, truth = generate_rct(GenConfig(n_customers=2000, coupon_values=coupons, seed=seed))
        for share in (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4):
            yield build_problem(truth.mean_enduring, truth.p_direct, coupons, share * truth.n)


class TestAgainstBisection:
    """No plan is worth less than the bisection solver's plan on the same problem."""

    @pytest.mark.parametrize(
        "problems", [criterion_4_problems, bench_oracle_problems], ids=lambda case: case.__name__
    )
    def test_plans_worth_at_least_the_bisections(self, problems):
        for problem in problems():
            plan = solve_lagrangian(problem)
            reference = full_bisection_lagrangian(problem)
            tol = 1e-12 * max(1.0, abs(reference.total_value))
            assert plan.total_value >= reference.total_value - tol

    def test_gap_is_a_fraction_of_the_bisections(self):
        # both duals are the LP optimum on the bench-shaped oracle curve, but
        # the bisection's plans sit well below it and the hull steps' do not
        gaps, reference_gaps = [], []
        for problem in bench_oracle_problems(seeds=(1,)):
            reference = full_bisection_lagrangian(problem)
            plan = assert_solver_contract(problem, reference)
            gaps.append(plan.dual_bound - plan.total_value)
            reference_gaps.append(reference.dual_bound - reference.total_value)
        assert np.mean(gaps) < 0.25 * np.mean(reference_gaps)


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

    @pytest.mark.parametrize("bad", sorted(BAD_ARMS))
    def test_plan_totals_refuses_non_index_arms(self, bad):
        # [0.3, 1.3] once summed as the plan [0, 1]; the suite turns any
        # warning into an error, so none may come before the refusal
        problem = build_problem(np.ones((2, 2)), np.full((2, 2), 0.5), [0.0, 1.0], 10.0)
        with pytest.raises(ValidationError, match="^arms must be 1-D whole-number"):
            plan_totals(problem, BAD_ARMS[bad](np.array([0, 1])))

    @pytest.mark.parametrize("bad", sorted(BAD_ARMS))
    def test_plan_refuses_non_index_arms(self, bad):
        # a plan once cast [0.3, 1.3] to [0, 1] and warned on a NaN
        with pytest.raises(ValidationError, match="^arms must be 1-D whole-number"):
            AllocationPlan(arms=BAD_ARMS[bad](np.array([0, 1])), total_value=1.0, total_cost=0.5)

    def test_plan_totals_takes_whole_float_arms(self):
        problem = build_problem(np.ones((2, 2)), np.full((2, 2), 0.5), [0.0, 1.0], 10.0)
        assert plan_totals(problem, np.array([0.0, 1.0])) == plan_totals(problem, np.array([0, 1]))


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


class TestDpTable:
    def test_bench_shaped_peak_memory(self):
        # 100 customers x 50 001 budget units: one byte per cell is 4.8 MiB, two is 9.5 MiB
        coupons = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
        _, truth = generate_rct(GenConfig(n_customers=100, coupon_values=coupons, seed=1))
        problem = build_problem(truth.mean_enduring, truth.p_direct, coupons, 5.0)
        assert problem.cost.max(axis=1).sum() > problem.budget  # the budget binds
        tracemalloc.start()
        try:
            solve_exact_dp(problem)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7 * 2**20

    def test_arms_past_one_byte_match_brute_force(self):
        # 300 arms need a two-byte table; the best plans use arms above 255
        rng = make_rng(300)
        value = rng.uniform(0.0, 1.0, size=(2, 300))
        value[:, 256:] += 1.0
        cost = rng.uniform(0.05, 1.0, size=(2, 300))
        cost[:, 0] = 0.0
        problem = AllocationProblem(value=value, cost=cost, budget=1.2)
        expected = brute_force(problem)
        got = solve_exact_dp(problem)
        assert np.any(expected.arms > 255)
        np.testing.assert_array_equal(got.arms, expected.arms)
        assert (got.total_value, got.total_cost) == (expected.total_value, expected.total_cost)
