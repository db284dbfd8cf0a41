"""Budget-constrained incentive assignment as a multiple-choice knapsack.

One arm must be chosen per customer. Arm j for customer i contributes value
``value[i, j]`` (predicted enduring amount) and expected cost
``cost[i, j] = coupon_value[j] * p_direct[i, j]`` (a coupon is only paid out
when it triggers a purchase). The zero-coupon arm has zero cost, so a plan
always exists at any nonnegative budget.

Two solvers live here:

* ``solve_exact_dp`` - dynamic program over customers and integer budget
  units; exact when every cost is a multiple of ``cost_resolution``.
* ``solve_lagrangian`` - dualizes the budget constraint and bisects on the
  multiplier. Scales linearly in customers x arms and reports a dual upper
  bound; the final greedy completion step ties the remaining gap to a single
  customer's value spread.

A customer's best arm under the multiplier changes only at the breakpoints of
its upper hull (Sinha & Zoltners 1979, The multiple-choice knapsack problem).
So the bisection scores every customer only at lam = 0 and at each doubling
of lam, and after that rescores only the active customers: those that could
still change arm inside the bracket. A customer leaves the active set once
its arm is the same at both ends of the bracket and leads the runner-up there
by more than four times the rounding bound of a score difference; the exact
difference is linear in lam, so the computed argmax cannot move or tie
anywhere in between. The plan at lo is over budget and the plan at hi fits,
so some customer's arm differs between them and the active set never empties.
Once it holds one customer, that customer's lo and hi arms differ, so it
never settles and the remaining steps score only its arms, in Python floats
(the same two IEEE operations per score, first maximum on ties). The plans,
totals and dual bounds are byte for byte those of rescoring every customer at
every step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasiblePlanError, InstanceTooLargeError, ValidationError
from .tables import read_table, write_table

BUDGET_TOLERANCE = 1e-9
# Cap on bisection steps of the budget multiplier; it stops sooner once converged.
_LAGRANGIAN_ITERATIONS = 100
# First multiplier tried above 0; doubled until the plan fits the budget.
_LAMBDA_START = 1.0
# A customer's arm is settled once its lead over the runner-up, at both ends of
# the bisection bracket, exceeds this times max_j |value| + 2 * hi * max_j cost:
# four times the rounding bound of a difference of two scores.
_LEAD_MARGIN = 8 * 2.0**-53
# Absolute error of a product that underflows, bounded by the smallest normal float.
_UNDERFLOW = float(np.finfo(np.float64).tiny)
# Auto-resolution targets this many DP cells (about 100 MB of choice table).
_DP_CELL_BUDGET = 50_000_000
PLAN_HEADER = ("customer_id", "chosen_arm")


@dataclass
class AllocationProblem:
    """Per-customer values and expected costs for each arm, plus the budget."""

    value: np.ndarray  # (N, M)
    cost: np.ndarray  # (N, M)
    budget: float
    zero_arm: int = 0

    def __post_init__(self):
        self.value = np.asarray(self.value, dtype=np.float64)
        self.cost = np.asarray(self.cost, dtype=np.float64)
        if self.value.ndim != 2 or self.value.shape != self.cost.shape:
            raise ValidationError(
                f"value and cost must be matching 2-D arrays, got {self.value.shape} and {self.cost.shape}"
            )
        if not (np.all(np.isfinite(self.value)) and np.all(np.isfinite(self.cost))):
            raise ValidationError("values and costs must be finite")
        if np.any(self.cost < 0):
            raise ValidationError("costs must be nonnegative")
        if not self.budget >= 0:  # NaN fails too
            raise ValidationError(f"budget must be nonnegative, got {self.budget}")
        if not 0 <= self.zero_arm < self.n_arms:
            raise ValidationError(f"zero_arm {self.zero_arm} out of range")
        if np.any(self.cost[:, self.zero_arm] > BUDGET_TOLERANCE):
            raise ValidationError("the zero-incentive arm must have zero cost for every customer")

    @property
    def n(self) -> int:
        return self.value.shape[0]

    @property
    def n_arms(self) -> int:
        return self.value.shape[1]


@dataclass
class AllocationPlan:
    """A chosen arm per customer with its realized totals."""

    arms: np.ndarray  # (N,)
    total_value: float
    total_cost: float
    dual_bound: float | None = None  # upper bound on the optimum, when the solver has one

    def __post_init__(self):
        self.arms = np.asarray(self.arms, dtype=np.int64)

    def to_csv(self, path, customer_id: np.ndarray):
        write_table(path, PLAN_HEADER, [np.asarray(customer_id, dtype=np.int64), self.arms])


def load_plan_csv(path):
    """(customer_id, chosen_arm) arrays from a plan CSV."""
    return tuple(read_table(path, PLAN_HEADER, PLAN_HEADER))


def plan_totals(problem: AllocationProblem, arms: np.ndarray):
    arms = np.asarray(arms, dtype=np.int64)
    if arms.shape != (problem.n,):
        raise ValidationError(f"arms must have length {problem.n}")
    if np.any(arms < 0) or np.any(arms >= problem.n_arms):
        raise ValidationError("arm index out of range")
    rows = np.arange(problem.n)
    return float(problem.value[rows, arms].sum()), float(problem.cost[rows, arms].sum())


def check_feasible(problem: AllocationProblem, arms: np.ndarray) -> float:
    """Total cost of the plan; raises if it exceeds the budget beyond tolerance."""
    _, total_cost = plan_totals(problem, arms)
    return _check_cost(problem, total_cost)


def _check_cost(problem: AllocationProblem, total_cost: float) -> float:
    """``total_cost``; raises if it exceeds the budget beyond tolerance."""
    if total_cost > problem.budget + BUDGET_TOLERANCE:
        raise InfeasiblePlanError(
            f"plan cost {total_cost:.6g} exceeds budget {problem.budget:.6g}"
        )
    return total_cost


def solve_exact_dp(problem: AllocationProblem, cost_resolution: float | None = 1e-4) -> AllocationPlan:
    """Exact multiple-choice knapsack via dynamic programming.

    Costs are expressed in integer units of ``cost_resolution`` (rounded to
    the nearest unit; the budget is floored). When every cost is a multiple
    of the resolution the answer is exactly optimal. Otherwise rounding can
    shift the achievable set slightly; a repair pass downgrades choices until
    the plan fits the real-valued budget, so the result is always feasible
    and within the rounding slack of optimal. Passing ``None`` picks the
    finest resolution (at least 1e-4) whose table stays within a fixed cell
    budget. The recurrence tracks, for each integer budget b, the best value
    using cost at most b. Memory is O(N * budget units) for backtracking, so
    this is meant for modest instances; use the Lagrangian solver for large
    ones.
    """
    max_spend = float(problem.cost.max(axis=1).sum())
    if problem.budget >= max_spend - BUDGET_TOLERANCE:
        # budget covers any plan; argmax takes the lowest arm index on ties
        arms = problem.value.argmax(axis=1).astype(np.int64)
        value, cost = plan_totals(problem, arms)
        return AllocationPlan(arms=arms, total_value=value, total_cost=cost)
    if cost_resolution is None:
        cost_resolution = max(1e-4, problem.budget * problem.n / _DP_CELL_BUDGET)
    if cost_resolution <= 0:
        raise ValidationError("cost_resolution must be positive")
    cost_units = np.rint(problem.cost / cost_resolution).astype(np.int64)
    budget_units = int(np.floor(problem.budget / cost_resolution + BUDGET_TOLERANCE))
    if np.any(np.abs(cost_units * cost_resolution - problem.cost) > cost_resolution * 0.5 + BUDGET_TOLERANCE):
        raise ValidationError("internal cost rounding error")  # pragma: no cover
    n, m = problem.n, problem.n_arms
    cells = (budget_units + 1) * n
    if cells > 200_000_000:
        raise InstanceTooLargeError(
            f"DP table of {cells} cells is too large; reduce the budget resolution"
        )

    width = budget_units + 1
    # best[b]: best value over plans for the customers so far with cost <= b.
    # With no customers that is 0 at every budget level.
    best = np.zeros(width)
    new_best = np.empty(width)
    cand = np.empty(width)
    take = np.empty(width, dtype=bool)
    # choice[i, b]: arm taken for customer i when best[b] was achieved
    choice = np.zeros((n, width), dtype=np.int16)

    for i in range(n):
        new_best.fill(-np.inf)
        for j in range(m):
            c = int(cost_units[i, j])
            if c > budget_units:
                continue
            # arm j reaches only levels b >= c; below that its candidate is -inf and never taken
            np.add(best[: width - c], problem.value[i, j], out=cand[c:])
            np.greater(cand[c:], new_best[c:], out=take[c:])
            np.copyto(new_best[c:], cand[c:], where=take[c:])
            np.copyto(choice[i, c:], np.int16(j), where=take[c:])
        best, new_best = new_best, best
    # lower arm indices win ties because later arms only replace on strict improvement

    b = int(np.argmax(best))
    if not np.isfinite(best[b]):
        raise InfeasiblePlanError("no assignment fits the budget")  # pragma: no cover
    arms = np.empty(n, dtype=np.int64)
    for i in range(n - 1, -1, -1):
        arms[i] = choice[i, b]
        b -= int(cost_units[i, arms[i]])
    arms = _repair_plan(problem, arms)
    value, cost = plan_totals(problem, arms)
    return AllocationPlan(arms=arms, total_value=value, total_cost=cost)


def _repair_plan(problem: AllocationProblem, arms: np.ndarray) -> np.ndarray:
    """Downgrade choices until the plan fits the real-valued budget.

    Cost rounding in the DP can admit a plan whose exact cost overshoots the
    budget by a sliver. Each pass switches the customer whose downgrade loses
    the least value per unit of cost saved; the zero-cost arm guarantees
    termination. No-op for plans that already fit.
    """
    rows = np.arange(problem.n)
    _, cost = plan_totals(problem, arms)
    while cost > problem.budget + BUDGET_TOLERANCE:
        dc = problem.cost[rows, arms][:, None] - problem.cost
        dv = problem.value[rows, arms][:, None] - problem.value
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(dc > 0, dv / dc, np.inf)
        i, j = np.unravel_index(np.argmin(ratio), ratio.shape)
        arms[i] = j
        _, cost = plan_totals(problem, arms)
    return arms


def _arms_and_leads(scores: np.ndarray):
    """Best arm of each customer in an arm-major ``(M, k)`` score block.

    Returns the argmax down each column (lowest arm on ties) and its lead,
    the top score minus the runner-up score (0 on a tie). The runner-up is
    found in place, so ``scores`` is overwritten.
    """
    customers = np.arange(scores.shape[1])
    arms = np.argmax(scores, axis=0)
    top = scores[arms, customers]
    scores[arms, customers] = -np.inf
    return arms, top - scores.max(axis=0)


def solve_lagrangian(problem: AllocationProblem) -> AllocationPlan:
    """Near-optimal plan by bisection on the budget multiplier.

    For a multiplier lam, each customer independently picks the arm
    maximizing value - lam * cost. Cost decreases as lam grows, so bisection
    finds the critical multiplier; the plan kept is the best feasible one
    seen. A final greedy pass walks customers from the spend-heavy side of
    the critical multiplier to the thrifty side in order of value lost per
    unit of cost saved, stopping at the budget, which brings the plan within
    one customer's value spread of the dual bound. The returned
    ``dual_bound`` is a certified upper bound on the optimum.

    Only customers whose arm can still change are rescored at a bisection
    step. A customer is settled once it has the same arm at both ends of the
    bracket [lo, hi] and, at both ends, leads the runner-up by more than
    ``tau = 8 * 2**-53 * (max_j |value_ij| + 2 * hi * max_j cost_ij)`` (plus
    the smallest normal float, for products that underflow). ``tau`` is four
    times the rounding bound on the difference of two computed scores at any
    lam <= hi, and the exact difference is linear in lam, so inside the
    bracket the computed argmax is that same arm, strictly ahead and never
    decided by a tie. A NaN lead never settles. Each step writes the active
    rows into the plan's chosen-value and chosen-cost vectors and sums the
    full vectors, so every arm, total and dual value is the same float as
    rescoring every customer at every step gives.

    Once one customer is active, the lo and hi plans differ only in its arm,
    so the steps left, under the same cap and adjacent-float stop, score its
    arms alone as Python floats ``v - mid * k`` (lowest arm on ties, as
    ``np.argmax``) and sum the full vectors once per arm it takes.
    """
    rows = np.arange(problem.n)
    limit = problem.budget + BUDGET_TOLERANCE
    # arm-major copies: reducing over the arms of many customers is one pass per arm
    value_t = np.ascontiguousarray(problem.value.T)
    cost_t = np.ascontiguousarray(problem.cost.T)
    scores = np.empty_like(value_t)

    def score_all(lam: float):
        # the bytes of problem.value - lam * problem.cost, in one reused buffer
        np.multiply(cost_t, lam, out=scores)
        np.subtract(value_t, scores, out=scores)
        arms, lead = _arms_and_leads(scores)
        return arms, lead, value_t[arms, rows], cost_t[arms, rows]

    def dual(lam: float, value: float, cost: float):
        return value - lam * cost + lam * problem.budget

    def totals(lam: float):
        value = float(chosen_value.sum())
        cost = float(chosen_cost.sum())
        return value, cost, dual(lam, value, cost)

    # lam = 0: unconstrained spend. If already affordable we are done.
    arms_lo, lead_lo, chosen_value, chosen_cost = score_all(0.0)
    value0, cost0, best_dual = totals(0.0)
    if cost0 <= limit:
        return AllocationPlan(arms=arms_lo, total_value=value0, total_cost=cost0, dual_bound=value0)

    lo = 0.0
    hi = _LAMBDA_START
    for _ in range(60):
        arms_hi, lead_hi, chosen_value, chosen_cost = score_all(hi)
        value_hi, cost_hi, dual_hi = totals(hi)
        best_dual = min(best_dual, dual_hi)
        if cost_hi <= limit:
            break
        lo, arms_lo, lead_lo = hi, arms_hi, lead_hi
        hi *= 2.0
    else:
        # costs are still above budget at a huge multiplier; with a zero-cost
        # arm available this cannot happen
        raise InfeasiblePlanError("bisection failed to find a feasible multiplier")

    # The active customers and, aligned with them, what each step reads; a
    # customer's tau is floor_a + hi * slope_a.
    active = rows
    value_a, cost_a = value_t, cost_t
    floor_a = _LEAD_MARGIN * np.abs(value_t).max(axis=0) + _UNDERFLOW
    slope_a = 2.0 * _LEAD_MARGIN * cost_t.max(axis=0)
    lo_a, hi_a = arms_lo, arms_hi
    best_feasible = (arms_hi.copy(), value_hi, cost_hi)
    for step in range(_LAGRANGIAN_ITERATIONS):
        settled = (lo_a == hi_a) & (np.minimum(lead_lo, lead_hi) > floor_a + hi * slope_a)
        if settled.any():
            keep = ~settled
            active, value_a, cost_a = active[keep], value_a[:, keep], cost_a[:, keep]
            floor_a, slope_a = floor_a[keep], slope_a[keep]
            lo_a, hi_a, lead_lo, lead_hi = lo_a[keep], hi_a[keep], lead_lo[keep], lead_hi[keep]
        if len(active) == 1:
            # lo and hi differ only at this customer, which so never settles
            c = int(active[0])
            values, costs = problem.value[c].tolist(), problem.cost[c].tolist()
            arm_totals = {}  # the plan's value and cost with c on each arm it took
            for _ in range(_LAGRANGIAN_ITERATIONS - step):
                mid = 0.5 * (lo + hi)
                if mid <= lo or mid >= hi:
                    break
                scores_c = [v - mid * k for v, k in zip(values, costs)]
                arm = scores_c.index(max(scores_c))  # lowest arm on ties, as np.argmax
                if arm not in arm_totals:
                    chosen_value[c], chosen_cost[c] = values[arm], costs[arm]
                    arm_totals[arm] = float(chosen_value.sum()), float(chosen_cost.sum())
                value_m, cost_m = arm_totals[arm]
                best_dual = min(best_dual, dual(mid, value_m, cost_m))
                if cost_m <= limit:
                    hi, arms_hi[c] = mid, arm
                    if value_m > best_feasible[1]:
                        best_feasible = (arms_hi.copy(), value_m, cost_m)
                else:
                    lo, arms_lo[c] = mid, arm
            break
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            # lo and hi are adjacent floats: every further step re-evaluates one of them
            break
        arms_m, lead_m = _arms_and_leads(value_a - mid * cost_a)
        picked = arms_m, np.arange(len(active))
        chosen_value[active] = value_a[picked]
        chosen_cost[active] = cost_a[picked]
        value_m, cost_m, dual_m = totals(mid)
        best_dual = min(best_dual, dual_m)
        if cost_m <= limit:
            hi, hi_a, lead_hi = mid, arms_m, lead_m
            arms_hi[active] = arms_m
            if value_m > best_feasible[1]:
                best_feasible = (arms_hi.copy(), value_m, cost_m)
        else:
            lo, lo_a, lead_lo = mid, arms_m, lead_m
            arms_lo[active] = arms_m
    arms, value, cost = best_feasible

    # Greedy completion: starting from the feasible (hi) side, adopt the
    # spendier lo-side choices in decreasing value gained per cost added.
    diff = np.flatnonzero(arms_lo != arms_hi)
    if len(diff) > 0:
        dv = problem.value[diff, arms_lo[diff]] - problem.value[diff, arms_hi[diff]]
        dc = problem.cost[diff, arms_lo[diff]] - problem.cost[diff, arms_hi[diff]]
        useful = (dv > 0) & (dc > 0)
        diff, dv, dc = diff[useful], dv[useful], dc[useful]
        order = np.argsort(-dv / dc, kind="stable")
        cand = arms_hi.copy()
        cand_value = float(problem.value[rows, cand].sum())
        cand_cost = float(problem.cost[rows, cand].sum())
        for idx in order:
            i = diff[idx]
            if cand_cost + dc[idx] <= problem.budget + BUDGET_TOLERANCE:
                cand[i] = arms_lo[i]
                cand_cost += dc[idx]
                cand_value += dv[idx]
        if cand_value > value:
            arms, value, cost = cand, cand_value, cand_cost

    value, cost = plan_totals(problem, arms)  # recompute exactly
    _check_cost(problem, cost)
    return AllocationPlan(arms=arms, total_value=value, total_cost=cost, dual_bound=best_dual)


def build_problem(
    predicted_value: np.ndarray,
    predicted_direct: np.ndarray,
    coupon_values: np.ndarray,
    budget: float,
) -> AllocationProblem:
    """Assemble the knapsack from model outputs and per-arm coupon values."""
    coupon_values = np.asarray(coupon_values, dtype=np.float64)
    zero_arms = np.flatnonzero(coupon_values == 0.0)
    if len(zero_arms) != 1:
        raise ValidationError(f"exactly one zero-coupon arm required, found {len(zero_arms)}")
    cost = np.asarray(predicted_direct, dtype=np.float64) * coupon_values[None, :]
    return AllocationProblem(
        value=np.asarray(predicted_value, dtype=np.float64),
        cost=cost,
        budget=budget,
        zero_arm=int(zero_arms[0]),
    )
