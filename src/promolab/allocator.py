"""Budget-constrained incentive assignment as a multiple-choice knapsack.

One arm must be chosen per customer. Arm j for customer i contributes value
``value[i, j]`` (predicted enduring amount) and expected cost
``cost[i, j] = coupon_value[j] * p_direct[i, j]`` (a coupon is only paid out
when it triggers a purchase). The zero-coupon arm has zero cost, so a plan
always exists at any nonnegative budget.

Two solvers live here:

* ``solve_exact_dp`` - dynamic program over customers and integer budget
  units; exact when every cost is a multiple of ``cost_resolution``.
* ``solve_lagrangian`` - brackets the budget multiplier by doubling, then
  walks the upper hulls of the customers whose arm changes inside the
  bracket. Scales linearly in customers x arms; its dual bound is the LP
  optimum, within one customer's value spread of its plan.

Ties: both solvers prefer the lowest arm index among arms of equal score.
On a hull, duplicated arms collapse to the lowest, and collinear arms stay
separate steps of equal slope, so a plan can stop at any of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasiblePlanError, InstanceTooLargeError, ValidationError, arm_indices
from .tables import read_table, write_table

BUDGET_TOLERANCE = 1e-9
# First multiplier tried above 0; doubled until the plan fits the budget.
_LAMBDA_START = 1.0
# Auto-resolution targets this many DP cells (about 50 MB of one-byte choice table).
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
    arms = arm_indices(arms, "arms")
    if arms.shape != (problem.n,):
        raise ValidationError(f"arms must have length {problem.n}")
    if np.any(arms < 0) or np.any(arms >= problem.n_arms):
        raise ValidationError("arm index out of range")
    rows, arms = np.arange(problem.n), arms.astype(np.int64, copy=False)
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
    using cost at most b. Backtracking keeps one arm index per (customer,
    budget unit) cell, in the narrowest unsigned type that holds every arm:
    one byte up to 256 arms. So memory is O(N * budget units), and this is
    meant for modest instances; use the Lagrangian solver for large ones.
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
    choice = np.zeros((n, width), dtype=np.min_scalar_type(m - 1))

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
            np.copyto(choice[i, c:], j, where=take[c:])
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


def _hull_steps(value_t: np.ndarray, cost_t: np.ndarray, start: np.ndarray, stop: np.ndarray):
    """Walk each customer's upper hull in (cost, value) from arm ``start`` up to arm ``stop``.

    ``value_t`` and ``cost_t`` are arm-major, ``(M, K)``. Each step goes to
    the arm of steepest value gained per cost added among the arms that add
    both and cost at most the ``stop`` arm. Returns the ``(M, K)`` chains of
    arms, each starting at ``start`` and repeating its last arm once it ends,
    and the ``(M - 1, K)`` value gains, cost gains and slopes of their steps;
    past a chain's end a step gains nothing and its slope means nothing.
    """
    n_arms, k = value_t.shape
    cols = np.arange(k)
    arm_ids = np.arange(n_arms)[:, None]
    under = cost_t <= cost_t[stop, cols]
    chain = np.empty((n_arms, k), dtype=np.int64)
    chain[0] = start
    slopes = np.full((n_arms - 1, k), -np.inf)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for t in range(n_arms - 1):
            here = chain[t]
            dc = cost_t - cost_t[here, cols]
            slope = np.where((dc > 0) & under, (value_t - value_t[here, cols]) / dc, -np.inf)
            slopes[t] = slope.max(axis=0)
            moves = slopes[t] > 0
            if not moves.any():
                chain[t + 1 :] = here
                break
            # the tie rule of the module docstring: of the steepest arms the
            # cheapest, then the most valuable (arms of equal cost tie only on
            # a slope that overflows), then the lowest
            pick = slope == slopes[t]
            pick &= cost_t == np.where(pick, cost_t, np.inf).min(axis=0)
            pick &= value_t == np.where(pick, value_t, -np.inf).max(axis=0)
            chain[t + 1] = np.where(moves, np.where(pick, arm_ids, n_arms).min(axis=0), here)
    walk = chain, cols
    return chain, np.diff(value_t[walk], axis=0), np.diff(cost_t[walk], axis=0), slopes


def solve_lagrangian(problem: AllocationProblem) -> AllocationPlan:
    """Near-optimal plan from the Lagrangian bracket and the critical customers' hulls.

    For a multiplier lam, each customer takes the arm maximizing
    value - lam * cost. The lam = 0 plan is returned if it fits; otherwise
    lam doubles from 1 until the plan fits, which brackets the critical
    multiplier in [lo, hi]: the lo plan is over budget, the hi plan fits.

    A customer's best arm changes only at the breakpoints of its upper hull
    in (cost, value) (Sinha & Zoltners 1979, The multiple-choice knapsack
    problem), and in exact arithmetic it moves along that hull toward cheaper
    arms as lam grows. So a customer with the same arm at lo and at hi keeps
    it throughout [lo, hi], and only the others walk their hulls, from the hi
    arm up to the lo arm (``_hull_steps``). Their steps, steepest first by a
    stable sort (on equal slopes earlier hull steps, then lower rows, first),
    are applied to the hi plan while they fit; then each later step is taken
    if it still fits and its customer sits on its from-arm. ``dual_bound``,
    the hi plan's value plus the applied steps plus the fraction of the next
    step that fills the budget, is the LP optimum (Kellerer, Pferschy &
    Pisinger 2004, Knapsack Problems, ch. 11), so the plan is within one
    customer's value spread of it. Like ``check_feasible``, both count a
    cost up to ``problem.budget + BUDGET_TOLERANCE`` as fitting.
    """
    rows = np.arange(problem.n)
    limit = problem.budget + BUDGET_TOLERANCE
    scores = np.empty_like(problem.value)

    def lagrangian_plan(lam: float):
        # the argmax of problem.value - lam * problem.cost, in one reused buffer
        np.multiply(problem.cost, lam, out=scores)
        np.subtract(problem.value, scores, out=scores)
        arms = np.argmax(scores, axis=1)
        return arms, float(problem.value[rows, arms].sum()), float(problem.cost[rows, arms].sum())

    # lam = 0: unconstrained spend. If already affordable we are done.
    arms_lo, value0, cost0 = lagrangian_plan(0.0)
    if cost0 <= limit:
        return AllocationPlan(arms=arms_lo, total_value=value0, total_cost=cost0, dual_bound=value0)
    hi = _LAMBDA_START
    for _ in range(60):
        arms_hi, value_hi, cost_hi = lagrangian_plan(hi)
        if cost_hi <= limit:
            break
        arms_lo = arms_hi
        hi *= 2.0
    else:
        # costs are still above budget at a huge multiplier; with a zero-cost
        # arm available this cannot happen
        raise InfeasiblePlanError("no multiplier up to 2**59 makes the plan fit the budget")

    critical = np.flatnonzero(arms_lo != arms_hi)
    # arm-major copies: reducing over the arms of many customers is one pass per arm
    chain, gain_value, gain_cost, slope = _hull_steps(
        np.ascontiguousarray(problem.value[critical].T),
        np.ascontiguousarray(problem.cost[critical].T),
        arms_hi[critical],
        arms_lo[critical],
    )
    # slopes fall along a hull; keep them falling where rounding says otherwise
    np.minimum.accumulate(slope, axis=0, out=slope)
    steps = np.flatnonzero(gain_cost > 0)  # by hull step, then by customer
    steps = steps[np.argsort(-slope.flat[steps], kind="stable")]
    step_value, step_cost = gain_value.flat[steps], gain_cost.flat[steps]
    spent = cost_hi + np.cumsum(step_cost)
    taken = int(np.searchsorted(spent, limit, side="right"))
    dual_bound = value_hi + float(step_value[:taken].sum())
    # depth[k]: how many of critical customer k's hull steps the plan takes
    depth = np.bincount(steps[:taken] % len(critical), minlength=len(critical))
    if taken < len(steps):
        slack = limit - (spent[taken - 1] if taken else cost_hi)
        dual_bound += float(slack / step_cost[taken] * step_value[taken])
        # each pass takes the first later step that fits from its customer's arm
        t, customer = np.divmod(steps[taken + 1 :], len(critical))
        later_cost = step_cost[taken + 1 :]
        while True:
            fits = np.flatnonzero((later_cost <= slack) & (depth[customer] == t))
            if not len(fits):
                break
            i = fits[0]
            depth[customer[i]] += 1
            slack -= later_cost[i]
            t, customer, later_cost = t[i + 1 :], customer[i + 1 :], later_cost[i + 1 :]

    arms = arms_hi.copy()
    arms[critical] = chain[depth, np.arange(len(critical))]
    value, cost = plan_totals(problem, arms)  # recompute exactly
    _check_cost(problem, cost)
    return AllocationPlan(arms=arms, total_value=value, total_cost=cost, dual_bound=dual_bound)


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
