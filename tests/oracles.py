"""Reference solvers that tests compare the package's solvers against."""

import numpy as np

from promolab.allocator import BUDGET_TOLERANCE, AllocationPlan, AllocationProblem, plan_totals
from promolab.errors import InfeasiblePlanError, InstanceTooLargeError

_BRUTE_FORCE_LIMIT = 10_000_000


def brute_force(problem: AllocationProblem) -> AllocationPlan:
    """Exact optimum by enumerating all M^N assignments. Tie-break: first in
    lexicographic order, which favors lower arm indices."""
    combos = problem.n_arms ** problem.n
    if combos > _BRUTE_FORCE_LIMIT:
        raise InstanceTooLargeError(
            f"{problem.n_arms}^{problem.n} = {combos} assignments exceed the enumeration limit"
        )
    best_arms = None
    best_value = -np.inf
    arms = np.zeros(problem.n, dtype=np.int64)
    for _ in range(combos):
        value, cost = plan_totals(problem, arms)
        if cost <= problem.budget + BUDGET_TOLERANCE and value > best_value:
            best_value = value
            best_arms = arms.copy()
        # odometer increment over arm indices
        for pos in range(problem.n - 1, -1, -1):
            arms[pos] += 1
            if arms[pos] < problem.n_arms:
                break
            arms[pos] = 0
    if best_arms is None:
        raise InfeasiblePlanError("no assignment fits the budget")
    value, cost = plan_totals(problem, best_arms)
    return AllocationPlan(arms=best_arms, total_value=value, total_cost=cost)
