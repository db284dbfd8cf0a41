"""Reference implementations that tests compare the package against.

``brute_force`` is the exact knapsack optimum by enumeration.
``lp_optimum`` is the optimum of the knapsack's LP relaxation, from every
customer's whole upper hull; ``solve_lagrangian``'s dual bound must equal it.
``full_bisection_lagrangian`` is the earlier Lagrangian solver, which bisects
on the multiplier and completes the plan greedily; ``solve_lagrangian``'s
plans must be worth at least its plans, and its bound no more than its dual
plus what the budget tolerance is worth.
``tie_averaged_actuals_loop`` is the Gini's tie averaging
walked one element at a time. The gradient checks compare ``backward_pass`` and the model's
backward walk with central finite differences of the loss, evaluated in
extended precision.
``reference_forward`` and ``reference_backward`` are the engine's passes in
their four-array form (pre-activation, activation, output and float dropout
mask kept for every layer, the mask None where no unit drops), which the
compact trace must match byte for byte. ``reference_model_gradients`` walks
a variant's parts through them on fresh arrays: the backprop that the
model's trace-spending backward walk must match byte for byte.
``reference_adam_update`` is Adam in its whole-array form, which the blocked
in-place update must match byte for byte.
``BAD_ARMS`` turns a valid arm array into each kind that every entry point
taking arms must refuse with a ``ValidationError`` before any cast.
"""

from typing import Callable, Sequence

import numpy as np

from promolab import allocator
from promolab.allocator import BUDGET_TOLERANCE, AllocationPlan, AllocationProblem, plan_totals
from promolab.errors import InfeasiblePlanError, InstanceTooLargeError, ShapeError, ValidationError
from promolab.model import _VARIANTS, ResponseModel, _loss_terms, _model_backward, _model_forward
from promolab.nncore import (
    _ADAM_BETA1,
    _ADAM_BETA2,
    _ADAM_EPSILON,
    _EXP_CLIP,
    AdamState,
    DenseNet,
    _link,
    _link_derivative,
    backward_pass,
    flatten_gradients,
    forward_pass,
    make_rng,
    net_parameters,
)

_BRUTE_FORCE_LIMIT = 10_000_000

def with_second(values, x) -> np.ndarray:
    """``values`` with its second entry set to ``x``."""
    return np.where(np.arange(len(values)) == 1, x, values)


# a cast to int64 would truncate the first, warn on the second (or raise a
# bare ValueError from a list), and index with the last two
BAD_ARMS = {
    "fractional": lambda arms: arms + 0.3,
    "nan": lambda arms: with_second(arms, np.nan),
    "column": lambda arms: np.reshape(arms, (-1, 1)),
    "bool": lambda arms: np.asarray(arms) > 0,
}


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


def lp_optimum(problem: AllocationProblem, limit: float | None = None) -> float:
    """Optimum of the knapsack's LP relaxation at cost ``limit``.

    By default ``limit`` is the budget plus ``BUDGET_TOLERANCE``, the cost
    that ``check_feasible`` and ``brute_force`` still count as fitting. Each
    customer starts on its cheapest arm (the most valuable of those) and
    walks its upper hull in (cost, value) while value still rises. Every step
    of every customer, steepest first, is taken whole while it fits and the
    next in part. A customer's steps fall in slope, so the taken steps are a
    start of each customer's walk.
    """
    if limit is None:
        limit = problem.budget + BUDGET_TOLERANCE
    total, steps = 0.0, []
    for values, costs in zip(problem.value.tolist(), problem.cost.tolist()):
        arms = range(len(values))
        here = min(arms, key=lambda j: (costs[j], -values[j]))
        total += values[here]
        while True:
            up = [j for j in arms if costs[j] > costs[here] and values[j] > values[here]]
            if not up:
                break
            # the steepest, the most valuable where slopes overflow to a tie
            nxt = max(
                up, key=lambda j: ((values[j] - values[here]) / (costs[j] - costs[here]), values[j])
            )
            steps.append((values[nxt] - values[here], costs[nxt] - costs[here]))
            here = nxt
    spent = float(problem.cost.min(axis=1).sum())
    for dv, dc in sorted(steps, key=lambda step: step[0] / step[1], reverse=True):
        if spent + dc > limit:
            return total + dv * (limit - spent) / dc
        total, spent = total + dv, spent + dc
    return total


def lagrangian_argmax(problem: AllocationProblem, lam: float) -> np.ndarray:
    """Per-customer argmax of value - lam * cost (lowest arm index on ties)."""
    scores = problem.value - lam * problem.cost
    return np.argmax(scores, axis=1).astype(np.int64)


def full_bisection_lagrangian(problem, iterations=100, lambda_hi=1.0):
    """The earlier ``solve_lagrangian``: every bisection step run on every customer.

    Bisects the doubling bracket ``iterations`` times, keeps the best plan
    that fits and the smallest dual seen, then adopts lo-side arms greedily
    from the hi plan, by value gained per cost added, while they fit.
    """
    rows = np.arange(problem.n)
    tol = allocator.BUDGET_TOLERANCE

    def evaluate(lam):
        arms = lagrangian_argmax(problem, lam)
        value = float(problem.value[rows, arms].sum())
        cost = float(problem.cost[rows, arms].sum())
        return arms, value, cost, value - lam * cost + lam * problem.budget

    arms0, value0, cost0, dual0 = evaluate(0.0)
    if cost0 <= problem.budget + tol:
        return AllocationPlan(arms=arms0, total_value=value0, total_cost=cost0, dual_bound=value0)
    lo, hi, best_dual = 0.0, lambda_hi, dual0
    while True:
        arms_hi, value_hi, cost_hi, dual_hi = evaluate(hi)
        best_dual = min(best_dual, dual_hi)
        if cost_hi <= problem.budget + tol:
            break
        lo, hi = hi, 2.0 * hi
    best = (arms_hi, value_hi, cost_hi)
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        arms_m, value_m, cost_m, dual_m = evaluate(mid)
        best_dual = min(best_dual, dual_m)
        if cost_m <= problem.budget + tol:
            hi = mid
            if value_m > best[1]:
                best = (arms_m, value_m, cost_m)
        else:
            lo = mid
    arms_lo = lagrangian_argmax(problem, lo)
    arms_hi = lagrangian_argmax(problem, hi)
    arms, value = best[0].copy(), best[1]
    diff = np.flatnonzero(arms_lo != arms_hi)
    dv = problem.value[diff, arms_lo[diff]] - problem.value[diff, arms_hi[diff]]
    dc = problem.cost[diff, arms_lo[diff]] - problem.cost[diff, arms_hi[diff]]
    useful = (dv > 0) & (dc > 0)
    diff, dv, dc = diff[useful], dv[useful], dc[useful]
    cand = arms_hi.copy()
    cand_value = float(problem.value[rows, cand].sum())
    cand_cost = float(problem.cost[rows, cand].sum())
    for idx in np.argsort(-dv / dc, kind="stable"):
        if cand_cost + dc[idx] <= problem.budget + tol:
            cand[diff[idx]] = arms_lo[diff[idx]]
            cand_cost += dc[idx]
            cand_value += dv[idx]
    if cand_value > value:
        arms = cand
    value, cost = plan_totals(problem, arms)
    return AllocationPlan(arms=arms, total_value=value, total_cost=cost, dual_bound=best_dual)


def tie_averaged_actuals_loop(predictions: np.ndarray, actuals: np.ndarray) -> np.ndarray:
    """``metrics._tie_averaged_actuals`` as one walk over the sorted predictions."""
    order = np.argsort(-predictions, kind="stable")
    pred_sorted = predictions[order]
    act_sorted = actuals[order].copy()
    i = 0
    while i < len(act_sorted):
        j = i
        while j + 1 < len(act_sorted) and pred_sorted[j + 1] == pred_sorted[i]:
            j += 1
        if j > i:
            act_sorted[i : j + 1] = act_sorted[i : j + 1].mean()
        i = j + 1
    return act_sorted


def reference_forward(net: DenseNet, batch, rng=None):
    """``(inputs, layers)``: a forward pass keeping ``(pre, activated, output, mask)`` per layer.

    Like the engine, it runs in ``np.result_type(batch, np.float64)`` and
    drops relu units exactly when ``rng`` is given and the rate is above 0,
    drawing from ``rng`` in the engine's order, so with equal rngs the two
    passes drop the same units. A link layer keeps every unit; its mask is
    None.
    """
    inputs = np.asarray(batch)
    inputs = inputs.astype(np.result_type(inputs, np.float64))
    use_dropout = rng is not None and net.dropout_rate > 0.0
    layers = []
    x = inputs
    for layer in net.layers:
        pre = x @ layer.weight
        pre += layer.bias
        mask = None
        if layer.activation != "relu":
            activated = out = _link(layer.activation, pre)
        else:
            activated = out = np.maximum(pre, 0.0)
            if use_dropout:
                keep = rng.random(activated.shape) >= net.dropout_rate
                mask = keep / (1.0 - net.dropout_rate)
                out = activated * mask
        layers.append((pre, activated, out, mask))
        x = out
    return inputs, layers


def reference_backward(net: DenseNet, inputs, layers, output_gradient):
    """``(weight_grads, bias_grads, input_gradient)`` through a ``reference_forward`` record."""
    weight_grads = [None] * len(net.layers)
    bias_grads = [None] * len(net.layers)
    g = np.asarray(output_gradient, dtype=layers[-1][2].dtype)
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        pre, activated, _, mask = layers[i]
        if mask is not None:
            g = g * mask
        if layer.activation == "relu":
            derivative = (pre > 0.0).astype(np.float64)
        else:
            derivative = _link_derivative(layer.activation, pre, activated)
        dpre = g * derivative
        below = layers[i - 1][2] if i > 0 else inputs
        weight_grads[i] = below.T @ dpre
        bias_grads[i] = dpre.sum(axis=0)
        g = dpre @ layer.weight.T
    return weight_grads, bias_grads, g


def reference_model_gradients(model: ResponseModel, features, arms, s, y, rng=None) -> list:
    """Gradients of the variant's summed loss, aligned with ``model.parameters()``.

    Each part runs ``reference_forward`` in part order, drawing dropout from
    ``rng`` as the model's forward walk does, and ``reference_backward`` in
    reverse order. A part's input gradient is the sum of its readers' input
    gradients, the trunk's term first, then the head's.
    """
    arms = np.asarray(arms, dtype=np.int64)
    z = model.standardize(features)
    parts = _VARIANTS[model.config.variant].parts
    records, outputs, slots = {}, {}, {}
    for part in parts:
        if part.kind == "embedding":
            outputs[part.name] = np.hstack([z, model.tables[part.name][arms]])
            continue
        records[part.name] = reference_forward(model.nets[part.name], outputs[part.source], rng)
        outputs[part.name] = records[part.name][1][-1][2]
        if part.slot is not None:
            slots[part.slot] = outputs[part.name][:, 0]
    _, slot_grads = _loss_terms(model, s, y, slots)
    terms: dict = {}  # part name -> the input gradients of the parts reading it
    grads = {}
    for part in reversed(parts):
        if part.kind == "head":
            g = slot_grads[part.slot].reshape(-1, 1)
        else:
            g = sum(terms[part.name][1:], terms[part.name][0])
        if part.kind == "embedding":
            grads[part.name] = [np.zeros_like(model.tables[part.name])]
            np.add.at(grads[part.name][0], arms, g[:, model.n_features :])
            continue
        weight_grads, bias_grads, input_gradient = reference_backward(
            model.nets[part.name], *records[part.name], g
        )
        grads[part.name] = [x for pair in zip(weight_grads, bias_grads) for x in pair]
        terms.setdefault(part.source, []).append(input_gradient)
    return [grad for name in (*model.tables, *model.nets) for grad in grads[name]]


def reference_adam_update(params, grads, state: AdamState):
    """One Adam step on whole arrays, in place; each line allocates its temporaries."""
    for g in grads:
        if not np.all(np.isfinite(g)):
            raise ValidationError("non-finite gradient; update rejected")
    state.step_count += 1
    t = state.step_count
    b1, b2 = _ADAM_BETA1, _ADAM_BETA2
    bias1 = 1.0 - b1**t
    bias2 = 1.0 - b2**t
    for p, g, m, v in zip(params, grads, state.first_moment, state.second_moment):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * np.square(g)
        m_hat = m / bias1
        v_hat = v / bias2
        p -= state.learning_rate * m_hat / (np.sqrt(v_hat) + _ADAM_EPSILON)


def _entry_gradient_error(
    flat: np.ndarray,
    i: int,
    analytic: float,
    eps: float,
    loss_value: Callable[[], float],
    region_signature: Callable[[], np.ndarray] | None,
    refine_rtol: float,
    max_refinements: int,
) -> float:
    """Relative error for one parameter entry, with kink-aware step refinement."""

    def central(e: float) -> float:
        orig = flat[i]
        flat[i] = orig + e
        up = loss_value()
        flat[i] = orig - e
        down = loss_value()
        flat[i] = orig
        return float((up - down) / (2.0 * e))

    def same_region(e: float) -> bool:
        orig = flat[i]
        flat[i] = orig + e
        sig_up = region_signature()
        flat[i] = orig - e
        sig_dn = region_signature()
        flat[i] = orig
        return bool(np.array_equal(sig_up, sig_dn))

    def rel(numeric: float) -> float:
        denom = max(abs(analytic), abs(numeric), 1e-12)
        return float(abs(analytic - numeric) / denom)

    e = eps
    err = rel(central(e))
    if region_signature is None:
        return err
    for _ in range(max_refinements):
        if err <= refine_rtol or same_region(e):
            break
        e /= 10.0
        err = rel(central(e))
    return err


def max_relative_gradient_error(
    params: Sequence[np.ndarray],
    loss_value: Callable[[], float],
    analytic_grads: Callable[[], Sequence[np.ndarray]],
    eps: float,
    rng: np.random.Generator | None = None,
    samples_per_tensor: int = 8,
    region_signature: Callable[[], np.ndarray] | None = None,
    refine_rtol: float = 1e-6,
    max_refinements: int = 3,
) -> float:
    """Worst sampled relative error between analytic and central-difference grads.

    For each parameter tensor, up to ``samples_per_tensor`` entries are
    perturbed by +/- eps (all entries if the tensor is that small). The
    relative error for one entry is |analytic - numeric| divided by
    max(|analytic|, |numeric|, 1e-12).

    Central differences only measure the derivative when both evaluation
    points sit in the same smooth piece of the loss; a relu unit or an exp
    clamp switching state inside the interval turns the measurement into an
    average over a kink. When ``region_signature`` is given (a closure that
    reports the active-set pattern at the current parameters), any entry
    whose error exceeds ``refine_rtol`` while the two perturbed points
    disagree on the signature is remeasured with a 10x smaller step, up to
    ``max_refinements`` times. An entry whose error is large while the
    region is stable is a genuine gradient discrepancy and is kept as is.
    """
    if eps <= 0:
        raise ValidationError(f"eps must be positive, got {eps}")
    if rng is None:
        rng = make_rng(0)
    grads = [np.asarray(g, dtype=np.float64) for g in analytic_grads()]
    if len(grads) != len(params):
        raise ShapeError(f"{len(grads)} gradients for {len(params)} parameter tensors")
    worst = 0.0
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise ShapeError(f"gradient shape {g.shape} does not match parameter {p.shape}")
        n = p.size
        if n <= samples_per_tensor:
            idx = np.arange(n)
        else:
            idx = rng.choice(n, size=samples_per_tensor, replace=False)
        flat = p.reshape(-1)
        gflat = g.reshape(-1)
        for i in idx:
            err = _entry_gradient_error(
                flat, int(i), float(gflat[i]), eps, loss_value,
                region_signature, refine_rtol, max_refinements,
            )
            worst = max(worst, err)
    return worst


def gradient_check(
    net: DenseNet,
    loss_fn: Callable[[np.ndarray], tuple[float, np.ndarray]],
    batch: np.ndarray,
    eps: float = 1e-5,
    rng: np.random.Generator | None = None,
    samples_per_tensor: int = 8,
    fd_dtype=np.longdouble,
) -> float:
    """Check ``backward_pass`` against finite differences for one net and loss.

    ``loss_fn`` maps the net output to ``(scalar loss, d loss / d output)``.
    Runs without dropout so the loss surface is deterministic. Returns the max
    sampled relative error; it raises nothing and reports a number even for
    badly broken gradients.

    The differenced loss is evaluated on the batch cast to ``fd_dtype``
    (extended precision by default), which the pass then runs in, because
    float64 round-off at eps=1e-5 would swamp the smallest genuine gradient
    entries; the analytic side stays in float64.
    """
    fd_batch = np.asarray(batch, dtype=fd_dtype)

    def loss_value() -> float:
        trace = forward_pass(net, fd_batch)
        value, _ = loss_fn(trace.output)
        return value

    def analytic() -> list[np.ndarray]:
        trace = forward_pass(net, batch)
        _, dout = loss_fn(trace.output)
        back = backward_pass(net, trace, dout)
        return flatten_gradients(back)

    return max_relative_gradient_error(
        net_parameters(net), loss_value, analytic, eps, rng=rng,
        samples_per_tensor=samples_per_tensor,
    )


def model_gradient_check(
    model: ResponseModel,
    features: np.ndarray,
    arms: np.ndarray,
    s: np.ndarray,
    y: np.ndarray,
    eps: float = 1e-5,
    rng: np.random.Generator | None = None,
    samples_per_tensor: int = 8,
    fd_dtype=np.longdouble,
) -> float:
    """Finite-difference check of the whole model's gradients on one batch.

    Covers every parameter tensor including the embedding tables, using the
    variant's own composite loss (no dropout, mean over the batch). Returns
    the worst sampled relative error. The differenced loss runs on features
    cast to ``fd_dtype`` (extended precision by default) so eval round-off
    does not masquerade as gradient error on small entries, and the relu and exp-clamp
    active sets guard the differencing: an entry whose perturbation flips a
    unit across its kink is remeasured with a smaller step instead of
    averaging over the kink.
    """
    features = np.asarray(features, dtype=np.float64)
    arms = np.asarray(arms, dtype=np.int64)
    s = np.asarray(s, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = len(features)
    fd_features = features.astype(fd_dtype)

    def loss_value() -> float:
        mt = _model_forward(model, fd_features, arms)
        value, _ = _loss_terms(model, s.astype(fd_dtype), y.astype(fd_dtype), mt.slots)
        return np.sum(value) / n

    def region_signature() -> np.ndarray:
        mt = _model_forward(model, features, arms)
        sigs = []
        for part_name, net in model.parts():
            trace = mt.traces[part_name]
            for layer, lt in zip(net.layers, trace.layers):
                if layer.activation == "relu":
                    sigs.append(lt.output.ravel() > 0)  # relu(pre) > 0 iff pre > 0 without dropout
                elif layer.activation == "exp":
                    sigs.append(lt.pre.ravel() < _EXP_CLIP)
        if not sigs:
            return np.zeros(0, dtype=bool)
        return np.concatenate(sigs)

    def analytic() -> list[np.ndarray]:
        mt = _model_forward(model, features, arms)
        _, slot_grads = _loss_terms(model, s, y, mt.slots)
        return _model_backward(model, mt, {k: g / n for k, g in slot_grads.items()})

    return max_relative_gradient_error(
        model.parameters(), loss_value, analytic, eps, rng=rng,
        samples_per_tensor=samples_per_tensor, region_signature=region_signature,
    )
