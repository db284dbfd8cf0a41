"""Synthetic randomized-trial generator with exported ground truth.

The world: each customer has five activity features (recency in days,
long/short-term purchase frequency counts, long/short-term monetary value in
currency units). An incentive arm is assigned at random, independent of the
features. The response has three true components per (customer, arm):

* ``p_direct`` - probability of a purchase during the promotion window
  (logistic link);
* ``mu_promo_given_direct`` - mean spend of that promotion-window purchase
  when it happens (log link, gamma distributed);
* ``mu_post`` - mean of the post-window spend, drawn from a compound
  Poisson-Gamma distribution (point mass at zero plus continuous part).

A world is one entry of ``_WORLD_COEFFICIENTS``, and ``GenConfig.surfaces``
evaluates it over the config's coupon values for any feature rows. Every arm
effect and arm x feature interaction is proportional to the arm's coupon
value, so the zero-coupon (control) arm has none.

The recorded enduring amount is ``y = y_promo + y_post`` where ``y_promo`` is
positive exactly when the direct flag ``s`` is 1, so the true mean enduring
amount is ``p_direct * mu_promo_given_direct + mu_post``. That quantity is
exported as ground truth for every (customer, arm) pair - observed or not -
which makes exact policy values computable for estimator tests.

Each kind of draw has its own stream, ``make_rng(seed, 300, k)``: the five
feature columns in ``FEATURE_NAMES`` order (k = 0-4), the assignment and
direct-purchase uniforms (5, 6), the promo-spend gamma (7) and the CPG count
and gamma (8, 9). Every stream is filled in customer order, one draw per
customer (the CPG gamma only for positive counts), so customer i's record and
ground truth do not depend on ``n_customers``, with one exception: a
one-customer world's ``z @ arm_coefs[j]`` in ``GenConfig.surfaces`` is a
one-row product, which BLAS computes with another kernel, so its truth (and
through it, rarely, its draws) can differ in the last bits from customer 0's
in a larger world. The key 300 keeps these streams apart from the ones
``train_model`` derives from the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NONNEGATIVE, POSITIVE, UNIT, ValidationError, arm_indices, at_least, check_fields, rule
from .losses import TWEEDIE_RHO
from .nncore import make_rng, sigmoid
from .tables import pair_columns, read_table, write_table

FEATURE_NAMES = ("recency", "freq_long", "freq_short", "money_long", "money_short")
N_FEATURES = len(FEATURE_NAMES)
DATASET_HEADER = ("customer_id", *FEATURE_NAMES, "arm", "s", "y")
GROUND_TRUTH_HEADER = ("customer_id", "arm", "p_true", "mu_true")

# Response surfaces see standardized features squashed to this magnitude.
_Z_SATURATION = 3.0

# Stream key of every world draw; train_model uses make_rng(seed, 0..3).
_WORLD_STREAM = 300


def cpg_parameters(mu, phi: float, rho: float):
    """(lambda, alpha, theta) of the compound Poisson-Gamma with mean ``mu``.

    N ~ Poisson(lambda), each atom Gamma(alpha, theta):
      lambda = mu^(2-rho) / (phi (2-rho))
      alpha  = (2-rho) / (rho-1)
      theta  = phi (rho-1) mu^(rho-1)
    so the mean is lambda * alpha * theta = mu.
    """
    mu = np.asarray(mu, dtype=np.float64)
    lam = mu ** (2.0 - rho) / (phi * (2.0 - rho))
    alpha = (2.0 - rho) / (rho - 1.0)
    theta = phi * (rho - 1.0) * mu ** (rho - 1.0)
    return lam, alpha, theta


def _check_cpg_domain(mu, phi: float, rho: float):
    if rho not in TWEEDIE_RHO:
        raise ValidationError(f"rho must {TWEEDIE_RHO}, got {rho}")
    if phi <= 0:
        raise ValidationError(f"phi must be positive, got {phi}")
    if np.any(np.asarray(mu) <= 0):
        raise ValidationError("mu must be positive")


def sample_cpg(mu, phi: float, rho: float, rng: np.random.Generator):
    """Draw from the compound Poisson-Gamma distribution with mean ``mu``.

    Draws N ~ Poisson(lambda) and then the sum of N Gamma(alpha, theta)
    atoms, using gamma additivity (the sum is Gamma(N alpha, theta)). The
    result is exactly 0.0 when N = 0. ``mu`` may be a scalar, which gives a
    ``float``, or an array, which gives an array of its shape.
    """
    out = _draw_cpg(mu, phi, rho, rng, rng)
    return out if out.ndim else float(out)


def _draw_cpg(mu, phi: float, rho: float, count_rng, gamma_rng) -> np.ndarray:
    """CPG draws: the counts from ``count_rng``, then the gamma sums of the
    positive counts, in order, from ``gamma_rng``."""
    _check_cpg_domain(mu, phi, rho)
    lam, alpha, theta = cpg_parameters(mu, phi, rho)
    n = np.asarray(count_rng.poisson(lam))
    out = np.zeros(n.shape, dtype=np.float64)
    pos = n > 0
    out[pos] = gamma_rng.gamma(n[pos] * alpha, np.broadcast_to(theta, n.shape)[pos])
    return out


@dataclass
class FeatureConfig:
    """Distribution parameters for the five customer features.

    Heavy-tailed by design: recency is geometric, frequencies are negative
    binomial (with a real ``n``), monetary values are lognormal. Each bound
    is the domain of the numpy sampler that reads the value.
    """

    recency_p: float = rule("real", 0.03, UNIT)
    freq_long_n: float = rule("real", 3, POSITIVE)
    freq_long_p: float = rule("real", 0.25, UNIT)
    freq_short_n: float = rule("real", 2, POSITIVE)
    freq_short_p: float = rule("real", 0.5, UNIT)
    money_long_log_mean: float = rule("real", 1.0)
    money_long_log_sd: float = rule("real", 0.8, NONNEGATIVE)
    money_short_log_mean: float = rule("real", 0.3)
    money_short_log_sd: float = rule("real", 1.0, NONNEGATIVE)

    def __post_init__(self):
        check_fields(self, "generation.features")

    def sample(self, rngs, n: int) -> np.ndarray:
        """(n, 5) feature rows; column k is drawn from ``rngs[k]`` in row order."""
        recency, freq_long, freq_short, money_long, money_short = rngs
        return np.stack(
            [
                recency.geometric(self.recency_p, n),
                freq_long.negative_binomial(self.freq_long_n, self.freq_long_p, n),
                freq_short.negative_binomial(self.freq_short_n, self.freq_short_p, n),
                money_long.lognormal(self.money_long_log_mean, self.money_long_log_sd, n),
                money_short.lognormal(self.money_short_log_mean, self.money_short_log_sd, n),
            ],
            axis=1,
        )


# ---------------------------------------------------------------------------
# Default worlds
# ---------------------------------------------------------------------------

# Standardization constants of the default FeatureConfig: approximate analytic
# moments, fixed so a world's surfaces do not move with the features sampled.
_DEFAULT_CENTER = np.array([33.3, 9.0, 2.0, 3.74, 2.23])
_DEFAULT_SCALE = np.array([32.8, 6.0, 2.0, 3.55, 2.92])


# Each world's (intercept, feature coefficients, coupon slope of the arm
# effect, coupon slope of the arm x feature interactions) for every block.
# default: direct and enduring responses share feature heterogeneity, so
#   modeling either helps the other, with effects big enough for a trained
#   model to approach the true ranking.
# decorrelated: the direct uplift varies with short-term frequency only, the
#   enduring uplift with long-term monetary value only (anti-aligned with the
#   direct interaction), so chasing the direct signal picks the wrong customers.
_WORLD_COEFFICIENTS = {
    "default": {
        "direct": (-1.3, (-0.7, 0.5, 0.45, 0.25, 0.2), 0.30, (0.0, 0.10, 0.15, 0.0, 0.08)),
        "promo": (-0.1, (-0.1, 0.1, 0.1, 0.35, 0.25), 0.08, (0.0, 0.0, 0.0, 0.0, 0.0)),
        "post": (0.7, (-0.45, 0.35, 0.25, 0.45, 0.3), 0.22, (0.0, 0.08, 0.0, 0.12, 0.06)),
    },
    "decorrelated": {
        "direct": (-1.2, (-0.6, 0.4, 0.5, 0.1, 0.1), 0.35, (0.0, 0.0, 0.30, -0.15, 0.0)),
        "promo": (-0.2, (-0.1, 0.1, 0.1, 0.3, 0.2), 0.05, (0.0, 0.0, 0.0, 0.0, 0.0)),
        "post": (0.7, (-0.4, 0.3, 0.2, 0.5, 0.3), 0.10, (0.0, 0.0, -0.12, 0.30, 0.0)),
    },
}


@dataclass
class GenConfig:
    """Full description of one synthetic promotion world."""

    n_customers: int = rule("integer", 100_000, at_least(1))
    coupon_values: np.ndarray = rule("reals", (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0), NONNEGATIVE)
    assignment_probs: np.ndarray | None = rule("reals", None, NONNEGATIVE)  # None: uniform over arms
    phi: float = rule("real", 4.0, POSITIVE)
    rho: float = rule("real", 1.5, TWEEDIE_RHO)
    promo_gamma_shape: float = rule("real", 2.0, POSITIVE)
    seed: int = rule("integer", 0, at_least(0))
    features: FeatureConfig = field(default_factory=FeatureConfig)
    world: str = rule("name", "default", tuple(_WORLD_COEFFICIENTS))

    def __post_init__(self):
        check_fields(self, "generation")
        self.coupon_values = np.asarray(self.coupon_values, dtype=np.float64)
        zero_arms = np.flatnonzero(self.coupon_values == 0.0)
        if len(zero_arms) != 1:
            raise ValidationError(
                f"exactly one zero-incentive arm required, found {len(zero_arms)}"
            )
        if self.assignment_probs is None:
            self.assignment_probs = np.full(self.n_arms, 1.0 / self.n_arms)
        self.assignment_probs = _checked_probs(self.assignment_probs, self.n_arms)

    def surfaces(self, features: np.ndarray):
        """The world's true (p_direct, mu_promo_given_direct, mu_post), each
        (N, M), for feature rows (N, F); a 1-D row counts as one row.

        Standardized features are squashed through tanh: the lognormal
        monetary features reach z-scores of 20 or more in a large population,
        which the exponential links would let dominate every aggregate. The
        squash is near-identity for |z| < 2 and caps |z| at the saturation
        level. In each block, arm j with coupon value c_j then gets
        ``intercept + z @ (coefs + c_j interaction_slopes) + slope c_j``
        through the block's link (logistic for ``direct``, log otherwise).
        """
        z = (np.atleast_2d(np.asarray(features, dtype=np.float64)) - _DEFAULT_CENTER) / _DEFAULT_SCALE
        z = np.tanh(z / _Z_SATURATION) * _Z_SATURATION
        c = self.coupon_values
        out = []
        for name, link in (("direct", sigmoid), ("promo", np.exp), ("post", np.exp)):
            intercept, coefs, slope, interaction_slopes = _WORLD_COEFFICIENTS[self.world][name]
            arm_coefs = np.asarray(coefs) + np.outer(c, interaction_slopes)  # (M, F)
            arms = [link(intercept + z @ arm_coefs[j] + slope * c[j]) for j in range(len(c))]
            out.append(np.stack(arms, axis=1))
        return tuple(out)

    @property
    def n_arms(self) -> int:
        return len(self.coupon_values)

    @property
    def control_arm(self) -> int:
        return int(np.flatnonzero(self.coupon_values == 0.0)[0])


@dataclass
class RctDataset:
    """Observed trial records: features, assigned arm, direct flag, enduring amount."""

    customer_id: np.ndarray
    features: np.ndarray  # (N, F)
    arm: np.ndarray
    s: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.customer_id = np.asarray(self.customer_id, dtype=np.int64)
        self.features = np.asarray(self.features, dtype=np.float64)
        self.arm = np.asarray(self.arm, dtype=np.int64)
        self.s = np.asarray(self.s, dtype=np.int64)
        self.y = np.asarray(self.y, dtype=np.float64)
        n = len(self.customer_id)
        if self.features.shape != (n, N_FEATURES):
            raise ValidationError(f"features must be ({n}, {N_FEATURES})")
        for name, arr in (("arm", self.arm), ("s", self.s), ("y", self.y)):
            if arr.shape != (n,):
                raise ValidationError(f"{name} must have length {n}")
        if np.any(self.arm < 0):
            raise ValidationError("arm indices must be nonnegative")
        if not np.all((self.s == 0) | (self.s == 1)):
            raise ValidationError("s must be 0 or 1")
        if not (np.all(np.isfinite(self.features)) and np.all(np.isfinite(self.y))):
            raise ValidationError("features and y must be finite")
        if np.any(self.y < 0):
            raise ValidationError("y must be nonnegative")
        if len(np.unique(self.customer_id)) != n:
            raise ValidationError("customer_id values must be unique")

    @property
    def n(self) -> int:
        return len(self.customer_id)

    def subset(self, index: np.ndarray) -> "RctDataset":
        return RctDataset(
            customer_id=self.customer_id[index],
            features=self.features[index],
            arm=self.arm[index],
            s=self.s[index],
            y=self.y[index],
        )

    def to_csv(self, path):
        write_table(path, DATASET_HEADER, [self.customer_id, *self.features.T, self.arm, self.s, self.y])

    @classmethod
    def from_csv(cls, path) -> "RctDataset":
        customer_id, *features, arm, s, y = read_table(
            path, DATASET_HEADER, ("customer_id", "arm", "s")
        )
        try:
            return cls(customer_id=customer_id, features=np.stack(features, axis=1), arm=arm, s=s, y=y)
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from None


@dataclass
class GroundTruth:
    """True response parameters for every (customer, arm) pair.

    ``mean_enduring`` is the exact expectation of the recorded amount y, so
    sums of it over any assignment are exact policy values.
    """

    p_direct: np.ndarray  # (N, M)
    mu_promo_given_direct: np.ndarray  # (N, M)
    mu_post: np.ndarray  # (N, M)
    phi: float
    rho: float
    promo_gamma_shape: float

    @property
    def n(self) -> int:
        return self.p_direct.shape[0]

    @property
    def n_arms(self) -> int:
        return self.p_direct.shape[1]

    @property
    def mean_enduring(self) -> np.ndarray:
        return self.p_direct * self.mu_promo_given_direct + self.mu_post

    def zero_probability(self) -> np.ndarray:
        """P(y = 0) per (customer, arm): no direct purchase and an empty CPG draw."""
        lam, _, _ = cpg_parameters(self.mu_post, self.phi, self.rho)
        return (1.0 - self.p_direct) * np.exp(-lam)

    def policy_value(self, arms: np.ndarray) -> float:
        """Exact expected total enduring amount under a per-customer arm choice."""
        arms = arm_indices(arms, "arms")
        if arms.shape != (self.n,):
            raise ValidationError(f"arms must have length {self.n}")
        if np.any(arms < 0) or np.any(arms >= self.n_arms):
            raise ValidationError(f"arm index out of range [0, {self.n_arms})")
        return float(self.mean_enduring[np.arange(self.n), arms.astype(np.int64, copy=False)].sum())

    def to_csv(self, path, customer_id: np.ndarray):
        columns = [
            *pair_columns(customer_id, self.n_arms), self.p_direct.ravel(), self.mean_enduring.ravel()
        ]
        write_table(path, GROUND_TRUTH_HEADER, columns)


def load_ground_truth_csv(path):
    """(customer_id, p_true, mu_true) arrays from a ground-truth CSV; p/mu are (N, M)."""
    cid, arm, p_true, mu_true = read_table(path, GROUND_TRUTH_HEADER, ("customer_id", "arm"))
    n_arms = int(arm.max(initial=0)) + 1
    ids = cid[::n_arms]
    if not all(map(np.array_equal, (cid, arm), pair_columns(ids, n_arms))):
        raise ValidationError(f"{path}: rows must list arms 0, 1, ... of each customer in turn")
    return ids, p_true.reshape(-1, n_arms), mu_true.reshape(-1, n_arms)


def generate_rct(config: GenConfig):
    """Sample one randomized trial and its full ground truth.

    Arm assignment is drawn independently of the features, so incentive and
    covariates are independent by construction. Features come from streams
    0-4 of the world key and outcomes from streams 5-9 (see the module
    docstring).
    """
    n = config.n_customers
    rngs = [make_rng(config.seed, _WORLD_STREAM, k) for k in range(N_FEATURES + 5)]
    features = config.features.sample(rngs[:N_FEATURES], n)
    p, mu_promo, mu_post = config.surfaces(features)
    truth = GroundTruth(
        p_direct=p,
        mu_promo_given_direct=mu_promo,
        mu_post=mu_post,
        phi=config.phi,
        rho=config.rho,
        promo_gamma_shape=config.promo_gamma_shape,
    )
    arm, s, y = _draw_outcomes(truth, config.assignment_probs, rngs[N_FEATURES:])
    dataset = RctDataset(
        customer_id=np.arange(n, dtype=np.int64),
        features=features,
        arm=arm,
        s=s,
        y=y,
    )
    return dataset, truth


def redraw_outcomes(truth: GroundTruth, assignment_probs: np.ndarray, rng: np.random.Generator):
    """Fresh (arm, s, y) draws for fixed customers and ground truth.

    Single-stream sampler for Monte Carlo studies that need many outcome
    worlds over one fixed population (features and truth unchanged).
    """
    return _draw_outcomes(truth, assignment_probs, (rng,) * 5)


def _checked_probs(assignment_probs, n_arms: int) -> np.ndarray:
    """``assignment_probs`` as float64 if they are a distribution over ``n_arms``
    arms: finite, nonnegative and summing to 1 within 1e-9."""
    probs = np.asarray(assignment_probs, dtype=np.float64)
    if probs.shape != (n_arms,):
        raise ValidationError("assignment_probs length must match the arm count")
    if not (np.all(np.isfinite(probs)) and np.all(probs >= 0) and abs(probs.sum() - 1.0) <= 1e-9):
        raise ValidationError(
            f"assignment_probs must be finite, nonnegative and sum to 1, got {probs.tolist()}"
        )
    return probs


def _draw_outcomes(truth: GroundTruth, assignment_probs: np.ndarray, rngs):
    """(arm, s, y) for every customer from five streams, in this order: assignment
    uniform, direct uniform, promo gamma, CPG count, CPG gamma."""
    arm_rng, direct_rng, promo_rng, count_rng, gamma_rng = rngs
    n = truth.n
    probs = _checked_probs(assignment_probs, truth.n_arms)
    arm = np.searchsorted(np.cumsum(probs), arm_rng.random(n), side="right")
    arm = np.minimum(arm, truth.n_arms - 1).astype(np.int64)
    rows = np.arange(n)
    s = (direct_rng.random(n) < truth.p_direct[rows, arm]).astype(np.int64)
    k = truth.promo_gamma_shape
    y_promo = np.where(s == 1, promo_rng.gamma(k, truth.mu_promo_given_direct[rows, arm] / k), 0.0)
    y_post = _draw_cpg(truth.mu_post[rows, arm], truth.phi, truth.rho, count_rng, gamma_rng)
    return arm, s, y_post + y_promo
