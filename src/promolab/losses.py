"""Training losses: Tweedie deviance, cross-entropy, L2, and their weighted sum.

Every loss returns ``(value, gradient)`` where the gradient is taken with
respect to the prediction. All functions broadcast over numpy arrays;
aggregation over a batch is the caller's job and is always the arithmetic
mean, which keeps the combination weights scale-free across batch sizes.

The Tweedie loss is the negative log-likelihood of a compound Poisson-Gamma
response with index ``rho`` in (1, 2), dropping the terms that do not depend
on the predicted mean (the dispersion and the normalizing constant), so it
can be used directly as a training objective.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NONNEGATIVE, Bound, ValidationError, check_fields, rule

# Probabilities fed to cross-entropy are clipped to this band so saturated
# sigmoids cannot produce infinite loss.
PROB_CLIP = 1e-7

# The Tweedie power indices of compound Poisson-Gamma responses.
TWEEDIE_RHO = Bound(1.0, 2.0)


@dataclass(frozen=True)
class LossWeights:
    """Weights for (amount, enduring propensity, direct propensity) terms."""

    w_amount: float = rule("real", 10.0, NONNEGATIVE)
    w_enduring: float = rule("real", 1.0, NONNEGATIVE)
    w_direct: float = rule("real", 2.0, NONNEGATIVE)

    def __post_init__(self):
        check_fields(self, "model.weights")
        if self.w_amount == self.w_enduring == self.w_direct == 0:
            raise ValidationError("at least one loss weight must be positive")


def _as_rho(rho: float) -> float:
    r = float(rho)
    if r not in TWEEDIE_RHO:
        raise ValidationError(f"rho must {TWEEDIE_RHO}, got {r}")
    return r


def _as_float(x) -> np.ndarray:
    """Coerce to a floating array, keeping wider-than-double dtypes intact.

    Finite-difference oracles evaluate these losses in ``np.longdouble``;
    forcing float64 here would throw that precision away.
    """
    arr = np.asarray(x)
    if not np.issubdtype(arr.dtype, np.floating):
        return arr.astype(np.float64)
    return arr


def tweedie_loss(y, y_hat, rho=1.5):
    """Mean-parameter Tweedie negative log-likelihood and its gradient.

    value    = -y * y_hat^(1-rho) / (1-rho) + y_hat^(2-rho) / (2-rho)
    gradient = y_hat^(-rho) * (y_hat - y)

    Requires y >= 0 and y_hat > 0; the loss is undefined at or below zero
    predictions, so the amount head must go through a positive link.
    """
    r = _as_rho(rho)
    y = _as_float(y)
    y_hat = _as_float(y_hat)
    if np.any(y < 0):
        raise ValidationError("tweedie_loss requires y >= 0")
    if np.any(y_hat <= 0):
        raise ValidationError("tweedie_loss is undefined for y_hat <= 0")
    value = -y * y_hat ** (1.0 - r) / (1.0 - r) + y_hat ** (2.0 - r) / (2.0 - r)
    grad = y_hat ** (-r) * (y_hat - y)
    return value, grad


def cross_entropy_loss(label, p_hat):
    """Binary cross-entropy and its gradient w.r.t. the predicted probability.

    ``p_hat`` is clipped to [PROB_CLIP, 1 - PROB_CLIP] before the logs; the
    gradient is evaluated at the clipped value.
    """
    label = _as_float(label)
    p_hat = _as_float(p_hat)
    if not np.all((label == 0) | (label == 1)):
        raise ValidationError("labels must be 0 or 1")
    p = np.clip(p_hat, PROB_CLIP, 1.0 - PROB_CLIP)
    value = -label * np.log(p) - (1.0 - label) * np.log1p(-p)
    grad = (p - label) / (p * (1.0 - p))
    return value, grad


def l2_loss(y, y_hat):
    """Squared error ``(y - y_hat)^2`` and its gradient ``2 (y_hat - y)``."""
    y = _as_float(y)
    y_hat = _as_float(y_hat)
    value = np.square(y - y_hat)
    grad = 2.0 * (y_hat - y)
    return value, grad


def hybrid_loss(s, y, f_direct, f_enduring_prop, f_amount, weights=None, rho=1.5):
    """Layered sum of the three response losses.

    value = w_amount   * Tweedie(y; f_amount, rho)
          + w_enduring * CE(1{y > 0}; f_enduring_prop)
          + w_direct   * CE(s; f_direct)

    Returns ``(value, grad_direct, grad_enduring, grad_amount)`` with each
    gradient already scaled by its weight. Inputs broadcast, so this serves
    both single examples and whole batches. Training sums the same terms one
    by one (``model._loss_terms``); the tests hold this as its reference.
    """
    if weights is None:
        weights = LossWeights()
    y = _as_float(y)
    amount_value, amount_grad = tweedie_loss(y, f_amount, rho)
    nonzero = (y > 0).astype(np.float64)
    enduring_value, enduring_grad = cross_entropy_loss(nonzero, f_enduring_prop)
    direct_value, direct_grad = cross_entropy_loss(s, f_direct)
    value = (
        weights.w_amount * amount_value
        + weights.w_enduring * enduring_value
        + weights.w_direct * direct_value
    )
    return (
        value,
        weights.w_direct * direct_grad,
        weights.w_enduring * enduring_grad,
        weights.w_amount * amount_grad,
    )
