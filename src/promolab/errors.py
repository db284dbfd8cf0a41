"""Shared exception types, and the integer check that config fields share.

ValidationError (and subclasses) signal bad inputs or configuration and map
to CLI exit code 1; every other PromolabError maps to exit code 2.
"""

import numbers


class PromolabError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(PromolabError, ValueError):
    """Invalid argument, configuration value, or file content."""


class ShapeError(ValidationError):
    """Array dimensions do not line up."""


class InstanceTooLargeError(ValidationError):
    """Problem instance exceeds the declared size limit of a solver."""


class InfeasiblePlanError(PromolabError):
    """An allocation plan violates its problem's constraints."""


class EstimationError(PromolabError):
    """A policy-value estimate cannot be formed from the available RCT data."""


class MetricUndefinedError(PromolabError):
    """A metric is undefined for the given inputs (e.g. single-class labels)."""


class TrainingError(PromolabError):
    """Training aborted (e.g. loss became non-finite)."""


def require_integer(name: str, value) -> None:
    """Raise ``ValidationError`` naming ``name`` unless ``value`` is an int (numpy's too), not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
