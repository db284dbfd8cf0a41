"""Shared exception types, the one check that every config field goes through, and the
one check that every array of arm indices goes through.

ValidationError (and subclasses) signal bad inputs or configuration and map
to CLI exit code 1; every other PromolabError maps to exit code 2.
"""

import dataclasses
import math
import numbers

import numpy as np


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


@dataclasses.dataclass(frozen=True)
class Bound:
    """The interval a number must lie in; by default every finite number. NaN lies in none."""

    lo: float = -math.inf
    hi: float = math.inf
    lo_open: bool = True
    hi_open: bool = True

    def __contains__(self, x) -> bool:
        above = x > self.lo if self.lo_open else x >= self.lo
        return above and (x < self.hi if self.hi_open else x <= self.hi)

    def __str__(self) -> str:
        """What a number in the bound does, as the words after "must"."""
        if self.hi < math.inf:
            return f"lie in {'[('[self.lo_open]}{self.lo:g}, {self.hi:g}{'])'[self.hi_open]}"
        if self.lo == -math.inf:
            return "be finite"
        least = f"{'greater than' if self.lo_open else 'at least'} {self.lo:g}"
        least = {"greater than 0": "positive", "at least 0": "nonnegative"}.get(least, least)
        return f"be {least}" + (" and finite" if self.hi_open else "")


FINITE = Bound()
POSITIVE = Bound(0.0)
NONNEGATIVE = Bound(0.0, lo_open=False)
UNIT = Bound(0.0, 1.0, hi_open=False)


def at_least(n) -> Bound:
    """Every number from ``n`` up, infinity included (an integer never is)."""
    return Bound(n, lo_open=False, hi_open=False)


_KINDS = {
    "integer": (numbers.Integral, "an integer"),
    "real": (numbers.Real, "a number"),
    "integers": (numbers.Integral, "a list of integers"),
    "reals": (numbers.Real, "a list of numbers"),
}


def rule(kind: str, default, bound=FINITE, min_len: int = 0):
    """A config field with its default and the one rule its values keep: a
    ``kind`` of ``_KINDS`` (numpy's numbers too, never a bool; a list holds at
    least ``min_len`` of them) whose numbers lie in ``bound``, or "name" with
    the tuple of names as ``bound``. A field whose default is None takes None."""
    return dataclasses.field(default=default, metadata={"rule": (kind, bound, min_len)})


def check_fields(config, section: str) -> None:
    """Raise ``ValidationError("<section>.<field> must …, got …")`` for the
    first field of the dataclass ``config`` that breaks its ``rule``."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if "rule" not in f.metadata or (value is None and f.default is None):
            continue
        kind, bound, min_len = f.metadata["rule"]
        where, shown = f"{section}.{f.name}", value.tolist() if hasattr(value, "tolist") else value
        if kind == "name":
            if value not in bound:
                raise ValidationError(f"{where} must be one of {bound}, got {shown!r}")
            continue
        number, noun = _KINDS[kind]
        many = kind in ("integers", "reals")
        if many and not isinstance(value, (list, tuple)) and getattr(value, "ndim", 0) != 1:
            raise ValidationError(f"{where} must be {noun}, got {shown!r}")
        entries = value if many else (value,)
        if any(isinstance(x, bool) or not isinstance(x, number) for x in entries):
            raise ValidationError(f"{where} must be {noun}, got {shown!r}")
        if len(entries) < min_len:
            raise ValidationError(f"{where} must have at least {min_len} entries, got {shown!r}")
        for x in entries:
            if x not in bound:
                # a refused NaN or infinity is named as such, then the whole bound
                plain = math.isfinite(x) or math.inf in bound or bound == FINITE
                must, tail = (bound, "") if plain else ("be finite", f" ({where} must {bound})")
                raise ValidationError(f"{where} must {must}, got {shown!r}{tail}")


def arm_indices(arms, name: str) -> np.ndarray:
    """``arms`` as an array, unchanged, once it is 1-D and of an integer dtype or of floats that
    are all finite whole numbers (bools are neither); else ``ValidationError`` naming ``name``.

    Nothing is cast, so a NaN or a fraction never warns or truncates: callers
    cast to int64 only after their range check.
    """
    arms = np.asarray(arms)
    kind = arms.dtype.kind
    whole = kind in "iu" or (kind == "f" and np.all(np.isfinite(arms)) and np.all(arms == np.trunc(arms)))
    if arms.ndim != 1 or not whole:
        raise ValidationError(f"{name} must be 1-D whole-number indices, got {arms.dtype} {arms.shape}")
    return arms
