"""Exception types and input rules shared across the package.

Plain ValueError is used for ordinary domain errors (negative argument,
out-of-range node, nonpositive parameter; _check_positive, _check_count
and _check_size are rules shared by many inputs). The classes here name
failure modes that callers are expected to branch on; the CLI maps them
to exit codes.
"""

import math
import numbers

# a 1024 x 1024 mesh; at 200 bytes a node, a solve of this size takes 210 MB
_MAX_VALUES = 2**20


def _check_positive(name, value):
    if not (value > 0.0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _check_count(name, value, minimum):
    # numpy integers are Integral; bool is too, but True is no count
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError(f"{name} must be an integer of at least {minimum}, got {value!r}")


def _check_size(name, count):
    if count > _MAX_VALUES:
        raise ValueError(f"{name} must be at most {_MAX_VALUES}, got {count}")


class BoundViolation(Exception):
    """Pressure parameter b exceeds the existence bound for the given a.

    Raised by solve(..., enforce_bound=True) when the contraction-based
    sufficient condition b < theorem1_b_max(a) fails. Convergence is then
    not guaranteed (though it may still occur in practice).
    """


class NoConvergence(Exception):
    """An iteration (Picard or Newton) exhausted its budget before its
    tolerance was met."""


class NoRoot(Exception):
    """Calibration equation has no root in the search interval.

    Signals mutually inconsistent apex measurements (for a membrane
    surface, half the product of nondimensional apex deflection and
    central radius must exceed 1/4).
    """


class HypothesisViolation(Exception):
    """An operation was invoked outside the hypothesis it certifies.

    Raised by envelope_check when b exceeds the envelope bound for a;
    the envelope inequalities are simply not claimed there.
    """


class ParseError(Exception):
    """A mesh file failed to parse. Carries 1-based line and column."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)


class DimensionMismatch(ParseError):
    """Mesh file rows disagree with the declared dimensions.

    A kind of ParseError: ragged input is malformed input.
    """


class ApexNotFound(Exception):
    """No usable apex: the maximum sits on the footprint boundary, the
    surface is flat, or the local fit has no interior maximum."""


class DegenerateLevelSet(Exception):
    """Too few level-curve points to fit an ellipse (fewer than 8)."""
