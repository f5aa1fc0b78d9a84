"""Exception hierarchy shared across the package, and the one check of a
number read from a config."""
import math


class DiscloseEqError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(DiscloseEqError, ValueError):
    """A config file or JSON spec is malformed (CLI exit code 1)."""


class DomainError(DiscloseEqError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class InfeasibleCandidateError(DiscloseEqError):
    """No pooling candidate exists for the requested (v_L, r) pair."""


class UnsupportedBoundaryError(DiscloseEqError):
    """A boundary parameter value with a non-unique equilibrium (alpha = 1)."""


class ValidationFailureError(DiscloseEqError):
    """A solved object violates one of its structural invariants.

    `invariant` names the failed check so the CLI can report it.
    """

    def __init__(self, invariant: str, detail: str = ""):
        self.invariant = invariant
        msg = invariant if not detail else f"{invariant}: {detail}"
        super().__init__(msg)


class BracketError(DiscloseEqError):
    """A root bracket could not be established on a valid input: a solver
    failure (CLI exit code 2), not a malformed config."""


class IterationCapError(DiscloseEqError):
    """An integer search exceeded its hard iteration cap."""


def config_number(value, name: str, kind: type = float):
    """A config's JSON number as kind (int or float); ConfigError naming it
    when it is no number (a string or a bool among them), is not finite
    (Python's json reads NaN and Infinity), is too large for a float, or,
    as an int, is not integral."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        out = kind(value)
    except (OverflowError, ValueError) as exc:  # int() of inf or nan, float() of a huge int
        raise ConfigError(f"{name} must be finite, got {value!r}") from exc
    if kind is float and not math.isfinite(out):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    if kind is int and out != value:
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return out
