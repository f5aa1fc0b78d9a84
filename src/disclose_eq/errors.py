"""Exception hierarchy shared across the package."""


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
