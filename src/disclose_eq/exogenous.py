"""The lower disclosure threshold v_L as a function of the reservation
value r, and the domain checks of a market, for solve_endog.

The pinning condition is the scaled gap between the affine stretch of the
multiplier and F**(n-1), evaluated at the lower disclosure threshold
itself (z_function).  It is strictly increasing in v_L and strictly
decreasing in r, which gives a unique threshold r_lower_bar below which
the equilibrium conceals everything under r, and a unique interior
threshold v_L above it.  Which side of r_lower_bar a reservation value
lies on is the sign of z(0, r) alone (conceals_below).  The bracket
in v_L on which z(., r) crosses zero once (_v_l_bracket) is where
validate_equilibrium checks the fixed point, and solve_v_l_eq bisects the
threshold on it.
"""
from __future__ import annotations

import sys
from functools import lru_cache

from .candidate import solve_beta
from .errors import (
    DomainError,
    InfeasibleCandidateError,
    UnsupportedBoundaryError,
    ValidationFailureError,
)
from .priors import Prior
from .rootfind import bisect_root
from .tolerances import Z_EDGE

REGIME_FULL = "FullDisclosure"  # alpha = 0 boundary only


def visit_probability(prior: Prior, n: int, v_l: float) -> float:
    """Chance a firm is visited by a costly searcher when G(r) = F(v_L)."""
    return _visit_probability_at(prior.cdf(v_l), n)


def _visit_probability_at(fl: float, n: int) -> float:
    """visit_probability given F(v_L)."""
    if fl >= 1.0:
        return 1.0
    return (1.0 - fl**n) / (n * (1.0 - fl))


def posterior_share(alpha: float, eta: float) -> float:
    """Bayes posterior that a visitor is a costly searcher."""
    return alpha * eta / (alpha * eta + 1.0 - alpha)


def z_function(prior: Prior, n: int, alpha: float, v_l: float, r: float) -> float:
    """Multiplier continuity gap at v_L; > 0 iff v_L is above the fixed point."""
    if not 0.0 < alpha < 1.0:
        raise DomainError("z_function needs alpha in (0, 1)")
    beta, _, _ = solve_beta(prior, n, v_l, r)
    return _z_of_beta(prior, n, alpha, v_l, r, beta)


def _z_of_beta(prior: Prior, n: int, alpha: float, v_l: float, r: float, beta: float) -> float:
    """z_function given the pooled slope beta of the candidate at (v_L, r)."""
    fl = prior.cdf(v_l)
    eta = _visit_probability_at(fl, n)
    return alpha * (eta - fl ** (n - 1)) - (1.0 - alpha) * beta * (r - v_l)


@lru_cache(maxsize=4096)
def r_lower_bar(prior: Prior, n: int, alpha: float) -> float:
    """Reservation value below which nothing under r is disclosed."""
    if not 0.0 < alpha < 1.0:
        raise DomainError("r_lower_bar needs alpha in (0, 1)")
    check_n(n)
    mu = prior.mean()
    return bisect_root(lambda r: z_function(prior, n, alpha, 0.0, r), Z_EDGE, mu - Z_EDGE, xtol=1e-12)


def conceals_below(prior: Prior, n: int, alpha: float, r: float) -> bool:
    """Whether r <= r_lower_bar, from the sign of z(0, r) alone.

    z(0, r) is strictly decreasing in r, so one candidate answers what
    r_lower_bar bisects for.  r at the bottom of r_lower_bar's bracket
    conceals; r with no candidate at v_L = 0 (at the mean) does not.
    """
    return r <= Z_EDGE or _z_or_infeasible(prior, n, alpha, 0.0, r) >= 0.0


def _v_l_lower_limit(prior: Prior, r: float) -> float:
    """Smallest v_L with a feasible candidate (0 when r < mean)."""
    if r < prior.mean():
        return 0.0
    return bisect_root(
        lambda x: prior.conditional_mean_above(x) - r, 0.0, 1.0 - Z_EDGE, xtol=1e-13
    )


def _z_or_infeasible(prior: Prior, n: int, alpha: float, v_l: float, r: float) -> float:
    """z_function, or -inf below the feasibility frontier."""
    try:
        return z_function(prior, n, alpha, v_l, r)
    except InfeasibleCandidateError:
        return -float("inf")


def _v_l_bracket(
    prior: Prior, n: int, alpha: float, r: float, z0: float
) -> tuple[float, float, float, float] | None:
    """The bracket (lo, hi, z(lo), z(hi)) on which z(., r) crosses zero once,
    or None when the threshold at r is 0; z0 is z(0, r).

    The crossing is unique because the gap increases at any crossing when
    F**(n-1) is convex, which _check_market decides.  Raises
    z-bracket when the gap has no sign change on [lo, hi].
    """
    if z0 >= 0.0:  # r <= r_lower_bar: nothing below r is disclosed
        return None
    lo = max(_v_l_lower_limit(prior, r), 0.0) + Z_EDGE
    hi = r - Z_EDGE
    z_lo = _z_or_infeasible(prior, n, alpha, lo, r)
    z_hi = _z_or_infeasible(prior, n, alpha, hi, r)
    if z_lo >= 0.0 and lo <= 2.0 * Z_EDGE:
        # r sits within bisection tolerance of the concealment threshold:
        # the root lies below the bracket edge, i.e. at zero
        return None
    if not (z_lo < 0.0 < z_hi):
        raise ValidationFailureError(
            "z-bracket", f"Z({lo})={z_lo}, Z({hi})={z_hi} at r={r}"
        )
    return lo, hi, z_lo, z_hi


def solve_v_l_eq(prior: Prior, n: int, alpha: float, r: float) -> float:
    """The unique lower disclosure threshold for an exogenous r."""
    if not 0.0 < r < 1.0:
        raise DomainError("reservation value must lie in (0, 1)")
    bracket = _v_l_bracket(prior, n, alpha, r, _z_or_infeasible(prior, n, alpha, 0.0, r))
    if bracket is None:
        return 0.0
    lo, hi, z_lo, z_hi = bracket
    return bisect_root(
        lambda v_l: _z_or_infeasible(prior, n, alpha, v_l, r),
        lo,
        hi,
        xtol=1e-12,
        f_lo=z_lo,
        f_hi=z_hi,
    )


def _check_alpha(alpha: float) -> None:
    """alpha in [0, 1); the boundary alpha = 1 is unsupported, not malformed."""
    if alpha == 1.0:
        raise UnsupportedBoundaryError(
            "alpha = 1 admits a continuum of pooling equilibria; not representable"
        )
    if not 0.0 <= alpha < 1.0:
        raise DomainError("alpha must lie in [0, 1)")


def check_n(n: int) -> None:
    """n >= 2, and n within float range: the solvers raise floats to n - 1."""
    if n < 2:
        raise DomainError("need n >= 2")
    if n > sys.float_info.max:
        raise DomainError(f"n must not exceed {sys.float_info.max!r}, the float range")


def _check_market(prior: Prior, n: int, alpha: float) -> None:
    """The (n, alpha) domain of a market, and the convexity of F**(n-1)
    that the model assumes, which each prior family decides."""
    check_n(n)
    _check_alpha(alpha)
    if not prior.check_convexity(n):
        raise DomainError(
            f"prior fails the convexity requirement on F**(n-1): n={n}, prior {prior.to_json_dict()}"
        )
