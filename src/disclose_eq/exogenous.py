"""The two solves at an exogenous reservation value r.

r_lower_bar bisects the root of z(0, .): the reservation value below
which the equilibrium conceals everything under r.  solve_v_l_eq bisects
the lower disclosure threshold v_L at r on the bracket where z(., r)
crosses zero once.  Both read the pinning condition z and its bracket
from endogenous, whose solve_endog calls neither: welfare.threshold_scan
reads r_lower_bar, and the tests rewind solve_v_l_eq at r*.
"""
from __future__ import annotations

from functools import lru_cache

from .endogenous import _v_l_bracket, _z_or_infeasible, check_n, z_function
from .errors import DomainError
from .priors import Prior
from .rootfind import bisect_root
from .tolerances import THRESHOLD_XTOL, Z_EDGE


@lru_cache(maxsize=4096)
def r_lower_bar(prior: Prior, n: int, alpha: float) -> float:
    """Reservation value below which nothing under r is disclosed."""
    if not 0.0 < alpha < 1.0:
        raise DomainError("r_lower_bar needs alpha in (0, 1)")
    check_n(n)
    mu = prior.mean()
    return bisect_root(lambda r: z_function(prior, n, alpha, 0.0, r), Z_EDGE, mu - Z_EDGE, xtol=THRESHOLD_XTOL)


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
        xtol=THRESHOLD_XTOL,
        f_lo=z_lo,
        f_hi=z_hi,
    )
