"""Reference implementations the tests compare the package against.

The integrated-gap route to the pooled slope (solve_beta_via_h_star):
bisect h_star in beta with the contact point recomputed inside each step.
It is slower than candidate.solve_beta by two orders of magnitude and
shares none of its algebra, so it cross-checks it.

The post-solve validation that re-solves the market (validate_by_rewind):
it bisects the full-information reserve, recomputes the regime decision
and rewinds solve_v_l_eq at r*.  endogenous.validate_equilibrium must
agree with it on pass or fail and on the invariant name.
"""
from __future__ import annotations

import numpy as np

from disclose_eq.candidate import _XTOL, candidate_exists, validate_candidate
from disclose_eq.endogenous import (
    Equilibrium,
    _conceals_bottom,
    r_full_info,
    search_residual_posterior,
    search_residual_prior,
)
from disclose_eq.errors import (
    BracketError,
    InfeasibleCandidateError,
    NoUpperRootError,
    ValidationFailureError,
)
from disclose_eq.exogenous import solve_v_l_eq
from disclose_eq.priors import Prior
from disclose_eq.rootfind import bisect_root

_BETA_RTOL = 1e-12  # relative bracket width at which solve_beta_via_h_star stops


def d_function(prior: Prior, n: int, v_l: float, r: float, beta: float, v: float) -> float:
    """Gap between the pooled branch of cdf**(n-1) and F**(n-1) at v."""
    fl = prior.cdf(v_l)
    return fl ** (n - 1) + beta * (v - r) - prior.cdf(v) ** (n - 1)


def _contact_of_beta(prior: Prior, n: int, v_l: float, r: float, beta: float) -> tuple[float, float]:
    """(v_H, v_T) for a given slope; raises NoUpperRootError when the pooled
    branch neither re-contacts F**(n-1) nor reaches 1 on [r, 1]."""
    fl = prior.cdf(v_l)
    fln1 = fl ** (n - 1)
    if fln1 + beta * (1.0 - r) >= 1.0:
        # branch caps at 1 inside [r, 1]: contact happens at the top
        v_bar = r + (1.0 - fln1) / beta
        return 1.0, min(v_bar, 1.0)

    def d(v: float) -> float:
        return fln1 + beta * (v - r) - prior.cdf(v) ** (n - 1)

    def d_slope(v: float) -> float:
        return beta - prior.pow_cdf_deriv(v, n)

    # D is concave (F**(n-1) weakly convex); find its maximizer first.
    if d_slope(r) <= 0.0:
        raise NoUpperRootError("slope below the prior's growth at r")
    if d_slope(1.0) >= 0.0:
        # D increasing throughout and D(1) < 0 here
        raise NoUpperRootError("pooled branch never re-contacts the prior")
    v_m = bisect_root(d_slope, r, 1.0, xtol=_XTOL)
    if d(v_m) <= 0.0:
        raise NoUpperRootError("contact gap stays negative on [r, 1]")
    v_h = bisect_root(d, v_m, 1.0, xtol=_XTOL)
    return v_h, 1.0


def h_star(prior: Prior, n: int, v_l: float, r: float, beta: float) -> float:
    """Integrated cdf gap of the candidate at the contact point.

    Positive means the slope is too small, negative too large; the unique
    zero pins down the candidate (strictly decreasing in beta).
    """
    v_h, v_t = _contact_of_beta(prior, n, v_l, r, beta)
    fl = prior.cdf(v_l)
    fh = prior.cdf(v_h)
    pooled_area = (n - 1) / (n * beta) * (fh**n - fl**n) + (1.0 - v_t)
    return (
        float(prior.cum_cdf(v_h) - prior.cum_cdf(v_l))
        - fl * (r - v_l)
        - pooled_area
    )


def solve_beta_via_h_star(prior: Prior, n: int, v_l: float, r: float) -> tuple[float, float, float]:
    """Reference implementation: bisect the integrated gap in beta directly."""
    if not candidate_exists(prior, n, v_l, r):
        raise InfeasibleCandidateError(
            f"E[v | v > {v_l}] <= {r}: no mean-preserving candidate"
        )

    def gap(beta: float) -> float:
        try:
            return h_star(prior, n, v_l, r, beta)
        except NoUpperRootError:
            return np.inf  # slope too small

    hi = 1.0
    for _ in range(200):
        if gap(hi) < 0.0:
            break
        hi *= 2.0
    else:  # pragma: no cover - finite by the infinite-slope sign argument
        raise BracketError("no finite upper bracket for the pooling slope")
    lo = np.finfo(float).eps
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        if hi - lo <= _BETA_RTOL * mid:
            break
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    beta = 0.5 * (lo + hi)
    v_h, v_t = _contact_of_beta(prior, n, v_l, r, beta)
    return beta, v_h, v_t


def validate_by_rewind(eq: Equilibrium) -> None:
    """The post-solve invariant suite, re-solving what it checks; raises
    ValidationFailureError."""
    res_prior = search_residual_prior(eq.prior, eq.v_l_star, eq.r_star, eq.s)
    if abs(res_prior) > 1e-9:
        raise ValidationFailureError("search-equation-prior-form", f"residual {res_prior}")
    res_post = search_residual_posterior(eq.g, eq.r_star, eq.s)
    if abs(res_post) > 1e-8:
        raise ValidationFailureError("search-equation", f"residual {res_post}")
    rfi = r_full_info(eq.prior, eq.s)
    if not eq.r_star < rfi + 1e-12:
        raise ValidationFailureError("below-full-info", f"{eq.r_star} >= {rfi}")
    if eq.candidate is not None:
        validate_candidate(eq.candidate, eq.g)
    mu = eq.prior.mean()
    if eq.bottom_disclosure == _conceals_bottom(eq.prior, eq.n, eq.alpha, mu, eq.s):
        raise ValidationFailureError(
            "regime", f"bottom_disclosure={eq.bottom_disclosure} at mu - s = {mu - eq.s}"
        )
    if not eq.bottom_disclosure and abs(eq.r_star - (mu - eq.s)) > 1e-12:
        raise ValidationFailureError("regime-reserve", f"r* != mu - s: {eq.r_star}")
    # fixed-point self-consistency: re-solving the disclosure threshold at
    # r* must return v_L*
    v_l_back = solve_v_l_eq(eq.prior, eq.n, eq.alpha, eq.r_star)
    if abs(v_l_back - eq.v_l_star) > 1e-9:
        raise ValidationFailureError(
            "fixed-point", f"v_L rewind {v_l_back} vs {eq.v_l_star}"
        )
