"""The full model: reservation value and disclosure solved jointly, with
the pinning condition, the regime rule and the domain checks it reads.

The pinning condition is the scaled gap between the affine stretch of the
multiplier and F**(n-1), evaluated at the lower disclosure threshold
itself (z_function).  It is strictly increasing in v_L and strictly
decreasing in r, which gives a unique threshold r_lower_bar below which
the equilibrium conceals everything under r, and a unique interior
threshold v_L above it.  Which side of r_lower_bar a reservation value
lies on is the sign of z(0, r) alone (conceals_below).  The bracket
in v_L on which z(., r) crosses zero once (_v_l_bracket) is [0, r -
Z_EDGE], with z read as -inf where no candidate exists, so it needs no
feasibility frontier; validate_equilibrium checks the fixed point on it,
and exogenous.solve_v_l_eq bisects the threshold at an exogenous r on
it.  The domain of a market (n, alpha, s and the convexity of F**(n-1))
is checked here too.

The fixed point couples the firms' disclosure threshold v_L, set against
the reservation value r, with the search indifference condition, which in
equilibrium collapses to an integral against the *prior* above v_L.

The regime comes first: nothing below r is disclosed iff r_lower_bar is at
least mu - s, which is the sign of z(0, mu - s) since z(0, .) is strictly
decreasing, and then r* = mu - s.  The solve builds the candidate at
(0, mu - s) first: where z(0, mu - s) >= 0 the market conceals, and the
regime rule, read a band below mu - s, decides the rest.  A concealing
market keeps that candidate as its own, so it builds no second one.
Otherwise the solve is one bisection in v_L, which starts from
z(0, mu - s) where the search equation at v_L = 0 gives mu - s to the bit.
Each of its steps (gap) reads the prior once, prior.cdf_cum(v_L), and
r_search, z_function and solve_beta share that pair.
The search condition gives r = r_search(v_L) in closed form, always with
a feasible candidate (E[v | v > v_L] - r = s / (1 - F(v_L))), and the
multiplier continuity gap z(v_L, r_search(v_L)) is negative at v_L = 0
and positive next to the full-information reserve.  A market (Equilibrium)
stores its candidate, alpha, s and g, and reads its thresholds, slope,
visit probability and regime flags from the candidate; at alpha = 0, where
all is disclosed at that reserve, it is the degenerate one at v_L = r
(full_disclosure_market).

validate_equilibrium certifies the solved market without solving it
again.  The fixed point is certified locally: _v_l_bracket at r*,
from the z(0, r*) the check already holds, on which the domain makes z
cross zero once, then the signs of z(v_L* -+ 1e-9, r*), put the
threshold at r* within 1e-9 of v_L*.  r*
below the full-information reserve is one sign of the search residual,
the regime is the solve's own decision, and z(0, r*) in the concealing
regime is read from the candidate the market already holds.  The search
equation's posterior form reads the integral of G at r* and at 1 from
the posterior's prefix integrals, in their scalar arithmetic.
"""
from __future__ import annotations

import math
import sys
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Any

from .candidate import Candidate, build_candidate, build_g, solve_beta, validate_candidate
from .errors import (
    DomainError,
    InfeasibleCandidateError,
    IterationCapError,
    UnsupportedBoundaryError,
    ValidationFailureError,
)
from .lazy import LazyNumpy
from .posterior import (
    AffinePower,
    Flat,
    FullDisclosure,
    PosteriorDistribution,
    full_disclosure_distribution,
    in_caller_order,
    sorted_points,
)
from .priors import CdfCum, Prior
from .rootfind import bisect_root
from .tolerances import (
    BISECT_XTOL, BRACKET_EDGE, FIXED_POINT_TOL, REGIME_BAND, RESERVE_TOL, SEARCH_POSTERIOR_TOL,
    SEARCH_PRIOR_TOL, THRESHOLD_XTOL, Z_EDGE,
)

if TYPE_CHECKING:
    import numpy as np
else:
    np = LazyNumpy(globals())

REGIME_FULL = "FullDisclosure"  # the note of full_disclosure_market
_N_CAP = 1 << 20


@dataclass(frozen=True)
class PayoffBranches:
    """The branches shared by the payoff u and the multiplier phi.

    u is low(G**(n-1)) below r and high(G**(n-1)) from r on; phi is
    low(F**(n-1)) below v_L, the pooled line high(pooled.line) on [v_L, v_H]
    and high(F**(n-1)) above v_H.
    """

    n: int
    at: float
    c_low: float
    fl: float  # F(v_L)
    fh: float  # F(v_H)
    pooled: AffinePower

    def low(self, p):
        return self.c_low * p

    def high(self, p):
        return self.at + (1.0 - self.at) * p

    def line(self, v):
        return self.high(self.pooled.line(v))

    @property
    def slope(self) -> float:
        return (1.0 - self.at) * self.pooled.slope

    def line_integral(self, mass: float, first_moment: float) -> float:
        """Integral of the pooled line against a measure with these moments."""
        return self.line(0.0) * mass + self.slope * first_moment

    def low_integral(self, f_lo: float, f_hi: float) -> float:
        """Integral of low(F**(n-1)) dF between the cdf levels f_lo and f_hi."""
        return self.c_low * (f_hi**self.n - f_lo**self.n) / self.n

    def high_integral(self, f_lo: float, f_hi: float) -> float:
        """Integral of high(F**(n-1)) dF between the cdf levels f_lo and f_hi."""
        n, at = self.n, self.at
        return at * (f_hi - f_lo) + (1.0 - at) * (f_hi**n - f_lo**n) / n


@dataclass(frozen=True)
class Equilibrium:
    """A solved market: alpha, s, the candidate its thresholds, slope and
    payoff branches are read from, and its posterior cdf g = build_g(candidate)."""

    alpha: float
    s: float
    candidate: Candidate  # degenerate at v_L = v_H = r* under full disclosure
    g: PosteriorDistribution

    prior = property(lambda self: self.candidate.prior)
    n = property(lambda self: self.candidate.n)
    r_star = property(lambda self: self.candidate.r)
    v_l_star = property(lambda self: self.candidate.v_l)
    v_h_star = property(lambda self: self.candidate.v_h)
    v_t_star = property(lambda self: self.candidate.v_t)
    # solve_beta builds no candidate with v_L >= r: v_L = r > 0 is full disclosure's
    note = property(lambda self: REGIME_FULL if self.candidate.v_l == self.candidate.r else "")
    beta_star = property(lambda self: None if self.note else self.candidate.beta)
    bottom_disclosure = property(lambda self: self.v_l_star > 0.0)
    top_disclosure = property(lambda self: self.v_h_star < 1.0 and not self.note)
    alpha_tilde = property(lambda self: posterior_share(self.alpha, self.eta))

    @cached_property
    def eta(self) -> float:
        return visit_probability(self.candidate.fl, self.n)

    @property
    def thresholds(self) -> tuple[float, float, float, float]:
        """(v_L*, r*, v_H*, v_T*), the breakpoints of the payoff and of g."""
        return self.v_l_star, self.r_star, self.v_h_star, self.v_t_star

    @cached_property
    def branches(self) -> PayoffBranches:
        at = self.alpha_tilde
        return PayoffBranches(
            n=self.n,
            at=at,
            c_low=at / self.eta + 1.0 - at,
            fl=self.candidate.fl,
            fh=float(self.prior.cdf(self.v_h_star)),
            pooled=self.candidate.pooled,
        )

    @cached_property
    def played_value(self) -> float:
        """Closed-form expected payoff of a firm playing the market disclosure."""
        b = self.branches
        g_top = float(self.g.cdf(min(self.v_h_star, self.v_t_star)))
        # G = F below v_L; on the pooled stretch u = high(G**(n-1)) against dG
        total = b.low_integral(0.0, b.fl) + b.high_integral(b.fl, g_top)
        if self.v_h_star < 1.0:
            total += b.high_integral(b.fh, 1.0)
        return total

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "prior": self.prior.to_json_dict(),
            "n": self.n,
            "alpha": self.alpha,
            "s": self.s,
            "r_star": self.r_star,
            "v_L_star": self.v_l_star,
            "v_H_star": self.v_h_star,
            "v_T_star": self.v_t_star,
            "beta_star": self.beta_star,
            "eta": self.eta,
            "alpha_tilde": self.alpha_tilde,
            "bottom_disclosure": self.bottom_disclosure,
            "top_disclosure": self.top_disclosure,
            "G": self.g.to_json_dict(),
            "note": self.note,
        }


def payoff_u(eq, v):
    """Sale probability conditional on a visit, at posterior mean v.

    Upper-semicontinuous at the reservation value (the stopping branch
    applies at r itself).  Each branch is evaluated on its slice of the
    sorted points only.
    """
    b = eq.branches
    pts, order = sorted_points(v)
    g_pow = eq.g.cdf(pts) ** (eq.n - 1)
    i = pts.searchsorted(eq.r_star)
    out = np.concatenate([b.low(g_pow[:i]), b.high(g_pow[i:])])
    return float(out[0]) if np.ndim(v) == 0 else in_caller_order(out, order, v)


@dataclass(frozen=True)
class LimitEquilibrium:
    """Infinite-market limit: censoring below v_h_inf onto a single atom."""

    v_h_inf: float
    atom_mass: float
    g_inf: PosteriorDistribution


def visit_probability(fl: float, n: int) -> float:
    """Chance a firm is visited by a costly searcher when G(r) = F(v_L) = fl."""
    if fl >= 1.0:
        return 1.0
    return (1.0 - fl**n) / (n * (1.0 - fl))


def posterior_share(alpha: float, eta: float) -> float:
    """Bayes posterior that a visitor is a costly searcher."""
    return alpha * eta / (alpha * eta + 1.0 - alpha)


def z_function(prior: Prior, n: int, alpha: float, v_l: float, r: float, at_v_l: CdfCum | None = None) -> float:
    """Multiplier continuity gap at v_L; > 0 iff v_L is above the fixed point."""
    if not 0.0 < alpha < 1.0:
        raise DomainError("z_function needs alpha in (0, 1)")
    at_v_l = at_v_l or prior.cdf_cum(v_l)
    beta, _, _ = solve_beta(prior, n, v_l, r, at_v_l)
    return _z_of_beta(at_v_l[0], n, alpha, v_l, r, beta)


def _z_of_beta(fl: float, n: int, alpha: float, v_l: float, r: float, beta: float) -> float:
    """z_function given F(v_L) and the pooled slope beta of the candidate at (v_L, r)."""
    eta = visit_probability(fl, n)
    return alpha * (eta - fl ** (n - 1)) - (1.0 - alpha) * beta * (r - v_l)


def conceals_below(prior: Prior, n: int, alpha: float, r: float) -> bool:
    """Whether r <= r_lower_bar, from the sign of z(0, r) alone.

    z(0, r) is strictly decreasing in r, so one candidate answers what
    r_lower_bar bisects for.  r at the bottom of r_lower_bar's bracket
    conceals; r with no candidate at v_L = 0 (at the mean) does not.
    """
    return r <= Z_EDGE or _z_or_infeasible(prior, n, alpha, 0.0, r) >= 0.0


def _z_or_infeasible(prior: Prior, n: int, alpha: float, v_l: float, r: float) -> float:
    """z_function, or -inf below the feasibility frontier."""
    try:
        return z_function(prior, n, alpha, v_l, r)
    except InfeasibleCandidateError:
        return -float("inf")


def _v_l_bracket(
    prior: Prior, n: int, alpha: float, r: float, z0: float
) -> tuple[float, float, float, float] | None:
    """The bracket (0, hi, z(0, r), z(hi, r)), hi = r - Z_EDGE, on which
    z(., r) crosses zero once, or None when the threshold at r is 0; z0 is
    z(0, r), -inf where no candidate exists at v_L = 0.

    The crossing is unique because the gap increases at any crossing when
    F**(n-1) is convex, which _check_market decides; z is -inf below the
    feasibility frontier.  Raises z-bracket when z(hi, r) is not positive.
    """
    if z0 >= 0.0:  # r <= r_lower_bar: nothing below r is disclosed
        return None
    hi = r - Z_EDGE
    z_hi = _z_or_infeasible(prior, n, alpha, hi, r)
    if not z_hi > 0.0:
        raise ValidationFailureError("z-bracket", f"Z(0)={z0}, Z({hi})={z_hi} at r={r}")
    return 0.0, hi, z0, z_hi


def search_residual_prior(prior: Prior, v_l: float, r: float, s: float) -> float:
    """Equilibrium form of the search equation: int_{v_L}^1 (v - r) dF - s."""
    mass, vf = prior.mass_and_vf_above(v_l)
    return vf - r * mass - s


def search_residual_posterior(g: PosteriorDistribution, r: float, s: float) -> float:
    """Raw search equation: int_r^1 (v - r) dG - s = int_r^1 (1 - G) - s for r <= g.top,
    with int G read from g's prefix integrals in their scalar arithmetic."""
    prefix = g._prefix(1)
    i, seg = next((i, seg) for i, seg in enumerate(g.segments) if r <= seg.b)
    cum_1 = prefix[-1] + (1.0 - g.segments[-1].b)  # the cdf is 1 above the top
    return (1.0 - r) - (cum_1 - (prefix[i] + seg.integral(g.prior, seg.a, r))) - s


def _checked_mean(prior: Prior, s: float) -> float:
    """The prior mean mu, after checking that the search cost lies in (0, mu)."""
    mu = prior.mean()
    if not 0.0 < s < mu:
        raise DomainError(f"search cost must lie in (0, {mu}), got {s}")
    return mu


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


def r_full_info(prior: Prior, s: float) -> float:
    """Reservation value when every value is disclosed."""
    _checked_mean(prior, s)
    return bisect_root(
        lambda r: search_residual_prior(prior, r, r, s), 0.0, 1.0, xtol=BISECT_XTOL
    )


def r_search(prior: Prior, v_l: float, s: float, at_v_l: CdfCum | None = None) -> float:
    """Reservation value implied by the search equation at threshold v_L."""
    if not 0.0 <= v_l < 1.0:
        raise DomainError("v_L must lie in [0, 1)")
    mass, vf = prior.mass_and_vf_above(v_l, at_v_l)
    return (vf - s) / mass


def assemble_market(
    prior: Prior, n: int, alpha: float, v_l: float, r: float, s: float, cand: Candidate | None = None
) -> Equilibrium:
    """Build the market objects for given thresholds without asserting
    that they solve the fixed point (used for perturbation tests).  cand,
    when given, is the candidate at (v_l, r), already built."""
    if cand is None:
        cand = build_candidate(prior, n, v_l, r)
    return Equilibrium(alpha=alpha, s=s, candidate=cand, g=build_g(cand))


def full_disclosure_market(prior: Prior, n: int, alpha: float, s: float, r: float) -> Equilibrium:
    """The market in which every value is disclosed and r is the reserve,
    with the degenerate candidate at v_L = v_H = r: the alpha = 0
    equilibrium at r_full_info(prior, s), or the opponents of a deviation."""
    cand = Candidate(prior=prior, n=n, v_l=r, r=r, beta=prior.pow_cdf_deriv(r, n), v_h=r, v_t=1.0)
    return Equilibrium(alpha=alpha, s=s, candidate=cand, g=full_disclosure_distribution(prior))


def _conceals_bottom(prior: Prior, n: int, alpha: float, mu: float, s: float) -> bool:
    """Regime rule: no disclosure below r iff r_lower_bar >= mu - s."""
    return conceals_below(prior, n, alpha, mu - s - REGIME_BAND)


def _check_fixed_point(eq: Equilibrium) -> None:
    """Raise fixed-point unless the threshold that z(., r*) pins down lies
    within 1e-9 of v_L*.

    The bracket is solve_v_l_eq's own, and z crosses zero once on it.  Past
    it, z(v_L* - 1e-9, r*) <= 0 <= z(v_L* + 1e-9, r*), each point clipped
    to the bracket, puts the one crossing between the two points.
    """
    prior, n, alpha, r, v_l = eq.prior, eq.n, eq.alpha, eq.r_star, eq.v_l_star
    if eq.candidate.v_l == 0.0:
        # the candidate at (0, r*) is the one z(0, r*) would build again
        z0 = _z_of_beta(eq.candidate.fl, n, alpha, 0.0, r, eq.candidate.beta)
    else:
        z0 = _z_or_infeasible(prior, n, alpha, 0.0, r)
    bracket = _v_l_bracket(prior, n, alpha, r, z0)
    if bracket is None:
        if abs(v_l) > FIXED_POINT_TOL:
            raise ValidationFailureError(
                "fixed-point",
                f"the threshold at r* = {r} is 0 (z(0, r*) = {z0}), not v_L* = {v_l}",
            )
        return
    lo, hi, z_lo, z_hi = bracket

    def z(v: float) -> float:
        if v <= lo:
            return z_lo
        if v >= hi:
            return z_hi
        return _z_or_infeasible(prior, n, alpha, v, r)

    z_above = z(v_l + FIXED_POINT_TOL)
    if z_above < 0.0:
        raise ValidationFailureError(
            "fixed-point",
            f"z(v_L* + 1e-9, r*) = {z_above} < 0 at v_L* = {v_l}, r* = {r}: "
            "the threshold lies above v_L* + 1e-9",
        )
    z_below = z(v_l - FIXED_POINT_TOL)
    if z_below > 0.0:
        raise ValidationFailureError(
            "fixed-point",
            f"z(v_L* - 1e-9, r*) = {z_below} > 0 at v_L* = {v_l}, r* = {r}: "
            "the threshold lies below v_L* - 1e-9",
        )


def validate_equilibrium(eq: Equilibrium, conceals: bool) -> None:
    """Post-solve invariant suite; raises ValidationFailureError.

    conceals is the solve's own regime decision (_conceals_bottom).  The
    suite certifies the market from values the solve already has and never
    solves it again: r* below the full-information reserve is one sign, and
    the fixed point is certified locally around v_L* (_check_fixed_point).
    """
    res_prior = search_residual_prior(eq.prior, eq.v_l_star, eq.r_star, eq.s)
    if abs(res_prior) > SEARCH_PRIOR_TOL:
        raise ValidationFailureError("search-equation-prior-form", f"residual {res_prior}")
    res_post = search_residual_posterior(eq.g, eq.r_star, eq.s)
    if abs(res_post) > SEARCH_POSTERIOR_TOL:
        raise ValidationFailureError("search-equation", f"residual {res_post}")
    # the full-information reserve is the root of x -> search_residual_prior
    # (prior, x, x, s), which strictly decreases, so r* < reserve +
    # RESERVE_TOL iff that residual is positive at r* - RESERVE_TOL; clipped
    # at 0, where it is mu - s > 0, when r* = mu - s lies within RESERVE_TOL of 0
    x = max(eq.r_star - RESERVE_TOL, 0.0)
    res_full = search_residual_prior(eq.prior, x, x, eq.s)
    if not res_full > 0.0:
        raise ValidationFailureError(
            "below-full-info", f"search residual {res_full} <= 0 at r* - 1e-12 = {x}"
        )
    validate_candidate(eq.candidate, eq.g)
    mu = eq.prior.mean()
    if eq.bottom_disclosure == conceals:
        raise ValidationFailureError(
            "regime", f"bottom_disclosure={eq.bottom_disclosure} at mu - s = {mu - eq.s}"
        )
    if not eq.bottom_disclosure and abs(eq.r_star - (mu - eq.s)) > RESERVE_TOL:
        raise ValidationFailureError("regime-reserve", f"r* != mu - s: {eq.r_star}")
    _check_fixed_point(eq)


def solve_endog(prior: Prior, n: int, alpha: float, s: float) -> Equilibrium:
    """Solve the full model for (prior, n, alpha, s)."""
    mu = _checked_mean(prior, s)
    _check_market(prior, n, alpha)

    if alpha == 0.0:
        return full_disclosure_market(prior, n, 0.0, s, r_full_info(prior, s))

    # z(0, .) strictly decreases, so z(0, mu - s) >= 0 implies the rule's
    # z(0, mu - s - REGIME_BAND) > 0: such a market conceals, and its
    # candidate is the one at (0, mu - s)
    try:
        cand0 = build_candidate(prior, n, 0.0, mu - s)
        z0 = _z_of_beta(cand0.fl, n, alpha, 0.0, mu - s, cand0.beta)
    except InfeasibleCandidateError:
        cand0, z0 = None, -math.inf
    conceals = z0 >= 0.0 or _conceals_bottom(prior, n, alpha, mu, s)
    if conceals:
        r_star, v_l_star = mu - s, 0.0
    else:

        def gap(v_l: float) -> float:
            at_v_l = prior.cdf_cum(v_l)  # the step's one read of the prior
            return z_function(prior, n, alpha, v_l, r_search(prior, v_l, s, at_v_l), at_v_l)

        # gap(0) is z0 where the search equation at v_L = 0 gives mu - s exactly
        f_lo = z0 if cand0 is not None and r_search(prior, 0.0, s) == mu - s else None
        v_l_star = bisect_root(gap, 0.0, r_full_info(prior, s) - BRACKET_EDGE, xtol=THRESHOLD_XTOL, f_lo=f_lo)
        r_star = r_search(prior, v_l_star, s)

    eq = assemble_market(prior, n, alpha, v_l_star, r_star, s, cand0 if conceals else None)
    validate_equilibrium(eq, conceals)
    return eq


def check_convex_by_cap(prior: Prior) -> None:
    """DomainError unless F**(n-1) is convex at some n up to _N_CAP (then at
    every larger n): the scans over n find no size inside the domain."""
    if not prior.check_convexity(_N_CAP):
        raise DomainError(
            f"prior fails the convexity requirement on F**(n-1) at every n up to {_N_CAP}: "
            f"prior {prior.to_json_dict()}"
        )


def n_lower_bar(prior: Prior, alpha: float, s: float) -> int:
    """Smallest market size inside the domain (F**(n-1) convex) at which
    nothing below the reserve is disclosed.  Both halves of that test are
    monotone in n, so doubling then bisecting finds it."""
    mu = _checked_mean(prior, s)
    _check_alpha(alpha)
    if alpha == 0.0:
        raise DomainError("alpha must lie in (0, 1)")
    check_convex_by_cap(prior)

    def large_enough(n: int) -> bool:
        return prior.check_convexity(n) and _conceals_bottom(prior, n, alpha, mu, s)

    hi = 2
    while not large_enough(hi):
        hi *= 2
        if hi > _N_CAP:
            raise IterationCapError(f"no concealment threshold below n = {_N_CAP}")
    sizes = range(hi // 2 + 1, hi)  # strictly between hi // 2 (too small) and hi
    return sizes.start + bisect_left(sizes, True, key=large_enough)


def limit_equilibrium(prior: Prior, alpha: float, s: float) -> LimitEquilibrium:
    """Infinite-market limit: atom at mu - s, censoring below v_h_inf."""
    r = _checked_mean(prior, s) - s
    _check_alpha(alpha)
    v_h_inf = bisect_root(
        lambda w: prior.partial_vf(0.0, w) - r * prior.cdf(w), BRACKET_EDGE, 1.0, xtol=BISECT_XTOL
    )
    mass = float(prior.cdf(v_h_inf))
    g_inf = PosteriorDistribution(
        prior=prior,
        segments=(
            Flat(0.0, r, 0.0),
            Flat(r, v_h_inf, mass),
            FullDisclosure(v_h_inf, 1.0),
        ),
        atom=(r, mass),
    )
    return LimitEquilibrium(v_h_inf=v_h_inf, atom_mass=mass, g_inf=g_inf)
