"""Structural pooling candidates for a fixed (v_L, r) pair.

A candidate is the unique distribution that discloses below v_L, pools
(v_L, r) into an interval above r on which cdf**(n-1) is affine with
slope beta, and re-contacts the prior at v_H.  Solving for beta
(solve_beta) is the innermost loop of every equilibrium computation: the
defining system (contact at v_H plus the preserved conditional mean)
reduces to one equation in the contact point alone, bisected once; when
the pooled branch caps at 1 before re-contact, beta has a closed form in
truncated moments.  solve_beta reads the prior at v_L once, one cdf_cum
pair that the feasibility test, F(v_L)**(n-1), the residual and the
truncated moments share (solve_endog's outer step hands it over, having
read it for r_search), and at 1 the pair the prior holds (Prior.at_one).

The degenerate candidate v_L = r = v_H, beta = dF**(n-1)/dv at r, v_T = 1
is full disclosure (endogenous.full_disclosure_market): the collapse
solve_beta takes below CHORD_MIN_WIDTH, its pooled branch the tangent at r.

validate_candidate checks the assembled posterior: the contact point
(the pooled branch ends on the prior at v_H), its structure, and that it
is a mean-preserving contraction of the prior.  That last check reads the
integrated gap D(t) = int_0^t (F - G) only at the ends of the posterior's
segments: on a candidate, D is 0 below v_L, rises on the flat stretch,
rises then falls on the pooled one (F**(n-1) is convex, the domain
check) and is constant or falls above it, so its minimum lies at a
segment end (the lemma in validate_candidate's docstring).
posterior.informativeness_compare, on its dense grid, stays the check of
a general posterior.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from .errors import InfeasibleCandidateError, ValidationFailureError
from .posterior import (
    AffinePower,
    Flat,
    FullDisclosure,
    PosteriorDistribution,
)
from .priors import CdfCum, Prior
from .rootfind import bisect_root
from .tolerances import (
    CHORD_MIN_WIDTH, CONTACT_XTOL, CONTINUITY_TOL, FEAS_MARGIN, MPC_TOL, SLOPE_REL_TOL, TOP_STRUCTURE_TOL,
)


@dataclass(frozen=True)
class Candidate:
    prior: Prior
    n: int
    v_l: float
    r: float
    beta: float
    v_h: float
    v_t: float

    # -- cached in the instance dict; equality sees only the fields --------
    @cached_property
    def fl(self) -> float:
        """F(v_L), the level of the posterior cdf on [v_L, r]."""
        return float(self.prior.cdf(self.v_l))

    @cached_property
    def pooled(self) -> AffinePower:
        """The pooled branch on [r, min(v_H, v_T)]: cdf**(n-1) = F(v_L)**(n-1) + beta (v - r),
        with its cdf at the top end where it starts at 0 (AffinePower.hi)."""
        top = min(self.v_h, self.v_t)
        hi = 1.0 if self.v_h >= 1.0 else float(self.prior.cdf(top)) if self.fl == 0.0 else 0.0
        return AffinePower(self.r, top, self.fl ** (self.n - 1), self.beta, self.n - 1, hi)


def candidate_exists(prior: Prior, n: int, v_l: float, r: float, at_v_l: CdfCum | None = None) -> bool:
    """A candidate exists iff the mean above v_L strictly exceeds r; at_v_l = prior.cdf_cum(v_l) if given."""
    if not 0.0 <= v_l < r < 1.0:
        return False
    return prior.conditional_mean_above(v_l, at_v_l) > r + FEAS_MARGIN


def _mean_match_residual(prior: Prior, n: int, v_l: float, r: float, at_v_l: CdfCum) -> Callable[..., float]:
    """Gap between the contact slope at v and the moment slope, times
    mass / F(v)^(n-1).

    Zero exactly at the contact point of the valid candidate; negative at
    r, positive at 1 whenever the contact is interior.  Its only power is
    lam = (F(v_L) / F(v))^(n-1) <= 1, so it neither overflows nor, as the
    unscaled residual does in large markets, underflows to a false root.
    F and its integral come from one prior.cdf_cum call per point, at_v_l at v_L.
    """
    fl, cum_l = at_v_l
    vl_fl = v_l * fl

    def residual(v: float, at_v: CdfCum | None = None) -> float:
        fv, cum_v = at_v or prior.cdf_cum(v)
        mass = fv - fl
        vf = v * fv - vl_fl - (cum_v - cum_l)  # prior.partial_vf(v_l, v)
        lam = (fl / fv) ** (n - 1) if fl > 0.0 else 0.0  # also where F(v) underflows to 0
        # (fv - fl * lam) / n - lam * mass = (eta_tilde - F(v_L)^(n-1)) * mass / F(v)^(n-1)
        return (1.0 - lam) * (vf - r * mass) - ((fv - fl * lam) / n - lam * mass) * (v - r)

    return residual


def solve_beta(prior: Prior, n: int, v_l: float, r: float, at_v_l: CdfCum | None = None) -> tuple[float, float, float]:
    """Solve (beta, v_H, v_T) for the unique candidate at (v_L, r); the
    contact point stays exact where F(v_L)^(n-1) and F(v)^(n-1) underflow.
    at_v_l is prior.cdf_cum(v_l), read here if not given."""
    if not 0.0 <= v_l < r < 1.0:
        raise InfeasibleCandidateError(f"need 0 <= v_L < r < 1, got ({v_l}, {r})")
    at_v_l = at_v_l or prior.cdf_cum(v_l)
    if not candidate_exists(prior, n, v_l, r, at_v_l):
        raise InfeasibleCandidateError(
            f"E[v | v > {v_l}] <= {r}: no mean-preserving candidate"
        )
    fln1 = at_v_l[0] ** (n - 1)
    residual = _mean_match_residual(prior, n, v_l, r, at_v_l)
    at_one = residual(1.0, prior.at_one)
    if at_one > 0.0:
        # Interior contact: bisect the single mean-match equation in v_H.
        # At r the residual is (1 - lam) times the integral of (u - r) dF over
        # (v_L, r) < 0, but both factors round to 0.0 when r is next to v_L,
        # so its sign is pinned analytically.
        v_h = bisect_root(residual, r, 1.0, xtol=CONTACT_XTOL, f_lo=-1.0, f_hi=at_one)
        if v_h - r > CHORD_MIN_WIDTH:
            beta = (prior.cdf(v_h) ** (n - 1) - fln1) / (v_h - r)
        else:  # total collapse toward full disclosure (r at the support edge)
            beta = prior.pow_cdf_deriv(r, n)
        v_t = 1.0
    else:
        # the pooled branch caps at 1 before re-contact: moment closed form
        tm = prior.truncated_moments(v_l, 1.0, n, at_v_l)
        beta = (tm.eta_tilde - fln1) / (tm.mu_tilde - r)
        v_h = 1.0
        v_t = min(r + (1.0 - fln1) / beta, 1.0)
    return beta, v_h, v_t


def build_candidate(prior: Prior, n: int, v_l: float, r: float) -> Candidate:
    beta, v_h, v_t = solve_beta(prior, n, v_l, r)
    return Candidate(prior=prior, n=n, v_l=v_l, r=r, beta=beta, v_h=v_h, v_t=v_t)


def build_g(cand: Candidate) -> PosteriorDistribution:
    """Assemble the piecewise posterior cdf of a candidate."""
    segs: list = []
    if cand.v_l > 0.0:
        segs.append(FullDisclosure(0.0, cand.v_l))
    segs.append(Flat(cand.v_l, cand.r, cand.fl))
    segs.append(cand.pooled)
    if cand.v_h < 1.0:
        segs.append(FullDisclosure(cand.v_h, 1.0))
    elif cand.v_t < 1.0:
        segs.append(Flat(cand.v_t, 1.0, 1.0))
    return PosteriorDistribution(prior=cand.prior, segments=tuple(segs))


def _integrated_gaps(g: PosteriorDistribution) -> tuple[float, float]:
    """(D(1), min D) over 0 and the ends of g's segments, D(t) = int_0^t
    (F - G): F's integral from prior.cdf_cum, G's from g's per-segment
    prefix integrals, built once per posterior (in a solve, already by
    the search-equation row of validate_equilibrium)."""
    prior = g.prior
    gaps = [prior.cdf_cum(seg.b)[1] - cum for seg, cum in zip(g.segments, g._prefix(1)[1:])]
    return gaps[-1], min(0.0, *gaps)  # D(0) = 0


def validate_candidate(cand: Candidate, g: PosteriorDistribution) -> None:
    """Raise ValidationFailureError when a structural invariant of the
    candidate or of its posterior g = build_g(cand) fails.

    g is a mean-preserving contraction of the prior iff D(1) = 0 and
    D >= 0 on [0, 1], where D(t) = int_0^t (F - G).  D is read at g's
    segment ends only (5 or fewer), by this lemma: D' = F - G, and
    * on [0, v_L], disclosed, G = F, so D = 0;
    * on [v_L, r], flat at F(v_L) <= F, D is nondecreasing;
    * on [v_H, 1], disclosed, D is constant;
    * on [v_T, 1], flat at 1 >= F, D is nonincreasing;
    * on the pooled stretch [r, top], top = min(v_H, v_T), D' has the
      sign of h = F**(n-1) - (base + beta (v - r)).  h is convex because
      F**(n-1) is (the domain check), and h(r) = F(r)**(n-1) -
      F(v_L)**(n-1) >= 0.  At top, h <= 0 where the line reaches 1 at
      v_T < 1.  Where the line ends on the prior at v_H, solve_beta draws
      it as the chord to F(v_H)**(n-1), so h(v_H) is a rounding residue,
      and the contact-point check bounds |G - F|(v_H) by CONTINUITY_TOL;
      where it ends at 1, cdf-top bounds 1 - G(1).  A convex h that is
      >= 0 at r and <= 0 at top is >= 0 and then <= 0 on [r, top], so D
      rises and then falls.
    So the minimum of D on [0, 1] lies at a segment end, and a dense grid
    adds no row that the ends, the domain check and the contact-point
    check do not imply.
    """
    prior, n = cand.prior, cand.n
    if cand.v_h < 1.0:
        # the pooled branch ends at v_H, where the prior takes over
        contact = abs(float(cand.pooled.cdf(prior, cand.v_h)) - float(prior.cdf(cand.v_h)))
        if contact > CONTINUITY_TOL:
            raise ValidationFailureError("contact-point", f"|G - F|({cand.v_h}) = {contact}")
    g.validate()
    mean_gap, min_gap = _integrated_gaps(g)
    if abs(mean_gap) > MPC_TOL:
        raise ValidationFailureError("mean-preservation", f"mean gap {mean_gap}")
    if min_gap < -MPC_TOL:
        raise ValidationFailureError("integrated-gap", f"min gap {min_gap}")
    tm = prior.truncated_moments(cand.v_l, cand.v_h, n) if cand.v_h > cand.v_l else None
    if tm is not None and tm.mu_tilde > cand.r:
        beta_moment = (tm.eta_tilde - cand.pooled.base) / (tm.mu_tilde - cand.r)
        if abs(beta_moment - cand.beta) > SLOPE_REL_TOL * max(1.0, cand.beta):
            raise ValidationFailureError(
                "slope-moment-form", f"{cand.beta} vs {beta_moment}"
            )
    if cand.v_h < 1.0 and abs(cand.v_t - 1.0) > TOP_STRUCTURE_TOL:
        raise ValidationFailureError("top-structure", "v_H < 1 requires v_T = 1")
    if cand.v_t < 1.0 and abs(cand.v_h - 1.0) > TOP_STRUCTURE_TOL:
        raise ValidationFailureError("top-structure", "v_T < 1 requires v_H = 1")
