"""Reference implementations the tests compare the package against.

The integrated-gap route to the pooled slope (solve_beta_via_h_star):
bisect h_star in beta with the contact point recomputed inside each step.
It is slower than candidate.solve_beta by two orders of magnitude and
shares none of its algebra, so it cross-checks it.

The mean-match residual before its scaling by F(v)^(n-1)
(mean_match_residual_unscaled, and solve_beta_unscaled, candidate.solve_beta
with it swapped in): wherever its terms do not underflow, the scaled
residual must give the same (beta, v_H, v_T).  The large-market contact
equation at v_L = 0 under its own name (v_h_large_n): the `limit` command
now reads the same contact point from candidate.solve_beta.

The solve reading the prior wherever a term needs it, as it did before
each outer step read it once (solve_beta_by_repeated_reads, and the z,
r_search, outer-step and whole-solve routes on it: 6 reads at v_L and 4 at
1 on a capped step): candidate.solve_beta, endogenous.z_function and
r_search, solve_endog's gap and solve_endog must return the same bits.

The equilibrium at a fixed (exogenous) reservation value r (solve_exog,
returning an ExogEquilibrium with its regime, REGIME_BOTTOM or
REGIME_NO_BOTTOM, or endogenous.REGIME_FULL at alpha = 0): the threshold
exogenous.solve_v_l_eq bisects at r, its candidate and posterior, and the
multiplier's convexity at v_L or the sign of z(0, r), against the two
tolerances only it reads (KINK_REL_SLACK, Z_SIGN_TOL).  The uniform closed
form of v_L and beta at n = 2 checks the threshold layer through it.

The post-solve validation that re-solves the market (validate_by_rewind):
it bisects the full-information reserve, recomputes the regime decision
and rewinds solve_v_l_eq at r*.  endogenous.validate_equilibrium must
agree with it on pass or fail and on the invariant name.

The LP oracle assembled by scipy.sparse algebra (oracle_by_sparse_algebra,
from difference and chain matrices, solved by linprog under
LINPROG_OPTIONS, the oracle's HiGHS settings verify._LP_OPTIONS in
linprog's names): verify.best_response_oracle builds the same HiGHS input
by index arithmetic and must hand HiGHS exactly the arrays linprog hands
it.  Both read the masses as f less the differences of HiGHS's column
values, so the value and the masses must be linprog's bit for bit.  The
settings include small_matrix_value at HIGHS_SMALL_ENTRY, HiGHS's floor:
at its default of 1e-9 HiGHS drops the width of a narrower cell, and its
solution then misses the prior's mean.

A deviation's expected payoff while the market plays its equilibrium
(expected_payoff_under, and deviation_gain, its difference to
Equilibrium.played_value after the deviation's mean-preserving-contraction
check): closed forms per payoff cell where the integrand is polynomial
against the deviation's cdf, and 32-node Gauss-Legendre quadrature
(_quad) against the pooled segment's density (affine_power_pdf) in the
one cell where it is not.  It is a third route to a firm's
optimality, next to the LP oracle and the simulator's deviant path
(montecarlo.simulate_deviation).

The certificate with one grid evaluation per check
(dm_conditions_by_separate_grids): verify.check_dm_conditions evaluates
the multiplier and the payoff once on all its grids and must return the
same report, field by field.  The per-branch slope scans DM1 ran while
the prior's convexity was a grid check (branch_slope_scan_minimum): on
markets whose prior is in the domain they must read no concavity inside
a branch, so DM1 loses nothing without them.

The distribution of the value a costly searcher banks per visit, min(v, r*),
as a posterior of segments and an atom (censored_value_distribution): the
expected maximum of n such draws, r* - its cum_integral(r*, n), must equal
welfare.cs_inexperienced, which writes that integral in closed form from
the prior's integral of F**n, bit for bit.

The mean-preserving-contraction comparison on the sorted union of the base
grid and both breakpoint lists, each distribution integrated through
cum_integral (informativeness_by_sorted_union):
posterior.informativeness_compare inserts the breakpoints into the base
grid without a sort, and must return an equal verdict, every field bit for
bit.

The posterior evaluated by one boolean mask per segment (MaskLoopPosterior):
PosteriorDistribution.cdf and _cum route sorted points to contiguous
segment slices instead and must return the same bits.

The simulator's kernel before it dropped its per-segment masks and binary
searches: inverse-cdf sampling by one searchsorted over the segments' cdf
levels and one boolean mask per segment (sample_by_masks), and curve bins by
np.digitize (bins_by_digitize).  PosteriorDistribution.sample and the
simulator's bin lookup must return the same bits.

The reservation values by 40 plain array halvings of [0, 1], each one
evaluating excess_above on every cost (reservation_by_halving):
montecarlo.reservation_for_cost replays its halvings in rounds, each from
one table of excess_above, and must return the same bits.

The costly searchers' visit order, stopping rule and tally before the
visit order came from ranks and the integer selects from arithmetic: the
order by np.argsort with the tracked firm's position found by masked
copies (visit_order_by_argsort), the first hit and the purchase chosen by
np.copyto and np.where (stop_rule_by_copyto), and the draws never seen sent
to the extra bin by np.copyto (tally_by_copyto).  Swapped into
montecarlo's _visit_order, _stop_rule and _tally, they must give the same
reports bit for bit.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Sequence
from unittest import mock

import numpy as np
from scipy import sparse
from scipy.optimize import OptimizeWarning, linprog

from disclose_eq import candidate, endogenous
from disclose_eq.candidate import (
    Candidate,
    build_candidate,
    build_g,
    candidate_exists,
    validate_candidate,
)
from disclose_eq.endogenous import (
    REGIME_FULL,
    Equilibrium,
    _check_market,
    _checked_mean,
    _conceals_bottom,
    _z_of_beta,
    payoff_u,
    posterior_share,
    r_full_info,
    search_residual_posterior,
    search_residual_prior,
    visit_probability,
)
from disclose_eq.errors import (
    BracketError,
    DiscloseEqError,
    DomainError,
    InfeasibleCandidateError,
    ValidationFailureError,
)
from disclose_eq.exogenous import solve_v_l_eq
from disclose_eq.montecarlo import _Buffers, _first_max
from disclose_eq.posterior import (
    _MPC_GRID,
    EQUALLY_INFORMATIVE,
    INCOMPARABLE,
    LESS_INFORMATIVE,
    MORE_INFORMATIVE,
    AffinePower,
    ArrayLike,
    Flat,
    FullDisclosure,
    InformativenessVerdict,
    PosteriorDistribution,
    check_deviation_mpc,
    full_disclosure_distribution,
)
from disclose_eq.priors import Prior
from disclose_eq.rootfind import bisect_root
from disclose_eq.tolerances import (
    CHORD_MIN_WIDTH, CONTACT_XTOL, DM1_TOL, FEAS_MARGIN, HIGHS_FEASIBILITY_TOL, HIGHS_SMALL_ENTRY, MPC_TOL,
)
from disclose_eq.verify import (
    CertificateReport,
    discretize_prior,
    integral_phi_dF,
    integral_phi_dG,
    multiplier_phi,
)

_BETA_RTOL = 1e-12  # relative bracket width at which solve_beta_via_h_star stops


class NoUpperRootError(DiscloseEqError):
    """The pooled branch never re-contacts the prior cdf at this slope.

    Raised by the contact-point search when the slope is too small for the
    pooled cdf to catch up with the prior (the mean condition then has a
    strictly positive residual).
    """


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
    v_m = bisect_root(d_slope, r, 1.0, xtol=CONTACT_XTOL)
    if d(v_m) <= 0.0:
        raise NoUpperRootError("contact gap stays negative on [r, 1]")
    v_h = bisect_root(d, v_m, 1.0, xtol=CONTACT_XTOL)
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
        float(prior.cum_pow_cdf(v_h, 1) - prior.cum_pow_cdf(v_l, 1))
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


def mean_match_residual_unscaled(prior: Prior, n: int, v_l: float, r: float, at_v_l=None) -> Callable[..., float]:
    """Mass-scaled gap between the contact slope at v and the moment slope.

    Zero exactly at the contact point of the valid candidate; negative at
    r, positive at 1 whenever the contact is interior.  The terms in v_L
    alone are computed once, outside the returned function of v.  It reads
    the prior itself, so it ignores the pairs candidate.solve_beta hands its
    residual (at_v_l and at_v).
    """
    fl = prior.cdf(v_l)
    fln1 = fl ** (n - 1)
    fln = fl**n
    vl_fl = v_l * fl
    cum_l = prior.cum_pow_cdf(v_l, 1)

    def residual(v: float, at_v=None) -> float:
        fv = prior.cdf(v)
        mass = fv - fl
        vf = v * fv - vl_fl - (prior.cum_pow_cdf(v, 1) - cum_l)  # prior.partial_vf(v_l, v)
        eta_mass = (fv**n - fln) / n - fln1 * mass  # (eta_tilde - F(v_L)^(n-1)) * mass
        return (fv ** (n - 1) - fln1) * (vf - r * mass) - eta_mass * (v - r)

    return residual


def solve_beta_unscaled(prior: Prior, n: int, v_l: float, r: float) -> tuple[float, float, float]:
    """candidate.solve_beta bisecting the unscaled residual."""
    with mock.patch.object(candidate, "_mean_match_residual", mean_match_residual_unscaled):
        return candidate.solve_beta(prior, n, v_l, r)


def _mass_and_vf_above_by_reads(prior: Prior, a: float) -> tuple[float, float]:
    """Prior.mass_and_vf_above reading the prior at a and at 1."""
    fa, cum_a = prior.cdf_cum(a)
    f1, cum_1 = prior.cdf_cum(1.0)
    return 1.0 - fa, f1 - a * fa - (cum_1 - cum_a)


def _mean_match_residual_by_reads(prior: Prior, n: int, v_l: float, r: float) -> Callable[[float], float]:
    """candidate._mean_match_residual reading the prior at v_L itself and at
    every v, 1 included."""
    fl, cum_l = prior.cdf_cum(v_l)
    vl_fl = v_l * fl

    def residual(v: float) -> float:
        fv, cum_v = prior.cdf_cum(v)
        mass = fv - fl
        vf = v * fv - vl_fl - (cum_v - cum_l)
        lam = (fl / fv) ** (n - 1) if fl > 0.0 else 0.0
        return (1.0 - lam) * (vf - r * mass) - ((fv - fl * lam) / n - lam * mass) * (v - r)

    return residual


def solve_beta_by_repeated_reads(prior: Prior, n: int, v_l: float, r: float) -> tuple[float, float, float]:
    """candidate.solve_beta reading the prior wherever a term needs it: at
    v_L for the feasibility test, F(v_L), the residual and the capped
    moments, and at 1 for each of those but F(v_L): 4 reads at v_L and 3 at
    1 on a capped branch."""
    if not 0.0 <= v_l < r < 1.0:
        raise InfeasibleCandidateError(f"need 0 <= v_L < r < 1, got ({v_l}, {r})")
    mass, vf = _mass_and_vf_above_by_reads(prior, v_l)
    if mass <= 0.0:
        raise DomainError("conditional mean above the support top")
    if not vf / mass > r + FEAS_MARGIN:
        raise InfeasibleCandidateError(f"E[v | v > {v_l}] <= {r}: no mean-preserving candidate")
    fl = prior.cdf(v_l)
    fln1 = fl ** (n - 1)
    residual = _mean_match_residual_by_reads(prior, n, v_l, r)
    at_one = residual(1.0)
    if at_one > 0.0:
        v_h = bisect_root(residual, r, 1.0, xtol=CONTACT_XTOL, f_lo=-1.0, f_hi=at_one)
        if v_h - r > CHORD_MIN_WIDTH:
            beta = (prior.cdf(v_h) ** (n - 1) - fln1) / (v_h - r)
        else:
            beta = prior.pow_cdf_deriv(r, n)
        return beta, v_h, 1.0
    (fa, cum_a), (fb, cum_b) = prior.cdf_cum(v_l), prior.cdf_cum(1.0)
    mass = fb - fa
    mu_tilde = (1.0 * fb - v_l * fa - (cum_b - cum_a)) / mass
    eta_tilde = (fb**n - fa**n) / (n * mass)
    beta = (eta_tilde - fln1) / (mu_tilde - r)
    return beta, 1.0, min(r + (1.0 - fln1) / beta, 1.0)


def z_function_by_repeated_reads(prior: Prior, n: int, alpha: float, v_l: float, r: float) -> float:
    """endogenous.z_function on solve_beta_by_repeated_reads, reading F(v_L) again."""
    if not 0.0 < alpha < 1.0:
        raise DomainError("z_function needs alpha in (0, 1)")
    beta, _, _ = solve_beta_by_repeated_reads(prior, n, v_l, r)
    fl = prior.cdf(v_l)
    return alpha * (visit_probability(fl, n) - fl ** (n - 1)) - (1.0 - alpha) * beta * (r - v_l)


def r_search_by_repeated_reads(prior: Prior, v_l: float, s: float) -> float:
    """endogenous.r_search reading the prior at v_L and at 1."""
    mass, vf = _mass_and_vf_above_by_reads(prior, v_l)
    return (vf - s) / mass


def gap_by_repeated_reads(prior: Prior, n: int, alpha: float, s: float) -> Callable[[float], float]:
    """solve_endog's outer step gap(v_L), with the reads above: 6 of the
    prior at v_L and 4 at 1 on a capped branch."""
    return lambda v_l: z_function_by_repeated_reads(prior, n, alpha, v_l, r_search_by_repeated_reads(prior, v_l, s))


def solve_endog_by_repeated_reads(prior: Prior, n: int, alpha: float, s: float) -> Equilibrium:
    """endogenous.solve_endog with solve_beta, z_function and r_search swapped
    for the routes above, which drop the pair a caller hands them."""
    with mock.patch.multiple(
        endogenous,
        z_function=lambda prior, n, alpha, v_l, r, at_v_l=None: z_function_by_repeated_reads(prior, n, alpha, v_l, r),
        r_search=lambda prior, v_l, s, at_v_l=None: r_search_by_repeated_reads(prior, v_l, s),
    ), mock.patch.object(
        candidate, "solve_beta", lambda prior, n, v_l, r, at_v_l=None: solve_beta_by_repeated_reads(prior, n, v_l, r)
    ):
        return endogenous.solve_endog(prior, n, alpha, s)


class NoInteriorRootError(DiscloseEqError):
    """The large-market contact equation has no root below 1 at this n."""


def v_h_large_n(prior: Prior, n: int, s: float) -> float:
    """Upper disclosure threshold in a large market with r* = mu - s.

    Solves int_0^v F du = (n-1)/n * F(v) * (v - r); the unique interior
    root exists only when the pooled branch stops short of 1.
    """
    r = _checked_mean(prior, s) - s

    def contact(v: float) -> float:
        return float(prior.cum_pow_cdf(v, 1)) - (n - 1) / n * prior.cdf(v) * (v - r)

    if contact(1.0) >= 0.0:
        raise NoInteriorRootError(f"no disclosure at the top at n = {n}")
    return bisect_root(contact, r, 1.0, xtol=1e-13)


REGIME_NO_BOTTOM = "NoDisclosureAtBottom"
REGIME_BOTTOM = "DisclosureAtBottom"

KINK_REL_SLACK = 1e-7
"""Relative to dF**(n-1)/dv at v_L.  solve_exog: multiplier-convexity-at-v_L,
for the ill-conditioned r -> 1 corner; tolerances.DM1_TOL is its absolute
part."""

Z_SIGN_TOL = 1e-9
"""Units of z.  solve_exog: multiplier-at-zero, z(0, r) >= -Z_SIGN_TOL when
nothing below r is disclosed."""


@dataclass(frozen=True)
class ExogEquilibrium:
    prior: Prior
    n: int
    alpha: float
    r: float
    v_l_eq: float
    candidate: Candidate | None  # None only on the alpha = 0 boundary
    g: PosteriorDistribution
    eta: float
    alpha_tilde: float
    regime: str


def solve_exog(prior: Prior, n: int, alpha: float, r: float) -> ExogEquilibrium:
    """Solve the fixed-reservation-value equilibrium."""
    _check_market(prior, n, alpha)
    if not 0.0 < r < 1.0:
        raise DomainError("reservation value must lie in (0, 1)")
    if alpha == 0.0:
        g = full_disclosure_distribution(prior)
        eta = visit_probability(prior.cdf(r), n)  # G(r) = F(r) under full disclosure
        return ExogEquilibrium(
            prior=prior,
            n=n,
            alpha=alpha,
            r=r,
            v_l_eq=r,
            candidate=None,
            g=g,
            eta=eta,
            alpha_tilde=0.0,
            regime=REGIME_FULL,
        )

    v_l = solve_v_l_eq(prior, n, alpha, r)
    cand = build_candidate(prior, n, v_l, r)
    g = build_g(cand)
    validate_candidate(cand, g)
    eta = visit_probability(cand.fl, n)
    regime = REGIME_NO_BOTTOM if v_l == 0.0 else REGIME_BOTTOM

    if v_l > 0.0:
        # affine F**(n-1) sits exactly at equality here, so allow a small
        # relative slack for the ill-conditioned r -> 1 corner
        slope_f = prior.pow_cdf_deriv(v_l, n)
        if (1.0 - alpha) * cand.beta < slope_f * (1.0 - KINK_REL_SLACK) - DM1_TOL:
            raise ValidationFailureError(
                "multiplier-convexity-at-v_L",
                f"(1-a)*beta={(1.0 - alpha) * cand.beta} < dF^(n-1)={slope_f}",
            )
    else:
        # the candidate at (0, r) is the one z(0, r) would build again
        z0 = _z_of_beta(cand.fl, n, alpha, 0.0, r, cand.beta)
        if z0 < -Z_SIGN_TOL:
            raise ValidationFailureError("multiplier-at-zero", f"Z(0,0,r)={z0}")

    return ExogEquilibrium(
        prior=prior,
        n=n,
        alpha=alpha,
        r=r,
        v_l_eq=v_l,
        candidate=cand,
        g=g,
        eta=eta,
        alpha_tilde=posterior_share(alpha, eta),
        regime=regime,
    )


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


# verify._LP_OPTIONS in linprog's option names; linprog itself adds the
# dual simplex and no output, and passes simplex_scale_strategy and
# small_matrix_value to HiGHS as they are
LINPROG_OPTIONS = {
    "presolve": False,
    "simplex_dual_edge_weight_strategy": "devex",
    "primal_feasibility_tolerance": HIGHS_FEASIBILITY_TOL,
    "dual_feasibility_tolerance": HIGHS_FEASIBILITY_TOL,
    "simplex_scale_strategy": 0,
    "small_matrix_value": HIGHS_SMALL_ENTRY,
}


def oracle_by_sparse_algebra(
    u_values: Sequence[float], prior: Prior, grid: Sequence[float]
) -> tuple[float, np.ndarray]:
    """The LP oracle over the cumulative mass moved, assembled with
    scipy.sparse algebra.

    The variables are C_k, the prior's mass at or below grid point k less
    g's, and D_k, a lower bound on the stop-loss slack at point k.  The
    masses are g = f - rise @ C, and the slack's rise over cell k is
    h_k C_k, so dominance is D >= 0 under the chain D_{k+1} - D_k <= h_k C_k
    from D_0 = 0.  C_{m-1} = 0 is the unit mass, and sum h_k C_k = 0, the
    slack at the top, is the matched mean.
    """
    grid = np.asarray(grid, dtype=float)
    u_values = np.asarray(u_values, dtype=float)
    if grid.ndim != 1 or grid.shape != u_values.shape or len(grid) < 2:
        raise DomainError("grid and u_values must be 1-d arrays of equal length >= 2")
    h = np.diff(grid)
    if not np.all(h > 0.0):
        raise DomainError("grid must be strictly increasing")
    m = len(grid)
    f = discretize_prior(prior, grid)
    rise = sparse.diags_array([np.ones(m), -np.ones(m - 1)], offsets=[0, -1]).tocsr()
    step = sparse.diags_array([-np.ones(m - 1), np.ones(m - 1)], offsets=[0, 1], shape=(m - 1, m))
    width = sparse.diags_array(h, shape=(m - 1, m))
    fixed = np.zeros(2 * m, dtype=bool)
    fixed[[m - 1, m]] = True  # C_{m-1} and D_0
    lower = np.concatenate([np.full(m, -np.inf), np.zeros(m)])
    with warnings.catch_warnings():  # linprog names the last two options as unknown
        warnings.filterwarnings("ignore", "Unrecognized options", OptimizeWarning)
        res = linprog(
            np.concatenate([rise.T @ u_values, np.zeros(m)]),
            A_ub=sparse.block_array([[rise, None], [-width, step]]),  # g >= 0, then the chain
            b_ub=np.concatenate([f, np.zeros(m - 1)]),
            A_eq=sparse.hstack([sparse.csr_array(np.ones((1, m - 1))) @ width, sparse.csr_array((1, m))]),
            b_eq=np.zeros(1),
            bounds=np.column_stack([np.where(fixed, 0.0, lower), np.where(fixed, 0.0, np.inf)]),
            method="highs",
            options=LINPROG_OPTIONS,
        )
    if not res.success:  # pragma: no cover - the prior's own cells are feasible
        raise ValidationFailureError("oracle-lp", res.message)
    return float(np.add.reduce(u_values * f) - res.fun), f - rise @ res.x[:m]


_GL_NODES = 32
_GL_X, _GL_W = np.polynomial.legendre.leggauss(_GL_NODES)


POOLED_LEVEL_FLOOR = 1e-300
"""cdf**(n-1).  Not a tolerance: affine_power_pdf clips the pooled line here,
so that its power 1/(n-1) - 1 < 0 stays finite at the bottom."""


def affine_power_pdf(seg: AffinePower, v: ArrayLike) -> ArrayLike:
    """The density of an affine-power segment, the one cell _quad integrates."""
    w = np.clip(seg.line(v), POOLED_LEVEL_FLOOR, 1.0)
    return (seg.slope / seg.root_power) * w ** (1.0 / seg.root_power - 1.0)


def _quad(fn, lo: float, hi: float) -> float:
    if hi <= lo:
        return 0.0
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    x = mid + half * _GL_X
    return float(half * np.sum(_GL_W * fn(x)))


def expected_payoff_under(eq, g_dev: PosteriorDistribution) -> float:
    """Expected payoff of deviating to g_dev while the market plays eq.

    Closed form wherever the integrand is polynomial against the deviation
    cdf; Gauss-Legendre per cell otherwise.  Atoms contribute mass times
    the (upper-semicontinuous) payoff at their location.
    """
    cuts = sorted(
        set(g_dev.breakpoints())
        | {eq.v_l_star, eq.r_star, min(eq.v_h_star, eq.v_t_star), eq.v_h_star}
    )
    total = 0.0
    for seg in g_dev.segments:
        for lo, hi in zip(cuts, cuts[1:]):
            lo_c, hi_c = max(lo, seg.a), min(hi, seg.b)
            if hi_c <= lo_c:
                continue
            total += _cell_payoff(eq, g_dev, seg, lo_c, hi_c)
    if g_dev.atom is not None:
        loc, mass = g_dev.atom
        total += mass * float(payoff_u(eq, loc))
    return total


def _cell_payoff(eq, g_dev: PosteriorDistribution, seg, lo: float, hi: float) -> float:
    """Integral of u dG_dev over one smooth cell of the segment seg."""
    if isinstance(seg, Flat):
        return 0.0
    b = eq.branches
    mid = 0.5 * (lo + hi)
    full = isinstance(seg, FullDisclosure)  # else affine-power
    d_lo, d_hi = seg.cdf(g_dev.prior, lo), seg.cdf(g_dev.prior, hi)
    mass = float(d_hi - d_lo)
    # closed forms keyed on (payoff branch, deviation segment kind)
    if mid < eq.r_star:
        if mid > eq.v_l_star:
            return b.low(b.pooled.base) * mass  # u is flat on (v_L, r)
        if full:
            return b.low_integral(d_lo, d_hi)  # u = low(F^(n-1)), dG = dF
    elif mid <= min(eq.v_h_star, eq.v_t_star):
        # u affine in v on the pooled interval; integral of v dG by parts
        v_dg = hi * float(d_hi) - lo * float(d_lo) - float(seg.integral(g_dev.prior, lo, hi))
        return b.line_integral(mass, v_dg)
    elif eq.v_h_star >= 1.0:
        return mass  # u = 1 above the pooled cap
    elif full:
        return b.high_integral(d_lo, d_hi)

    # remaining combination (u ~ F^(n-1) shape against an affine-power
    # deviation): quadrature
    return _quad(lambda x: np.asarray(payoff_u(eq, x)) * affine_power_pdf(seg, x), lo, hi)


def deviation_gain(eq, g_dev: PosteriorDistribution) -> float:
    """Payoff change from a unilateral deviation to g_dev (beliefs fixed)."""
    check_deviation_mpc(g_dev, eq.prior)
    return expected_payoff_under(eq, g_dev) - eq.played_value


def _support_grid(eq, grid_size: int) -> np.ndarray:
    """Grid over the support of the disclosure (where contact must hold)."""
    pool_top = min(eq.v_h_star, eq.v_t_star)
    pieces = [np.linspace(eq.r_star, pool_top, grid_size // 2)]
    if eq.v_l_star > 0.0:
        pieces.append(np.linspace(0.0, eq.v_l_star, grid_size // 4 + 2))
    if eq.v_h_star < 1.0:
        pieces.append(np.linspace(eq.v_h_star, 1.0, grid_size // 4 + 2))
    return np.unique(np.concatenate(pieces))


def dm_conditions_by_separate_grids(eq, grid_size: int = 1001) -> CertificateReport:
    """Evaluate the four optimality conditions for the market's multiplier.

    The seam gaps and kink slope increments are evaluated from the branch
    formulas (grid differencing would divide solver residuals by arbitrary
    spacings); convexity inside each smooth branch is the prior's, which
    the solver's domain check decides.
    """
    if grid_size < 501:
        raise DomainError("grid_size must be at least 501")
    prior, n, b = eq.prior, eq.n, eq.branches
    breaks = [eq.v_l_star, eq.r_star, eq.v_h_star, eq.v_t_star]
    grid = np.unique(
        np.clip(np.concatenate([np.linspace(0.0, 1.0, grid_size), breaks]), 0.0, 1.0)
    )
    phi = multiplier_phi(eq, grid)
    u = payoff_u(eq, grid)

    # DM1 continuity at interior seams
    gaps = [0.0]
    if 0.0 < eq.v_l_star < 1.0:
        gaps.append(abs(b.line(eq.v_l_star) - b.low(b.pooled.base)))
    if 0.0 < eq.v_h_star < 1.0:
        gaps.append(abs(b.high(b.fh ** (n - 1)) - b.line(eq.v_h_star)))
    max_cont_gap = max(gaps)

    # DM1 convexity: analytic kink increments
    increments = [0.0]
    if eq.v_l_star > 0.0:
        increments.append(b.slope - b.c_low * prior.pow_cdf_deriv(eq.v_l_star, n))
    if eq.v_h_star < 1.0:
        increments.append((1.0 - b.at) * (prior.pow_cdf_deriv(eq.v_h_star, n) - b.pooled.slope))
    min_slope_inc = min(increments)
    dm1 = max_cont_gap <= 1e-9 and min_slope_inc >= -1e-9

    dm2_min_gap = float(np.min(phi - u))

    sup = _support_grid(eq, grid_size)
    dm3 = float(np.max(np.abs(multiplier_phi(eq, sup) - payoff_u(eq, sup))))

    dm4 = abs(integral_phi_dG(eq) - integral_phi_dF(eq))

    passed = dm1 and dm2_min_gap >= -1e-9 and dm3 <= 1e-8 and dm4 <= 1e-8
    return CertificateReport(
        dm1_convex=dm1,
        dm1_max_continuity_gap=max_cont_gap,
        dm1_min_slope_increment=min_slope_inc,
        dm2_min_gap=dm2_min_gap,
        dm3_max_contact_violation=dm3,
        dm4_integral_gap=dm4,
        passed=passed,
    )


def branch_slope_scan_minimum(eq, grid_size: int = 1001) -> float:
    """The least second difference of the multiplier's slope on a grid
    strictly inside each of its three branches (0 if no branch is wide
    enough to scan): a grid check of the convexity that DM1 takes from the
    prior's domain."""
    increments = [0.0]
    pieces = [(0.0, eq.v_l_star), (eq.v_l_star, eq.v_h_star), (eq.v_h_star, 1.0)]
    for lo, hi in pieces:
        if hi - lo < 1e-9:
            continue
        # stay strictly inside the branch so solver-residual seam jumps
        # cannot leak into the slope differences
        shrink = 1e-9 * (hi - lo)
        sub = np.linspace(lo + shrink, hi - shrink, max(grid_size // 3, 101))
        slopes = np.diff(multiplier_phi(eq, sub)) / np.diff(sub)
        if len(slopes) > 1:
            increments.append(float(np.min(np.diff(slopes))))
    return min(increments)


def censored_value_distribution(eq: Equilibrium) -> PosteriorDistribution:
    """Distribution of min(v, r*): the per-visit value a costly searcher banks."""
    fl = eq.branches.fl
    segs: list = []
    if eq.v_l_star > 0.0:
        segs.append(FullDisclosure(0.0, eq.v_l_star))
    segs.append(Flat(eq.v_l_star, eq.r_star, fl))
    return PosteriorDistribution(prior=eq.prior, segments=tuple(segs), atom=(eq.r_star, 1.0 - fl))


def informativeness_by_sorted_union(
    g0: PosteriorDistribution, g1: PosteriorDistribution
) -> InformativenessVerdict:
    """Rank g0 against g1 by integral precision.

    LessInformative means g0 is a mean-preserving contraction of g1.
    Incomparability is an ordinary outcome, not an error.
    """
    grid = np.unique(np.concatenate([np.linspace(0.0, 1.0, _MPC_GRID), g0.breakpoints(), g1.breakpoints()]))
    delta = np.asarray(g1.cum_integral(grid)) - np.asarray(g0.cum_integral(grid))
    mean_gap = float(delta[-1])
    min_fwd = float(np.min(delta))
    min_bwd = float(np.min(-delta))
    means_match = abs(mean_gap) <= MPC_TOL
    g0_less = means_match and min_fwd >= -MPC_TOL
    g0_more = means_match and min_bwd >= -MPC_TOL
    if g0_less and g0_more:
        verdict = EQUALLY_INFORMATIVE
    elif g0_less:
        verdict = LESS_INFORMATIVE
    elif g0_more:
        verdict = MORE_INFORMATIVE
    else:
        verdict = INCOMPARABLE
    return InformativenessVerdict(
        verdict=verdict,
        min_gap_forward=min_fwd,
        min_gap_backward=min_bwd,
        mean_gap=mean_gap,
    )


class MaskLoopPosterior(PosteriorDistribution):
    """A posterior whose cdf and integrals find each point's segment by a
    boolean mask per segment; cdf_left, cum_integral(z, k) and excess_above
    go through these two methods."""

    def cdf(self, v: ArrayLike) -> ArrayLike:
        """Right-continuous cdf; atoms jump at their location."""
        scalar = not isinstance(v, np.ndarray)
        arr = np.atleast_1d(np.asarray(v, dtype=float))
        out = np.ones_like(arr)
        # side="right" sends a segment boundary to the *next* segment, which
        # makes the cdf right-continuous across an atom between segments.
        idx = np.searchsorted(self._ends, arr, side="right")
        for i, seg in enumerate(self.segments):
            mask = idx == i
            if np.any(mask):
                out[mask] = seg.cdf(self.prior, arr[mask])
        out[arr >= self.top] = 1.0
        return float(out[0]) if scalar else out

    def _cum(self, z: ArrayLike, k: int) -> ArrayLike:
        scalar = not isinstance(z, np.ndarray)
        arr = np.atleast_1d(np.asarray(z, dtype=float))
        prefix = self._prefix(k)
        ends = self._ends
        idx = np.searchsorted(ends, arr, side="left")
        out = np.empty_like(arr)
        for i, seg in enumerate(self.segments):
            mask = idx == i
            if np.any(mask):
                hi = arr[mask].clip(seg.a, seg.b)
                out[mask] = prefix[i] + seg.integral(self.prior, seg.a, hi, k)
        beyond = idx >= len(self.segments)
        if np.any(beyond):
            out[beyond] = prefix[-1] + (arr[beyond] - ends[-1])  # cdf == 1 past the top
        return float(out[0]) if scalar else out


def _segment_quantile(seg, prior: Prior, q: np.ndarray) -> np.ndarray:
    """A segment's quantile as a new array, in the closed form that its
    in-place kernel must reproduce bit for bit."""
    if isinstance(seg, FullDisclosure):
        return prior.quantile(q)
    if isinstance(seg, Flat):
        return np.full_like(q, seg.a)
    return seg.a + (q**seg.root_power - seg.base) / seg.slope


def sample_by_masks(g: PosteriorDistribution, u: ArrayLike) -> ArrayLike:
    """Inverse-cdf sampling; u in [0, 1)."""
    scalar = not isinstance(u, np.ndarray)
    arr = np.atleast_1d(np.asarray(u, dtype=float))
    if arr.size and (arr.min() < 0.0 or arr.max() >= 1.0):
        raise DomainError("sampling variates must lie in [0, 1)")
    table = []  # (q_lo, q_hi, quantile)
    for seg in g.segments:
        lo, hi = g._seg_levels(seg)
        if hi > lo:
            table.append((lo, hi, lambda prior, q, seg=seg: _segment_quantile(seg, prior, q)))
    if g.atom is not None:
        loc, mass = g.atom
        lo = float(g.cdf(loc)) - mass
        table.append((lo, lo + mass, lambda prior, q: loc))
    table.sort(key=lambda t: t[0])
    q_los = np.array([t[0] for t in table])
    out = np.empty_like(arr)
    idx = np.clip(np.searchsorted(q_los, arr, side="right") - 1, 0, len(table) - 1)
    for i, (lo, hi, quantile) in enumerate(table):
        mask = idx == i
        if np.any(mask):
            out[mask] = quantile(g.prior, np.clip(arr[mask], lo, hi))
    return float(out[0]) if scalar else out


def bins_by_digitize(vals: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Curve bin of each value: the last edge at or below it, clipped to the bins."""
    return np.clip(np.digitize(vals.ravel(), edges) - 1, 0, len(edges) - 2).reshape(vals.shape)


def reservation_by_halving(g: PosteriorDistribution, costs: np.ndarray) -> np.ndarray:
    """Reservation value of each cost in (0, E_G[v]): 40 halvings of [0, 1];
    an element whose residual is exactly 0 stays at that midpoint."""
    lo = np.zeros_like(costs)
    hi = np.ones_like(costs)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        f = g.excess_above(mid) - costs
        lo = np.where(f >= 0.0, mid, lo)
        hi = np.where(f > 0.0, hi, mid)
    return 0.5 * (lo + hi)


def visit_order_by_argsort(keys: np.ndarray, track_firm: int, buffers=None) -> tuple:
    """Firms visited in ascending order of each row's keys: the tracked
    firm's position per row, and a function from one position per row to
    the firm visited there.  Takes montecarlo._visit_order's arguments and
    returns new arrays."""
    order = np.argsort(keys, axis=1)  # firm at each position
    pos_of_tracked = np.zeros(len(keys), dtype=np.intp)
    for j in range(1, keys.shape[1]):
        np.copyto(pos_of_tracked, j, where=order[:, j] == track_firm)
    return pos_of_tracked, lambda pos: order[np.arange(len(order)), pos]


def stop_rule_by_copyto(u, vals, stop, stop_dev, pos_of_tracked, buffers=None) -> tuple[np.ndarray, np.ndarray]:
    """Visits and the position bought: the first position whose variate
    reaches its stop quantile (stop_dev at the tracked firm's position),
    else all n visits and the best draw.  Takes montecarlo._stop_rule's
    arguments and returns new arrays."""
    n = u.shape[1]
    first_hit = np.full(len(u), n)
    for j in reversed(range(n)):
        hit = u[:, j] >= stop
        if stop_dev is not None:
            np.copyto(hit, u[:, j] >= stop_dev, where=pos_of_tracked == j)
        np.copyto(first_hit, j, where=hit)
    any_hit = first_hit < n
    best = _first_max(vals, _Buffers(n, len(vals)).group(len(vals)))
    return np.where(any_hit, first_hit + 1, n), np.where(any_hit, first_hit, best)


def tally_by_copyto(t, vals, visits, stop_pos, firm, cost, binning, buffers=None) -> tuple[float, float]:
    """montecarlo._tally with the purchases gathered by 2-D indexing and the
    draws never seen sent to the extra bin by np.copyto, in new arrays."""
    rows = np.arange(len(vals))
    cs = vals[rows, stop_pos] - visits * cost
    t.sales += np.bincount(firm, minlength=len(t.sales))
    n_bins = len(t.bin_visits)
    idx = binning.index(vals, np.empty(vals.shape, dtype=np.intp))
    t.bin_sales += np.bincount(idx[rows, stop_pos], minlength=n_bins)
    for j in range(1, vals.shape[1]):
        np.copyto(idx[:, j], n_bins, where=visits <= j)
    t.bin_visits += np.bincount(idx.ravel(), minlength=n_bins + 1)[:n_bins]
    return float(np.sum(cs)), float(np.sum(cs * cs))
