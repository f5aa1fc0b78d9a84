import dataclasses

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disclose_eq import (
    PiecewiseLinearPrior,
    PowerPrior,
    UniformPrior,
    build_candidate,
    build_g,
    candidate_exists,
    full_disclosure_distribution,
    point_mass,
    solve_beta,
)
from disclose_eq.candidate import _integrated_gaps, validate_candidate
from disclose_eq.errors import InfeasibleCandidateError, ValidationFailureError
from disclose_eq.posterior import (
    EQUALLY_INFORMATIVE,
    LESS_INFORMATIVE,
    AffinePower,
    Flat,
    PosteriorDistribution,
    informativeness_compare,
)
from disclose_eq.tolerances import CONTACT_XTOL, MPC_TOL, TOP_STRUCTURE_TOL
from reference import (
    NoUpperRootError,
    _contact_of_beta,
    d_function,
    h_star,
    solve_beta_unscaled,
    solve_beta_via_h_star,
)
from reference_mp import cdf_over_density_mp, contact_point_mp, large_market_contact_mp
from test_verify import _seeded_and_perturbed, _seeded_markets


def _against_full(g, prior):
    return informativeness_compare(g, full_disclosure_distribution(prior))


def _is_mpc(g, prior):
    return _against_full(g, prior).verdict in (LESS_INFORMATIVE, EQUALLY_INFORMATIVE)


def test_candidate_exists_examples(uniform):
    assert candidate_exists(uniform, 2, 0.0, 0.4)  # E = 0.5 > 0.4
    assert not candidate_exists(uniform, 2, 0.0, 0.6)  # E = 0.5 < 0.6
    assert candidate_exists(uniform, 2, 0.4, 0.6)  # E = 0.7 > 0.6


def test_d_function_examples(uniform):
    # slope term vanishes at v = r: the gap is strictly negative
    assert d_function(uniform, 2, 0.1, 0.3, 5.0, 0.3) == pytest.approx(0.1 - 0.3)
    assert d_function(uniform, 2, 0.0, 0.25, 2.0, 1.0) == pytest.approx(0.5)
    assert d_function(uniform, 2, 0.0, 0.25, 2.0, 0.25) == pytest.approx(-0.25)


def test_h_star_examples(uniform):
    # the equilibrium slope for the flat prior at (v_L=0, r=0.25) is exactly 2
    assert h_star(uniform, 2, 0.0, 0.25, 2.0) == pytest.approx(0.0, abs=1e-14)
    assert h_star(uniform, 2, 0.0, 0.25, 1.5) > 0.0
    assert h_star(uniform, 2, 0.0, 0.25, 3.0) < 0.0
    # vanishing slope: the pooled branch never re-contacts the prior
    with pytest.raises(NoUpperRootError):
        h_star(uniform, 2, 0.0, 0.25, 0.5)


def test_h_star_infinite_slope_limit(uniform, power2):
    # as the slope blows up the gap tends to (1 - F(v_L)) (r - E[v | v > v_L]),
    # which is negative exactly when a candidate exists
    for prior, n, v_l, r in [(uniform, 2, 0.1, 0.3), (power2, 3, 0.2, 0.5)]:
        fl = float(prior.cdf(v_l))
        limit = (1.0 - fl) * (r - prior.conditional_mean_above(v_l))
        assert limit < 0.0
        assert h_star(prior, n, v_l, r, 1e8) == pytest.approx(limit, abs=1e-6)


def _h_star_quadrature(prior, n, v_l, r, beta, v_h, v_t):
    """Independent oracle: integrate the candidate cdf gap numerically."""
    grid = np.linspace(v_l, v_h, 400_001)
    fl = float(prior.cdf(v_l))

    def g(v):
        w = np.clip(fl ** (n - 1) + beta * (v - r), 0.0, 1.0)
        out = np.where(v < r, fl, w ** (1.0 / (n - 1)))
        return np.where(v <= v_l, np.asarray(prior.cdf(np.clip(v, 0, 1))), out)

    return np.trapezoid(np.asarray(prior.cdf(grid)) - g(grid), grid)


@pytest.mark.parametrize(
    "prior,n,v_l,r",
    [
        (UniformPrior(), 2, 0.0, 0.25),
        (UniformPrior(), 2, 0.2, 0.3),
        (UniformPrior(), 3, 0.0, 0.2),
        (UniformPrior(), 3, 0.1, 0.35),
        (PowerPrior(a=2.0), 2, 0.1, 0.4),
        (PowerPrior(a=2.0), 3, 0.25, 0.5),
        (PowerPrior(a=1.5), 4, 0.05, 0.3),
    ],
)
def test_solve_beta_routes_agree(prior, n, v_l, r):
    beta, v_h, v_t = solve_beta(prior, n, v_l, r)
    beta_ref, v_h_ref, _ = solve_beta_via_h_star(prior, n, v_l, r)
    assert beta == pytest.approx(beta_ref, rel=1e-9)
    assert v_h == pytest.approx(v_h_ref, abs=1e-8)
    # the integrated-gap equation really is solved
    assert h_star(prior, n, v_l, r, beta) == pytest.approx(0.0, abs=1e-11)
    # and the quadrature oracle agrees
    assert _h_star_quadrature(prior, n, v_l, r, beta, v_h, v_t) == pytest.approx(
        0.0, abs=1e-9
    )


def test_solve_beta_uniform_examples(uniform):
    beta, v_h, v_t = solve_beta(uniform, 2, 0.0, 0.25)
    assert beta == pytest.approx(2.0, abs=1e-12)
    assert v_h == 1.0
    assert v_t == pytest.approx(0.75, abs=1e-12)

    beta, v_h, _ = solve_beta(uniform, 2, 0.2, 0.3)
    assert beta == pytest.approx(0.4 / 0.3, abs=1e-12)
    assert v_h == 1.0

    beta, v_h, v_t = solve_beta(uniform, 3, 0.0, 0.2)
    assert beta == pytest.approx(16.0 / 15.0, rel=1e-10)
    assert v_h == pytest.approx(0.8, abs=1e-11)
    assert v_t == 1.0


def test_large_market_contact_point_does_not_underflow(uniform, power2):
    # unscaled, the mean-match residual underflows to an exact 0.0 at the
    # first midpoint of [r, 1], which bisection took for the contact point
    n = 10**5
    assert solve_beta(uniform, n, 0.0, 0.2)[1] == pytest.approx(0.4 * (n - 1) / (n - 2), abs=1e-12)
    for n, exact in ((3000, 0.7381908649097014), (2**20, 0.7380681429851175)):
        v_h = contact_point_mp(power2, n, 0.1, 0.5)
        assert abs(v_h - exact) < 1e-15
        assert solve_beta(power2, n, 0.1, 0.5)[1] == pytest.approx(float(v_h), abs=1e-12)


def test_scaled_residual_keeps_the_seeded_candidates_bitwise():
    cands = [eq.candidate for eq in _seeded_markets()]
    assert len(cands) == 14
    for c in cands:
        assert (c.beta, c.v_h, c.v_t) == solve_beta_unscaled(c.prior, c.n, c.v_l, c.r)


@settings(max_examples=40, deadline=None)
@given(
    a=st.one_of(st.just(1.0), st.floats(min_value=1.0, max_value=4.0)),
    n=st.integers(min_value=2, max_value=50),
    r=st.floats(min_value=0.1, max_value=0.95),
    share=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.99)),
)
def test_scaled_residual_keeps_the_unscaled_contact_point(a, n, r, share):
    # a = 1 is the uniform prior; r >= 0.1 keeps every unscaled term above
    # the float range's floor, so the unscaled route is exact here
    prior = UniformPrior() if a == 1.0 else PowerPrior(a=a)
    v_l = share * r
    if not candidate_exists(prior, n, v_l, r):
        return
    new, old = solve_beta(prior, n, v_l, r), solve_beta_unscaled(prior, n, v_l, r)
    if new != old:  # the two residuals round apart next to the root (about 1 draw in 650)
        assert new[2] == old[2] and abs(new[1] - old[1]) <= 2 * CONTACT_XTOL


def test_collapse_as_v_l_approaches_r(uniform):
    # the contact point collapses onto r (at roughly a square-root rate)
    gaps = []
    for d in (1e-3, 1e-4, 1e-5, 1e-6):
        _, v_h, _ = solve_beta(uniform, 3, 0.3 - d, 0.3)
        gaps.append(v_h - 0.3)
        assert v_h - 0.3 < 2.0 * np.sqrt(d)
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_infeasible_candidate(uniform):
    with pytest.raises(InfeasibleCandidateError):
        solve_beta(uniform, 2, 0.0, 0.6)
    with pytest.raises(InfeasibleCandidateError):
        solve_beta(uniform, 2, 0.5, 0.4)  # v_L >= r


def test_eq8_moment_form_agreement(uniform, power2):
    for prior, n, v_l, r in [
        (uniform, 2, 0.1, 0.3),
        (uniform, 4, 0.2, 0.45),
        (power2, 3, 0.15, 0.5),
    ]:
        beta, v_h, _ = solve_beta(prior, n, v_l, r)
        tm = prior.truncated_moments(v_l, v_h, n)
        fln1 = float(prior.cdf(v_l)) ** (n - 1)
        beta_moment = (tm.eta_tilde - fln1) / (tm.mu_tilde - r)
        assert beta == pytest.approx(beta_moment, rel=1e-8)


def test_slope_comparative_statics(uniform, power2):
    # finite differences confirm the monotonicity of the pooled slope
    step = 1e-6
    for prior, n in [(uniform, 2), (uniform, 3), (power2, 2)]:
        for v_l, r in [(0.1, 0.3), (0.2, 0.45)]:
            b0 = solve_beta(prior, n, v_l, r)[0]
            assert solve_beta(prior, n, v_l, r + step)[0] > b0  # d beta / d r > 0
            assert solve_beta(prior, n, v_l + step, r)[0] < b0  # d beta / d v_L < 0


def test_contact_monotone_in_slope(uniform):
    # on the feasible bracket the contact point rises and the cap point
    # falls as the slope grows
    n, v_l, r = 3, 0.0, 0.2
    beta_star = solve_beta(uniform, n, v_l, r)[0]
    betas = np.linspace(0.8 * beta_star, 1.6 * beta_star, 9)
    v_hs, v_bars = [], []
    for b in betas:
        v_h, _ = _contact_of_beta(uniform, n, v_l, r, b)
        v_hs.append(v_h)
        v_bars.append(r + (1.0 - 0.0) / b)
    assert all(b >= a - 1e-12 for a, b in zip(v_hs, v_hs[1:]))
    assert all(b <= a + 1e-12 for a, b in zip(v_bars, v_bars[1:]))


def test_build_g_examples(uniform):
    cand = build_candidate(uniform, 2, 0.0, 0.25)
    g = build_g(cand)
    assert float(g.cdf(0.5)) == pytest.approx(0.5, abs=1e-12)  # 2 * (0.5 - 0.25)
    assert float(g.cdf(0.25)) == pytest.approx(0.0, abs=1e-12)  # flat at F(v_L)

    cand = build_candidate(uniform, 2, 0.2, 0.3)
    g = build_g(cand)
    for v in (0.05, 0.15, 0.2):
        assert float(g.cdf(v)) == pytest.approx(v, abs=1e-12)  # G = F below v_L
    assert float(g.cdf(0.3)) == pytest.approx(0.2, abs=1e-12)  # G(r) = F(v_L)


def test_integrated_gap_examples(uniform):
    cand = build_candidate(uniform, 2, 0.2, 0.3)
    g = build_g(cand)
    report = _against_full(g, uniform)
    assert report.verdict == LESS_INFORMATIVE
    assert report.min_gap_forward == pytest.approx(0.0, abs=1e-15)  # the gap at 0
    assert report.mean_gap == pytest.approx(0.0, abs=1e-12)  # the gap at 1
    # direct integral over the flat stretch: int_{v_L}^{r} (v - v_L) dv = (r - v_L)^2 / 2
    gap_at_r = float(uniform.cum_pow_cdf(0.3, 1) - g.cum_integral(0.3))
    assert gap_at_r == pytest.approx(0.1**2 / 2, abs=1e-12)


def test_mpc_examples(uniform):
    assert _is_mpc(full_disclosure_distribution(uniform), uniform)
    assert _is_mpc(point_mass(uniform, 0.5), uniform)
    # shifting mass upward raises the mean: must fail on the mean error
    shifted = point_mass(uniform, 0.6)
    assert not _is_mpc(shifted, uniform)
    assert abs(_against_full(shifted, uniform).mean_gap) > 1e-3


def test_point_mass_below_mean_fails_gap(uniform):
    g = PosteriorDistribution(prior=uniform, segments=(Flat(0.0, 0.4, 0.0),), atom=(0.4, 1.0))
    assert not _is_mpc(g, uniform)
    assert _against_full(g, uniform).min_gap_forward < -1e-3


@settings(max_examples=40, deadline=None)
@given(
    v_l=st.floats(min_value=0.0, max_value=0.6),
    gap=st.floats(min_value=0.02, max_value=0.3),
    n=st.integers(min_value=2, max_value=6),
)
def test_solved_candidates_validate(v_l, gap, n):
    prior = UniformPrior()
    r = v_l + gap
    if r >= 1.0 or not candidate_exists(prior, n, v_l, r):
        return
    cand = build_candidate(prior, n, v_l, r)
    g = build_g(cand)
    validate_candidate(cand, g)  # raises on any structural violation
    assert _is_mpc(g, prior)


@pytest.mark.parametrize(
    "prior_name, n, v_l, r",
    [("power2", 3, 0.2, 0.5), ("power2", 4, 0.2, 0.5), ("uniform", 5, 0.2, 0.4)],
    ids=["3", "4", "uniform-5"],
)
def test_a_slope_off_by_a_millionth_misses_the_contact(request, prior_name, n, v_l, r):
    # the pooled branch of a steeper or flatter slope ends off F(v_H): the
    # contact check reads it there, before the posterior's own continuity
    # check and the integrated gaps, whose lemma needs the contact
    cand = build_candidate(request.getfixturevalue(prior_name), n, v_l, r)
    assert cand.v_h < 1.0
    validate_candidate(cand, build_g(cand))
    for factor in (1.0 + 1e-6, 1.0 - 1e-6):
        bad = dataclasses.replace(cand, beta=cand.beta * factor)
        with pytest.raises(ValidationFailureError) as exc:
            validate_candidate(bad, build_g(bad))
        assert exc.value.invariant == "contact-point"


def test_a_mean_preserving_spread_fails_the_integrated_gap(uniform):
    # mass 0.2 at 0, flat to 0.25, then a line to 1 at 1: the mean is the
    # prior's (D(1) = 0), but G > F below 0.2, and D < 0 on (0, 1)
    spread = PosteriorDistribution(
        prior=uniform,
        segments=(Flat(0.0, 0.25, 0.2), AffinePower(0.25, 1.0, 0.2, 0.8 / 0.75, 1)),
        atom=(0.0, 0.2),
    )
    spread.validate()
    cand = build_candidate(uniform, 2, 0.2, 0.3)
    with pytest.raises(ValidationFailureError) as exc:
        validate_candidate(cand, spread)
    assert exc.value.invariant == "integrated-gap"


@pytest.mark.parametrize("v_t", [0.975, 1.0 - TOP_STRUCTURE_TOL / 2], ids=["v_H<1", "v_T<1"])
def test_a_top_with_contact_and_cap_fails_top_structure(power2, v_t):
    # an interior contact point with the pooled branch also capped below 1.
    # v_T within the tolerance of 1 passes the first row, which reads it as
    # v_T = 1, and fails the second, which reads it as v_T < 1
    cand = build_candidate(power2, 3, 0.2, 0.5)
    assert cand.v_h < 0.95 < v_t < 1.0 == cand.v_t
    with pytest.raises(ValidationFailureError) as exc:
        validate_candidate(dataclasses.replace(cand, v_t=v_t), build_g(cand))
    assert exc.value.invariant == "top-structure"


def _capped_mutations(eq):
    """eq's candidate with beta moved by a millionth either way and v_T
    recomputed where the moved line reaches 1: the branch stays capped and
    continuous, but no longer preserves the mean."""
    cand = eq.candidate
    return [
        dataclasses.replace(cand, beta=beta, v_t=cand.r + (1.0 - cand.pooled.base) / beta)
        for beta in (cand.beta * (1.0 + 1e-6), cand.beta * (1.0 - 1e-6))
    ]


def test_a_capped_slope_off_by_a_millionth_breaks_the_mean(eq_uniform_small):
    assert eq_uniform_small.v_h_star == 1.0 and eq_uniform_small.v_t_star < 1.0
    for bad in _capped_mutations(eq_uniform_small):
        with pytest.raises(ValidationFailureError) as exc:
            validate_candidate(bad, build_g(bad))
        assert exc.value.invariant == "mean-preservation"
        assert str(exc.value).startswith("mean-preservation: mean gap ")


def test_segment_end_gaps_equal_the_dense_comparator(eq_uniform_small):
    # D(1) and min D read at the segment ends against informativeness_compare
    # on its 2,001-point grid: the same numbers and the same verdict, on the
    # seeded solves, their moved non-equilibria and the capped mutations
    gs = [eq.g for eq in _seeded_and_perturbed()]
    gs += [build_g(bad) for bad in _capped_mutations(eq_uniform_small)]
    verdicts = set()
    for g in gs:
        dense = _against_full(g, g.prior)
        mean_gap, min_gap = _integrated_gaps(g)
        assert abs(mean_gap - dense.mean_gap) <= 1e-15
        assert abs(min_gap - dense.min_gap_forward) <= 1e-15
        passed = abs(mean_gap) <= MPC_TOL and min_gap >= -MPC_TOL
        assert passed == (dense.verdict in (LESS_INFORMATIVE, EQUALLY_INFORMATIVE))
        verdicts.add(passed)
    assert len(gs) >= 70 and verdicts == {True, False}


@pytest.mark.parametrize(
    "prior", [UniformPrior(), PowerPrior(2.0), PiecewiseLinearPrior(((0.0, 0.0), (0.5, 0.25), (1.0, 1.0)))],
    ids=["uniform", "power2", "piecewise"],
)
def test_large_market_contact_solves_its_exact_equation(prior):
    # the concealing candidate at (0, mu - s) against the root of
    # int_0^v F = (1 - 1/n) F(v) (v - r) at 40 digits, which reads F and its
    # integral only; and n (v_H - v_inf) against its limit F/f(v_inf), with
    # an error that falls like 1/n (32x per step of n)
    s = 0.1
    r = prior.mean() - s
    v_inf = large_market_contact_mp(prior, mp.inf, r)
    law = cdf_over_density_mp(prior, v_inf)
    errors = []
    for n in (2**5, 2**10, 2**15, 2**20):
        _, v_h, v_t = solve_beta(prior, n, 0.0, r)
        assert v_t == 1.0 and abs(v_h - float(large_market_contact_mp(prior, n, r))) <= CONTACT_XTOL
        errors.append(abs(n * (mp.mpf(v_h) - v_inf) - law))
    assert all(16 < big / small < 64 for big, small in zip(errors, errors[1:])), errors
