import dataclasses
import json
import math
import os
import pathlib
import subprocess
import sys
from bisect import bisect_left

import numpy as np
import pytest

from disclose_eq import (
    PiecewiseLinearPrior,
    PowerPrior,
    UniformPrior,
    candidate,
    endogenous,
    exogenous,
    priors,
)
from disclose_eq.candidate import solve_beta, validate_candidate
from disclose_eq.endogenous import (
    _check_fixed_point,
    _conceals_bottom,
    assemble_market,
    limit_equilibrium,
    n_lower_bar,
    r_full_info,
    r_search,
    search_residual_posterior,
    search_residual_prior,
    solve_endog,
    validate_equilibrium,
    visit_probability,
    z_function,
)
from disclose_eq.errors import (
    DiscloseEqError,
    DomainError,
    UnsupportedBoundaryError,
    ValidationFailureError,
)
from disclose_eq.exogenous import r_lower_bar, solve_v_l_eq
from disclose_eq.posterior import AffinePower, full_disclosure_distribution
from disclose_eq.verify import check_dm_conditions, oracle_gap
from disclose_eq.welfare import informativeness_compare
from reference import (
    gap_by_repeated_reads,
    r_search_by_repeated_reads,
    solve_beta_by_repeated_reads,
    solve_endog_by_repeated_reads,
    validate_by_rewind,
    z_function_by_repeated_reads,
)
from test_probe_outcomes import _domain_probe
from test_verify import _seeded_markets


def endog_uniform_closed_form(alpha: float, s: float) -> tuple[float, float]:
    """Re-derived oracle for the flat prior with two firms.

    Equating the search locus r = (int_{v_L}^1 v dv - s)/(1 - v_L) with the
    inverse disclosure locus r = ((2-alpha) v_L + alpha)/2 collapses to
    (1 - v_L)^2 = 2 s / (1 - alpha).
    """
    q = math.sqrt(2.0 * s / (1.0 - alpha))
    return 1.0 - (2.0 - alpha) / 2.0 * q, 1.0 - q


def test_z_examples(uniform):
    # at the collapse point the candidate term dominates: strictly positive
    r = 0.4
    z = z_function(uniform, 2, 0.5, r - 1e-9, r)
    eta_r = visit_probability(uniform.cdf(r), 2)
    assert z == pytest.approx(0.5 * (eta_r - r), abs=1e-6)
    assert z > 0.0
    # the closed case: alpha = 0.5, r = alpha/2 makes the gap vanish at zero
    assert z_function(uniform, 2, 0.5, 0.0, 0.25) == pytest.approx(0.0, abs=1e-12)
    # as alpha vanishes the slope term takes over, so the gap is negative
    assert z_function(uniform, 2, 1e-9, 0.2, 0.4) < 0.0


def test_r_full_info(uniform):
    assert r_full_info(uniform, 0.1) == pytest.approx(1.0 - math.sqrt(0.2), abs=1e-12)
    assert r_full_info(uniform, 0.4999) < 0.015  # s -> mean pushes r to 0
    assert r_full_info(uniform, 1e-6) > 0.99  # s -> 0 pushes r to 1
    with pytest.raises(DomainError):
        r_full_info(uniform, 0.6)


def test_r_search(uniform):
    assert r_search(uniform, 0.0, 0.1) == pytest.approx(0.4, abs=1e-13)  # mu - s
    rfi = r_full_info(uniform, 0.1)
    assert r_search(uniform, rfi, 0.1) == pytest.approx(rfi, abs=1e-10)  # 45-degree
    assert r_search(uniform, 0.2, 0.1) == pytest.approx(0.475, abs=1e-13)


def test_solve_endog_uniform_closed_form(uniform):
    for alpha, s in [(0.3, 0.05), (0.5, 0.1), (0.65, 0.1), (0.8, 0.02)]:
        assert s < (1.0 - alpha) / 2.0  # interior regime
        r_star, v_l_star = endog_uniform_closed_form(alpha, s)
        eq = solve_endog(uniform, 2, alpha, s)
        assert eq.r_star == pytest.approx(r_star, abs=1e-8)
        assert eq.v_l_star == pytest.approx(v_l_star, abs=1e-8)
        assert eq.bottom_disclosure


def test_solve_endog_regime_boundary(uniform):
    eq = solve_endog(uniform, 2, 0.95, 0.1)  # rbar = 0.475 >= mu - s = 0.4
    assert eq.r_star == 0.4
    assert eq.v_l_star == 0.0
    assert not eq.bottom_disclosure


@pytest.mark.parametrize("prior_name", ["uniform", "power2", "piecewise"])
def test_below_full_info_is_one_sign(request, prior_name):
    # x -> search_residual_prior(prior, x, x, s) strictly decreases to its
    # root r_full_info, so validation reads r* < r_full_info + 1e-12 from
    # the sign of the residual at r* - 1e-12
    prior = request.getfixturevalue(prior_name)
    for s in (0.02, 0.1, 0.3 * prior.mean()):
        rfi = r_full_info(prior, s)
        for d in (-1e-6, -1e-10, -5e-12, 5e-12, 1e-10, 1e-6):
            x = rfi + d
            assert (search_residual_prior(prior, x, x, s) > 0.0) == (x < rfi)


def test_search_equation_residuals(eq_uniform_small, eq_power):
    for eq in (eq_uniform_small, eq_power):
        assert abs(search_residual_prior(eq.prior, eq.v_l_star, eq.r_star, eq.s)) < 1e-9
        assert abs(search_residual_posterior(eq.g, eq.r_star, eq.s)) < 1e-8
        assert eq.r_star < r_full_info(eq.prior, eq.s)


def test_a_posterior_off_the_search_equation_fails_it(eq_uniform_small, uniform):
    # the solved thresholds keep the prior form; full disclosure in place of
    # the market's posterior adds int_{v_L*}^{r*} (r* - v) dF to the excess
    bad = dataclasses.replace(eq_uniform_small, g=full_disclosure_distribution(uniform))
    with pytest.raises(ValidationFailureError) as exc:
        validate_equilibrium(bad, conceals=False)
    assert exc.value.invariant == "search-equation"


def test_fixed_point_self_consistency(eq_uniform_small, eq_power):
    for eq in (eq_uniform_small, eq_power):
        v_l_back = solve_v_l_eq(eq.prior, eq.n, eq.alpha, eq.r_star)
        assert v_l_back == pytest.approx(eq.v_l_star, abs=1e-9)


# Guards the cost of the regime decision: a solve takes it from the sign of
# z(0, mu - s) and never bisects r_lower_bar, which takes about 40 z
# evaluations, each a bisection of its own.
@pytest.mark.parametrize("n, alpha, s, conceals", [(19, 0.5, 0.1, True), (2, 0.65, 0.1, False)])
def test_solve_endog_does_not_bisect_r_lower_bar(monkeypatch, uniform, n, alpha, s, conceals):
    calls = []

    def counted_z(*args):
        calls.append(args)
        return z_function(*args)

    monkeypatch.setattr(exogenous, "z_function", counted_z)
    monkeypatch.setattr(endogenous, "z_function", counted_z)
    r_lower_bar.cache_clear()
    eq = solve_endog(uniform, n, alpha, s)
    assert eq.bottom_disclosure is not conceals
    assert r_lower_bar.cache_info().misses == 0
    if conceals:
        assert len(calls) <= 4


# Guards the cost of the post-solve validation: it certifies the market
# without solving it again, so a concealing market costs no candidate and a
# disclosing one the 3 z evaluations of solve_v_l_eq's bracket plus the two
# around v_L*.  A rewind of solve_v_l_eq took about 59.
@pytest.mark.parametrize(
    "n, alpha, s, conceals, budget", [(19, 0.5, 0.1, True, 0), (2, 0.65, 0.1, False, 5)]
)
def test_validate_equilibrium_does_not_re_solve(
    monkeypatch, uniform, n, alpha, s, conceals, budget
):
    eq = solve_endog(uniform, n, alpha, s)
    assert eq.bottom_disclosure is not conceals
    calls = []

    def counted_solve_beta(*args):
        calls.append(args)
        return candidate.solve_beta(*args)

    def no_full_info(*args):
        raise AssertionError("validation bisected the full-information reserve")

    monkeypatch.setattr(endogenous, "solve_beta", counted_solve_beta)
    monkeypatch.setattr(endogenous, "r_full_info", no_full_info)
    endogenous.validate_equilibrium(eq, conceals)
    assert len(calls) <= budget


# mu - s above r_lower_bar(PowerPrior(2), 1000, 0.5) by these, inside the
# regime band
_BAND = (1e-12, 2e-11, 5e-11)


def _random_markets(count: int):
    """Seeded markets over the uniform, power and convex piecewise families,
    with n from 2 to 300 and s across (0, mu), so both regimes occur."""
    rng = np.random.default_rng(20261018)
    markets = []
    while len(markets) < count:
        family = len(markets) % 3
        if family == 0:
            prior = UniformPrior()
        elif family == 1:
            prior = PowerPrior(float(rng.uniform(1.0, 4.0)))
        else:
            xs = np.sort(rng.uniform(0.1, 0.9, int(rng.integers(1, 3))))
            widths = np.diff(np.concatenate(([0.0], xs, [1.0])))
            slopes = np.cumsum(rng.uniform(0.2, 1.0, len(widths)))  # increasing: convex
            qs = np.cumsum(slopes * widths)
            qs /= qs[-1]
            knots = ((0.0, 0.0),) + tuple(zip(xs.tolist(), qs[:-1].tolist())) + ((1.0, 1.0),)
            prior = PiecewiseLinearPrior(knots)
        n = int(np.exp(rng.uniform(np.log(2.0), np.log(300.0))))
        if prior.check_convexity(n):
            alpha = float(rng.uniform(0.05, 0.95))
            s = float(rng.uniform(0.1, 0.95)) ** 2 * prior.mean()
            markets.append((prior, n, alpha, s))
    return markets


def _boundary_markets():
    """The regime-boundary markets of test_regime_boundary_solves and the
    band markets of test_band_market_is_a_fixed_point_error."""
    piecewise = PiecewiseLinearPrior(knots=((0.0, 0.0), (0.5, 0.25), (1.0, 1.0)))
    markets = []
    for prior, n, alpha in [
        (UniformPrior(), 2, 0.3),
        (UniformPrior(), 4, 0.5),
        (PowerPrior(2.0), 3, 0.4),
        (piecewise, 3, 0.5),
    ]:
        s_bar = prior.mean() - r_lower_bar(prior, n, alpha)
        deltas = (0.0, 1e-11, -1e-11, -1e-10, -1e-9, -1e-8)
        markets += [(prior, n, alpha, s_bar + d) for d in deltas]
    prior = PowerPrior(2.0)
    markets += [(prior, 1000, 0.5, prior.mean() - r_lower_bar(prior, 1000, 0.5) - d) for d in _BAND]
    return markets


def _validated(monkeypatch, markets):
    """(eq, conceals) for each market that reaches its post-solve validation."""
    seen = []
    validate = endogenous.validate_equilibrium

    def capture(eq, conceals):
        seen.append((eq, conceals))
        validate(eq, conceals)

    monkeypatch.setattr(endogenous, "validate_equilibrium", capture)
    for market in markets:
        try:
            solve_endog(*market)
        except DiscloseEqError:
            pass
    monkeypatch.undo()
    return seen


def _outcome(validate, *args):
    try:
        validate(*args)
    except DiscloseEqError as exc:
        return type(exc).__name__, getattr(exc, "invariant", None)
    return "passed"


def test_validation_agrees_with_rewind(monkeypatch):
    # the local certificate against the validation that re-solves the
    # market: same verdict and invariant on solved markets and on their
    # perturbations, which fail at each check in turn
    seen = _validated(monkeypatch, _random_markets(120) + _boundary_markets())
    cases = 0
    outcomes = set()
    for eq, conceals in seen:
        prior, n, alpha, s = eq.prior, eq.n, eq.alpha, eq.s
        perturbed = [
            (eq.v_l_star + d, eq.r_star) for d in (1e-10, -1e-10, 1e-8, -1e-8, 1e-6, -1e-6)
        ]
        perturbed += [(eq.v_l_star, eq.r_star + d) for d in (1e-9, -1e-9)]
        rfi = r_full_info(prior, s)  # a reserve just above full information
        perturbed.append((rfi - 1e-9, rfi + 1e-10))
        markets = [eq] + [
            assemble_market(prior, n, alpha, v, r, s) for v, r in perturbed if v >= 0.0
        ]
        for market in markets:
            old = _outcome(validate_by_rewind, market)
            assert _outcome(endogenous.validate_equilibrium, market, conceals) == old
            outcomes.add(old)
            cases += 1
    regimes = [eq.bottom_disclosure for eq, _ in seen]
    assert len(seen) >= 140 and cases >= 1100
    assert 30 <= sum(regimes) <= len(regimes) - 30
    failures = {name for _, name in outcomes - {"passed"}}
    assert "passed" in outcomes and {"fixed-point", "below-full-info", "regime"} <= failures


def test_fixed_point_certificate_agrees_with_rewind(monkeypatch):
    # v_L* moved across the 1e-9 bound, with only the fixed-point check
    seen = _validated(monkeypatch, _random_markets(120))
    for eq, _ in seen:
        rewind = solve_v_l_eq(eq.prior, eq.n, eq.alpha, eq.r_star)
        for d in (5e-10, -5e-10, 2e-9, -2e-9, 1e-8, -1e-8, 1e-6):
            v_l = eq.v_l_star + d
            if v_l < 0.0:
                continue
            market = assemble_market(eq.prior, eq.n, eq.alpha, v_l, eq.r_star, eq.s)
            fails = abs(rewind - v_l) > 1e-9
            expected = ("ValidationFailureError", "fixed-point") if fails else "passed"
            assert _outcome(_check_fixed_point, market) == expected


def _disclosing_domain_markets(count: int):
    """Seeded markets that disclose at the bottom, drawn across the exact
    domain: the three families with convex F**(n-1), n log-uniform on
    2..4096, and alpha and s/mu each within 1e-6..1e-1 of a bound half the
    time."""
    rng = np.random.default_rng(20261019)

    def near_bounds() -> float:
        kind = int(rng.integers(4))
        if kind < 2:
            return float(rng.uniform(0.001, 0.999))
        d = float(10.0 ** rng.uniform(-6.0, -1.0))
        return d if kind == 2 else 1.0 - d

    markets = []
    for k in range(count):
        family = k % 3
        if family == 0:
            prior = UniformPrior()
        elif family == 1:
            prior = PowerPrior(float(np.exp(rng.uniform(np.log(0.25), np.log(8.0)))))
        else:
            xs = np.sort(rng.uniform(0.02, 0.98, int(rng.integers(1, 4))))
            widths = np.diff(np.concatenate(([0.0], xs, [1.0])))
            slopes = np.cumsum(rng.exponential(1.0, len(widths)))  # increasing: convex
            qs = np.cumsum(slopes * widths)
            qs /= qs[-1]
            knots = ((0.0, 0.0),) + tuple(zip(xs.tolist(), qs[:-1].tolist())) + ((1.0, 1.0),)
            prior = PiecewiseLinearPrior(knots)
        n = int(round(np.exp(rng.uniform(np.log(2.0), np.log(4096.0)))))
        alpha, s = near_bounds(), near_bounds() * prior.mean()
        if prior.check_convexity(n) and not _conceals_bottom(prior, n, alpha, prior.mean(), s):
            markets.append((prior, n, alpha, s))
    return markets


def test_z_crosses_zero_once_on_the_bracket():
    # the uniqueness of the threshold: with F**(n-1) convex, which the
    # domain check decides exactly, z(., r*) rises at any crossing, so on
    # solve_v_l_eq's bracket no sample is negative after a positive one
    checked = []
    for prior, n, alpha, s in _disclosing_domain_markets(650):
        try:
            eq = solve_endog(prior, n, alpha, s)
        except DiscloseEqError:
            continue
        r = eq.r_star
        z0 = endogenous._z_or_infeasible(prior, n, alpha, 0.0, r)
        lo, hi, _, _ = endogenous._v_l_bracket(prior, n, alpha, r, z0)
        seen_positive = False
        for v_l in np.linspace(lo, hi, 199):
            z = endogenous._z_or_infeasible(prior, n, alpha, float(v_l), r)
            assert not (seen_positive and z < 0.0), (prior, n, alpha, s, v_l, z)
            seen_positive = seen_positive or z > 0.0
        checked.append(type(prior))
    assert len(checked) >= 150
    assert set(checked) == {UniformPrior, PowerPrior, PiecewiseLinearPrior}


# mu - s lies above r_lower_bar by less than the regime band, so the solve
# conceals, but z(., mu - s) crosses zero above 1e-9: no market within the
# bounds exists there, and the solve says so through a typed error
@pytest.mark.parametrize("d", _BAND)
def test_band_market_is_a_fixed_point_error(power2, d):
    s = power2.mean() - r_lower_bar(power2, 1000, 0.5) - d
    assert _conceals_bottom(power2, 1000, 0.5, power2.mean(), s)
    with pytest.raises(ValidationFailureError) as exc:
        solve_endog(power2, 1000, 0.5, s)
    assert exc.value.invariant == "fixed-point"
    assert "z(v_L* + 1e-9, r*) = -" in str(exc.value)
    assert "< 0" in str(exc.value)


def _record_calls(monkeypatch, module, name, calls):
    """Rebind module.name so that each call appends its (v_L, r) to calls:
    solve_beta(prior, n, v_l, r, ...) or z_function(prior, n, alpha, v_l, r, ...),
    each perhaps with the prior's pair at v_L after the pair."""
    original = getattr(module, name)
    at = 2 if name == "solve_beta" else 3

    def record(*args):
        calls.append(args[at:at + 2])
        return original(*args)

    monkeypatch.setattr(module, name, record)


@pytest.mark.parametrize("market", [
    (UniformPrior(), 19, 0.5, 0.1),
    (PowerPrior(2.0), 50, 0.5, 0.2),
    (PiecewiseLinearPrior(knots=((0.0, 0.0), (0.5, 0.25), (1.0, 1.0))), 50, 0.5, 0.1),
])
def test_a_concealing_solve_solves_one_candidate(monkeypatch, market):
    # the candidate at (0, mu - s) decides the regime and is the market's own
    calls = []
    for module in (candidate, endogenous):
        _record_calls(monkeypatch, module, "solve_beta", calls)
    eq = solve_endog(*market)
    assert not eq.bottom_disclosure
    assert calls == [(0.0, eq.r_star)]


@pytest.mark.parametrize("market", [
    (UniformPrior(), 2, 0.65, 0.1),
    (PowerPrior(2.0), 3, 0.4, 0.15),
    (PiecewiseLinearPrior(knots=((0.0, 0.0), (0.5, 0.25), (1.0, 1.0))), 3, 0.5, 0.1),
])
def test_a_disclosing_solve_evaluates_the_gap_at_0_at_most_once(monkeypatch, market):
    prior, n, alpha, s = market
    r0 = r_search(prior, 0.0, s)
    assert r0 == prior.mean() - s  # so the bisection reuses z(0, mu - s)
    candidates, zs = [], []
    for module in (candidate, endogenous):
        _record_calls(monkeypatch, module, "solve_beta", candidates)
    _record_calls(monkeypatch, endogenous, "z_function", zs)  # gap's own name
    eq = solve_endog(*market)
    assert eq.bottom_disclosure
    assert candidates.count((0.0, r0)) == 1
    # the regime rule and the validation reach z by the same name; gap's
    # calls are those on the search locus
    gaps = [(v_l, r) for v_l, r in zs if r == r_search(prior, v_l, s)]
    assert gaps and all(v_l > 0.0 for v_l, _ in gaps)


@pytest.mark.parametrize("market", [
    (UniformPrior(), 2, 0.65, 0.02),  # r* >= mu
    (PowerPrior(2.0), 3, 0.4, 0.05),  # r* >= mu
    (UniformPrior(), 2, 0.65, 0.1),  # r* < mu
])
def test_a_disclosing_certificate_solves_four_candidates(monkeypatch, market):
    # z(0, r*), z at the bracket top r* - Z_EDGE and z(v_L* -+ 1e-9, r*): the
    # bracket starts at 0, so no bisection for the feasibility frontier
    # E[v | v > v_L] = r* runs, and each candidate asks for its mean once
    prior = market[0]
    eq = solve_endog(*market)
    assert eq.bottom_disclosure and (eq.r_star >= prior.mean()) == (market[3] < 0.1)
    candidates, means = [], []
    for module in (candidate, endogenous):
        _record_calls(monkeypatch, module, "solve_beta", candidates)
    original = priors.Prior.conditional_mean_above
    monkeypatch.setattr(priors.Prior, "conditional_mean_above", lambda *args: means.append(args[1]) or original(*args))
    validate_equilibrium(eq, conceals=False)
    assert (len(candidates), len(means)) == (4, 4)
    assert (0.0, eq.r_star) in candidates


@pytest.mark.parametrize("market", [
    (UniformPrior(), 2, 0.65, 0.1),  # capped pooled branch, v_T < 1
    (UniformPrior(), 19, 0.5, 0.1),
    (PowerPrior(2.0), 3, 0.4, 0.15),  # contact at v_H < 1
    (PiecewiseLinearPrior(knots=((0.0, 0.0), (0.5, 0.25), (1.0, 1.0))), 3, 0.5, 0.1),
])
def test_a_solve_never_reaches_the_dense_comparator(monkeypatch, market):
    # a candidate's mean-preserving contraction is read at its segment ends;
    # informativeness_compare's 2,001-point grid is for general posteriors
    def reached(*args):
        raise AssertionError("solve_endog reached informativeness_compare")

    for name, module in list(sys.modules.items()):
        if name.startswith("disclose_eq") and hasattr(module, "informativeness_compare"):
            monkeypatch.setattr(module, "informativeness_compare", reached)
    solve_endog(*market)


def test_n_lower_bar_uniform(uniform):
    # s >= (1 - alpha)/2 collapses the threshold to the smallest market
    assert n_lower_bar(uniform, 0.9, 0.1) == 2
    assert n_lower_bar(uniform, 0.5, 0.3) == 2
    # paradox-of-choice region; the value is the frozen regression anchor
    nbar = n_lower_bar(uniform, 0.5, 0.1)
    assert nbar == 19
    # definition check against the concealment threshold itself
    assert r_lower_bar(uniform, nbar, 0.5) >= 0.4
    assert r_lower_bar(uniform, nbar - 1, 0.5) < 0.4


# a power prior whose domain starts at n = 3 (a(n-1) >= 1), in a market that
# would conceal at n = 2 if the model held there
_POWER_FROM_3 = (PowerPrior(0.5242896958412805), 0.544892716095088, 0.24267768031576822)


def test_n_lower_bar_lies_inside_the_domain():
    prior, alpha, s = _POWER_FROM_3
    assert n_lower_bar(prior, alpha, s) == 3
    assert not solve_endog(prior, 3, alpha, s).bottom_disclosure
    with pytest.raises(DomainError, match="convexity"):
        solve_endog(prior, 2, alpha, s)
    # a density that steps down fails the convexity at every n
    with pytest.raises(DomainError, match="at every n"):
        n_lower_bar(PiecewiseLinearPrior(((0.0, 0.0), (0.5, 0.75), (1.0, 1.0))), 0.5, 0.1)


def test_concealing_contact_point_uniform(uniform):
    # v_L = 0 and r = mu - s = 0.4: closed form v_H = 2 r (n-1) / (n-2) on the flat prior
    for n in range(7, 51):
        assert solve_beta(uniform, n, 0.0, 0.4)[1] == pytest.approx(
            0.8 * (n - 1) / (n - 2), abs=1e-10
        )
    for n in (2, 5, 6):  # no disclosure at the top: the pooled branch caps at 1
        _, v_h, v_t = solve_beta(uniform, n, 0.0, 0.4)
        assert v_h == 1.0 and v_t < 1.0
    vals = [solve_beta(uniform, n, 0.0, 0.4)[1] for n in range(7, 30)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_limit_equilibrium_uniform(uniform):
    lim = limit_equilibrium(uniform, 0.5, 0.1)
    assert lim.v_h_inf == pytest.approx(0.8, abs=1e-10)
    assert lim.atom_mass == pytest.approx(0.8, abs=1e-10)
    g = lim.g_inf
    assert float(g.cdf(0.3)) == 0.0
    assert float(g.cdf(0.4)) == pytest.approx(0.8, abs=1e-10)
    assert float(g.cdf(0.9)) == pytest.approx(0.9, abs=1e-12)
    assert g.mean() == pytest.approx(0.5, abs=1e-10)


def test_limit_equilibrium_censoring_mean(uniform, power2):
    for prior in (uniform, power2):
        mu = prior.mean()
        for s in (0.05, 0.2):
            lim = limit_equilibrium(prior, 0.5, s)
            below = prior.partial_vf(0.0, lim.v_h_inf) / prior.cdf(lim.v_h_inf)
            assert below == pytest.approx(mu - s, abs=1e-10)
            assert lim.g_inf.mean() == pytest.approx(mu, abs=1e-10)


def test_limit_boundary_behavior(uniform):
    # s -> mean: the atom vanishes and the limit collapses onto the prior
    lim = limit_equilibrium(uniform, 0.5, 0.4999)
    assert lim.atom_mass < 2.5e-3
    grid = np.linspace(0.0, 1.0, 1001)
    sup = np.max(np.abs(np.asarray(lim.g_inf.cdf(grid)) - grid))
    assert sup < 2.5e-3
    # s -> 0: censoring swallows (almost) everything into the atom
    lim = limit_equilibrium(uniform, 0.5, 1e-4)
    assert lim.atom_mass > 0.98


def test_pointwise_convergence_to_limit(uniform):
    lim = limit_equilibrium(uniform, 0.5, 0.1)
    nbar = n_lower_bar(uniform, 0.5, 0.1)
    grid = np.linspace(0.0, 1.0, 1001)
    grid = grid[np.abs(grid - 0.4) > 1e-9]  # the atom is the one excluded point
    sups = []
    for k in range(5):
        eq = solve_endog(uniform, nbar * 2**k, 0.5, 0.1)
        sups.append(
            float(np.max(np.abs(np.asarray(eq.g.cdf(grid)) - np.asarray(lim.g_inf.cdf(grid)))))
        )
    assert all(b < a for a, b in zip(sups, sups[1:]))


def _n_law(prior, alpha: float, s: float) -> int:
    """The smallest n >= 2 with e n F(v_inf)**(n-1) r / (v_inf - r) <= alpha / (1 - alpha),
    r = mu - s (README, "The concealment threshold's law"), compared in logs.  The left side's
    log, log n + (n - 1) log F(v_inf) plus a constant, is concave in n, so where the inequality
    fails at n = 2 it holds from its first n on, and bisect_left finds that n."""
    r = prior.mean() - s
    v_inf = limit_equilibrium(prior, alpha, s).v_h_inf
    log_f = math.log(prior.cdf(v_inf))
    bound = math.log(alpha / (1.0 - alpha)) - 1.0 - math.log(r / (v_inf - r))

    def holds(n: int) -> bool:
        return math.log(n) + (n - 1) * log_f <= bound

    return 2 if holds(2) else 2 + bisect_left(range(2, 1 << 30), True, key=holds)


def test_concealment_threshold_follows_its_law_in_large_markets():
    # the README's conjecture: wherever n_lower_bar is 50 or more it lies
    # within 1 of the law.  On this draw 183 markets have n_lower_bar >= 50:
    # 164 exact and 19 off by one.  A market off by more is a finding.
    probe = _domain_probe()
    rng = np.random.default_rng(3)
    large = []
    for k in range(600):
        prior = probe.draw_prior(rng, probe.FAMILIES[k % 3])
        alpha = float(np.exp(rng.uniform(np.log(1e-12), np.log(0.999))))
        s = float(rng.uniform(0.001, 0.999)) * prior.mean()
        nbar = n_lower_bar(prior, alpha, s)
        if nbar >= 50:
            large.append((nbar - _n_law(prior, alpha, s), nbar, prior.to_json_dict(), alpha, s))
    assert len(large) >= 180
    assert [market for market in large if abs(market[0]) > 1] == []


def test_informativeness_monotone_in_n(uniform):
    nbar = n_lower_bar(uniform, 0.5, 0.1)
    prev = solve_endog(uniform, nbar, 0.5, 0.1)
    for n in range(nbar + 1, nbar + 4):
        cur = solve_endog(uniform, n, 0.5, 0.1)
        assert informativeness_compare(cur.g, prev.g).verdict == "MoreInformative"
        prev = cur


def test_spread_ordering_in_s_above_bar(uniform):
    alpha = 0.5
    s_bar = 0.5 - r_lower_bar(uniform, 2, alpha)
    prev = None
    for s in np.linspace(s_bar + 0.02, 0.45, 5):
        cur = solve_endog(uniform, 2, alpha, float(s))
        if prev is not None:
            assert informativeness_compare(cur.g, prev.g).verdict == "MoreInformative"
        prev = cur


def test_boundaries_and_domain(uniform):
    with pytest.raises(DomainError):
        solve_endog(uniform, 2, 0.5, 0.7)  # s >= mean
    with pytest.raises(UnsupportedBoundaryError):
        solve_endog(uniform, 2, 1.0, 0.1)
    with pytest.raises(UnsupportedBoundaryError):
        n_lower_bar(uniform, 1.0, 0.1)
    with pytest.raises(UnsupportedBoundaryError):
        limit_equilibrium(uniform, 1.0, 0.1)
    with pytest.raises(DomainError):
        n_lower_bar(uniform, 0.0, 0.1)  # alpha = 0 discloses fully at every n
    eq0 = solve_endog(uniform, 2, 0.0, 0.1)  # frictionless boundary
    assert eq0.beta_star is None
    assert eq0.r_star == pytest.approx(r_full_info(uniform, 0.1), abs=1e-12)
    assert float(eq0.g.cdf(0.37)) == pytest.approx(0.37)


@pytest.mark.parametrize("prior_name", ["uniform", "power2", "piecewise"])
@pytest.mark.parametrize("n", [2, 3, 50])
def test_full_disclosure_branches_are_the_tangent_at_r_bitwise(request, prior_name, n):
    # the alpha = 0 market's degenerate candidate at v_L = v_H = r* gives the
    # tangent of F**(n-1) at r* that the market built by hand before it held one
    prior = request.getfixturevalue(prior_name)
    eq = solve_endog(prior, n, 0.0, 0.1)
    r, fl = eq.r_star, float(prior.cdf(eq.v_l_star))
    tangent = AffinePower(r, r, fl ** (n - 1), prior.pow_cdf_deriv(r, n), n - 1)
    b = eq.branches
    assert (b.fl, b.c_low, b.fh) == (fl, 1.0, float(prior.cdf(eq.v_h_star)))
    assert b.pooled == tangent  # a, b, base, slope and root_power
    validate_candidate(eq.candidate, eq.g)  # the market's certificate holds for it too
    assert (eq.beta_star, eq.note, eq.top_disclosure) == (None, "FullDisclosure", False)


def test_search_cost_domain_is_checked_once(uniform):
    calls = [
        lambda s: r_full_info(uniform, s),
        lambda s: solve_endog(uniform, 2, 0.5, s),
        lambda s: n_lower_bar(uniform, 0.5, s),
        lambda s: limit_equilibrium(uniform, 0.5, s),
    ]
    for call in calls:
        for s in (0.0, 0.5, 0.7):
            with pytest.raises(DomainError, match=rf"search cost must lie in \(0, 0.5\), got {s}"):
                call(s)


def test_power_prior_equilibrium_structure(eq_power):
    eq = eq_power
    assert 0.0 < eq.v_l_star < eq.r_star < eq.v_h_star < 1.0
    assert eq.v_t_star == 1.0  # disclosure at the top forces the cap to 1
    assert eq.top_disclosure


@pytest.mark.parametrize(
    "prior_name, n, alpha",
    [("uniform", 2, 0.3), ("uniform", 4, 0.5), ("power2", 3, 0.4), ("piecewise", 3, 0.5)],
)
def test_regime_boundary_solves(request, prior_name, n, alpha):
    # search costs within numerical reach of s = mu - r_lower_bar: either
    # regime is acceptable there, but the solve must return a market that
    # passes its own validation
    prior = request.getfixturevalue(prior_name)
    s_bar = prior.mean() - r_lower_bar(prior, n, alpha)
    for delta in (0.0, 1e-11, -1e-11, -1e-10, -1e-9, -1e-8):
        eq = solve_endog(prior, n, alpha, s_bar + delta)
        if delta >= -1e-11:
            assert not eq.bottom_disclosure
        if delta <= -1e-9:
            assert eq.bottom_disclosure
        assert abs(search_residual_prior(prior, eq.v_l_star, eq.r_star, eq.s)) <= 1e-9


@pytest.mark.parametrize("s", [0.25, 0.1])
def test_small_alpha_root_next_to_full_info(uniform, s):
    # the threshold sits within ~1e-7 of the full-information reserve
    eq = solve_endog(uniform, 2, 1e-6, s)
    assert eq.bottom_disclosure
    assert eq.r_star < r_full_info(uniform, s)
    assert check_dm_conditions(eq).passed
    m = 201
    assert oracle_gap(eq, m)["gap"] <= 0.2 / m


@pytest.mark.parametrize(
    "prior, n, alpha, s",
    [
        (UniformPrior(), 1375, 0.5464099987813732, 0.30076378322172764),
        (PowerPrior(6.462531934340596), 408, 0.49434848890016936, 0.2737875162253962),
        (
            PiecewiseLinearPrior(((0.0, 0.0), (0.7752800444345923, 0.3880673360845436), (1.0, 1.0))),
            4008,
            0.785363241875735,
            0.37250929101915586,
        ),
        # r* = mu - s < 1e-12 (the below-full-info check is taken at 0)
        (UniformPrior(), 50, 0.5, 0.4999999999999),
    ],
)
def test_underflowing_pooled_slope_is_a_typed_error(prior, n, alpha, s):
    # the powers F**(n-1) on the pooled branch underflow, so the pooled
    # slope is 0 or subnormal: read from that slope, the branch's integral
    # is a typed error.  The candidate passes the cdf at the branch's top
    # (AffinePower.hi), so the branch is read in its scaled form, and the
    # concealing market solves and passes its certificate.
    assert prior.check_convexity(n)
    eq = solve_endog(prior, n, alpha, s)
    pooled = eq.candidate.pooled
    assert not eq.bottom_disclosure and pooled._scaled()
    assert check_dm_conditions(eq).passed
    with pytest.raises(ValidationFailureError) as exc:
        dataclasses.replace(pooled, hi=0.0).integral(prior, pooled.a, pooled.b)
    assert exc.value.invariant == "pooled-slope"


@pytest.mark.parametrize("n", [405, 450, 504])
def test_underflowing_disclosing_level_is_a_typed_error(uniform, n):
    # a disclosing market just below n_lower_bar = 505: F(v_L)**(n-1) is
    # subnormal or 0, so the pooled branch starts below the flat level
    # F(v_L) (at n = 450 it falls from 0.0882 to 0.0 at r).  The scaled
    # pooled branch is to certify these markets, and then this test flips.
    with pytest.raises(ValidationFailureError) as exc:
        solve_endog(uniform, n, 0.05, 0.01)
    assert exc.value.invariant == "cdf-continuity"


_STEPPING_DOWN = [
    # piece slopes 1.85, 0.51, 1.80, 0.35
    PiecewiseLinearPrior(
        (
            (0.0, 0.0),
            (0.3059977021415672, 0.5661837686537011),
            (0.5125908549620772, 0.6724729183151709),
            (0.6207144977167882, 0.8667805629022638),
            (1.0, 1.0),
        )
    ),
    # piece slopes 1.92, 0.46, 1.17, 0.42
    PiecewiseLinearPrior(
        (
            (0.0, 0.0),
            (0.29250159381240515, 0.5616089296834995),
            (0.466119066234454, 0.6411760916780682),
            (0.6432550489280306, 0.8487748628232498),
            (1.0, 1.0),
        )
    ),
]


@pytest.mark.parametrize(
    "prior, n, alpha, s",
    [
        (_STEPPING_DOWN[0], 3079, 0.2544867461449715, 0.17263806369986467),
        (_STEPPING_DOWN[1], 3079, 0.31104034226811095, 0.17318465700831076),
    ],
)
def test_stepping_down_density_is_a_domain_error(prior, n, alpha, s):
    # F**(n-1) has a concave kink at every knot where the density steps
    # down, at every n, so the domain check rejects the market before any
    # solve, the pooled-slope check included
    for m in (2, 50, 108, 5133):
        with pytest.raises(DomainError):
            solve_endog(prior, m, alpha, s)
    with pytest.raises(DomainError) as exc:
        solve_endog(prior, n, alpha, s)
    assert str(exc.value) == (
        f"prior fails the convexity requirement on F**(n-1): n={n}, prior {prior.to_json_dict()}"
    )


def test_fused_prior_kernel_leaves_every_equilibrium_bit_equal(monkeypatch):
    # the twelve solved seeded markets again, with cdf_cum put back to its
    # two-call form (the last two seeded markets are assembled, not solved)
    solved = _seeded_markets()[:12]
    for cls in (priors.UniformPrior, priors.PowerPrior, priors.PiecewiseLinearPrior):
        monkeypatch.setattr(cls, "cdf_cum", lambda self, v: (self.cdf(v), self.cum_pow_cdf(v, 1)))
    for eq in solved:
        again = solve_endog(eq.prior, eq.n, eq.alpha, eq.s)
        # repr of every scalar, the posterior's segments included
        assert json.dumps(again.to_json_dict()) == json.dumps(eq.to_json_dict())


@pytest.mark.parametrize(
    "prior, n, s",
    [(UniformPrior(), 2, 0.4999999999999), (PowerPrior(a=2.0), 3, 2.0 / 3.0 - 1e-14)],
)
def test_reserve_within_1e_12_of_zero_certifies(prior, n, s):
    # r* = mu - s < 1e-12: the below-full-info check is taken at 0, not below it
    eq = solve_endog(prior, n, 0.5, s)
    assert 0.0 < eq.r_star < 1e-12 and not eq.bottom_disclosure
    assert check_dm_conditions(eq).passed
    assert oracle_gap(eq, 201)["gap"] <= 0.2 / 201


# The benchmark's tracer finds the outer bisection of solve_endog by the
# qualified name of its objective, "solve_endog.<locals>.gap": a rename
# would read as zero gap evaluations, so a traced disclosing solve must
# count some, and the threshold's z evaluations under them.
_TRACED_SOLVE_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import tracer
from disclose_eq import UniformPrior, endogenous

t = tracer.Tracer()
tracer.install(t)
eq = endogenous.solve_endog(UniformPrior(), 2, 0.65, 0.1)
print(json.dumps({"v_l_star": eq.v_l_star, "metrics": tracer.layer_metrics(t.summary())}))
"""


def test_tracer_counts_the_outer_bisection(eq_uniform_small):
    bench = pathlib.Path(__file__).resolve().parent.parent / "bench"
    src = os.path.dirname(os.path.dirname(endogenous.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_SOLVE_SCRIPT, str(bench)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True,
    )
    traced = json.loads(proc.stdout.splitlines()[-1])
    assert eq_uniform_small.bottom_disclosure
    assert traced["v_l_star"] == eq_uniform_small.v_l_star
    assert traced["metrics"]["endogenous.gap_evals"] > 0
    assert traced["metrics"]["exogenous.z_function.calls"] > 0


def _seeded_gap_steps(monkeypatch):
    """(market, gap, v_L of each outer step) for the disclosing seeded
    markets, solved again with solve_endog's gap closure recorded."""
    markets = {(eq.prior, eq.n, eq.alpha, eq.s) for eq in _seeded_markets() if eq.bottom_disclosure}
    original = endogenous.bisect_root
    found = []

    def record(f, *args, **kwargs):
        if f.__qualname__ != "solve_endog.<locals>.gap":
            return original(f, *args, **kwargs)
        steps = []
        found[-1] += (f, steps)
        return original(lambda v_l: steps.append(v_l) or f(v_l), *args, **kwargs)

    monkeypatch.setattr(endogenous, "bisect_root", record)
    for market in sorted(markets, key=repr):
        found.append((market,))
        solve_endog(*market)
    monkeypatch.undo()
    return found


def test_one_read_per_step_equals_the_repeated_reads_bitwise(monkeypatch):
    # each outer step of the disclosing seeded solves, layer by layer,
    # against the routes that read the prior wherever a term needs it
    steps = 0
    for (prior, n, alpha, s), gap, points in _seeded_gap_steps(monkeypatch):
        gap_ref = gap_by_repeated_reads(prior, n, alpha, s)
        for v_l in points:
            at_v_l = prior.cdf_cum(v_l)
            r = r_search(prior, v_l, s, at_v_l)
            assert r == r_search(prior, v_l, s) == r_search_by_repeated_reads(prior, v_l, s)
            beta = solve_beta_by_repeated_reads(prior, n, v_l, r)
            assert solve_beta(prior, n, v_l, r, at_v_l) == solve_beta(prior, n, v_l, r) == beta
            z = z_function_by_repeated_reads(prior, n, alpha, v_l, r)
            assert z_function(prior, n, alpha, v_l, r, at_v_l) == z_function(prior, n, alpha, v_l, r) == z
            assert gap(v_l) == gap_ref(v_l) == z
            steps += 1
    assert steps >= 250


def test_solves_equal_the_repeated_reads_bitwise():
    markets = {(eq.prior, eq.n, eq.alpha, eq.s) for eq in _seeded_markets()}
    for market in markets:
        eq, ref = solve_endog(*market), solve_endog_by_repeated_reads(*market)
        assert eq.to_json_dict() == ref.to_json_dict() and eq.candidate == ref.candidate
    assert len(markets) == 13  # 12, and the market of the two perturbed candidates


def _prior_reads(monkeypatch, prior, step) -> list[tuple[str, float]]:
    """(method, point) of each read of the prior's primitives while step runs."""
    reads = []
    for name in ("cdf", "cdf_cum", "cum_pow_cdf", "pow_cdf_deriv"):
        original = getattr(type(prior), name)

        def read(self, v, *args, _name=name, _original=original):
            reads.append((_name, v))
            return _original(self, v, *args)

        monkeypatch.setattr(type(prior), name, read)
    step()
    monkeypatch.undo()
    return reads


def test_a_capped_gap_step_reads_the_prior_once(monkeypatch):
    # a step whose candidate caps at 1 reads the prior at v_L only: once,
    # through cdf_cum, where the routes that read again made 6 reads at v_L
    # and 4 at 1; the pair at 1 is the prior's own, read once per prior.  A
    # z evaluation without the pair (the fixed-point check, the regime rule,
    # solve_v_l_eq, r_lower_bar) reads it once too, for solve_beta and F(v_L)
    capped = 0
    for (prior, n, alpha, s), gap, points in _seeded_gap_steps(monkeypatch):
        for v_l in points:
            r = r_search(prior, v_l, s)
            if solve_beta(prior, n, v_l, r)[1] < 1.0:
                continue  # an interior contact reads the prior along its bisection too
            assert _prior_reads(monkeypatch, prior, lambda: gap(v_l)) == [("cdf_cum", v_l)]
            assert _prior_reads(monkeypatch, prior, lambda: z_function(prior, n, alpha, v_l, r)) == [("cdf_cum", v_l)]
            before = _prior_reads(monkeypatch, prior, lambda: gap_by_repeated_reads(prior, n, alpha, s)(v_l))
            assert sorted(point for _, point in before) == [v_l] * 6 + [1.0] * 4
            capped += 1
    assert capped >= 200
