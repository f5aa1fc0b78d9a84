import math

import numpy as np
import pytest

from disclose_eq import PiecewiseLinearPrior, PowerPrior, UniformPrior, endogenous, exogenous
from disclose_eq.endogenous import (
    limit_equilibrium,
    n_lower_bar,
    r_full_info,
    r_search,
    search_residual_posterior,
    search_residual_prior,
    solve_endog,
    v_h_large_n,
)
from disclose_eq.errors import (
    DomainError,
    NoInteriorRootError,
    UnsupportedBoundaryError,
    ValidationFailureError,
)
from disclose_eq.exogenous import r_lower_bar, solve_v_l_eq, z_function
from disclose_eq.verify import check_dm_conditions, oracle_gap
from disclose_eq.welfare import informativeness_compare


def endog_uniform_closed_form(alpha: float, s: float) -> tuple[float, float]:
    """Re-derived oracle for the flat prior with two firms.

    Equating the search locus r = (int_{v_L}^1 v dv - s)/(1 - v_L) with the
    inverse disclosure locus r = ((2-alpha) v_L + alpha)/2 collapses to
    (1 - v_L)^2 = 2 s / (1 - alpha).
    """
    q = math.sqrt(2.0 * s / (1.0 - alpha))
    return 1.0 - (2.0 - alpha) / 2.0 * q, 1.0 - q


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


def test_search_equation_residuals(eq_uniform_small, eq_power):
    for eq in (eq_uniform_small, eq_power):
        assert abs(search_residual_prior(eq.prior, eq.v_l_star, eq.r_star, eq.s)) < 1e-9
        assert abs(search_residual_posterior(eq.g, eq.r_star, eq.s)) < 1e-8
        assert eq.r_star < r_full_info(eq.prior, eq.s)


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


def test_v_h_large_n_uniform(uniform):
    # closed form for the flat prior: v_H = 2 r (n-1) / (n-2) with r = 0.4
    for n in (7, 10, 20, 50):
        assert v_h_large_n(uniform, n, 0.1) == pytest.approx(
            0.8 * (n - 1) / (n - 2), abs=1e-10
        )
    for n in (2, 5, 6):
        with pytest.raises(NoInteriorRootError):
            v_h_large_n(uniform, n, 0.1)
    vals = [v_h_large_n(uniform, n, 0.1) for n in range(7, 30)]
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
    eq0 = solve_endog(uniform, 2, 0.0, 0.1)  # frictionless boundary
    assert eq0.beta_star is None
    assert eq0.r_star == pytest.approx(r_full_info(uniform, 0.1), abs=1e-12)
    assert float(eq0.g.cdf(0.37)) == pytest.approx(0.37)


def test_search_cost_domain_is_checked_once(uniform):
    calls = [
        lambda s: r_full_info(uniform, s),
        lambda s: solve_endog(uniform, 2, 0.5, s),
        lambda s: n_lower_bar(uniform, 0.5, s),
        lambda s: v_h_large_n(uniform, 50, s),
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
            PiecewiseLinearPrior(
                (
                    (0.0, 0.0),
                    (0.3059977021415672, 0.5661837686537011),
                    (0.5125908549620772, 0.6724729183151709),
                    (0.6207144977167882, 0.8667805629022638),
                    (1.0, 1.0),
                )
            ),
            3079,
            0.2544867461449715,
            0.17263806369986467,
        ),
        (
            PiecewiseLinearPrior(
                (
                    (0.0, 0.0),
                    (0.29250159381240515, 0.5616089296834995),
                    (0.466119066234454, 0.6411760916780682),
                    (0.6432550489280306, 0.8487748628232498),
                    (1.0, 1.0),
                )
            ),
            3079,
            0.31104034226811095,
            0.17318465700831076,
        ),
    ],
)
def test_underflowing_pooled_slope_is_a_typed_error(prior, n, alpha, s):
    # F(v_L)**(n-1) underflows, so the pooled slope is 0 or subnormal
    with pytest.raises(ValidationFailureError) as exc:
        solve_endog(prior, n, alpha, s)
    assert exc.value.invariant == "pooled-slope"
