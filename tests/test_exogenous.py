import numpy as np
import pytest

from disclose_eq import PowerPrior, candidate, endogenous
from disclose_eq.endogenous import REGIME_FULL, conceals_below, z_function
from disclose_eq.errors import DomainError, UnsupportedBoundaryError
from disclose_eq.exogenous import r_lower_bar, solve_v_l_eq
from reference import REGIME_BOTTOM, REGIME_NO_BOTTOM, solve_exog


def uniform_v_l_eq(alpha: float, r: float) -> float:
    return max((2.0 * r - alpha) / (2.0 - alpha), 0.0)


def test_r_lower_bar_uniform(uniform):
    for alpha in (0.1, 0.3, 0.5, 0.65, 0.9):
        assert r_lower_bar(uniform, 2, alpha) == pytest.approx(alpha / 2, abs=1e-10)
    assert r_lower_bar(uniform, 2, 0.65) == pytest.approx(0.325, abs=1e-10)


def test_r_lower_bar_monotone_in_n(uniform, power2):
    for prior in (uniform, power2):
        mu = prior.mean()
        vals = [r_lower_bar(prior, n, 0.5) for n in (2, 3, 4, 8, 16, 64, 256, 1024)]
        assert all(b >= a - 1e-10 for a, b in zip(vals, vals[1:]))
        assert all(v < mu for v in vals)
        # approaches the mean from below
        assert mu - vals[-1] < mu - vals[0]
        assert vals[-1] > 0.9 * mu


_REGIME_GRID = [
    (prior_name, n, alpha)
    for prior_name in ("uniform", "power2", "piecewise")
    for n in (2, 3, 10, 50, 1000)
    for alpha in (0.05, 0.5, 0.95)
]


@pytest.mark.parametrize("prior_name, n, alpha", _REGIME_GRID)
def test_conceals_below_matches_r_lower_bar(request, prior_name, n, alpha):
    prior = request.getfixturevalue(prior_name)
    rbar = r_lower_bar(prior, n, alpha)
    rs = [rbar - 1e-9, rbar + 1e-9, *np.linspace(0.0, prior.mean(), 21)[1:-1]]
    for r in rs:
        assert conceals_below(prior, n, alpha, float(r)) == (r <= rbar)


@pytest.mark.parametrize("prior_name, n, alpha", _REGIME_GRID)
def test_v_l_eq_zero_at_and_below_r_lower_bar(request, prior_name, n, alpha):
    prior = request.getfixturevalue(prior_name)
    rbar = r_lower_bar(prior, n, alpha)
    for r in (rbar - 1e-9, 0.5 * rbar, 1e-3 * rbar):
        assert solve_v_l_eq(prior, n, alpha, r) == 0.0
    # rbar is a bisection midpoint within 1e-12 of the root of z(0, .); where
    # it landed above the root, the threshold may be a tiny positive one
    v_l = solve_v_l_eq(prior, n, alpha, rbar)
    assert v_l == 0.0 or (z_function(prior, n, alpha, 0.0, rbar) < 0.0 and v_l < 1e-9)


def test_solve_exog_uniform_closed_form(uniform):
    for alpha in (0.2, 0.5, 0.8):
        for r in (0.05, 0.2, 0.4, 0.6, 0.8):
            eq = solve_exog(uniform, 2, alpha, r)
            assert eq.v_l_eq == pytest.approx(uniform_v_l_eq(alpha, r), abs=1e-8)
            beta_expected = min(1.0 / (1.0 - alpha), 1.0 / (1.0 - 2.0 * r)) if r < 0.5 else 1.0 / (1.0 - alpha)
            assert eq.candidate.beta == pytest.approx(beta_expected, rel=1e-8)


def test_solve_exog_example_values(uniform):
    eq = solve_exog(uniform, 2, 0.65, 0.49)
    assert eq.v_l_eq == pytest.approx((0.98 - 0.65) / 1.35, abs=1e-8)
    assert eq.regime == REGIME_BOTTOM
    eq = solve_exog(uniform, 2, 0.65, 0.3)
    assert eq.v_l_eq == 0.0
    assert eq.regime == REGIME_NO_BOTTOM


def test_concealing_solve_exog_builds_one_candidate_at_zero(monkeypatch, uniform):
    # z(0, r) for the threshold, then the market's own candidate, whose beta
    # the multiplier-at-zero check reads instead of solving a third time
    calls = []
    original = candidate.solve_beta

    def counted_solve_beta(*args):
        calls.append(args[:4])  # z_function hands on the prior's pair at v_L, or None
        return original(*args)

    monkeypatch.setattr(endogenous, "solve_beta", counted_solve_beta)
    monkeypatch.setattr(candidate, "solve_beta", counted_solve_beta)
    eq = solve_exog(uniform, 2, 0.65, 0.3)
    assert eq.regime == REGIME_NO_BOTTOM
    assert calls == [(uniform, 2, 0.0, 0.3)] * 2


def test_multiplier_at_zero_reads_the_same_z(uniform):
    # on acceptance criterion 1's grid, z(0, r) from the market's candidate
    # is z_function(0, r) to the bit, so every verdict and value stands
    concealing = 0
    for alpha in np.round(np.arange(0.1, 0.95, 0.1), 10):
        for r in np.round(np.arange(0.05, 0.96, 0.05), 10):
            alpha, r = float(alpha), float(r)
            eq = solve_exog(uniform, 2, alpha, r)
            if eq.v_l_eq == 0.0:
                z0 = endogenous._z_of_beta(eq.candidate.fl, 2, alpha, 0.0, r, eq.candidate.beta)
                assert z0 == z_function(uniform, 2, alpha, 0.0, r)
                assert eq.candidate == candidate.build_candidate(uniform, 2, 0.0, r)
                concealing += 1
    assert concealing >= 40


def test_v_l_eq_increasing_in_r(uniform, power2):
    for prior, n in [(uniform, 2), (power2, 3)]:
        rbar = r_lower_bar(prior, n, 0.5)
        rs = np.linspace(rbar + 0.02, 0.9, 12)
        vls = [solve_exog(prior, n, 0.5, float(r)).v_l_eq for r in rs]
        assert all(b > a for a, b in zip(vls, vls[1:]))


def test_regime_boundary_continuity(uniform):
    rbar = r_lower_bar(uniform, 2, 0.5)
    for eps in (1e-3, 1e-5, 1e-7):
        eq = solve_exog(uniform, 2, 0.5, rbar + eps)
        assert 0.0 < eq.v_l_eq < 2.0 * eps
    assert solve_exog(uniform, 2, 0.5, rbar).v_l_eq == 0.0  # ties break downward


def test_full_disclosure_limits(uniform, power2):
    # near both reserve boundaries the disclosure collapses onto the prior
    grid = np.linspace(0.0, 1.0, 1001)
    for prior, n in [(uniform, 2), (power2, 2)]:
        for r in (1e-4, 1.0 - 1e-4):
            eq = solve_exog(prior, n, 0.5, r)
            sup = np.max(np.abs(np.asarray(eq.g.cdf(grid)) - np.asarray(prior.cdf(grid))))
            assert sup < 1e-3


def test_alpha_scan_to_zero(uniform):
    r = 0.4
    gaps = []
    for alpha in (1e-2, 1e-4, 1e-6):
        eq = solve_exog(uniform, 2, alpha, r)
        gaps.append(r - eq.v_l_eq)
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-5


def test_boundaries(uniform):
    eq = solve_exog(uniform, 2, 0.0, 0.4)
    assert eq.regime == REGIME_FULL
    assert eq.candidate is None
    assert float(eq.g.cdf(0.37)) == pytest.approx(0.37)
    with pytest.raises(UnsupportedBoundaryError):
        solve_exog(uniform, 2, 1.0, 0.4)
    with pytest.raises(DomainError):
        solve_exog(uniform, 2, 0.5, 0.0)
    with pytest.raises(DomainError):
        solve_exog(uniform, 1, 0.5, 0.4)
    with pytest.raises(DomainError):
        solve_exog(PowerPrior(a=0.4), 2, 0.5, 0.4)  # F^(n-1) concave


def test_exog_belief_identities(uniform):
    eq = solve_exog(uniform, 2, 0.65, 0.49)
    fl = eq.v_l_eq
    assert eq.eta == pytest.approx((1.0 - fl**2) / (2.0 * (1.0 - fl)), abs=1e-10)
    assert eq.alpha_tilde == pytest.approx(
        0.65 * eq.eta / (0.65 * eq.eta + 0.35), abs=1e-12
    )
