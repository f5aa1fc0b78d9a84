import numpy as np
import pytest

from disclose_eq import full_disclosure_distribution, point_mass
from disclose_eq.endogenous import solve_endog
from disclose_eq.errors import DiscloseEqError, DomainError, ValidationFailureError
from disclose_eq.posterior import EQUALLY_INFORMATIVE, INCOMPARABLE, LESS_INFORMATIVE, MORE_INFORMATIVE
from disclose_eq.welfare import (
    cs_inexperienced,
    cs_savvy,
    equilibrium_row,
    informativeness_compare,
    scan_csv_text,
    threshold_scan,
)
from reference import censored_value_distribution
from test_probe_outcomes import SEED, _domain_probe


def _cs_savvy_quadrature(g, n):
    """Independent oracle: E[max] = top - int cdf^n by trapezoid rule."""
    grid = np.linspace(0.0, g.top, 400_001)
    return g.top - np.trapezoid(np.asarray(g.cdf(grid)) ** n, grid)


def test_cs_savvy_examples(uniform):
    assert cs_savvy(full_disclosure_distribution(uniform), 2) == pytest.approx(
        2.0 / 3.0, abs=1e-12
    )
    assert cs_savvy(point_mass(uniform, 0.5), 7) == pytest.approx(0.5, abs=1e-12)
    assert cs_savvy(full_disclosure_distribution(uniform), 1) == pytest.approx(
        0.5, abs=1e-12
    )


def test_cs_savvy_matches_quadrature(eq_uniform_small, eq_power):
    for eq in (eq_uniform_small, eq_power):
        oracle = _cs_savvy_quadrature(eq.g, eq.n)
        assert cs_savvy(eq.g, eq.n) == pytest.approx(oracle, abs=1e-8)


def test_cs_inexperienced_large_market(eq_uniform_large):
    # nobody searches past the first firm: surplus is one visit's worth
    assert cs_inexperienced(eq_uniform_large) == pytest.approx(0.4, abs=1e-10)


def test_cs_inexperienced_single_draw_identity(uniform):
    # with one firm the censored mean equals mu - s for any equilibrium
    for alpha, s in [(0.3, 0.1), (0.65, 0.05)]:
        eq = solve_endog(uniform, 2, alpha, s)
        g_tilde = censored_value_distribution(eq)
        assert g_tilde.mean() == pytest.approx(0.5 - s, abs=1e-9)


def test_cs_inexperienced_small_market_exceeds_single_visit(eq_uniform_small):
    assert cs_inexperienced(eq_uniform_small) > 0.4 + 1e-3


def test_cs_savvy_bounds_cs_inexperienced(eq_uniform_small):
    eq = eq_uniform_small
    assert cs_savvy(eq.g, eq.n) >= cs_inexperienced(eq) >= 0.4  # single-visit floor


def test_cs_inexperienced_matches_quadrature(eq_uniform_small, power2, piecewise):
    concealing = solve_endog(power2, 20, 0.5, 0.1)
    disclosing = solve_endog(piecewise, 3, 0.5, 0.1)
    assert concealing.v_l_star == 0.0 < disclosing.v_l_star
    for eq in (eq_uniform_small, concealing, disclosing):
        g_tilde = censored_value_distribution(eq)
        # stop just short of the reservation value: the atom there carries no
        # dv-measure, but the right-continuous cdf would leak it into the rule
        grid = np.linspace(0.0, eq.r_star - 1e-9, 400_001)
        oracle = eq.r_star - np.trapezoid(np.asarray(g_tilde.cdf(grid)) ** eq.n, grid)
        assert cs_inexperienced(eq) == pytest.approx(oracle, abs=1e-8)


def test_cs_inexperienced_is_the_censored_integral_bitwise(uniform, power2, piecewise):
    # the closed form against the censored posterior's own integral on the
    # solved markets of a probe draw, and at alpha = 0, where v_L* = r*
    markets = []
    for _, prior, n, alpha, s in _domain_probe().draw_markets(SEED, 300):
        try:
            markets.append(solve_endog(prior, n, alpha, s))
        except DiscloseEqError:
            pass
    assert len(markets) > 100
    for prior, n in [(uniform, 2), (uniform, 10), (power2, 3), (piecewise, 4)]:
        eq = solve_endog(prior, n, 0.0, 0.1)
        assert eq.v_l_star == eq.r_star
        markets.append(eq)
    for eq in markets:
        want = eq.r_star - float(censored_value_distribution(eq).cum_integral(eq.r_star, eq.n))
        assert cs_inexperienced(eq).hex() == want.hex()


def test_informativeness_examples(uniform, eq_uniform_small):
    f = full_disclosure_distribution(uniform)
    pm = point_mass(uniform, 0.5)
    assert informativeness_compare(pm, f).verdict == LESS_INFORMATIVE
    assert informativeness_compare(f, pm).verdict == MORE_INFORMATIVE
    assert informativeness_compare(f, f).verdict == EQUALLY_INFORMATIVE
    # every equilibrium disclosure is weakly less informative than full
    assert informativeness_compare(eq_uniform_small.g, f).verdict == LESS_INFORMATIVE


def test_informativeness_incomparable_pair(uniform):
    small = solve_endog(uniform, 2, 0.5, 0.1)
    large = solve_endog(uniform, 19, 0.5, 0.1)
    assert informativeness_compare(small.g, large.g).verdict == INCOMPARABLE


def test_search_stats(eq_uniform_small, eq_uniform_large):
    assert equilibrium_row(eq_uniform_large, None)["p_multi_visit"] == 0.0
    assert eq_uniform_large.eta == pytest.approx(1.0 / 19.0, abs=1e-12)

    assert equilibrium_row(eq_uniform_small, None)["p_multi_visit"] > 0.0


def test_mps_improves_savvy_surplus(uniform):
    # whenever the comparator ranks two disclosures, the savvy surplus
    # moves with informativeness
    eqs = [solve_endog(uniform, n, 0.5, 0.1) for n in (19, 20, 22, 25)]
    for a, b in zip(eqs, eqs[1:]):
        assert informativeness_compare(b.g, a.g).verdict == MORE_INFORMATIVE
        assert cs_savvy(b.g, b.n) > cs_savvy(a.g, a.n)


def test_cs_savvy_increasing_in_n(uniform):
    values = [
        cs_savvy(eq.g, eq.n)
        for eq in (solve_endog(uniform, n, 0.5, 0.1) for n in (2, 3, 5, 10, 19, 25))
    ]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_threshold_scan_uniform(uniform):
    alpha = 0.5
    grid = list(np.linspace(0.02, 0.48, 16))
    report = threshold_scan(uniform, 2, alpha, grid)
    assert report.s_bar == pytest.approx(0.5 - alpha / 2, abs=1e-10)
    assert 0.0 < report.s_lower_est <= report.s_bar
    assert report.s_lower_est == min(report.s_lower_grid, report.s_bar)
    assert report.flags["above_bar_more_informative"]
    assert report.flags["above_bar_cs_savvy_increasing"]
    assert report.flags["above_bar_cs_inexperienced_decreasing"]
    assert report.flags["below_lower_never_more_informative"]
    for row in report.rows:
        if row["s"] > report.s_bar:
            assert row["cs_inexperienced"] == pytest.approx(0.5 - row["s"], abs=1e-9)
    assert report.grid_resolution == pytest.approx(grid[1] - grid[0], abs=1e-12)


@pytest.mark.parametrize("n, s_tilde", [(2, 0.005), (3, None)])
def test_threshold_scan_s_tilde_is_the_qualifying_run_below_the_prefix_top(uniform, n, s_tilde):
    # s_tilde_est is the lowest cost of the unbroken run of prefix rows, read
    # down from the prefix's top row, each more informative than that row and
    # better for both consumer types; n = 2 qualifies all the way down, n = 3
    # breaks at the first row
    report = threshold_scan(uniform, n, 0.5, list(np.linspace(0.005, 0.3, 30)))
    top, *below = reversed([row for row in report.rows if row["s"] <= report.s_lower_est])
    assert len(below) == 24
    top_g = solve_endog(uniform, n, 0.5, top["s"]).g
    run = []
    for row in below:
        g = solve_endog(uniform, n, 0.5, row["s"]).g
        if not (
            informativeness_compare(g, top_g).verdict == MORE_INFORMATIVE
            and row["cs_savvy"] > top["cs_savvy"]
            and row["cs_inexperienced"] > top["cs_inexperienced"]
        ):
            break
        run.append(row["s"])
    assert report.s_tilde_est == (run[-1] if run else None) == s_tilde


def test_threshold_scan_reraises_a_failing_point(uniform):
    with pytest.raises(ValidationFailureError) as info:
        threshold_scan(uniform, 450, 0.05, [0.005, 0.01])
    assert info.value.invariant == "cdf-continuity"


@pytest.mark.parametrize(
    "n, grid",
    [
        (2, [0.1]),  # one point has no spacing
        (2, []),
        (10**400, [0.1, 0.2]),  # beyond float range, where F**(n-1) overflows
        (2, [0.2, 0.1]),
        (2, [0.1, 0.5]),  # s = mu
    ],
    ids=["one-point", "empty", "n-10**400", "unsorted", "out-of-range"],
)
def test_threshold_scan_rejects_bad_input(uniform, n, grid):
    with pytest.raises(DomainError):
        threshold_scan(uniform, n, 0.5, grid)


def test_scan_csv_layout(uniform):
    report = threshold_scan(uniform, 2, 0.5, [0.05, 0.1, 0.15])
    text = scan_csv_text(report.rows, axis_column="s", header_comments=["v=1"])
    lines = text.strip().splitlines()
    assert lines[0] == "# v=1"
    header = lines[1].split(",")
    for col in (
        "s",
        "r_star",
        "v_L_star",
        "v_H_star",
        "beta_star",
        "cs_savvy",
        "cs_inexperienced",
        "p_multi_visit",
        "verdict_vs_prev",
    ):
        assert col in header
    assert len(lines) == 2 + 3
