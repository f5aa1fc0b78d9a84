"""Acceptance suite: one test per release criterion, each printing a
pass/fail line and enforcing its runtime budget."""

import json
import math
import time

import numpy as np
import pytest

from disclose_eq import PowerPrior, UniformPrior
from disclose_eq.costs import ContinuousCosts, DiscreteCosts
from disclose_eq.endogenous import (
    assemble_market,
    limit_equilibrium,
    n_lower_bar,
    payoff_u,
    solve_endog,
)
from disclose_eq.exogenous import r_lower_bar
from disclose_eq.montecarlo import SimConfig, SingleCost, simulate_market
from disclose_eq.tolerances import ORACLE_GAP_COEFF
from disclose_eq.verify import (
    check_dm_conditions,
    hetero_check,
    hetero_first_holding_n,
    integral_phi_dF,
    multiplier_phi,
    oracle_gap,
    payoff_identity_gap,
)
from disclose_eq.welfare import (
    MORE_INFORMATIVE,
    cs_inexperienced,
    cs_savvy,
    informativeness_compare,
    threshold_scan,
)
from reference import solve_exog, v_h_large_n


def _report(number: int, label: str, elapsed: float, budget: float | None) -> None:
    budget_note = f" (budget {budget:.0f} s)" if budget else ""
    print(f"criterion {number} [{label}]: PASS in {elapsed:.2f} s{budget_note}")


def test_criterion_1_uniform_closed_form():
    t0 = time.perf_counter()
    prior = UniformPrior()
    alphas = np.round(np.arange(0.1, 0.95, 0.1), 10)
    rs = np.round(np.arange(0.05, 0.96, 0.05), 10)
    assert len(alphas) == 9 and len(rs) == 19
    for alpha in alphas:
        assert r_lower_bar(prior, 2, float(alpha)) == pytest.approx(
            alpha / 2.0, abs=1e-10
        )
        for r in rs:
            eq = solve_exog(prior, 2, float(alpha), float(r))
            v_l_expected = max((2.0 * r - alpha) / (2.0 - alpha), 0.0)
            assert eq.v_l_eq == pytest.approx(v_l_expected, abs=1e-8)
            if v_l_expected > 0.0:
                beta_expected = 1.0 / (1.0 - alpha)
            else:
                beta_expected = min(1.0 / (1.0 - alpha), 1.0 / (1.0 - 2.0 * r))
            assert eq.candidate.beta == pytest.approx(beta_expected, abs=1e-8)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(1, "uniform closed form", elapsed, 5.0)


def test_criterion_2_endogenous_uniform_oracle():
    t0 = time.perf_counter()
    prior = UniformPrior()
    for alpha in (0.3, 0.5, 0.65, 0.8):
        for s in (0.02, 0.05, 0.1, 0.15):
            eq = solve_endog(prior, 2, alpha, s)
            if s < (1.0 - alpha) / 2.0:
                q = math.sqrt(2.0 * s / (1.0 - alpha))
                assert eq.v_l_star == pytest.approx(1.0 - q, abs=1e-8)
                assert eq.r_star == pytest.approx(
                    1.0 - (2.0 - alpha) / 2.0 * q, abs=1e-8
                )
            else:
                assert eq.r_star == 0.5 - s
                assert eq.v_l_star == 0.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(2, "endogenous uniform oracle", elapsed, 5.0)


def test_criterion_3_certificate_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240811)
    priors = [UniformPrior(), PowerPrior(a=1.5), PowerPrior(a=2.0), PowerPrior(a=3.0)]
    checked = 0
    while checked < 100:
        prior = priors[int(rng.integers(len(priors)))]
        n = int(rng.integers(2, 7))
        if not prior.check_convexity(n):
            continue
        alpha = float(rng.uniform(0.05, 0.95))
        mu = prior.mean()
        s = float(rng.uniform(0.02, mu - 0.02))
        eq = solve_endog(prior, n, alpha, s)
        report = check_dm_conditions(eq)
        assert report.passed, (prior, n, alpha, s, report)
        assert abs(integral_phi_dF(eq) - eq.played_value) <= 1e-8
        assert abs(payoff_identity_gap(eq)) <= 1e-9
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(3, "certificate suite, 100 random markets", elapsed, 60.0)


def test_criterion_4_lp_oracle_equivalence():
    t0 = time.perf_counter()
    uniform = UniformPrior()
    markets = [
        solve_endog(PowerPrior(a=2.0), 3, 0.4, 0.15),
        solve_endog(uniform, 19, 0.5, 0.1),
    ]
    for eq in markets:
        gaps = [oracle_gap(eq, m)["gap"] for m in (101, 201, 401)]
        assert all(g >= -1e-9 for g in gaps)
        assert all(b <= max(a, 1e-9) for a, b in zip(gaps, gaps[1:]))
        assert gaps[1] <= ORACLE_GAP_COEFF / 201
    # piecewise-affine payoffs are exactly representable: gaps at noise level
    eq_flat = solve_endog(uniform, 2, 0.65, 0.1)
    for m in (101, 201, 401):
        assert abs(oracle_gap(eq_flat, m)["gap"]) <= 1e-9
    # non-equilibrium candidates are certified with strictly positive gains
    bound = ORACLE_GAP_COEFF / 201
    for delta in (-0.05, 0.03, 0.06):
        bad = assemble_market(
            uniform, 2, 0.65, eq_flat.v_l_star + delta, eq_flat.r_star, 0.1
        )
        assert oracle_gap(bad, 201)["gap"] > bound
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(4, "LP oracle equivalence", elapsed, 120.0)


def test_criterion_5_market_structure():
    t0 = time.perf_counter()
    prior = UniformPrior()
    alpha, s = 0.5, 0.1
    nbar = n_lower_bar(prior, alpha, s)
    assert nbar > 2
    assert nbar == 19  # frozen regression anchor from the threshold scan

    eqs = {n: solve_endog(prior, n, alpha, s) for n in (2, 5, 10, 18, 19, 20, 24, 28)}
    for n, eq in eqs.items():
        fl = float(prior.cdf(eq.v_l_star))
        if n < nbar:
            assert fl > 0.0
        else:
            assert fl == 0.0

    # the solver's contact point tracks the large-market equation's root
    v_hs = []
    for n in range(nbar, nbar + 8):
        eq = eqs.get(n) or solve_endog(prior, n, alpha, s)
        root = v_h_large_n(prior, n, s)
        assert eq.v_h_star == pytest.approx(root, abs=1e-6)
        v_hs.append(eq.v_h_star)
    assert all(b < a for a, b in zip(v_hs, v_hs[1:]))

    prev = eqs[19]
    for n in range(20, 24):
        cur = eqs.get(n) or solve_endog(prior, n, alpha, s)
        assert informativeness_compare(cur.g, prev.g).verdict == MORE_INFORMATIVE
        prev = cur

    cs_small = [cs_inexperienced(eqs[n]) for n in (2, 5, 10, 18)]
    cs_large = [cs_inexperienced(eqs[n]) for n in (19, 20, 24, 28)]
    for c in cs_large:
        assert c == pytest.approx(0.4, abs=1e-10)
    assert min(cs_small) > 0.4
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(5, "market structure / paradox of choice", elapsed, 30.0)


def test_criterion_6_infinite_market_limit():
    t0 = time.perf_counter()
    prior = UniformPrior()
    alpha, s = 0.5, 0.1
    lim = limit_equilibrium(prior, alpha, s)
    assert lim.v_h_inf == pytest.approx(0.8, abs=1e-10)
    assert lim.atom_mass == pytest.approx(0.8, abs=1e-10)
    assert float(lim.g_inf.cdf(0.4)) == pytest.approx(0.8, abs=1e-10)

    nbar = n_lower_bar(prior, alpha, s)
    grid = np.linspace(0.0, 1.0, 1001)
    grid = grid[np.abs(grid - (prior.mean() - s)) > 1e-9]  # skip the atom point
    sups = []
    for k in range(7):
        eq = solve_endog(prior, nbar * 2**k, alpha, s)
        sups.append(
            float(
                np.max(
                    np.abs(np.asarray(eq.g.cdf(grid)) - np.asarray(lim.g_inf.cdf(grid)))
                )
            )
        )
    assert all(b < a for a, b in zip(sups, sups[1:]))
    elapsed = time.perf_counter() - t0
    _report(6, "infinite-market limit", elapsed, None)


def test_criterion_7_search_cost_statics():
    t0 = time.perf_counter()
    prior = UniformPrior()
    n, alpha = 2, 0.5
    mu = prior.mean()
    s_grid = np.concatenate(
        [[3e-7], np.linspace(0.01, mu - 0.01, 48), [mu - 1e-4]]
    )
    assert len(s_grid) == 50
    report = threshold_scan(prior, n, alpha, [float(s) for s in s_grid])
    assert report.s_bar == pytest.approx(mu - alpha / 2.0, abs=1e-10)

    # near both cost boundaries the disclosure collapses onto the prior
    grid = np.linspace(0.0, 1.0, 1001)
    for s in (float(s_grid[0]), float(s_grid[-1])):
        eq = solve_endog(prior, n, alpha, s)
        sup = float(np.max(np.abs(np.asarray(eq.g.cdf(grid)) - grid)))
        assert sup < 1e-3, (s, sup)

    assert report.flags["above_bar_more_informative"]
    assert report.flags["above_bar_cs_savvy_increasing"]
    assert report.flags["above_bar_cs_inexperienced_decreasing"]
    for row in report.rows:
        if row["s"] > report.s_bar + 1e-12:
            assert row["cs_inexperienced"] == pytest.approx(mu - row["s"], abs=1e-9)
    assert report.flags["below_lower_never_more_informative"]
    elapsed = time.perf_counter() - t0
    _report(7, "search-cost statics", elapsed, None)


def test_criterion_8_monte_carlo():
    t0 = time.perf_counter()
    prior = UniformPrior()
    eq = solve_endog(prior, 2, 0.65, 0.1)
    cfg = SimConfig(consumers=1_000_000, seed=90210, cost_model=SingleCost(0.1), bins=40)
    rep = simulate_market(eq, cfg)

    assert abs(rep.eta_hat - eq.eta) <= 3.0 * rep.eta_se
    assert abs(rep.cs_savvy_hat - cs_savvy(eq.g, eq.n)) <= 3.0 * rep.cs_savvy_se
    assert (
        abs(rep.cs_inexperienced_hat - cs_inexperienced(eq))
        <= 3.0 * rep.cs_inexperienced_se
    )
    share_se = math.sqrt(0.5 * 0.5 / cfg.consumers)
    for share in rep.firm_sale_shares:
        assert abs(share - 0.5) <= 3.0 * share_se
    for b in rep.curve:
        if b.visits >= 1000 and b.se > 0:
            assert abs(b.u_hat - float(payoff_u(eq, b.v_mid))) <= 3.0 * b.se, b

    rerun = simulate_market(eq, cfg)
    assert json.dumps(rep.to_json_dict(), sort_keys=True) == json.dumps(
        rerun.to_json_dict(), sort_keys=True
    )
    parallel = simulate_market(
        eq,
        SimConfig(
            consumers=1_000_000,
            seed=90210,
            cost_model=SingleCost(0.1),
            bins=40,
            workers=4,
        ),
    )
    assert json.dumps(rep.to_json_dict(), sort_keys=True) == json.dumps(
        parallel.to_json_dict(), sort_keys=True
    )
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(8, "Monte Carlo validation at 1e6 consumers", elapsed, 60.0)


def test_criterion_9_cost_heterogeneity():
    t0 = time.perf_counter()
    prior = UniformPrior()
    alpha = 0.5
    fixtures = [
        DiscreteCosts(points=((0.1, 0.5), (0.2, 0.5))),
        ContinuousCosts(knots=((0.05, 0.0), (0.2, 1.0))),
    ]
    for costs in fixtures:
        n, report = hetero_first_holding_n(prior, alpha, costs)
        assert report.holds
        assert report.phi_vs_uk_min_gap >= -1e-9
        assert report.lhs < report.rhs

    # a single cost point collapses to the standard concealment condition
    single = DiscreteCosts(points=((0.1, 1.0),))
    report = hetero_check(prior, 32, alpha, single)
    assert report.b_star == pytest.approx(1.0 / report.r_1, abs=1e-12)
    eq = solve_endog(prior, 32, alpha, 0.1)
    assert report.holds == (float(multiplier_phi(eq, 0.0)) > 0.0)
    elapsed = time.perf_counter() - t0
    _report(9, "cost heterogeneity", elapsed, None)
