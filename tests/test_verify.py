import functools
import hashlib
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import optimize, sparse
from scipy.optimize import linprog

from disclose_eq import (
    PowerPrior,
    UniformPrior,
    full_disclosure_distribution,
    montecarlo,
    point_mass,
    verify,
)
from disclose_eq.costs import ContinuousCosts, DiscreteCosts
from disclose_eq.endogenous import assemble_market, payoff_u, solve_endog
from disclose_eq.errors import DiscloseEqError, DomainError, ValidationFailureError
from disclose_eq.posterior import Flat, FullDisclosure, PosteriorDistribution, insert_points
from disclose_eq.priors import PiecewiseLinearPrior
from disclose_eq.tolerances import ORACLE_GAP_COEFF
from disclose_eq.verify import (
    _support_grid,
    best_response_oracle,
    chord_slope_infimum,
    check_dm_conditions,
    discretize_prior,
    hetero_check,
    hetero_first_holding_n,
    integral_phi_dF,
    integral_phi_dG,
    multiplier_phi,
    oracle_gap,
    oracle_grid,
    payoff_identity_gap,
)
import reference
from reference import (
    deviation_gain,
    dm_conditions_by_separate_grids,
    expected_payoff_under,
    oracle_by_sparse_algebra,
)


# ---------------------------------------------------------------------------
# payoff and multiplier
# ---------------------------------------------------------------------------

def test_payoff_endpoints(eq_uniform_small):
    eq = eq_uniform_small
    assert payoff_u(eq, 0.0) == 0.0
    assert payoff_u(eq, eq.v_t_star) == pytest.approx(1.0, abs=1e-12)
    grid = np.linspace(0.0, 1.0, 2001)
    u = np.asarray(payoff_u(eq, grid))
    assert np.min(np.diff(u)) >= -1e-12  # nondecreasing
    assert np.min(u) >= 0.0 and np.max(u) <= 1.0 + 1e-12


def test_payoff_jump_at_reservation(eq_uniform_small):
    eq = eq_uniform_small
    jump = payoff_u(eq, eq.r_star) - payoff_u(eq, eq.r_star - 1e-12)
    g_r = float(eq.g.cdf(eq.r_star)) ** (eq.n - 1)
    expected = eq.alpha_tilde * (1.0 - g_r / eq.eta)
    assert jump == pytest.approx(expected, abs=1e-9)
    assert jump > 0.0


def test_payoff_identity(eq_uniform_small, eq_uniform_large, eq_power):
    for eq in (eq_uniform_small, eq_uniform_large, eq_power):
        assert abs(payoff_identity_gap(eq)) < 1e-9


def test_expected_payoff_quadrature_oracle(eq_power):
    # independent route: integrate u against the disclosure density by
    # trapezoid on each smooth piece
    eq = eq_power
    total = 0.0
    pool_top = min(eq.v_h_star, eq.v_t_star)
    pieces = [(0.0, eq.v_l_star), (eq.r_star, pool_top), (eq.v_h_star, 1.0)]
    for lo, hi in pieces:
        if hi - lo < 1e-12:
            continue
        grid = np.linspace(lo + 1e-12, hi - 1e-12, 200_001)
        u = np.asarray(payoff_u(eq, grid))
        g = np.asarray(eq.g.cdf(grid))
        dg = np.gradient(g, grid)
        total += np.trapezoid(u * dg, grid)
    assert eq.played_value == pytest.approx(total, abs=5e-6)


def test_multiplier_coincides_with_payoff_above_contact(eq_power):
    eq = eq_power
    assert eq.v_h_star < 1.0
    grid = np.linspace(eq.v_h_star + 1e-9, 1.0, 101)
    assert np.max(np.abs(multiplier_phi(eq, grid) - payoff_u(eq, grid))) < 1e-12


def test_multiplier_origin_condition(eq_uniform_large):
    eq = eq_uniform_large
    assert eq.v_l_star == 0.0
    phi0 = multiplier_phi(eq, 0.0)
    expected = eq.alpha_tilde - (1.0 - eq.alpha_tilde) * eq.beta_star * eq.r_star
    assert phi0 == pytest.approx(expected, abs=1e-12)
    assert phi0 >= -1e-9


def test_multiplier_continuity_at_v_l(eq_uniform_small):
    eq = eq_uniform_small
    left = multiplier_phi(eq, eq.v_l_star - 1e-12)
    right = multiplier_phi(eq, eq.v_l_star + 1e-12)
    assert right - left == pytest.approx(0.0, abs=1e-9)


# ---------------------------------------------------------------------------
# the certificate
# ---------------------------------------------------------------------------

def test_certificate_passes_on_solved(eq_uniform_small, eq_uniform_large, eq_power):
    for eq in (eq_uniform_small, eq_uniform_large, eq_power):
        report = check_dm_conditions(eq)
        assert report.passed, report
        assert abs(integral_phi_dG(eq) - integral_phi_dF(eq)) <= 1e-8
        # dual value equals primal value
        assert integral_phi_dF(eq) == pytest.approx(eq.played_value, abs=1e-8)


def test_certificate_piecewise_prior():
    # density-step prior with convex F^(n-1): full pipeline end to end
    prior = PiecewiseLinearPrior(knots=((0.0, 0.0), (0.5, 0.2), (1.0, 1.0)))
    for n, alpha, s in [(2, 0.5, 0.1), (5, 0.5, 0.12)]:
        eq = solve_endog(prior, n, alpha, s)
        assert check_dm_conditions(eq).passed
        assert abs(payoff_identity_gap(eq)) < 1e-9


def test_dm1_scan_catches_a_concave_knot():
    # the density steps down at the knot, so F^(n-1) has a concave kink of
    # (n-1) q^(n-2) (m_right - m_left) there, about -1.1e-8 at n = 50: too
    # small for a grid, and outside the domain at every n
    prior = PiecewiseLinearPrior(((0, 0), (0.402781076841272, 0.6303272509867991), (1, 1)))
    n = 50
    assert not prior.check_convexity(n)
    with pytest.raises(DomainError):
        solve_endog(prior, n, 0.8664104481949356, 0.31578356733494195)


def test_alpha_zero_certificate(uniform, power2, piecewise):
    # the middle branch degenerates to the point r*; its tangent slope
    # closes both seams and both kinks exactly
    for prior, n in [(uniform, 2), (uniform, 3), (power2, 3), (piecewise, 5)]:
        eq = solve_endog(prior, n, 0.0, 0.1)
        assert eq.beta_star is None
        report = check_dm_conditions(eq)
        assert report.passed, report
        assert report.dm1_max_continuity_gap == 0.0
        assert report.dm1_min_slope_increment == 0.0
        assert abs(payoff_identity_gap(eq)) < 1e-15
        assert oracle_gap(eq, 201)["gap"] <= ORACLE_GAP_COEFF / 201


def test_certificate_fails_on_perturbed(uniform, eq_uniform_small):
    eq = eq_uniform_small
    bad = assemble_market(uniform, 2, 0.65, eq.v_l_star + 0.1, eq.r_star, 0.1)
    report = check_dm_conditions(bad)
    assert not report.passed
    assert report.dm1_max_continuity_gap > 1e-3  # the seam tears open


def test_certificate_fails_near_full_disclosure(uniform):
    # playing (almost) full disclosure is not a best response at interior
    # parameters: the multiplier seam cannot close
    bad = assemble_market(uniform, 2, 0.65, 0.4897, 0.4898, 0.1)
    report = check_dm_conditions(bad)
    assert not report.passed


def _perturbed(eq):
    """The market with v_L* and r* moved, where a candidate exists."""
    moves = [(d, 0.0) for d in (-1e-6, -1e-9, 1e-9, 1e-6, 1e-3)] + [(0.0, -1e-9), (0.0, 1e-9)]
    markets = []
    for dv, dr in moves:
        if eq.v_l_star + dv < 0.0:
            continue
        try:
            markets.append(assemble_market(
                eq.prior, eq.n, eq.alpha, eq.v_l_star + dv, eq.r_star + dr, eq.s
            ))
        except DiscloseEqError:
            pass
    return markets


@functools.cache
def _seeded_and_perturbed():
    return tuple(_seeded_markets() + [m for eq in _seeded_markets() for m in _perturbed(eq)])


def test_certificate_equals_the_separate_grid_reference(uniform, power2, piecewise):
    # one evaluation of the multiplier and the payoff on all the grids gives
    # the report of one evaluation per grid, to the bit
    markets = list(_seeded_and_perturbed())
    markets += [solve_endog(prior, n, 0.0, 0.1) for prior, n in
                [(uniform, 2), (uniform, 3), (power2, 3), (piecewise, 5)]]
    assert len(markets) >= 80
    verdicts = set()
    for eq in markets:
        report = check_dm_conditions(eq)
        assert repr(report) == repr(dm_conditions_by_separate_grids(eq))
        verdicts.add(report.passed)
    assert verdicts == {True, False}


def test_no_concavity_inside_a_branch_on_seeded_markets():
    # inside the domain the multiplier is convex within each branch, so DM1
    # needs only the kinks: a slope scan of each branch reads nothing below
    # the -1e-9 gate, on equilibria and on the moved non-equilibria alike
    markets = _seeded_and_perturbed()
    assert len(markets) >= 70
    assert min(reference.branch_slope_scan_minimum(eq) for eq in markets) >= -1e-9


def test_certificate_evaluates_each_function_once(monkeypatch, eq_uniform_small, eq_power):
    calls = {"multiplier_phi": 0, "payoff_u": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(verify, "multiplier_phi", counted("multiplier_phi", multiplier_phi))
    monkeypatch.setattr(verify, "payoff_u", counted("payoff_u", payoff_u))
    for eq in (eq_uniform_small, eq_power):  # the full and the support grid, together
        calls.update(multiplier_phi=0, payoff_u=0)
        check_dm_conditions(eq)
        assert calls == {"multiplier_phi": 1, "payoff_u": 1}


# ---------------------------------------------------------------------------
# LP oracle
# ---------------------------------------------------------------------------

def test_oracle_convex_payoff_prefers_full_disclosure(uniform):
    grid = np.linspace(0.0, 1.0, 201)
    f = discretize_prior(uniform, grid)
    u = grid**2  # convex and increasing: spreading is optimal
    value, masses = best_response_oracle(u, uniform, grid)
    assert value == pytest.approx(float(f @ u), abs=1e-10)
    assert np.max(np.abs(masses - f)) < 1e-6


def test_oracle_indicator_payoff(uniform):
    grid = np.unique(np.concatenate([np.linspace(0.0, 1.0, 201), [0.3]]))
    u = (grid >= 0.3).astype(float)  # stop-indicator with r < mean
    value, masses = best_response_oracle(u, uniform, grid)
    assert value == pytest.approx(1.0, abs=1e-9)
    assert float(masses[grid < 0.3].sum()) < 1e-9


def test_oracle_gap_shrinks(eq_power):
    gaps = [oracle_gap(eq_power, m)["gap"] for m in (101, 201, 401, 801)]
    assert all(g >= -1e-9 for g in gaps)
    assert all(b <= max(a, 1e-9) for a, b in zip(gaps, gaps[1:]))
    assert gaps[1] <= ORACLE_GAP_COEFF / 201


def test_oracle_grid_includes_breakpoints(eq_uniform_small):
    grid = oracle_grid(eq_uniform_small, 101)
    for b in (0.0, 1.0, eq_uniform_small.r_star, eq_uniform_small.v_l_star):
        assert np.min(np.abs(grid - b)) < 1e-15


def test_oracle_flags_perturbed_candidates(uniform, eq_uniform_small):
    eq = eq_uniform_small
    bound = ORACLE_GAP_COEFF / 201
    for delta in (0.03, 0.06):
        bad = assemble_market(uniform, 2, 0.65, eq.v_l_star + delta, eq.r_star, 0.1)
        gap = oracle_gap(bad, 201)["gap"]
        assert gap > bound  # certified strictly positive deviation gain


def _stop_loss_matrix(grid):
    """A[k, i] = (t_k - v_i)+ over the grid."""
    return np.maximum(grid[:, None] - grid[None, :], 0.0)


def _dense_oracle(u, prior, grid):
    """The oracle LP over the masses with the dense stop-loss matrix, at the
    same 1e-10 HiGHS tolerances: the reference value."""
    f = discretize_prior(prior, grid)
    a_ub = _stop_loss_matrix(grid)
    res = linprog(
        -np.asarray(u),
        A_ub=a_ub,
        b_ub=a_ub @ f,
        A_eq=np.vstack([np.ones_like(grid), grid]),
        b_eq=np.array([1.0, float(grid @ f)]),
        bounds=(0.0, None),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert res.success
    return -float(res.fun)


def _assert_contraction(masses, prior, grid, mass_tol=1e-12, stop_loss_tol=1e-10):
    """The masses are nonnegative with the prior's mass and mean, and their
    stop-loss stays below the prior's at every grid point."""
    f = discretize_prior(prior, grid)
    assert masses.min() >= -mass_tol
    assert abs(masses.sum() - 1.0) <= mass_tol
    assert abs(grid @ masses - grid @ f) <= mass_tol
    a_ub = _stop_loss_matrix(grid)
    assert np.max(a_ub @ masses - a_ub @ f) <= stop_loss_tol


def _assert_best_response(masses, value, u, prior, grid):
    """The masses are a contraction of the prior that pays the oracle's
    value: a best response, checked without the LP.  The payoff bound is
    1e-12 on every grid: HiGHS keeps every cell width of at least 1e-12,
    so its objective is its column values' payoff.  The contraction's
    bounds are 1e-12 on a grid whose cells are all at least 1e-6 wide, and
    1e-10 on narrower grids: there the stop-loss residual reaches 1.4e-11
    (a jittered grid with chains of narrow cells), and the mean misses by
    up to 5e-13 where a cell under 1e-12 is one HiGHS drops."""
    narrow = np.min(np.diff(grid)) < 1e-6
    _assert_contraction(masses, prior, grid, mass_tol=1e-10 if narrow else 1e-12)
    assert abs(u @ masses - value) <= 1e-12


def _closed_form_off(monkeypatch):
    """A tolerance that fails every comparison of the closed-form test, so
    oracle_gap hands HiGHS the pooling basis wherever it did before the
    closed form."""
    monkeypatch.setattr(verify, "HIGHS_FEASIBILITY_TOL", -np.inf)


def _pool(eq):
    return (eq.v_l_star, eq.r_star, min(eq.v_h_star, eq.v_t_star), eq.v_h_star)


def _accepts(eq, grid, u):
    """Whether the closed form takes the pooling vertex as the optimum."""
    f = discretize_prior(eq.prior, grid)
    return verify._pooling_vertex(grid, np.diff(grid), f, u, _pool(eq))[0] is not None


def _seeded_markets():
    """Two solved markets per prior family and regime, then two
    non-equilibrium candidates, solved once per session."""
    return list(_seeded_solves())


@functools.cache
def _seeded_solves():
    rng = np.random.default_rng(7)
    markets = []
    for family in ("uniform", "power", "piecewise"):
        for bottom in (True, False):
            found = 0
            while found < 2:
                if family == "uniform":
                    prior = UniformPrior()
                elif family == "power":
                    prior = PowerPrior(a=float(rng.uniform(1.0, 4.0)))
                else:
                    x = float(rng.uniform(0.3, 0.7))
                    q = x * float(rng.uniform(0.3, 0.8))  # convex: slopes rise at the knot
                    prior = PiecewiseLinearPrior(knots=((0.0, 0.0), (x, q), (1.0, 1.0)))
                alpha = float(rng.uniform(0.2, 0.8))
                if bottom:
                    n = int(rng.integers(2, 4))
                    s = float(rng.uniform(0.05, 0.4)) * (1.0 - alpha) * prior.mean()
                else:
                    n = int(rng.integers(20, 60))
                    s = float(rng.uniform(0.05, 0.8)) * prior.mean()
                eq = solve_endog(prior, n, alpha, s)
                if eq.bottom_disclosure == bottom:
                    markets.append(eq)
                    found += 1
    eq = solve_endog(UniformPrior(), 2, 0.65, 0.1)
    for delta in (-0.05, 0.03):
        markets.append(assemble_market(eq.prior, 2, 0.65, eq.v_l_star + delta, eq.r_star, 0.1))
    return tuple(markets)


def test_oracle_matches_dense_reference_on_seeded_markets():
    markets = _seeded_markets()
    assert len(markets) == 14
    assert {eq.bottom_disclosure for eq in markets} == {True, False}
    for eq in markets:
        for m in (101, 201):
            grid = oracle_grid(eq, m)
            u = payoff_u(eq, grid)
            value, masses = best_response_oracle(u, eq.prior, grid)
            assert value == pytest.approx(_dense_oracle(u, eq.prior, grid), abs=1e-9)
            _assert_contraction(masses, eq.prior, grid)


@settings(max_examples=12, deadline=5000, derandomize=True)
@given(
    m=st.integers(101, 401),
    jitter_seed=st.integers(0, 2**32 - 1),
    u_knots=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=6),
    prior_spec=st.one_of(
        st.tuples(st.just("uniform")),
        st.tuples(st.just("power"), st.floats(0.3, 5.0)),
        st.tuples(st.just("piecewise"), st.floats(0.1, 0.9), st.floats(0.1, 0.9)),
    ),
)
# a jittered power(2) grid on which an earlier form of the LP, whose rows
# carried 1/h, read a mass of -3.4e-9 from HiGHS's column values where its
# row held g = 0; the masses must be a contraction to 1e-12
@example(m=265, jitter_seed=231, u_knots=[0.5, 0.625, 0.875, 0.0, 0.25, 0.0], prior_spec=("power", 2.0))
def test_oracle_matches_dense_reference_on_random_grids(m, jitter_seed, u_knots, prior_spec):
    # interior points jittered by up to 3/8 of the spacing
    rng = np.random.default_rng(jitter_seed)
    grid = np.linspace(0.0, 1.0, m)
    grid[1:-1] += rng.uniform(-0.375, 0.375, m - 2) / (m - 1)
    u = np.interp(grid, np.linspace(0.0, 1.0, len(u_knots)), u_knots)
    if prior_spec[0] == "uniform":
        prior = UniformPrior()
    elif prior_spec[0] == "power":
        prior = PowerPrior(a=prior_spec[1])
    else:
        prior = PiecewiseLinearPrior(knots=((0.0, 0.0), prior_spec[1:], (1.0, 1.0)))
    value, masses = best_response_oracle(u, prior, grid)
    assert value == pytest.approx(_dense_oracle(u, prior, grid), abs=1e-9)
    _assert_contraction(masses, prior, grid)


_NARROW_EPS = [1e-16, 1e-12, 1e-9, 5e-8, 2e-7, 1e-5]


def _narrow_cells(eps):
    """Payoff and grid with cells of width eps (and 1.5 eps) next to a
    payoff jump and a kink."""
    grid = np.unique(np.concatenate([np.linspace(0.0, 1.0, 201), [0.3 + eps, 0.3 + 2.5 * eps, 0.71 - eps]]))
    return (grid >= 0.3 + eps) + 0.3 * grid**2 - 0.4 * (grid > 0.71 - eps) * (grid - 0.5), grid


@pytest.mark.parametrize("eps", _NARROW_EPS)
def test_oracle_resolves_narrow_cells(uniform, eps):
    u, grid = _narrow_cells(eps)
    value, masses = best_response_oracle(u, uniform, grid)
    assert value == pytest.approx(_dense_oracle(u, uniform, grid), abs=1e-9)
    # the masses of a grid with cells under 1e-6 are a contraction to 1e-10
    _assert_contraction(masses, uniform, grid, mass_tol=1e-10)


def test_oracle_on_a_breakpoint_one_ulp_off_the_grid(monkeypatch, uniform):
    # r* = 0.475 is computed one ulp away from the grid point 95/200
    eq = solve_endog(uniform, 10, 0.65, 0.15)
    grid = oracle_grid(eq, 201)
    assert np.min(np.diff(grid)) < 1e-15
    u = payoff_u(eq, grid)
    value, masses = best_response_oracle(u, uniform, grid)
    assert value == pytest.approx(_dense_oracle(u, uniform, grid), abs=1e-9)
    _assert_contraction(masses, uniform, grid)
    assert oracle_gap(eq, 201)["gap"] <= ORACLE_GAP_COEFF / 201
    # r* = 0.35 is one ulp off a grid point too, at both grid sizes: the
    # pooling vertex is the optimum, and HiGHS, started from its basis,
    # takes no iteration (146 and 2,898 when a narrow cell sent the LP to a
    # builder without it)
    eq = solve_endog(uniform, 19, 0.4, 0.15)
    for m in (201, 4001):
        assert np.min(np.diff(oracle_grid(eq, m))) < 1e-15
        gap = oracle_gap(eq, m)
        assert gap["lp_iterations"] == 0
        assert gap["gap"] <= ORACLE_GAP_COEFF / gap["m"]
        with monkeypatch.context() as patch:
            _closed_form_off(patch)
            highs = oracle_gap(eq, m)
        assert highs["lp_iterations"] == 0
        assert abs(highs["oracle_value"] - gap["oracle_value"]) <= 1e-12


def test_oracle_rejects_an_unsorted_grid(uniform):
    grid = np.array([0.0, 0.5, 0.4, 1.0])
    with pytest.raises(DomainError):
        best_response_oracle(grid, uniform, grid)


def test_oracle_solves_a_top_cell_of_width_1e8_under_a_jump(uniform):
    # HiGHS stopped here with "Status 0: Not Set" on the LP over the slack
    # alone under linprog's default settings (presolve on, steepest-edge
    # pricing); under the oracle's settings it solves, to linprog's bits
    grid = np.concatenate([np.linspace(0.0, 1.0, 201), [1.0 - 1e-8]])
    grid.sort()
    u = 0.3 * grid + (grid >= 0.4)
    value, masses = best_response_oracle(u, uniform, grid)
    assert value == pytest.approx(_dense_oracle(u, uniform, grid), abs=1e-9)
    want, _ = oracle_by_sparse_algebra(u, uniform, grid)
    assert value == want
    _assert_contraction(masses, uniform, grid)
    _assert_best_response(masses, value, u, uniform, grid)


def test_oracle_reports_highs_stopping_without_a_status(monkeypatch):
    # a run that HiGHS ends without a model status ("Not Set") is a typed
    # failure, not a value read from an unfinished solve; the next call,
    # on a solver of its own, solves as before
    stop = [True]

    class Stopping(verify._Highs):
        def getModelStatus(self):
            if stop:
                stop.clear()
                return verify.HighsModelStatus.kNotset
            return super().getModelStatus()

    monkeypatch.setattr(verify, "_Highs", Stopping)
    u, prior, grid = _jittered_cases()[36]
    with pytest.raises(ValidationFailureError) as exc:
        best_response_oracle(u, prior, grid)
    assert exc.value.invariant == "oracle-lp"
    assert "Not Set" in str(exc.value)
    case = _seeded_cases()[0]
    value, masses = best_response_oracle(*case)
    assert value == oracle_by_sparse_algebra(*case)[0]
    _assert_best_response(masses, value, *case)


def _seeded_cases():
    """(payoff, prior, grid): the seeded markets' oracle grids at m = 101 and 201."""
    grids = [(eq, oracle_grid(eq, m)) for eq in _seeded_markets() for m in (101, 201)]
    return [(payoff_u(eq, grid), eq.prior, grid) for eq, grid in grids]


def _reference_cases():
    """(payoff, prior, grid): the seeded markets' oracle grids, the narrow-cell
    grids, the one-ulp market, and the jittered grids."""
    cases = _seeded_cases()
    uniform = UniformPrior()
    for eps in _NARROW_EPS:
        u, grid = _narrow_cells(eps)
        cases.append((u, uniform, grid))
    eq = solve_endog(uniform, 10, 0.65, 0.15)
    grid = oracle_grid(eq, 201)
    cases.append((payoff_u(eq, grid), uniform, grid))
    return cases + _jittered_cases()


def _jittered_cases():
    """(payoff, prior, grid) on 50 jittered grids, a third of them with
    chains of narrow cells, under payoffs with a jump."""
    cases = []
    rng = np.random.default_rng(13)
    for i in range(50):
        m = int(rng.integers(101, 402))
        grid = np.linspace(0.0, 1.0, m)
        grid[1:-1] += rng.uniform(-0.375, 0.375, m - 2) / (m - 1)
        if i % 3 == 0:
            starts = rng.uniform(0.05, 0.95, 3)
            widths = rng.choice([1e-15, 1e-12, 3e-9, 8e-8], size=3)
            grid = np.unique(np.concatenate(
                [grid] + [x + w * np.arange(1, 4) for x, w in zip(starts, widths)]
            ))
        knot = tuple(float(x) for x in rng.uniform(0.1, 0.9, 2))
        prior = [
            UniformPrior(),
            PowerPrior(a=float(rng.uniform(0.3, 5.0))),
            PiecewiseLinearPrior(((0.0, 0.0), knot, (1.0, 1.0))),
        ][i % 3]
        u = np.interp(grid, np.linspace(0.0, 1.0, 5), rng.uniform(0.0, 1.0, 5))
        cases.append((u + (grid >= rng.uniform(0.2, 0.8)), prior, grid))
    return cases


def test_oracle_lp_equals_the_sparse_algebra_reference(monkeypatch):
    # HiGHS gets exactly the arrays that linprog builds from the
    # scipy.sparse assembly: the constraint matrix in CSC order, the
    # objective, the right-hand sides and the bounds; the value and the
    # masses agree to the bit, and the masses are a best response that pays
    # it.  Every LP solves, on the grids with chains of narrow cells too
    # (HiGHS stopped with "Not Set" on 5 of them when the LP's rows carried
    # 1/h), and on grids of 2 and 3 points and a payoff of signed zeros,
    # whose cost is -0.0 or 0.0 by the order of its sums
    seen = []

    class Recorded(verify._Highs):
        def passModel(self, *args):
            cost, col_lower, col_upper, row_lower, row_upper, start, index, value = args[6:14]
            seen.append([start, index, value, cost, row_lower, row_upper, col_lower, col_upper])
            return super().passModel(*args)

    def recorded(c, **kwargs):
        a = sparse.csc_array(sparse.vstack([kwargs["A_ub"], kwargs["A_eq"]]))
        lower, upper = kwargs["bounds"].T
        seen.append([
            a.indptr, a.indices, a.data, c,
            np.concatenate([np.full(len(kwargs["b_ub"]), -np.inf), kwargs["b_eq"]]),
            np.concatenate([kwargs["b_ub"], kwargs["b_eq"]]), lower, upper,
        ])
        return optimize.linprog(c, **kwargs)

    monkeypatch.setattr(verify, "_Highs", Recorded)
    monkeypatch.setattr(reference, "linprog", recorded)
    cases = _reference_cases()
    assert len(cases) == 28 + 6 + 1 + 50
    for grid in ([0.0, 1.0], [0.0, 0.4, 1.0], [0.2, 0.3, 0.9]):
        grid = np.array(grid)
        cases.append((1.0 * (grid >= 0.35) + 0.2 * grid**2, PowerPrior(a=2.0), grid))
    cases.append((np.array([0.0, -0.0, 0.0, -0.0, 0.5, 1.0, 0.0, -0.0, 0.0]), UniformPrior(), np.linspace(0.0, 1.0, 9)))
    narrow = 0
    for u, prior, grid in cases:
        seen.clear()
        got, want = best_response_oracle(u, prior, grid), oracle_by_sparse_algebra(u, prior, grid)
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1])
        _assert_best_response(got[1], got[0], u, prior, grid)
        new, old = seen
        for x, y in zip(new, old):
            assert np.array_equal(x, y)
        if np.min(np.diff(grid)) < 1e-7:
            assert got[0] == pytest.approx(_dense_oracle(u, prior, grid), abs=1e-9)
            narrow += 1
    assert narrow >= 20


def test_oracle_reports_a_rejected_model(monkeypatch):
    # a model HiGHS rejects is a typed failure that says so (run() would
    # solve the model the solver held instead: a new solver's is empty,
    # with status "Empty"), and the next call must solve to linprog's bits
    reject = []

    class Rejecting(verify._Highs):
        def passModel(self, *args):
            if reject:
                reject.clear()
                # an integrality type HiGHS does not know, one per column
                args = args[:-1] + (np.full(args[0], 7, np.int32),)
            return super().passModel(*args)

    monkeypatch.setattr(verify, "_Highs", Rejecting)
    # two grids of 104 points, so that a model kept from the first call
    # would give a solution of the second's size
    first, _, second = _seeded_cases()[:3]
    assert len(first[2]) == len(second[2])
    best_response_oracle(*first)
    reject.append(True)
    with pytest.raises(ValidationFailureError) as exc:
        best_response_oracle(*second)
    assert exc.value.invariant == "oracle-lp"
    assert "rejected" in str(exc.value)
    value, masses = best_response_oracle(*second)
    assert value == oracle_by_sparse_algebra(*second)[0]
    _assert_best_response(masses, value, *second)


def test_oracle_reports_a_rejected_starting_basis(monkeypatch, uniform):
    # a starting basis HiGHS rejects is a typed failure, not a cold solve;
    # the next call solves as before.  On this market the pooling vertex is
    # not optimal at m = 201 (phi's slope increment is -4.7e-10 at the grid
    # point below v_L*), so oracle_gap hands HiGHS its basis, from which it
    # pivots once
    eq = solve_endog(uniform, 2, 0.17589106877949487, 0.1454499384425067)
    reject = []

    class Rejecting(verify._Highs):
        def setBasis(self, basis):
            if reject:
                reject.clear()
                basis.col_status = basis.col_status[:-1]  # one status short
            return super().setBasis(basis)

    monkeypatch.setattr(verify, "_Highs", Rejecting)
    want = oracle_gap(eq, 201)
    assert want["lp_iterations"] == 1
    reject.append(True)
    with pytest.raises(ValidationFailureError) as exc:
        oracle_gap(eq, 201)
    assert exc.value.invariant == "oracle-lp"
    assert "rejected the starting basis" in str(exc.value)
    assert oracle_gap(eq, 201) == want


def test_every_oracle_lp_runs_on_a_solver_of_its_own(monkeypatch):
    # no HiGHS instance outlives its call: each LP gets a new one, given
    # the settings before its model
    made = []

    class Counted(verify._Highs):
        def passModel(self, *args):
            made.append((self, self.getOptionValue("presolve")[1]))
            return super().passModel(*args)

    monkeypatch.setattr(verify, "_Highs", Counted)
    for case in _seeded_cases()[:3]:
        best_response_oracle(*case)
    assert len({id(highs) for highs, _ in made}) == len(made) == 3
    assert all(presolve == "off" for _, presolve in made)


def test_oracle_threads_each_keep_their_own_solver():
    # four threads on two cores, each solving the seeded grids in its own
    # order with frequent thread switches: a solver shared between threads
    # would solve one thread's model for another
    cases = _seeded_cases()
    serial = [best_response_oracle(*case) for case in cases]
    barrier = threading.Barrier(4)
    results = [None] * 4

    def work(k):
        order = range(len(cases)) if k % 2 == 0 else reversed(range(len(cases)))
        barrier.wait(timeout=60)
        results[k] = {i: best_response_oracle(*cases[i]) for i in order}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for got in results:
        assert sorted(got) == list(range(len(cases)))
        for i, (value, masses) in got.items():
            assert value == serial[i][0]
            assert np.array_equal(masses, serial[i][1])


def test_oracle_gap_reports_the_lp_size(monkeypatch):
    # the size is the LP's whether or not HiGHS runs; the iterations are
    # HiGHS's from the pooling basis, with the closed form off
    results = []

    def recorded(c, **kwargs):
        results.append((kwargs, optimize.linprog(c, **kwargs)))
        return results[-1][1]

    monkeypatch.setattr(reference, "linprog", recorded)
    warm = cold = 0
    for eq in _seeded_markets():
        results.clear()
        gap = oracle_gap(eq, 201)
        grid = oracle_grid(eq, 201)
        u = payoff_u(eq, grid)
        want, _ = oracle_by_sparse_algebra(u, eq.prior, grid)
        ((kwargs, res),) = results
        assert gap["lp_nonzeros"] == kwargs["A_ub"].nnz + kwargs["A_eq"].nnz
        # the mass, chain and mean rows: O(m), not m^2
        assert gap["lp_nonzeros"] == 6 * gap["m"] - 5
        assert abs(gap["oracle_value"] - want) <= 1e-12
        # the thread's next model starts cold again, at linprog's count
        assert verify._solve_oracle(u, eq.prior, grid)[3] == res.nit
        with monkeypatch.context() as patch:
            _closed_form_off(patch)
            warm += oracle_gap(eq, 201)["lp_iterations"]
        cold += res.nit
    # the pooling basis at least halves the simplex iterations
    assert 2 * warm <= cold


@pytest.mark.parametrize("m", [101, 201, 801])
def test_oracle_gap_agrees_with_the_cold_oracle(m):
    # from the pooling vertex (in closed form, or HiGHS from its basis) and
    # from the slack basis, the oracle values of the seeded markets, and of
    # the markets moved off them, agree to 1e-12, and no verdict under the
    # CLI's bound moves
    for eq in _seeded_and_perturbed():
        gap = oracle_gap(eq, m)
        grid = oracle_grid(eq, m)
        cold, _ = best_response_oracle(payoff_u(eq, grid), eq.prior, grid)
        assert abs(gap["oracle_value"] - cold) <= 1e-12
        bound = ORACLE_GAP_COEFF / gap["m"]
        assert (gap["gap"] <= bound) == (cold - gap["played_value"] <= bound)


# uniform n = 6 markets at s next to mu, whose pooled stretch [0, v_H*]
# holds one grid point inside, r*: a basis with the mass of the stretch at
# its two ends (one of them 0, where the multiplier exceeds the payoff)
# made HiGHS stop with "Not Set" on each
_ONE_POINT_POOLS = [
    (0.287114068990316, 0.49999923090694104),
    (0.4779469064781219, 0.4997848570900267),
    (0.3122172731171152, 0.49999932226776217),
]


@pytest.mark.parametrize("alpha, s", _ONE_POINT_POOLS)
def test_one_point_pools_certify_through_the_oracle(uniform, alpha, s):
    eq = solve_endog(uniform, 6, alpha, s)
    assert check_dm_conditions(eq).passed
    for m in (201, 801):
        grid = oracle_grid(eq, m)
        assert eq.v_l_star == 0.0 and grid[1] == eq.r_star and grid[2] == eq.v_h_star
        gap = oracle_gap(eq, m)
        assert -1e-12 <= gap["gap"] <= ORACLE_GAP_COEFF / gap["m"]


def test_the_pooling_basis_is_the_optimum_on_a_seeded_market(monkeypatch, eq_power):
    # a disclosing power(2) market: the basis HiGHS starts from is optimal
    assert eq_power.v_l_star > 0.0 and eq_power.v_h_star < 1.0
    _closed_form_off(monkeypatch)
    for m in (201, 801, 4001):
        assert oracle_gap(eq_power, m)["lp_iterations"] == 0


def test_a_market_off_its_equilibrium_starts_cold(power2, eq_power):
    # v_L* moved by 0.01 tears the multiplier's seam: the line of the
    # pooling vertex's duals fails both its checks, and HiGHS starts from
    # the slack basis, as best_response_oracle does, to the same value and count
    eq = assemble_market(power2, eq_power.n, eq_power.alpha, eq_power.v_l_star + 0.01, eq_power.r_star, eq_power.s)
    grid = oracle_grid(eq, 201)
    u = payoff_u(eq, grid)
    masses, basis = verify._pooling_vertex(grid, np.diff(grid), discretize_prior(power2, grid), u, _pool(eq))
    assert masses is None and basis is None
    value, _, _, iterations = verify._solve_oracle(u, power2, grid)
    gap = oracle_gap(eq, 201)
    assert (gap["oracle_value"], gap["lp_iterations"]) == (value, iterations)
    assert not check_dm_conditions(eq).passed


def test_the_closed_form_value_equals_the_dense_oracle():
    # every value the closed form gives is the dense LP's to 1e-12: on the
    # seeded and moved markets at m = 101 and 201, and at m = 801 on one
    # seeded market per prior family (a dense LP of 801 points takes 1-2 s)
    accepted = 0
    at_801 = [_seeded_markets()[k] for k in (0, 6, 8)]
    for m, markets in ((101, _seeded_and_perturbed()), (201, _seeded_and_perturbed()), (801, at_801)):
        for eq in markets:
            grid = oracle_grid(eq, m)
            u = payoff_u(eq, grid)
            if _accepts(eq, grid, u):
                gap = oracle_gap(eq, m)
                assert (gap["lp_iterations"], gap["lp_nonzeros"]) == (0, 6 * gap["m"] - 5)
                assert abs(gap["oracle_value"] - _dense_oracle(u, eq.prior, grid)) <= 1e-12
                accepted += 1
    assert accepted >= 80


@pytest.mark.parametrize("where", ["above the line on the stretch", "below the stretch"])
def test_the_closed_form_declines_a_vertex_off_the_optimum(monkeypatch, eq_power, where):
    # the payoff raised by 1e-9 at a contact point of the stretch, where the
    # line lay on it; or raised by 1e-8 at v = 0.005, where phi is flattest
    # below v_L* (its slope increment is 2.3e-6 there, so a change of 1e-9
    # anywhere below v_L*, which moves an increment by 4.2e-7 at most, leaves
    # the vertex optimal), which turns phi concave.  The pooling vertex is
    # not optimal, and the value is HiGHS's from its basis, the cold
    # solve's to 1e-12
    grid = oracle_grid(eq_power, 201)
    u = payoff_u(eq_power, grid)
    _, i_a, _, _ = np.searchsorted(grid, _pool(eq_power))
    assert _accepts(eq_power, grid, u)
    if where == "below the stretch":
        assert grid[1] == 0.005 and grid[1] < eq_power.v_l_star
        u[1] += 1e-8
    else:
        assert abs(u[i_a + 2] - multiplier_phi(eq_power, grid[i_a + 2])) <= 1e-12
        u[i_a + 2] += 1e-9
    assert not _accepts(eq_power, grid, u)
    monkeypatch.setattr(verify, "payoff_u", lambda eq, points: u)
    gap = oracle_gap(eq_power, 201)
    with monkeypatch.context() as patch:
        _closed_form_off(patch)
        assert oracle_gap(eq_power, 201) == gap
    assert gap["lp_iterations"] >= 1
    assert abs(gap["oracle_value"] - best_response_oracle(u, eq_power.prior, grid)[0]) <= 1e-12


def test_an_optimal_pooling_vertex_runs_no_lp(monkeypatch, uniform, eq_power):
    # where the closed form accepts, oracle_gap never runs HiGHS
    class Failing(verify._Highs):
        def run(self):
            raise AssertionError("HiGHS ran")

    monkeypatch.setattr(verify, "_Highs", Failing)
    one_ulp = solve_endog(uniform, 19, 0.4, 0.15)
    for eq, m in [(eq_power, 201), (eq_power, 801), (eq_power, 4001), (one_ulp, 4001)]:
        gap = oracle_gap(eq, m)
        assert gap["lp_iterations"] == 0
        assert 0.0 <= gap["gap"] <= ORACLE_GAP_COEFF / gap["m"]


def test_the_breakpoint_grids_need_no_sort():
    # the DM and oracle grids and the simulator's bin edges insert the
    # breakpoints into their base, and the support grid's pieces come in
    # order: each is np.unique of its points, on every seeded and moved market
    for eq in _seeded_and_perturbed():
        breaks = [eq.v_l_star, eq.r_star, eq.v_h_star, eq.v_t_star]
        want = np.unique(np.clip(np.concatenate([np.linspace(0.0, 1.0, 1001), breaks]), 0.0, 1.0))
        assert verify._dm_grid(eq).tobytes() == want.tobytes()
        assert _support_grid(eq).tobytes() == reference._support_grid(eq, 1001).tobytes()
        for m in (101, 201, 801):
            want = np.unique(np.concatenate([np.linspace(0.0, 1.0, m), breaks]))
            assert oracle_grid(eq, m).tobytes() == want.tobytes()
        inner = np.array([x for x in breaks if 0.0 < x < 1.0])
        for bins in (10, 50, 200):
            # the base edges kept: both ends, and every edge not crowding a breakpoint
            base = np.linspace(0.0, 1.0, bins + 1)
            kept = (np.abs(base[:, None] - inner) >= 0.25 / bins).all(axis=1) | (base == 0.0) | (base == 1.0)
            want = np.unique(np.concatenate([base[kept], inner]))
            assert montecarlo._bin_edges(bins, eq).tobytes() == want.tobytes()
    # repeats, base points, points past either end and both signed zeros
    base = np.linspace(0.0, 1.0, 11)
    points = [0.5, 0.35, 0.35, -0.0, 0.0, 1e-300, -0.25, 1.0, 1.5, base[3]]
    got = insert_points(base, base.tolist(), points)
    assert np.array_equal(got, np.unique(np.concatenate([base, points])))
    assert not np.signbit(got[got == 0.0]).any()  # the base keeps its +0.0


# ---------------------------------------------------------------------------
# deviation gains
# ---------------------------------------------------------------------------

def test_deviation_gain_zero_for_self(eq_uniform_small):
    assert deviation_gain(eq_uniform_small, eq_uniform_small.g) == pytest.approx(
        0.0, abs=1e-10
    )


def test_deviation_gain_nonpositive(eq_uniform_small, eq_power):
    for eq in (eq_uniform_small, eq_power):
        f = full_disclosure_distribution(eq.prior)
        assert deviation_gain(eq, f) <= 1e-8
        pm = point_mass(eq.prior, eq.prior.mean())
        assert deviation_gain(eq, pm) <= 1e-8


def test_deviation_gain_rejects_non_mpc(eq_uniform_small):
    with pytest.raises(ValidationFailureError) as exc:
        deviation_gain(eq_uniform_small, point_mass(eq_uniform_small.prior, 0.9))
    assert exc.value.invariant == "deviation-not-mpc"


def test_expected_payoff_under_stieltjes_oracle(eq_uniform_small, eq_power):
    # brute-force oracle: midpoint Stieltjes sums of u against the deviation
    # cdf, on a grid refined around every breakpoint of both objects
    from disclose_eq.candidate import build_candidate, build_g

    cases = [
        (eq_uniform_small, build_g(build_candidate(eq_uniform_small.prior, 2, 0.05, 0.2))),
        (eq_uniform_small, build_g(build_candidate(eq_uniform_small.prior, 2, 0.35, 0.6))),
        (eq_power, build_g(build_candidate(eq_power.prior, 3, 0.1, 0.4))),
    ]
    for eq, g_dev in cases:
        cuts = sorted(
            set(g_dev.breakpoints())
            | {eq.v_l_star, eq.r_star, eq.v_h_star, eq.v_t_star}
        )
        oracle = 0.0
        for lo, hi in zip(cuts, cuts[1:]):
            if hi - lo < 1e-12:
                continue
            grid = np.linspace(lo, hi, 20_001)
            mids = 0.5 * (grid[1:] + grid[:-1])
            dmass = np.diff(np.asarray(g_dev.cdf(grid)))
            oracle += float(np.sum(np.asarray(payoff_u(eq, mids)) * dmass))
        assert expected_payoff_under(eq, g_dev) == pytest.approx(oracle, abs=2e-6)


# sha256 (first 16 hex digits) of the repr of each library output over the
# pinned markets: the seeded markets (three prior families, both regimes,
# two non-equilibrium candidates) and the alpha = 0 boundary market; and of
# two search-cost scans
PINNED_LIBRARY_OUTPUTS = {
    "to_json_dict": "159121f8453cfea3",
    "check_dm_conditions": "f29f427f9abb3a3a",
    "payoff_identity_gap": "95da83e5b11a6c56",
    "integral_phi_dF": "084ef9270b2d70d0",
    "integral_phi_dG": "00097796b84339e7",
    "oracle_gap": "78b51823e154c54f",
    "cs_savvy": "fd6a5173b9308d4d",
    "cs_inexperienced": "f45c08defd7b5064",
    "expected_payoff_under": "328cd4a8fab3d3f9",
    "informativeness_compare": "53d871b9b8798bcf",
    "threshold_scan": "2ac880db3d7f9668",
}


def test_library_outputs_are_pinned(uniform, power2, eq_uniform_small, eq_power):
    from disclose_eq.candidate import build_candidate, build_g
    from disclose_eq.posterior import informativeness_compare
    from disclose_eq.welfare import cs_inexperienced, cs_savvy, threshold_scan

    markets = _seeded_markets() + [solve_endog(uniform, 2, 0.0, 0.1)]
    # each market against its own posterior, then affine-power deviations:
    # the power one reaches the quadrature of a payoff cell
    deviations = [(eq, eq.g) for eq in markets] + [
        (eq_uniform_small, build_g(build_candidate(uniform, 2, 0.35, 0.6))),
        (eq_power, build_g(build_candidate(power2, 3, 0.1, 0.4))),
    ]
    costs = np.linspace(0.02, 0.45, 12).tolist()
    outputs = {
        "to_json_dict": [eq.to_json_dict() for eq in markets],
        "check_dm_conditions": [check_dm_conditions(eq) for eq in markets],
        "payoff_identity_gap": [payoff_identity_gap(eq) for eq in markets],
        "integral_phi_dF": [integral_phi_dF(eq) for eq in markets],
        "integral_phi_dG": [integral_phi_dG(eq) for eq in markets],
        "oracle_gap": [oracle_gap(eq, 201) for eq in markets],
        "cs_savvy": [cs_savvy(eq.g, eq.n) for eq in markets],
        "cs_inexperienced": [cs_inexperienced(eq) for eq in markets],
        "expected_payoff_under": [expected_payoff_under(eq, g) for eq, g in deviations],
        # each posterior against its prior, then neighbouring markets on one prior
        "informativeness_compare": [
            informativeness_compare(eq.g, full_disclosure_distribution(eq.prior)) for eq in markets
        ] + [informativeness_compare(a.g, b.g) for a, b in zip(markets, markets[1:]) if a.prior == b.prior],
        "threshold_scan": [
            threshold_scan(uniform, 2, 0.5, costs),
            threshold_scan(power2, 3, 0.5, costs),
        ],
    }
    digests = {
        name: hashlib.sha256(repr(values).encode()).hexdigest()[:16]
        for name, values in outputs.items()
    }
    assert digests == PINNED_LIBRARY_OUTPUTS


def _pool_around_r_uniform(prior, r, delta):
    """Pool [r - delta, r + delta] (conditional mean r) onto an atom at r."""
    lo, hi = r - delta, r + delta
    mass = float(prior.cdf(hi) - prior.cdf(lo))
    return PosteriorDistribution(
        prior=prior,
        segments=(
            FullDisclosure(0.0, lo),
            Flat(lo, r, float(prior.cdf(lo))),
            Flat(r, hi, float(prior.cdf(lo)) + mass),
            FullDisclosure(hi, 1.0),
        ),
        atom=(r, mass),
    )


def test_pool_deviation_beats_full_disclosure(uniform):
    # against full-disclosure opponents, pooling around the reservation
    # value is profitable: the jump makes the auxiliary chord concave
    from disclose_eq.endogenous import full_disclosure_market, r_full_info

    alpha, s = 0.65, 0.1
    market = full_disclosure_market(uniform, 2, alpha, s, r_full_info(uniform, s))
    r = market.r_star
    g_dev = _pool_around_r_uniform(uniform, r, 0.05)
    base = expected_payoff_under(market, market.g)
    dev = expected_payoff_under(market, g_dev)
    assert dev > base + 1e-4


# ---------------------------------------------------------------------------
# cost heterogeneity
# ---------------------------------------------------------------------------

def test_chord_slope_two_point_example(uniform):
    costs = DiscreteCosts(points=((0.1, 0.5), (0.2, 0.5)))
    # mu = 0.5, r_1 = 0.4: candidates are K(0.5)/0.4 = 2.5 at v = 0 and
    # 0.5/(0.2 - 0.1) = 5 just past the drop at v = 0.3
    assert chord_slope_infimum(costs, 0.5, 0.4) == pytest.approx(2.5, abs=1e-12)
    tilted = DiscreteCosts(points=((0.1, 0.1), (0.35, 0.9)))
    # the drop candidate 0.1/(0.35-0.1) = 0.4 undercuts 1/r_1 = 2.5
    assert chord_slope_infimum(tilted, 0.5, 0.4) == pytest.approx(0.4, abs=1e-12)


def test_chord_slope_continuous_limit(uniform):
    costs = ContinuousCosts(knots=((0.05, 0.0), (0.2, 1.0)))
    b = chord_slope_infimum(costs, 0.5, 0.45)
    # density at the lowest cost is 1/0.15; the limit candidate binds here
    assert b <= 1.0 / 0.15 + 1e-12
    assert b > 0.0


def test_hetero_two_point(uniform):
    costs = DiscreteCosts(points=((0.1, 0.5), (0.2, 0.5)))
    n, report = hetero_first_holding_n(uniform, 0.5, costs)
    assert report.holds
    assert report.phi_vs_uk_min_gap >= -1e-9
    assert n == 32  # doubling scan: 2..16 sit below the concealment threshold
    with pytest.raises(ValidationFailureError):
        hetero_check(uniform, 4, 0.5, costs)  # below the threshold


def test_hetero_scan_propagates_real_failures(uniform, monkeypatch):
    """Only the concealment precondition means "keep doubling"; any other
    invariant failure reaches the caller under its own name."""
    calls = []

    def failing_check(prior, n, alpha, costs):
        calls.append(n)
        if n == 2:
            raise ValidationFailureError("hetero-precondition", "below the threshold")
        raise ValidationFailureError("pooled-slope", "pooled slope 0.0")

    monkeypatch.setattr(verify, "hetero_check", failing_check)
    costs = DiscreteCosts(points=((0.1, 0.5), (0.2, 0.5)))
    with pytest.raises(ValidationFailureError) as exc:
        hetero_first_holding_n(uniform, 0.5, costs)
    assert exc.value.invariant == "pooled-slope"
    assert calls == [2, 4]


@pytest.mark.parametrize("costs, first_n", [
    (DiscreteCosts(points=((0.05, 0.5), (0.1, 0.5))), 64),
    (ContinuousCosts(knots=((0.02, 0.0), (0.08, 1.0))), 256),
])
def test_hetero_scan_skips_sizes_outside_the_domain(costs, first_n):
    # power(0.3) has F**(n-1) convex only from n = 5 (0.3 (n - 1) >= 1); the
    # scan passes over 2 and 4 as n_lower_bar does, instead of failing there
    prior = PowerPrior(0.3)
    assert [prior.check_convexity(n) for n in (2, 4, 8)] == [False, False, True]
    n, report = hetero_first_holding_n(prior, 0.5, costs)
    assert (n, report.holds) == (first_n, True)


def test_hetero_scan_on_a_prior_convex_at_no_size_is_a_domain_error():
    # power(1e-7) has F**(n-1) convex only from n = 10**7 + 1, past the
    # scan's cap: no size is checked, and the scan says so as n_lower_bar does
    from disclose_eq.endogenous import n_lower_bar

    prior = PowerPrior(1e-7)
    costs = DiscreteCosts(points=((1e-10, 0.5), (2e-10, 0.5)))
    with pytest.raises(DomainError) as want:
        n_lower_bar(prior, 0.5, 1e-10)
    with pytest.raises(DomainError) as exc:
        hetero_first_holding_n(prior, 0.5, costs)
    assert str(exc.value) == str(want.value)
    assert "convexity" in str(exc.value)


def test_hetero_continuous(uniform):
    costs = ContinuousCosts(knots=((0.05, 0.0), (0.2, 1.0)))
    n, report = hetero_first_holding_n(uniform, 0.5, costs)
    assert report.holds
    assert report.phi_vs_uk_min_gap >= -1e-9


def test_hetero_single_point_reduces_to_origin_condition(uniform):
    costs = DiscreteCosts(points=((0.1, 1.0),))
    report = hetero_check(uniform, 32, 0.5, costs)
    assert report.b_star == pytest.approx(1.0 / report.r_1, abs=1e-12)
    # sufficiency then says exactly: the multiplier stays positive at zero
    eq = solve_endog(uniform, 32, 0.5, 0.1)
    phi0 = float(multiplier_phi(eq, 0.0))
    assert report.holds == (phi0 > 0.0)


def test_hetero_rejects_bad_support(uniform):
    from disclose_eq.errors import DomainError

    with pytest.raises(DomainError):
        hetero_check(uniform, 32, 0.5, DiscreteCosts(points=((0.2, 0.5), (0.6, 0.5))))
    # alpha = 0 would fail the concealment precondition, alpha = 1 the solver
    for alpha in (0.0, 1.0):
        with pytest.raises(DomainError, match=r"alpha in \(0, 1\)"):
            hetero_check(uniform, 32, alpha, DiscreteCosts(points=((0.1, 0.5), (0.2, 0.5))))
