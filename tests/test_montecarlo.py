import dataclasses
import functools
import hashlib
import json
import math
import mmap
import os
import pathlib
import subprocess
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad

from disclose_eq import (
    PiecewiseLinearPrior,
    PowerPrior,
    UniformPrior,
    full_disclosure_distribution,
    montecarlo,
)
from disclose_eq.costs import ContinuousCosts, DiscreteCosts
from disclose_eq.endogenous import payoff_u, solve_endog
from disclose_eq.errors import DomainError, ValidationFailureError
from disclose_eq.montecarlo import (
    HeterogeneousCosts,
    SimConfig,
    SingleCost,
    reservation_for_cost,
    simulate_deviation,
    simulate_market,
    stop_quantile,
)
from disclose_eq.posterior import AffinePower, FullDisclosure, PosteriorDistribution
from disclose_eq.welfare import cs_inexperienced, cs_savvy
from reference import (
    bins_by_digitize,
    expected_payoff_under,
    reservation_by_halving,
    stop_rule_by_copyto,
    tally_by_copyto,
    visit_order_by_argsort,
)


def _z(x, mu, se):
    return abs(x - mu) / se


def test_sample_posterior_inverse(eq_uniform_small):
    eq = eq_uniform_small
    g = eq.g
    # the pooled branch inverts in closed form (flat prior, two firms)
    q = 0.5
    v = g.sample(q)
    expected = eq.r_star + (q - eq.v_l_star) / eq.beta_star
    assert v == pytest.approx(expected, abs=1e-12)
    # low quantiles come from the disclosed stretch
    v = g.sample(0.1)
    assert v == pytest.approx(0.1, abs=1e-12)


def test_sample_posterior_kolmogorov(eq_uniform_small):
    g = eq_uniform_small.g
    rng = np.random.Generator(np.random.Philox(key=np.array([7, 0], dtype=np.uint64)))
    u = rng.random(200_000)
    draws = np.sort(np.asarray(g.sample(u)))
    emp = np.arange(1, len(draws) + 1) / len(draws)
    dist = np.max(np.abs(emp - np.asarray(g.cdf(draws))))
    # Dvoretzky-Kiefer-Wolfowitz at well beyond the 99% level for this n
    assert dist < 0.0045


def test_reservation_for_cost(eq_uniform_small):
    eq = eq_uniform_small
    assert reservation_for_cost(eq.g, eq.s) == pytest.approx(eq.r_star, abs=1e-9)
    # support entirely above the reserve: the whole mean is available
    large = solve_endog(eq.prior, 19, 0.5, 0.1)
    for s2 in (0.15, 0.3):
        assert reservation_for_cost(large.g, s2) == pytest.approx(0.5 - s2, abs=1e-9)
    # s -> 0 pushes the reserve to the top of the support
    assert reservation_for_cost(eq.g, 1e-8) == pytest.approx(eq.v_t_star, abs=1e-3)
    with pytest.raises(DomainError):
        reservation_for_cost(eq.g, 0.7)


@pytest.mark.parametrize("market", ["eq_uniform_small", "eq_uniform_large", "eq_power"])
def test_reservation_for_cost_array_equals_scalar_calls(request, market):
    eq = request.getfixturevalue(market)
    mean = eq.g.mean()
    costs = np.concatenate([np.linspace(1e-6, mean - 1e-6, 97), [eq.s]])
    r = reservation_for_cost(eq.g, costs)
    assert r.tolist() == [reservation_for_cost(eq.g, float(c)) for c in costs]
    assert np.max(np.abs(eq.g.excess_above(r) - costs)) <= 1e-12


def test_reservation_for_cost_checks_every_cost(eq_uniform_small):
    g = eq_uniform_small.g
    for bad in (0.0, -0.1, g.mean(), 0.7):
        with pytest.raises(DomainError):
            reservation_for_cost(g, np.array([0.1, bad, 0.2]))


@functools.cache
def _stress_market(name: str):
    """Markets whose stop quantiles are hard to bracket: a steep power prior,
    a piecewise prior with a kink, and a large market."""
    prior, n, alpha, s = {
        "power7": (PowerPrior(a=7.0), 3, 0.5, 0.1),
        "piecewise": (PiecewiseLinearPrior(knots=((0.0, 0.0), (0.5, 0.25), (1.0, 1.0))), 7, 0.5, 0.1),
        "uniform-60": (UniformPrior(), 60, 0.5, 0.05),
    }[name]
    return solve_endog(prior, n, alpha, s)


_HARD_MARKETS = ["eq_uniform_small", "eq_uniform_large", "eq_power", "power7", "piecewise", "uniform-60"]


def _hard_costs(g) -> np.ndarray:
    """Costs in (0, E_G[v]) that test the halvings' edges: tiny, within a
    tiny step of the mean, and equal to the excess at grid points (a zero
    residual there), with their neighbours."""
    mean = g.mean()
    cells = 1 << montecarlo._DEPTH
    on_grid = np.asarray(g.excess_above(np.arange(cells + 1) / cells))
    # a zero residual at halving 16, which ends a round once thousands of
    # brackets take one halving a round: points j / 2**16, j odd
    on_round = np.asarray(g.excess_above(np.arange(1, 1 << 16, 128) / (1 << 16)))
    tiny = np.geomspace(1e-15, 1e-3, 200)
    costs = np.concatenate([
        tiny, mean - tiny, np.linspace(0.0, mean, 1001),
        on_grid, np.nextafter(on_grid, 0.0), np.nextafter(on_grid, 1.0),
        on_round, np.nextafter(on_round, 0.0), np.nextafter(on_round, 1.0),
    ])
    return costs[(costs > 0.0) & (costs < mean)]


_HARD_SOLVES: dict = {}  # market: (g, costs, reservation_for_cost's values), shared by the next two tests


def _hard_solve(request, market: str) -> tuple:
    if market not in _HARD_SOLVES:
        g = (request.getfixturevalue(market) if market.startswith("eq_") else _stress_market(market)).g
        costs = _hard_costs(g)
        _HARD_SOLVES[market] = g, costs, reservation_for_cost(g, costs)
    return _HARD_SOLVES[market]


@pytest.mark.parametrize("market", _HARD_MARKETS)
def test_reservation_for_cost_equals_plain_halving_bitwise(request, market):
    g, costs, r = _hard_solve(request, market)
    assert np.array_equal(r, reservation_by_halving(g, costs))


@pytest.mark.parametrize("market", _HARD_MARKETS)
def test_reservation_for_cost_in_small_groups_equals_plain_halving_bitwise(request, market):
    # a zero residual at each of the 40 halvings, solved in groups of 1, 3
    # and 40 costs, whose rounds end at different halvings
    g = _hard_solve(request, market)[0]
    rng = np.random.default_rng(40)
    points = np.array([(2 * rng.integers(0, 1 << (d - 1)) + 1) / 2.0**d for d in range(1, 41)])
    hits = np.asarray(g.excess_above(points))
    costs = np.concatenate([hits, np.nextafter(hits, 0.0), np.nextafter(hits, 1.0)])
    costs = rng.permutation(costs[(costs > 0.0) & (costs < g.mean())])
    want = reservation_by_halving(g, costs)
    for size in (1, 3, 40):
        got = np.concatenate([reservation_for_cost(g, costs[i : i + size]) for i in range(0, len(costs), size)])
        assert np.array_equal(got, want), size


def test_reservation_for_cost_tables_stay_small(request, monkeypatch):
    # a round's table holds about _ROUND_POINTS points, or one per bracket
    # when there are more brackets: never a wide table per cost
    g, costs, r = _hard_solve(request, "power7")
    sizes, excess_above = [], PosteriorDistribution.excess_above
    monkeypatch.setattr(PosteriorDistribution, "excess_above", lambda self, x: sizes.append(np.size(x)) or excess_above(self, x))
    assert np.array_equal(reservation_for_cost(g, costs), r)
    assert len(sizes) <= 40 and max(sizes) < max(2 * montecarlo._ROUND_POINTS, len(costs))
    assert sum(sizes) <= 40 * len(costs)


@pytest.mark.parametrize("market", _HARD_MARKETS)
def test_stop_grid_cells_hold_the_reservation_value(request, market):
    g, costs, r = _hard_solve(request, market)
    assert montecarlo._stop_grid(g)[2]  # the excess falls along the grid: cells from the search
    lo, hi = montecarlo._cells(g, costs)
    cells = 1 << montecarlo._DEPTH
    assert np.all(lo / cells <= r) and np.all(r <= hi / cells)
    assert np.all((hi - lo == 1) | (lo == 0))


def test_cells_hold_the_halvings_on_a_grid_with_ties(eq_uniform_small, monkeypatch):
    # a falling excess with runs of equal values: the halvings may stop at
    # any point of the run that equals a cost
    g, cells = eq_uniform_small.g, 1 << montecarlo._DEPTH
    rng = np.random.default_rng(5)
    levels = np.linspace(0.01, 0.49, 40)
    excess = np.sort(rng.choice(levels, cells + 1))[::-1].copy()
    monkeypatch.setattr(montecarlo, "_stop_grid", lambda g: (excess, None, True))
    costs = np.concatenate([levels, rng.uniform(0.005, 0.495, 1000)])
    lo, hi = montecarlo._cells(g, costs)
    a, b = np.zeros(len(costs), dtype=np.intp), np.full(len(costs), cells)
    for _ in range(montecarlo._DEPTH):  # reservation_for_cost's first halvings on this grid
        mid = (a + b) >> 1
        a, b = np.where(excess[mid] >= costs, mid, a), np.where(excess[mid] > costs, b, mid)
    assert np.all((lo <= a) & (b <= hi))
    assert np.any((a == b) & (a < hi - 1))  # some halvings stopped below the cell's bottom point


def test_simulate_market_moments(eq_uniform_small):
    eq = eq_uniform_small
    cfg = SimConfig(consumers=300_000, seed=2024, cost_model=SingleCost(0.1), bins=40)
    rep = simulate_market(eq, cfg)
    assert _z(rep.eta_hat, eq.eta, rep.eta_se) < 3.0
    assert _z(rep.cs_savvy_hat, cs_savvy(eq.g, eq.n), rep.cs_savvy_se) < 3.0
    assert _z(rep.cs_inexperienced_hat, cs_inexperienced(eq), rep.cs_inexperienced_se) < 3.0
    assert sum(rep.firm_sale_shares) == pytest.approx(1.0, abs=1e-12)
    share_se = np.sqrt(0.5 * 0.5 / cfg.consumers)
    for share in rep.firm_sale_shares:
        assert _z(share, 0.5, share_se) < 3.0
    assert rep.multi_search_freq == pytest.approx(eq.v_l_star, abs=0.005)


def test_simulate_market_curve(eq_uniform_small):
    eq = eq_uniform_small
    cfg = SimConfig(consumers=300_000, seed=99, cost_model=SingleCost(0.1), bins=30)
    rep = simulate_market(eq, cfg)
    checked = 0
    for b in rep.curve:
        if b.visits >= 500 and b.se > 0:
            assert _z(b.u_hat, float(payoff_u(eq, b.v_mid)), b.se) < 4.0
            checked += 1
    assert checked >= 10
    # the reservation value is one of the bin edges
    edges = {b.bin_left for b in rep.curve} | {b.bin_right for b in rep.curve}
    assert any(abs(e - eq.r_star) < 1e-12 for e in edges)


def test_large_market_never_multi_searches(eq_uniform_large):
    cfg = SimConfig(consumers=100_000, seed=5, cost_model=SingleCost(0.1), bins=20)
    rep = simulate_market(eq_uniform_large, cfg)
    assert rep.multi_search_freq == 0.0  # exact: no mass below the reserve
    assert rep.visit_histogram[1] == rep.n_inexperienced
    assert rep.cs_inexperienced_hat == pytest.approx(0.4, abs=3 * rep.cs_inexperienced_se)


def test_reproducibility_and_parallel(eq_uniform_small):
    eq = eq_uniform_small
    base = dict(consumers=150_000, seed=77, cost_model=SingleCost(0.1), bins=25)
    a = simulate_market(eq, SimConfig(**base))
    b = simulate_market(eq, SimConfig(**base))
    assert json.dumps(a.to_json_dict(), sort_keys=True) == json.dumps(
        b.to_json_dict(), sort_keys=True
    )
    c = simulate_market(eq, SimConfig(**base, workers=4))
    assert json.dumps(a.to_json_dict(), sort_keys=True) == json.dumps(
        c.to_json_dict(), sort_keys=True
    )
    d = simulate_market(eq, SimConfig(**{**base, "seed": 78}))
    assert json.dumps(a.to_json_dict(), sort_keys=True) != json.dumps(
        d.to_json_dict(), sort_keys=True
    )


@pytest.mark.parametrize(
    "cost_model, solves",
    [
        (SingleCost(0.1), 1),
        (HeterogeneousCosts(DiscreteCosts(points=((0.05, 0.5), (0.1, 0.5)))), 1),
        (HeterogeneousCosts(ContinuousCosts(((0.05, 0.0), (0.2, 1.0)))), 3),
    ],
    ids=["single", "discrete", "continuous"],
)
def test_reservation_values_are_solved_once_when_costs_are_known(
    eq_uniform_small, monkeypatch, cost_model, solves
):
    calls = []

    def counted(g, s):
        calls.append(np.size(s))
        return reservation_for_cost(g, s)

    monkeypatch.setattr(montecarlo, "reservation_for_cost", counted)
    cfg = SimConfig(consumers=2 * (1 << 16) + 1000, seed=5, cost_model=cost_model, workers=2)
    simulate_market(eq_uniform_small, cfg)  # three blocks
    assert len(calls) == solves


def test_heterogeneous_costs_stop_first(eq_uniform_large):
    # under the concealment equilibrium at the lowest cost, every cost type
    # stops at the first visited firm
    costs = DiscreteCosts(points=((0.1, 0.5), (0.2, 0.5)))
    cfg = SimConfig(
        consumers=60_000, seed=11, cost_model=HeterogeneousCosts(costs), bins=20
    )
    rep = simulate_market(eq_uniform_large, cfg)
    assert rep.multi_search_freq == 0.0
    # surplus: one draw at mu - E[s] on average
    expected = 0.5 - 0.15
    assert rep.cs_inexperienced_hat == pytest.approx(
        expected, abs=4 * rep.cs_inexperienced_se
    )


@pytest.mark.parametrize(
    "points, u",
    [
        # the cumulative sum ends at 0.9999999999999999, Generator.random's largest value
        (((0.03, 0.7), (0.06, 0.2), (0.1, 0.1)), np.nextafter(1.0, 0.0)),
        # probabilities summing to 1 - 5e-13, which DiscreteCosts accepts
        (((0.05, 0.5), (0.1, 0.5 - 5e-13)), 1.0 - 1e-13),
    ],
    ids=["rounded", "accepted"],
)
def test_a_variate_above_the_cost_cdf_draws_the_last_cost(points, u):
    assert np.cumsum([p for _, p in points])[-1] <= u
    rng = SimpleNamespace(random=lambda size: np.full(size, u))
    costs, which = montecarlo._draw_costs(rng, HeterogeneousCosts(DiscreteCosts(points)), 4)
    assert which.tolist() == [len(points) - 1] * 4
    assert costs.tolist() == [points[-1][0]] * 4


def test_continuous_costs(eq_uniform_small):
    # every cost type searches up to its own reservation value
    eq = eq_uniform_small
    costs = ContinuousCosts(((0.05, 0.0), (0.2, 1.0)))
    base = dict(consumers=1 << 17, seed=404, cost_model=HeterogeneousCosts(costs), bins=25)
    rep = simulate_market(eq, SimConfig(**base))
    digest = json.dumps(rep.to_json_dict(), sort_keys=True)
    for again in (SimConfig(**base, workers=2), SimConfig(**base)):
        assert json.dumps(simulate_market(eq, again).to_json_dict(), sort_keys=True) == digest
    # a consumer searches past the first firm iff the first draw fails the stop
    # rule of that consumer's cost
    def q(c):
        return stop_quantile(eq.g, reservation_for_cost(eq.g, c))

    expected = quad(q, 0.05, 0.2, points=[eq.s])[0] / 0.15  # cost density is 1/0.15
    se = np.sqrt(expected * (1 - expected) / rep.n_inexperienced)
    assert _z(rep.multi_search_freq, expected, se) < 4.0


def test_simulate_deviation(eq_uniform_small):
    eq = eq_uniform_small
    cfg = SimConfig(consumers=150_000, seed=31, cost_model=SingleCost(0.1), bins=20)
    share, se = simulate_deviation(eq, 0, eq.g, cfg)
    assert _z(share, 0.5, se) < 3.0
    share_f, se_f = simulate_deviation(eq, 0, full_disclosure_distribution(eq.prior), cfg)
    assert share_f <= 0.5 + 3.0 * se_f  # equilibrium optimality
    from disclose_eq import point_mass

    with pytest.raises(ValidationFailureError) as exc:
        simulate_deviation(eq, 0, point_mass(eq.prior, 0.9), cfg)
    assert exc.value.invariant == "deviation-not-mpc"


@pytest.mark.parametrize("firm", [0, 3])
def test_deviation_to_an_equal_posterior_reproduces_the_market(uniform, firm):
    # a copy of the equilibrium posterior goes through the deviant path and
    # must draw exactly what the undisturbed market draws for that firm
    eq5 = solve_endog(uniform, 5, 0.5, 0.1)
    costs = DiscreteCosts(points=((0.05, 0.4), (0.15, 0.6)))
    cfg = SimConfig(consumers=20_000, seed=8, cost_model=HeterogeneousCosts(costs), bins=20)
    g_copy = dataclasses.replace(eq5.g)
    assert g_copy is not eq5.g
    share, _ = simulate_deviation(eq5, firm, g_copy, cfg)
    assert share == simulate_market(eq5, cfg).firm_sale_shares[firm]


@pytest.mark.parametrize(
    "costs",
    [
        ContinuousCosts(((0.05, 0.0), (0.7, 1.0))),
        DiscreteCosts(points=tuple((c, 0.01) for c in np.linspace(0.01, 0.6, 100))),
    ],
    ids=["continuous", "discrete-100"],
)
def test_costs_outside_the_posterior_mean_are_rejected(eq_uniform_small, costs):
    # E_G[v] = 0.5 on the uniform prior; the top cost reaches or passes it
    cfg = SimConfig(consumers=20_000, seed=3, cost_model=HeterogeneousCosts(costs), bins=20)
    with pytest.raises(DomainError):
        simulate_market(eq_uniform_small, cfg)


def test_point_mass_deviation_matches_analytic_gain(uniform):
    # two-firm counterfactual where everyone else discloses fully and one
    # firm deviates to the no-information signal: the simulated sale share
    # must line up with the analytic payoff route
    from disclose_eq import point_mass
    from disclose_eq.endogenous import full_disclosure_market, r_full_info

    alpha, s = 0.65, 0.2
    market = full_disclosure_market(uniform, 2, alpha, s, r_full_info(uniform, s))
    assert market.r_star < 0.5  # the pooled mean now stops the costly searcher
    g_dev = point_mass(uniform, 0.5)
    gain = expected_payoff_under(market, g_dev) - expected_payoff_under(market, market.g)
    assert gain > 1e-3  # deviating is strictly profitable here
    cfg = SimConfig(consumers=200_000, seed=271828, cost_model=SingleCost(s), bins=20)
    share, se = simulate_deviation(market, 0, g_dev, cfg)
    visit_prob = alpha * market.eta + (1.0 - alpha)
    expected_share = visit_prob * expected_payoff_under(market, g_dev)
    assert abs(share - expected_share) < 4.0 * se
    assert share > 0.5 + 3.0 * se  # the sign shows up in the sample


def test_first_max_breaks_ties_to_the_lowest_column():
    rng = np.random.default_rng(3)
    for n in (1, 2, 5):
        vals = rng.integers(0, 3, size=(500, n)).astype(float)
        b = montecarlo._Buffers(n, len(vals)).group(len(vals))
        assert np.array_equal(montecarlo._first_max(vals, b), np.argmax(vals, axis=1))


def _breakpoints(v_l, r, v_h, v_t):
    return SimpleNamespace(thresholds=(v_l, r, v_h, v_t))


@pytest.mark.parametrize(
    "bins, market",
    [
        (50, _breakpoints(0.30001, 0.30002, 0.30003, 0.30004)),  # four edges inside one cell
        (40, _breakpoints(0.1, 0.25, 0.5, 1.0)),  # every edge on a cell floor
        (333, _breakpoints(0.0005, 0.3, 0.7, 0.9999)),  # next to both ends
        (5000, _breakpoints(0.4, 0.40001, 0.6, 1.0)),  # more bins than 4096: more cells
        (10, "eq_uniform_small"),
        (50, "eq_power"),
    ],
    ids=["one-cell", "cell-floors", "near-ends", "fine", "uniform", "power"],
)
def test_bin_lookup_equals_digitize_bitwise(request, bins, market):
    eq = request.getfixturevalue(market) if isinstance(market, str) else market
    edges = montecarlo._bin_edges(bins, eq)
    binning = montecarlo._Binning(edges)
    near = np.concatenate([edges, np.nextafter(edges, -1.0), np.nextafter(edges, 2.0)])
    rng = np.random.default_rng(bins)
    vals = np.concatenate([near, [0.0, -0.0, 1.0], rng.random(3 * montecarlo._CHUNK)])
    for v in (vals, rng.permutation(vals).reshape(-1, 3)):
        got = binning.index(v, np.empty(v.shape, dtype=np.intp))
        assert got.shape == v.shape and got.dtype == np.intp
        assert np.array_equal(got, bins_by_digitize(v, edges))


def test_bin_edges_keep_both_ends_and_every_breakpoint(uniform):
    # v_L* = 0.002 lies within 0.25/bins of 0: the first bin must still start at 0
    eq = solve_endog(uniform, 2, 0.5, 0.249)
    assert 0.0 < eq.v_l_star < 0.25 / 50
    rep = simulate_market(eq, SimConfig(consumers=2_000, seed=1, cost_model=SingleCost(0.249)))
    assert rep.curve[0].bin_left == 0.0 and rep.curve[0].bin_right == eq.v_l_star
    assert rep.curve[-1].bin_right == 1.0
    assert sum(b.visits for b in rep.curve) == rep.n_savvy * 2 + sum(
        k * count for k, count in enumerate(rep.visit_histogram)
    )
    # breakpoints crowding each other or an end all stay edges
    edges = montecarlo._bin_edges(50, _breakpoints(0.001, 0.5, 0.9995, 0.9999))
    assert edges[:2].tolist() == [0.0, 0.001] and edges[-4:].tolist() == [0.98, 0.9995, 0.9999, 1.0]
    edges = montecarlo._bin_edges(50, _breakpoints(0.30001, 0.30002, 0.30003, 0.30004))
    assert edges[14:20].tolist() == [0.28, 0.30001, 0.30002, 0.30003, 0.30004, 0.32]


def test_config_validation():
    with pytest.raises(DomainError):
        SimConfig(consumers=0, seed=1, cost_model=SingleCost(0.1))
    with pytest.raises(DomainError):
        SimConfig(consumers=10, seed=1, cost_model=SingleCost(0.1), bins=5)
    with pytest.raises(DomainError):
        SimConfig(consumers=10, seed=1, cost_model=SingleCost(0.1), workers=0)
    # the caps fail before anything is allocated
    with pytest.raises(DomainError, match="consumers"):
        SimConfig(consumers=montecarlo.CONSUMERS_MAX + 1, seed=1, cost_model=SingleCost(0.1))
    with pytest.raises(DomainError, match="bins"):
        SimConfig(consumers=10, seed=1, cost_model=SingleCost(0.1), bins=montecarlo.BINS_MAX + 1)
    SimConfig(consumers=montecarlo.CONSUMERS_MAX, seed=1, cost_model=SingleCost(0.1), bins=montecarlo.BINS_MAX)


# sha256 of json.dumps(report.to_json_dict(), sort_keys=True), pinned from
# the simulator before its tallies were merged into one helper (the first
# three) and before its block kernel dropped the per-segment masks (the
# rest): any change to the draws, the stopping rule or the order of the
# float sums shows here.
_PINNED = {
    "single": "f34091c6d7364f28eb287b19bb6432a42ed101150af02d4d30f081b760ca684c",
    "discrete": "426cbdf2cfd43e4dffc8959f490a093ba879d232736a709638ca3f32bb008010",
    "continuous": "78bacc8edac6a26d0345b17f1d113724e8c1f75ece40438c241062a856005943",
    "power": "2c13f9d8b13d1bc9fef2d6064f665f930075e5dfdaf43be1d887e35ab1432a71",
    "piecewise": "93b2cdf1031105f39c420e6778f2a5c1dc3a0088f29fca69897150b01f6ea946",
    "uniform-12": "1721bbebe316cf47b03117e24a1f84d315248df4250283941c0f81ca6390de5b",
    # pinned before the blocks reused per-worker arrays: three blocks each
    "discrete-blocks": "ea2e6cc009c1f10106b73ba12b6e4beefa8299a2dffb2f594a10922e50a9b827",
    "continuous-blocks": "83867dfaa6773bbc70d1f9fe8fb4907b94d4d6fc24bcba8958660ee8cc2f5c5e",
}
_DISCRETE = HeterogeneousCosts(DiscreteCosts(points=((0.05, 0.5), (0.1, 0.5))))
_CONTINUOUS = HeterogeneousCosts(ContinuousCosts(knots=((0.05, 0.0), (0.2, 1.0))))


@pytest.mark.parametrize(
    "kind, prior, n, alpha, s, consumers, cost_model, workers",
    [
        ("single", "uniform", 2, 0.65, 0.1, 70_000, SingleCost(0.1), 1),  # two blocks, the second partial
        ("single", "uniform", 2, 0.65, 0.1, 70_000, SingleCost(0.1), 2),
        ("discrete", "uniform", 5, 0.5, 0.1, 20_000, _DISCRETE, 1),
        ("continuous", "uniform", 2, 0.65, 0.1, 3_000, _CONTINUOUS, 1),
        ("power", "power2", 3, 0.4, 0.15, 20_000, SingleCost(0.15), 1),  # the quantile takes a pow
        ("piecewise", "piecewise", 7, 0.5, 0.1, 20_000, SingleCost(0.1), 1),
        ("uniform-12", "uniform", 12, 0.5, 0.1, 3_000, _CONTINUOUS, 1),
        ("discrete-blocks", "uniform", 5, 0.5, 0.1, 150_000, _DISCRETE, 2),
        ("continuous-blocks", "uniform", 2, 0.65, 0.1, 140_000, _CONTINUOUS, 1),
    ],
    ids=["single", "single-parallel", "discrete", "continuous", "power", "piecewise", "uniform-12",
         "discrete-blocks", "continuous-blocks"],
)
def test_report_digests_are_pinned(request, kind, prior, n, alpha, s, consumers, cost_model, workers):
    eq = solve_endog(request.getfixturevalue(prior), n, alpha, s)
    cfg = SimConfig(consumers=consumers, seed=2024, cost_model=cost_model, workers=workers)
    report = simulate_market(eq, cfg).to_json_dict()
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert digest == _PINNED[kind]
    assert list(report) == [
        "consumers", "seed", "n_savvy", "n_inexperienced", "eta_hat", "eta_se",
        "cs_savvy_hat", "cs_savvy_se", "cs_inexperienced_hat", "cs_inexperienced_se",
        "firm_sale_shares", "visit_histogram", "multi_search_freq", "conditional_sale_curve",
    ]
    for key in ("firm_sale_shares", "visit_histogram", "conditional_sale_curve"):
        assert type(report[key]) is list
    curve_keys = ["bin_left", "bin_right", "v_mid", "u_hat", "se", "visits"]
    assert list(report["conditional_sale_curve"][0]) == curve_keys


def test_deviation_share_is_pinned(eq_uniform_small, eq_power, uniform, power2):
    cfg = SimConfig(consumers=70_000, seed=2024, cost_model=SingleCost(0.1), workers=2)
    share, se = simulate_deviation(eq_uniform_small, 1, full_disclosure_distribution(uniform), cfg)
    assert (share, se) == (0.4393, 0.0018758446097691568)
    # savvy consumers redraw the deviant from the strided column u[:, firm]
    cfg = SimConfig(consumers=20_000, seed=2024, cost_model=SingleCost(0.15))
    share, se = simulate_deviation(eq_power, 1, full_disclosure_distribution(power2), cfg)
    assert (share, se) == (0.32805, 0.003319888533520365)
    # three blocks on two workers, pinned before the blocks reused per-worker arrays
    cfg = SimConfig(consumers=140_000, seed=2024, cost_model=SingleCost(0.15), workers=2)
    share, se = simulate_deviation(eq_power, 1, full_disclosure_distribution(power2), cfg)
    assert (share, se) == (0.3235, 0.0012502792545210507)
    # drawn costs, pinned from the simulator that solved every drawn cost's
    # reservation value exactly
    cfg = SimConfig(consumers=70_000, seed=2024, cost_model=_CONTINUOUS, workers=2)
    share, se = simulate_deviation(eq_uniform_small, 1, full_disclosure_distribution(uniform), cfg)
    assert (share, se) == (0.4546428571428571, 0.0018820305508065209)
    cfg = SimConfig(consumers=20_000, seed=2024, cost_model=_CONTINUOUS)
    share, se = simulate_deviation(eq_power, 1, full_disclosure_distribution(power2), cfg)
    assert (share, se) == (0.3414, 0.0033529542197888716)
    # n = 5: the visit order comes from np.argsort, pinned from the simulator
    # that found the tracked firm's position by masked copies
    eq5 = solve_endog(uniform, 5, 0.5, 0.1)
    cfg = SimConfig(consumers=70_000, seed=2024, cost_model=_DISCRETE, workers=2)
    share, se = simulate_deviation(eq5, 3, full_disclosure_distribution(uniform), cfg)
    assert (share, se) == (0.20454285714285714, 0.001524584611973719)


# sha256 of the report and the deviation's (share, se) of the banded runs
# below, pinned from the simulator that bracketed each block's costs by
# replaying halvings on a grid
_PINNED_STRESS = {
    "power7": ("3a2d301583ab0f85a811c9a7947e1d5bb0b741a6f9ca49eb4184cd0daa17a9c9", (0.3446, 0.003360437769100925)),
    "piecewise": ("2b43b5aa92434b8a53ebf21de4cfd28f65254d4db2cd4ad5119a79788da6bd52", (0.1506, 0.002529027876477442)),
    "uniform-60": ("b4954142a3810c3422583e9571b47a5957976b552305aa5747524e6ec186e68d",
                   (0.01375, 0.0008234360175508477)),
}
# an infinite margin, or a grid whose excess is taken not to fall (every
# cell [0, 1]), sends every costly consumer through the exact solve
_FORCED = [(market, deviate, "margin") for market in _PINNED_STRESS for deviate in (False, True)] + [
    ("power7", deviate, "rising") for deviate in (False, True)
]


@pytest.mark.parametrize(
    "market, deviate, force", _FORCED,
    ids=[f"{m}-{'deviation' if d else 'market'}" + ("-rising" if f == "rising" else "") for m, d, f in _FORCED],
)
def test_stop_bands_decide_as_the_exact_solve(monkeypatch, market, deviate, force):
    eq = _stress_market(market)
    cfg = SimConfig(consumers=20_000, seed=2024, cost_model=_CONTINUOUS)

    def run():
        report = json.dumps(simulate_market(eq, cfg).to_json_dict(), sort_keys=True)
        share = simulate_deviation(eq, 1, full_disclosure_distribution(eq.prior), cfg) if deviate else None
        return report, share

    banded = run()
    digest, share = _PINNED_STRESS[market]
    assert (hashlib.sha256(banded[0].encode()).hexdigest(), banded[1]) == (digest, share if deviate else None)
    stop_grid, solved = montecarlo._stop_grid, []

    def rising(g):
        excess, stops, _ = stop_grid(g)
        return excess, stops, False

    def counted(g, s):
        solved.append(np.size(s))
        return reservation_for_cost(g, s)

    monkeypatch.setattr(montecarlo, "reservation_for_cost", counted)
    if force == "margin":
        monkeypatch.setattr(montecarlo, "STOP_MARGIN", math.inf)
    else:
        monkeypatch.setattr(montecarlo, "_stop_grid", rising)
    assert run() == banded
    n_inexp = json.loads(banded[0])["n_inexperienced"]
    assert sum(solved) == n_inexp * (2 if deviate else 1)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_visit_order_equals_argsort_on_tied_keys(n):
    rng = np.random.default_rng(10 + n)
    keys = rng.integers(0, 3, size=(3000, n)).astype(float)
    if n <= montecarlo._RANKED_N:
        # the ranks give the stable order; the pinned reports were recorded
        # with np.argsort's, so the two must agree on ties
        assert np.array_equal(np.argsort(keys, axis=1), np.argsort(keys, axis=1, kind="stable")), (
            f"np.argsort no longer orders rows of {n} tied keys stably, so montecarlo._ranks "
            f"no longer reproduces the visit order of the pinned reports"
        )
    pos = rng.integers(0, n, size=len(keys))
    b = montecarlo._Buffers(n, len(keys)).group(len(keys))
    for firm in range(n):
        got_pos, got_firm_at = montecarlo._visit_order(keys, firm, b)
        want_pos, want_firm_at = visit_order_by_argsort(keys, firm)
        assert np.array_equal(got_pos, want_pos)
        assert np.array_equal(got_firm_at(pos), want_firm_at(pos))


@functools.cache
def _uniform_market(n: int):
    return solve_endog(UniformPrior(), n, 0.5, 0.1)


_COST_MODELS = {"single": SingleCost(0.1), "discrete": _DISCRETE, "continuous": _CONTINUOUS}
# every market size, cost model and path in one block; then three blocks, so
# that each block after the first runs on the arrays the one before left, and
# a deviant's stops, known or banded, serve every block of its run
_KERNEL_CASES = [
    (n, cost, deviate, 3_000, 1) for n in (2, 3, 4, 5, 12) for cost in _COST_MODELS for deviate in (False, True)
] + [(n, "single", False, 140_000, workers) for n in (2, 5) for workers in (1, 2)] + [
    (n, cost, True, 140_000, 2) for n in (2, 5) for cost in ("discrete", "continuous")
]


@pytest.mark.parametrize(
    "n, cost, deviate, consumers, workers",
    _KERNEL_CASES,
    ids=[f"{n}-{cost}-{'deviation' if dev else 'market'}" + (f"-{c}-w{w}" if c > 3_000 else "")
         for n, cost, dev, c, w in _KERNEL_CASES],
)
def test_block_kernel_equals_masked_copies_bitwise(monkeypatch, n, cost, deviate, consumers, workers):
    eq = _uniform_market(n)
    cfg = SimConfig(consumers=consumers, seed=2024, cost_model=_COST_MODELS[cost], workers=workers)

    def run():
        if deviate:
            return simulate_deviation(eq, n - 1, full_disclosure_distribution(eq.prior), cfg)
        return json.dumps(simulate_market(eq, cfg).to_json_dict(), sort_keys=True)

    got = run()
    monkeypatch.setattr(montecarlo, "_visit_order", visit_order_by_argsort)
    monkeypatch.setattr(montecarlo, "_stop_rule", stop_rule_by_copyto)
    monkeypatch.setattr(montecarlo, "_tally", tally_by_copyto)
    assert got == run()


# tracemalloc peak, in bytes, of one 65,536-consumer single-cost block
# (seed 2024, block 0, caches warm) in the simulator that sorted every row
# of keys and selected by masked copies: a block may not need more, the
# making of its arrays included
_BLOCK_PEAK_BYTES = {"eq_uniform_small": 5_970_049, "eq_power": 5_660_820}


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _single_cost_block(eq):
    """(a function that makes one worker's arrays, one that runs block 0 of a
    65,536-consumer single-cost run on given arrays)"""
    size = montecarlo._BLOCK
    cfg = SimConfig(consumers=size, seed=2024, cost_model=SingleCost(eq.s))
    plan = montecarlo._plan(eq, cfg)

    def buffers():
        return montecarlo._Buffers(eq.n, montecarlo._group_rows(size, eq.alpha))

    def block(b):
        return montecarlo._simulate_block(plan, 0, size, b)

    block(buffers())  # fills the posterior's caches
    return buffers, block


@pytest.mark.parametrize("market", ["eq_uniform_small", "eq_power"])
def test_block_peak_memory_stays_within_the_masked_kernel(request, market):
    buffers, block = _single_cost_block(request.getfixturevalue(market))
    assert _traced_peak(lambda: block(buffers())) <= _BLOCK_PEAK_BYTES[market]


@pytest.mark.parametrize("market", ["eq_uniform_small", "eq_power"])
def test_block_on_reused_arrays_needs_half_the_peak_memory(request, market):
    buffers, block = _single_cost_block(request.getfixturevalue(market))
    warm = buffers()
    block(warm)
    assert _traced_peak(lambda: block(warm)) <= _BLOCK_PEAK_BYTES[market] // 2


def test_a_worker_s_arrays_stay_within_the_memory_bound(monkeypatch):
    # one worker's arrays for 200,000 consumers of uniform n = 1,375 at
    # alpha 0.546 (1.3 GiB) fit the ledger's bound, and at any alpha; at
    # n = 100,000 they would take 98.8 GiB, a DomainError raised before any
    # allocation.  The allocation is a private anonymous mapping, which
    # takes memory only for the pages written (the row offsets), so the
    # arrays are built without taking theirs
    asked = []

    def mapped(size, dtype):
        asked.append(size)
        return np.frombuffer(mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS), dtype)

    monkeypatch.setattr(montecarlo.np, "empty", mapped)
    alpha = 0.5464099987813732
    for rows in (montecarlo._group_rows(montecarlo._BLOCK, alpha), montecarlo._BLOCK):
        b = montecarlo._Buffers(1375, rows)
        assert b.group(rows).vals.shape == (rows, 1375)
        assert asked.pop() <= montecarlo.SIM_BYTES_MAX
    with pytest.raises(DomainError, match="98.8 GiB"):
        montecarlo._Buffers(100_000, montecarlo._group_rows(montecarlo._BLOCK, alpha))
    assert not asked


def test_malformed_posteriors_are_rejected_before_simulating(eq_uniform_small, uniform):
    # the cdf falls from 0.5 to 0.3 on [0.5, 1]; an atom at 1 tops it up to 1
    falling = PosteriorDistribution(
        prior=uniform,
        segments=(FullDisclosure(0.0, 0.5), AffinePower(0.5, 1.0, 0.5, -0.4, 1)),
        atom=(1.0, 0.7),
    )
    cfg = SimConfig(consumers=2_000, seed=1, cost_model=SingleCost(0.1))
    with pytest.raises(ValidationFailureError) as exc:
        simulate_deviation(eq_uniform_small, 0, falling, cfg)
    assert exc.value.invariant == "cdf-monotone"
    # a hand-built market reaches the simulator without a solve
    market = dataclasses.replace(eq_uniform_small, g=falling)
    for cost_model in (SingleCost(0.1), _CONTINUOUS):
        with pytest.raises(ValidationFailureError) as exc:
            simulate_market(market, dataclasses.replace(cfg, cost_model=cost_model))
        assert exc.value.invariant == "cdf-monotone"


# The benchmark's tracer rebinds the simulator's private names and counts
# every call of _simulate_block: a traced run must reproduce the report and
# see one call per block, and with drawn costs one reservation solve per block.
_TRACED_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import tracer
from disclose_eq import UniformPrior, montecarlo
from disclose_eq.costs import ContinuousCosts
from disclose_eq.endogenous import solve_endog

eq = solve_endog(UniformPrior(), 2, 0.65, 0.1)
t = tracer.Tracer()
tracer.install(t)
continuous = montecarlo.HeterogeneousCosts(ContinuousCosts(((0.05, 0.0), (0.2, 1.0))))
out = []
for cost_model in (montecarlo.SingleCost(0.1), continuous):
    cfg = montecarlo.SimConfig(consumers=70_000, seed=2024, cost_model=cost_model, workers=2)
    report = montecarlo.simulate_market(eq, cfg)
    summ = t.summary()
    out.append({"report": report.to_json_dict(), "counts": summ["counts"], "metrics": tracer.layer_metrics(summ)})
print(json.dumps(out))
"""


def test_traced_simulation_reproduces_the_report(eq_uniform_small):
    bench = pathlib.Path(__file__).resolve().parent.parent / "bench"
    src = os.path.dirname(os.path.dirname(montecarlo.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_SCRIPT, str(bench)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True,
    )
    single, continuous = json.loads(proc.stdout.splitlines()[-1])
    for traced, cost_model in ((single, SingleCost(0.1)), (continuous, _CONTINUOUS)):
        cfg = SimConfig(consumers=70_000, seed=2024, cost_model=cost_model, workers=2)
        untraced = simulate_market(eq_uniform_small, cfg).to_json_dict()
        assert json.dumps(traced["report"], sort_keys=True) == json.dumps(untraced, sort_keys=True)
    # blocks per traced simulate_market span: two per run, so the span was recorded
    assert single["metrics"]["montecarlo.blocks"] == 2
    assert continuous["metrics"]["montecarlo.blocks"] == 2
    # raw counts add up over the two runs
    assert single["counts"]["montecarlo.blocks"] == 2
    assert single["counts"]["montecarlo.reservation_for_cost.calls"] == 1  # the one known cost
    assert continuous["counts"]["montecarlo.blocks"] == 4
    assert continuous["counts"]["montecarlo.reservation_for_cost.calls"] == 1 + 2
