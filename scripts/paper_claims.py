#!/usr/bin/env python3
"""The abstract's claims, tested on seeded random markets of all three prior families.

Each claim's row prints the markets and the cases held and tested, and the
first counterexample as a config for `disclose-eq solve` (in row (e), also for
`disclose-eq sweep`).  Then come the typed errors by invariant and the largest
n solved.  Exits 1 only on an untyped exception.

Usage: python3 scripts/paper_claims.py [--seed 3] [--markets 150]
"""
import argparse
import json
import sys
import traceback
from collections import Counter, defaultdict

import numpy as np

from domain_probe import FAMILIES, draw_prior  # also puts a bare checkout's src/ on sys.path

from disclose_eq.endogenous import n_lower_bar
from disclose_eq.errors import DiscloseEqError
from disclose_eq.welfare import sweep, threshold_scan

N_GRID = (2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 256, 1024, 4096, 10**4, 2**14, 2**17, 2**20)


def draw_markets(seed: int, markets: int):
    """(prior, alpha, s) of each market: draw_prior of family FAMILIES[k % 3], then alpha and s/mu."""
    rng = np.random.default_rng(seed)
    for k in range(markets):
        prior = draw_prior(rng, FAMILIES[k % len(FAMILIES)])
        alpha = float(rng.uniform(0.001, 0.999))
        yield prior, alpha, float(rng.uniform(0.001, 0.999)) * prior.mean()


def check_market(prior, alpha: float, s: float):
    """(cases, errors, largest n solved): cases maps each claim to its [(held, config), ...] and errors
    lists (typed error, config).  One welfare.sweep solves the market at the sizes of N_GRID, n_lower_bar
    and n_lower_bar + 1 inside the domain; one threshold_scan scans 20 costs at the smallest of them."""
    market = {"prior": prior.to_json_dict(), "alpha": alpha, "s": s}
    cases, errors, solved = defaultdict(list), [], []
    nbar = None
    try:
        nbar = n_lower_bar(prior, alpha, s)
    except DiscloseEqError as exc:
        errors.append((exc, market))
    sizes = set(N_GRID) | ({nbar, nbar + 1} if nbar else set())
    grid = sorted(n for n in sizes if n <= N_GRID[-1] and prior.check_convexity(n))
    for row, eq in sweep(prior, "n", grid, {"alpha": alpha, "s": s}):
        config = {**market, "n": row["n"]}
        if eq is None:
            errors.append((row["error"], config))
            continue
        if nbar is not None:
            cases["(a) conceals iff n >= n_lower_bar"].append((eq.bottom_disclosure == (row["n"] < nbar), config))
            if row["n"] >= nbar:
                cases["(b) p_multi_visit = 0 at n >= n_lower_bar"].append((row["p_multi_visit"] == 0.0, config))
        if solved:
            cases["(c) cs_savvy does not fall in n"].append((row["cs_savvy"] >= solved[-1][0]["cs_savvy"], config))
        solved.append((row, config))
    if solved and solved[0][0]["n"] == 2:  # a count: its counterexamples are markets that competition harms
        harmed = [config for row, config in solved if row["cs_inexperienced"] < solved[0][0]["cs_inexperienced"]]
        cases["(d) no n > 2 lowers cs_inexperienced"].append((not harmed, next(iter(harmed), market)))
    mu = prior.mean()
    costs = [float(c) for c in np.linspace(0.01 * mu, 0.99 * mu, 20)]
    config = {**market, "n": grid[0], "axis": "s", "grid": costs}
    try:
        report = threshold_scan(prior, grid[0], alpha, costs)
    except DiscloseEqError as exc:
        errors.append((exc, config))
    else:
        cases["(e) s_lower <= s_bar"].append((report.s_lower_grid <= report.s_bar, config))
        if report.s_tilde_est is not None:
            cases["(e) s_tilde <= s_lower"].append((report.s_tilde_est <= report.s_lower_est, config))
        for name, held in report.flags.items():
            cases[f"(e) {name}"].append((held, config))
    return cases, errors, max((row["n"] for row, _ in solved), default=0)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--markets", type=int, default=150)
    args = parser.parse_args()

    tally = defaultdict(lambda: np.zeros(4, dtype=int))  # markets held, tested; cases held, tested
    errors = Counter()
    first = {}  # claim -> its first counterexample, as JSON
    untyped = largest = 0
    for prior, alpha, s in draw_markets(args.seed, args.markets):
        try:
            cases, market_errors, n_solved = check_market(prior, alpha, s)
        except Exception:  # the report's finding: show it and go on
            traceback.print_exc()
            untyped += 1
            continue
        largest = max(largest, n_solved)
        for exc, _ in market_errors:
            errors[getattr(exc, "invariant", type(exc).__name__)] += 1
        for claim, results in cases.items():
            held = [ok for ok, _ in results]
            tally[claim] += all(held), 1, sum(held), len(held)
            if not all(held):
                first.setdefault(claim, json.dumps(next(config for ok, config in results if not ok)))

    print(f"{'claim':<42} {'markets held':>12} {'cases held':>12}  first counterexample")
    for claim, (m_held, m_tested, c_held, c_tested) in sorted(tally.items()):
        print(f"{claim:<42} {f'{m_held}/{m_tested}':>12} {f'{c_held}/{c_tested}':>12}  {first.get(claim, '')}")
    print(f"typed errors: {sum(errors.values())}")
    for name, count in sorted(errors.items()):
        print(f"  {name} {count}")
    print(f"largest n solved: {largest}; untyped exceptions: {untyped}")
    return 1 if untyped else 0


if __name__ == "__main__":
    sys.exit(main())
