#!/usr/bin/env python3
"""Side-by-side check of simulated moments against the analytic values.

Usage: python3 scripts/simulate_vs_theory.py [--n 2] [--alpha 0.65]
       [--s 0.1] [--consumers 1000000] [--seed 7]
"""
import argparse
import sys
from pathlib import Path

try:
    import disclose_eq  # noqa: F401
except ModuleNotFoundError:  # run from a checkout without an install: use its src/
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from disclose_eq import UniformPrior
from disclose_eq.endogenous import solve_endog
from disclose_eq.montecarlo import SimConfig, SingleCost, simulate_market
from disclose_eq.welfare import cs_inexperienced, cs_savvy


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--n", type=int, default=2)
    parser.add_argument("--alpha", type=float, default=0.65)
    parser.add_argument("--s", type=float, default=0.1)
    parser.add_argument("--consumers", type=int, default=1_000_000)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    prior = UniformPrior()
    eq = solve_endog(prior, args.n, args.alpha, args.s)
    cfg = SimConfig(
        consumers=args.consumers, seed=args.seed, cost_model=SingleCost(args.s)
    )
    rep = simulate_market(eq, cfg)

    lines = [
        ("visit probability", rep.eta_hat, rep.eta_se, eq.eta),
        ("savvy surplus", rep.cs_savvy_hat, rep.cs_savvy_se, cs_savvy(eq.g, eq.n)),
        (
            "costly-searcher surplus",
            rep.cs_inexperienced_hat,
            rep.cs_inexperienced_se,
            cs_inexperienced(eq),
        ),
    ]
    print(f"{'moment':24s} {'simulated':>12s} {'s.e.':>10s} {'analytic':>12s} {'z':>7s}")
    for name, hat, se, truth in lines:
        z = (hat - truth) / se if se else float("nan")
        print(f"{name:24s} {hat:12.6f} {se:10.2e} {truth:12.6f} {z:7.2f}")
    print(f"multi-search frequency   {rep.multi_search_freq:12.6f} "
          f"{'':10s} {float(prior.cdf(eq.v_l_star)):12.6f}")


if __name__ == "__main__":
    main()
