#!/usr/bin/env python3
"""Domain probe: solve and certify random markets inside the documented domain.

Draws uniform priors, power priors with a log-uniform on [0.25, 8] and
piecewise priors with 1-3 interior knots and nondecreasing slopes, with n
log-uniform on 2..2^20, alpha uniform on (0.001, 0.999) and s/mu uniform
on (0.001, 0.999).  A draw whose F**(n-1) is not convex lies outside the
domain and is drawn again.  Each market is solved, and check_dm_conditions
runs on each one that solves.

With --edges it draws the edge markets instead: market k has family
FAMILIES[k % 3] and edge EDGES[(k // 3) % 4], n log-uniform on 2..256,
then alpha, s/mu and tiny = exp(U(log 1e-12, log 1e-3)) in that order,
and the edge's coordinate (alpha or s/mu) is set to tiny or 1 - tiny.

Prints a tally by prior family and n band, and with --edges by edge too:
markets certified, typed errors by invariant (or by error type when there
is none), untyped exceptions and solved markets that the certificate
rejects.  Writes one CSV row per market.  Exits 1 on any untyped
exception or rejected market.

Usage: python3 scripts/domain_probe.py [--seed 23] [--markets 2000]
       [--out domain_probe.csv]
       python3 scripts/domain_probe.py --edges [--seed 5] [--markets 2400]
"""
import argparse
import csv
import json
import sys
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

try:
    import disclose_eq  # noqa: F401
except ModuleNotFoundError:  # run from a checkout without an install: use its src/
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from disclose_eq import PiecewiseLinearPrior, PowerPrior, UniformPrior
from disclose_eq.endogenous import solve_endog
from disclose_eq.errors import DiscloseEqError
from disclose_eq.verify import check_dm_conditions

FAMILIES = ("uniform", "power", "piecewise")
EDGES = ("alpha->0", "alpha->1", "s->0", "s->mu")
N_MAX = 1 << 20
EDGE_N_MAX = 256
N_BANDS = ((2, 15), (16, 255), (256, 4095), (4096, N_MAX))


def draw_prior(rng: np.random.Generator, family: str):
    if family == "uniform":
        return UniformPrior()
    if family == "power":
        return PowerPrior(float(np.exp(rng.uniform(np.log(0.25), np.log(8.0)))))
    xs = np.sort(rng.uniform(0.02, 0.98, int(rng.integers(1, 4))))
    widths = np.diff(np.concatenate(([0.0], xs, [1.0])))
    slopes = np.cumsum(rng.exponential(1.0, len(widths)))  # nondecreasing
    qs = np.cumsum(slopes * widths)
    qs /= qs[-1]
    return PiecewiseLinearPrior(((0.0, 0.0),) + tuple(zip(xs.tolist(), qs[:-1].tolist())) + ((1.0, 1.0),))


def draw_market(rng: np.random.Generator, family: str, n_max: int = N_MAX):
    """(prior, n, alpha, s) inside the documented domain, n at most n_max."""
    while True:
        prior = draw_prior(rng, family)
        n = int(round(np.exp(rng.uniform(np.log(2.0), np.log(n_max)))))
        if prior.check_convexity(n):
            break
    alpha = float(rng.uniform(0.001, 0.999))
    s = float(rng.uniform(0.001, 0.999)) * prior.mean()
    return prior, n, alpha, s


def draw_markets(seed: int, markets: int):
    """The probe's markets in order: (family, prior, n, alpha, s), the
    family cycling through FAMILIES."""
    rng = np.random.default_rng(seed)
    for k in range(markets):
        family = FAMILIES[k % len(FAMILIES)]
        yield (family, *draw_market(rng, family))


def draw_edge_markets(seed: int, markets: int):
    """The edge markets in order: (family, edge, prior, n, alpha, s)."""
    rng = np.random.default_rng(seed)
    for k in range(markets):
        family, edge = FAMILIES[k % len(FAMILIES)], EDGES[(k // len(FAMILIES)) % len(EDGES)]
        prior, n, alpha, s = draw_market(rng, family, EDGE_N_MAX)
        tiny = float(np.exp(rng.uniform(np.log(1e-12), np.log(1e-3))))
        if edge.startswith("alpha"):
            alpha = tiny if edge == "alpha->0" else 1.0 - tiny
        else:
            s = (tiny if edge == "s->0" else 1.0 - tiny) * prior.mean()
        yield family, edge, prior, n, alpha, s


def probe(prior, n: int, alpha: float, s: float) -> tuple[str, str]:
    """(outcome, detail): certified, rejected, error:<name> or untyped:<type>."""
    try:
        eq = solve_endog(prior, n, alpha, s)
        report = check_dm_conditions(eq)
    except DiscloseEqError as exc:
        return f"error:{getattr(exc, 'invariant', type(exc).__name__)}", str(exc)
    except Exception as exc:  # the probe's finding: report it and go on
        traceback.print_exc()
        return f"untyped:{type(exc).__name__}", repr(exc)
    return ("certified" if report.passed else "rejected"), json.dumps(report.to_json_dict())


def n_band(n: int) -> str:
    lo, hi = next(band for band in N_BANDS if band[0] <= n <= band[1])
    return f"{lo}-{hi}"


def print_tally(tally: dict, rows, heading: str) -> None:
    """One line per row key: markets, certified and the other outcomes."""
    print(f"{heading:<23} {'markets':>7} {'certified':>9}  other outcomes")
    for key in rows:
        counts = tally.get(key, Counter())
        other = ", ".join(f"{k} {v}" for k, v in sorted(counts.items()) if k != "certified")
        print(f"{' '.join(key):<23} {sum(counts.values()):>7} {counts['certified']:>9}  {other}")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--edges", action="store_true", help="draw the edge markets")
    parser.add_argument("--seed", type=int, help="default 23, or 5 with --edges")
    parser.add_argument("--markets", type=int, help="default 2000, or 2400 with --edges")
    parser.add_argument("--out", default="domain_probe.csv")
    args = parser.parse_args()

    if args.edges:
        draw = draw_edge_markets(5 if args.seed is None else args.seed, args.markets or 2400)
    else:
        draw = ((family, "", *market) for family, *market in
                draw_markets(23 if args.seed is None else args.seed, args.markets or 2000))
    by_band: dict[tuple[str, str], Counter] = {}
    by_edge: dict[tuple[str], Counter] = {}
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["family", "edge", "prior", "n", "alpha", "s", "outcome", "detail"])
        for family, edge, prior, n, alpha, s in draw:
            outcome, detail = probe(prior, n, alpha, s)
            by_band.setdefault((family, n_band(n)), Counter())[outcome] += 1
            by_edge.setdefault((edge,), Counter())[outcome] += 1
            writer.writerow([family, edge, json.dumps(prior.to_json_dict()), n, repr(alpha), repr(s), outcome, detail])

    print_tally(by_band, [(family, f"{lo}-{hi}") for family in FAMILIES for lo, hi in N_BANDS], "family n")
    if args.edges:
        print_tally(by_edge, [(edge,) for edge in EDGES], "edge")
    total = sum(by_band.values(), Counter())
    untyped = sum(v for k, v in total.items() if k.startswith("untyped:"))
    print(
        f"total {sum(total.values())}: {total['certified']} certified, {total['rejected']} rejected, "
        f"{untyped} untyped exceptions; wrote {args.out}"
    )
    return 1 if untyped or total["rejected"] else 0


if __name__ == "__main__":
    sys.exit(main())
