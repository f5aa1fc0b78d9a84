#!/usr/bin/env python3
"""Market-size comparative statics at a glance.

Solves the equilibrium along an n-grid spanning the concealment
threshold, prints the search-behavior switch and both surplus series,
and writes the full sweep to CSV.

Usage: python3 scripts/market_structure_scan.py [--alpha 0.5] [--s 0.1]
       [--out market_structure.csv]
"""
import argparse
import sys
from pathlib import Path

try:
    import disclose_eq  # noqa: F401
except ModuleNotFoundError:  # run from a checkout without an install: use its src/
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from disclose_eq import UniformPrior
from disclose_eq.endogenous import limit_equilibrium, n_lower_bar
from disclose_eq.welfare import scan_csv_text, sweep


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--alpha", type=float, default=0.5)
    parser.add_argument("--s", type=float, default=0.1)
    parser.add_argument("--out", default="market_structure.csv")
    args = parser.parse_args()

    prior = UniformPrior()
    nbar = n_lower_bar(prior, args.alpha, args.s)
    print(f"concealment threshold n_lower_bar = {nbar}")
    lim = limit_equilibrium(prior, args.alpha, args.s)
    print(f"infinite-market contact point v_H_inf = {lim.v_h_inf:.6f} "
          f"(atom mass {lim.atom_mass:.6f} at {prior.mean() - args.s:.6f})")

    grid = sorted(set(range(2, nbar + 1)) | {nbar + 1, nbar + 2, 2 * nbar, 4 * nbar})
    rows = []
    for row, eq in sweep(prior, "n", grid, {"alpha": args.alpha, "s": args.s}):
        rows.append(row)
        if eq is None:
            print(f"n={row['n']:5d}  error: {row['error']}")
            continue
        tag = "searches actively" if row["p_multi_visit"] > 0 else "stops at first firm"
        print(
            f"n={row['n']:5d}  r*={row['r_star']:.4f}  v_L*={row['v_L_star']:.4f}  "
            f"CS_s={row['cs_savvy']:.4f}  CS_i={row['cs_inexperienced']:.4f}  ({tag})"
        )
    with open(args.out, "w", newline="") as fh:
        fh.write(scan_csv_text(rows, axis_column="n"))
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
