#!/usr/bin/env python3
"""Search-cost comparative statics: thresholds and welfare directions.

Runs the threshold scan over a cost grid, prints the located thresholds
with their grid resolution, and writes the per-point sweep to CSV.

Usage: python3 scripts/search_cost_scan.py [--n 2] [--alpha 0.5]
       [--points 40] [--out search_cost.csv]
"""
import argparse
import sys
from pathlib import Path

import numpy as np

try:
    import disclose_eq  # noqa: F401
except ModuleNotFoundError:  # run from a checkout without an install: use its src/
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from disclose_eq import UniformPrior
from disclose_eq.errors import DiscloseEqError
from disclose_eq.welfare import scan_csv_text, threshold_scan


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--n", type=int, default=2)
    parser.add_argument("--alpha", type=float, default=0.5)
    parser.add_argument("--points", type=int, default=40)
    parser.add_argument("--out", default="search_cost.csv")
    args = parser.parse_args()

    prior = UniformPrior()
    mu = prior.mean()
    grid = [float(s) for s in np.linspace(0.01, mu - 0.01, args.points)]
    try:
        report = threshold_scan(prior, args.n, args.alpha, grid)
    except DiscloseEqError as exc:  # a bad grid or market: say which, without a traceback
        sys.exit(f"search_cost_scan: {type(exc).__name__}: {exc}")

    print(f"s_bar       = {report.s_bar:.6f} (exact: mean minus concealment threshold)")
    print(f"s_lower_est = {report.s_lower_est:.6f} (+- {report.grid_resolution:.4f})")
    if report.s_tilde_est is not None:
        print(f"s_tilde_est = {report.s_tilde_est:.6f} (+- {report.grid_resolution:.4f})")
    for name, value in report.flags.items():
        print(f"{name}: {value}")
    with open(args.out, "w", newline="") as fh:
        fh.write(scan_csv_text(report.rows, axis_column="s"))
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
