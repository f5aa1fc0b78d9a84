"""Consumer surplus, comparative-statics sweeps, and search-cost scans.

Surplus is computed on the cdf side (E[max of n draws] equals the top of
the support minus the integral of cdf**n), which handles atoms as flat
cdf steps with no density bookkeeping.  Sweeps rank neighbouring
equilibria with posterior.informativeness_compare.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Sequence

from .endogenous import Equilibrium, solve_endog
from .errors import DiscloseEqError, DomainError
from .exogenous import r_lower_bar
from .posterior import MORE_INFORMATIVE, PosteriorDistribution, informativeness_compare
from .priors import Prior
from .tolerances import SCAN_TOL


@dataclass(frozen=True)
class ThresholdReport:
    s_bar: float
    s_lower_est: float  # s_lower_grid capped at s_bar
    s_lower_grid: float
    s_tilde_est: float | None
    grid_resolution: float
    flags: dict[str, bool]
    rows: tuple[dict[str, Any], ...]


def cs_savvy(g: PosteriorDistribution, n: int) -> float:
    """Expected maximum of n independent draws from g."""
    if n < 1:
        raise DomainError("need n >= 1")
    top = g.top
    return top - float(g.cum_integral(top, n))


def cs_inexperienced(eq: Equilibrium) -> float:
    """Costly searcher's expected surplus: E[max of n censored draws].

    The per-visit value a costly searcher banks is min(v, r*): its cdf is F
    below v_L*, flat at F(v_L*) on [v_L*, r*) and 1 from the atom at r*.
    So the integral of its cdf**n up to r* is int_0^{v_L*} F**n +
    F(v_L*)**n (r* - v_L*)."""
    v_l, r, n = eq.v_l_star, eq.r_star, eq.n
    return r - float(eq.prior.cum_pow_cdf(v_l, n) + eq.branches.fl**n * (r - v_l))


def equilibrium_row(eq: Equilibrium, prev: Equilibrium | None) -> dict[str, Any]:
    """One comparative-statics record, with the verdict against the previous point."""
    verdict = ""
    if prev is not None:
        verdict = informativeness_compare(eq.g, prev.g).verdict
    return {
        "r_star": eq.r_star,
        "v_L_star": eq.v_l_star,
        "v_H_star": eq.v_h_star,
        "v_T_star": eq.v_t_star,
        "beta_star": eq.beta_star,
        "cs_savvy": cs_savvy(eq.g, eq.n),
        "cs_inexperienced": cs_inexperienced(eq),
        "p_multi_visit": eq.branches.fl,  # F(v_L), the chance a costly searcher visits a second firm
        "verdict_vs_prev": verdict,
    }


def sweep(
    prior: Prior, axis: str, grid: Iterable[Any], base: dict[str, Any]
) -> Iterator[tuple[dict[str, Any], Equilibrium | None]]:
    """Solve the market at each point of a grid along axis n, s or alpha.

    base holds the other two parameters.  Yields (row, eq) per point; row
    holds the grid value as given, the equilibrium_row columns and an empty
    "error".  A point that raises DiscloseEqError yields eq = None with the
    exception under "error", and the next point gets no verdict_vs_prev.
    """
    if axis not in ("n", "s", "alpha"):
        raise DomainError("axis must be one of n | s | alpha")
    prev: Equilibrium | None = None
    for value in grid:
        params = {**base, axis: value}
        row: dict[str, Any] = {axis: value}
        try:
            eq = solve_endog(prior, int(params["n"]), float(params["alpha"]), float(params["s"]))
        except DiscloseEqError as exc:
            eq, row["error"] = None, exc
        else:
            row.update(equilibrium_row(eq, prev), error="")
        prev = eq
        yield row, eq


def threshold_scan(
    prior: Prior, n: int, alpha: float, s_grid: Sequence[float]
) -> ThresholdReport:
    """Map the search-cost comparative statics along a grid.

    s_bar is exact (mu minus the concealment threshold); the other two
    markers are located on the grid and are only as sharp as its spacing.
    """
    s_grid = list(s_grid)
    mu = prior.mean()
    if len(s_grid) < 2:
        raise DomainError(f"s_grid needs at least 2 points, got {len(s_grid)}")
    if any(b <= a for a, b in zip(s_grid, s_grid[1:])):
        raise DomainError("s_grid must be strictly increasing")
    if s_grid[0] <= 0.0 or s_grid[-1] >= mu:
        raise DomainError(f"s_grid must lie inside (0, {mu})")

    s_bar = mu - r_lower_bar(prior, n, alpha)
    solved: list[tuple[dict[str, Any], Equilibrium]] = []
    for row, eq in sweep(prior, "s", s_grid, {"n": n, "alpha": alpha}):
        if eq is None:
            raise row["error"]
        solved.append((row, eq))
    rows = [row for row, _ in solved]

    # largest prefix of the grid on which there is no disclosure at the top;
    # the s_tilde search caps it at s_bar (the two thresholds are ordered),
    # and the report keeps it uncapped too, where a break of that order shows
    s_lower = s_grid[0]
    for row in rows:
        if row["v_T_star"] < 1.0 - SCAN_TOL:
            s_lower = row["s"]
        else:
            break
    s_lower_est = min(s_lower, s_bar)

    # for the largest grid point below s_lower: how far down the grid every
    # smaller cost is strictly better on all three counts
    s_tilde_est: float | None = None
    prefix = [(row, eq) for row, eq in solved if row["s"] <= s_lower_est]
    if prefix:
        (ref, ref_eq), *candidates = reversed(prefix)
        for row, eq in candidates:
            if (
                informativeness_compare(eq.g, ref_eq.g).verdict == MORE_INFORMATIVE
                and row["cs_savvy"] > ref["cs_savvy"]
                and row["cs_inexperienced"] > ref["cs_inexperienced"]
            ):
                s_tilde_est = row["s"]
            else:
                break  # require the whole prefix below s_tilde to qualify

    above = [row for row in rows if row["s"] > s_bar + SCAN_TOL]
    below = [row for row in rows if row["s"] < s_lower_est - SCAN_TOL]
    flags = {
        "above_bar_more_informative": all(
            row["verdict_vs_prev"] == MORE_INFORMATIVE for row in above[1:]
        ),
        "above_bar_cs_savvy_increasing": all(
            b["cs_savvy"] > a["cs_savvy"] for a, b in zip(above, above[1:])
        ),
        "above_bar_cs_inexperienced_decreasing": all(
            b["cs_inexperienced"] < a["cs_inexperienced"] for a, b in zip(above, above[1:])
        ),
        "below_lower_never_more_informative": all(
            row["verdict_vs_prev"] != MORE_INFORMATIVE for row in below[1:]
        ),
    }
    resolution = max(b - a for a, b in zip(s_grid, s_grid[1:]))
    return ThresholdReport(
        s_bar=s_bar,
        s_lower_est=s_lower_est,
        s_lower_grid=s_lower,
        s_tilde_est=s_tilde_est,
        grid_resolution=resolution,
        flags=flags,
        rows=tuple(rows),
    )


SWEEP_COLUMNS = (
    "r_star",
    "v_L_star",
    "v_H_star",
    "v_T_star",
    "beta_star",
    "cs_savvy",
    "cs_inexperienced",
    "p_multi_visit",
    "verdict_vs_prev",
)


def scan_csv_text(
    rows: Iterable[dict[str, Any]], axis_column: str, header_comments: Sequence[str] = ()
) -> str:
    """Render scan rows as CSV with provenance comment lines up top."""
    buf = io.StringIO()
    for comment in header_comments:
        buf.write(f"# {comment}\n")
    fieldnames = [axis_column, *SWEEP_COLUMNS, "error"]
    writer = csv.DictWriter(buf, fieldnames=fieldnames, extrasaction="ignore")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: ("" if row.get(k) is None else row.get(k)) for k in fieldnames})
    return buf.getvalue()
