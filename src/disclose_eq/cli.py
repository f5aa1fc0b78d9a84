"""Command-line front end.

Subcommands: solve | sweep | verify | simulate | limit | hetero.
JSON goes to stdout (or --out); sweeps emit CSV.  Exit codes:

  0 success          3 unsupported boundary (alpha = 1)
  1 malformed config 4 certificate failure
  2 invariant failed 5 statistical failure (simulation z-score > 5)

Numeric config values are read by _read, and the prior's and the cost
model's by their parsers, all through errors.config_number: missing,
non-numeric (a string or a bool among them), non-finite (JSON's NaN and
Infinity) or, for n and the counts, non-integral values are malformed.
The solvers check the ranges, and their DomainError also exits 1.  A root bracket that fails
on an input past those checks is a solver failure and exits 2.

Each cmd_* returns its body and exit code; main adds the command and the
provenance (the sha256 of the canonical config and the package version)
and writes every output through _write, where a path that cannot be
written, or a closed stdout, is a malformed config.  Floats serialize via
repr, which round-trips exactly.  DISCLOSE_EQ_THREADS, a positive integer
(default 1), is a setting of the command line, not of the library:
simulate reads it before the solve and passes it on as SimConfig.workers.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from typing import Any

import numpy as np

from . import __version__
from .candidate import solve_beta
from .endogenous import (
    Equilibrium,
    assemble_market,
    check_n,
    limit_equilibrium,
    n_lower_bar,
    payoff_u,
    solve_endog,
)
from .errors import (
    BracketError,
    ConfigError,
    DiscloseEqError,
    DomainError,
    InfeasibleCandidateError,
    UnsupportedBoundaryError,
    ValidationFailureError,
    config_number,
)
from .priors import Prior, prior_from_json

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INVARIANT = 2
EXIT_BOUNDARY = 3
EXIT_CERTIFICATE = 4
EXIT_STATISTICAL = 5

# calibrated oracle-gap coefficient: bound = coeff / m
ORACLE_GAP_COEFF = 0.2


def _load_config(path: str) -> dict[str, Any]:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    if "config" in cfg and "equilibrium" in cfg:
        cfg = cfg["config"]  # a previous solve output was passed back in
        if not isinstance(cfg, dict):
            raise ConfigError("embedded config must be a JSON object")
    return cfg


def _config_hash(cfg: dict[str, Any]) -> str:
    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def _provenance(cfg: dict[str, Any]) -> dict[str, str]:
    return {"config_sha256": _config_hash(cfg), "version": __version__}


def _require(cfg: dict[str, Any], key: str):
    if key not in cfg:
        raise ConfigError(f"config is missing required key {key!r}")
    return cfg[key]


def _read(cfg: dict[str, Any], key: str, kind: type, default=None):
    """cfg[key] (default when absent) as an int or a float; the solvers check ranges."""
    value = cfg.get(key, default)
    if value is None:
        raise ConfigError(f"config is missing required key {key!r}")
    return config_number(value, key, kind)


def _market_params(cfg: dict[str, Any]) -> tuple[Prior, int, float, float]:
    prior = prior_from_json(_require(cfg, "prior"))
    return prior, _read(cfg, "n", int), _read(cfg, "alpha", float), _read(cfg, "s", float)


def _csv_comments(cfg: dict[str, Any]) -> list[str]:
    return [f"{key}={value}" for key, value in _provenance(cfg).items()]


def _write(text: str, out: str | None) -> None:
    """Write text as is (a sweep's CSV rows end in \\r\\n) to the file out,
    or to stdout when out is not given.  stdout is flushed here, so that a
    closed pipe fails as an unwritable out does."""
    if not out:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as exc:
            # what stays in stdout's buffer would fail again at exit: it goes
            # to the null device instead
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
            raise ConfigError(f"cannot write stdout: {exc}") from exc
        return
    try:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {out}: {exc}") from exc


def _summarize(eq: Equilibrium) -> str:
    return (
        f"r* = {eq.r_star:.6f}  v_L* = {eq.v_l_star:.6f}  v_H* = {eq.v_h_star:.6f}  "
        f"v_T* = {eq.v_t_star:.6f}  bottom_disclosure = {eq.bottom_disclosure}"
    )


def cmd_solve(cfg: dict[str, Any], args) -> tuple[dict[str, Any], int]:
    prior, n, alpha, s = _market_params(cfg)
    eq = solve_endog(prior, n, alpha, s)
    body = {"config": cfg, "equilibrium": eq.to_json_dict()}
    if alpha == 0.0:
        body["note"] = "alpha = 0: the unique equilibrium is full disclosure"
    print(_summarize(eq), file=sys.stderr)
    return body, EXIT_OK


def cmd_sweep(cfg: dict[str, Any], args) -> tuple[str, int]:
    # imported here and in _z_scores so that solve and verify start without welfare and csv
    from .welfare import scan_csv_text, sweep

    prior = prior_from_json(_require(cfg, "prior"))
    axis = _require(cfg, "axis")
    grid = _require(cfg, "grid")
    if not isinstance(grid, list) or len(grid) < 2:
        raise ConfigError("grid must be a list with at least two points")
    base = {k: _read(cfg, k, int if k == "n" else float) for k in ("n", "alpha", "s") if k != axis}
    for value in grid:  # checked only: the CSV keeps each grid value as written
        _read({"grid": value}, "grid", int if axis == "n" else float)
    rows = [row for row, _ in sweep(prior, axis, grid, base)]
    return scan_csv_text(rows, axis_column=axis, header_comments=_csv_comments(cfg)), EXIT_OK


def cmd_verify(cfg: dict[str, Any], args) -> tuple[dict[str, Any], int]:
    # imported here so that the other commands start without the HiGHS binding
    from .verify import check_dm_conditions, oracle_gap, payoff_identity_gap

    prior, n, alpha, s = _market_params(cfg)
    eq = solve_endog(prior, n, alpha, s)
    if args.perturb:
        field, text = args.perturb
        try:
            delta = float(text)
        except ValueError as exc:
            raise ConfigError(f"--perturb DELTA must be a number, got {text!r}") from exc
        if not math.isfinite(delta):
            raise ConfigError(f"--perturb DELTA must be finite, got {text!r}")
        if field == "v_L":
            eq = assemble_market(prior, n, alpha, eq.v_l_star + delta, eq.r_star, s)
        elif field == "r":
            eq = assemble_market(prior, n, alpha, eq.v_l_star, eq.r_star + delta, s)
        else:
            raise ConfigError(f"--perturb supports fields v_L and r, not {field!r}")
    report = check_dm_conditions(eq)
    body = {
        "equilibrium": eq.to_json_dict(),
        "certificate": report.to_json_dict(),
        "payoff_identity_gap": payoff_identity_gap(eq),
    }
    ok = report.passed
    if args.oracle_grid is not None:
        gap = oracle_gap(eq, args.oracle_grid)
        body["oracle"] = gap
        # discretization bound calibrated on the measured gap decay
        # (equilibrium gaps stay ~30x below it, perturbations ~500x above)
        bound = ORACLE_GAP_COEFF / gap["m"]
        body["oracle_bound"] = bound
        ok = ok and gap["gap"] <= bound
    return body, EXIT_OK if ok else EXIT_CERTIFICATE


def cmd_simulate(cfg: dict[str, Any], args) -> tuple[dict[str, Any], int]:
    # imported here so that the other commands start without concurrent.futures,
    # and solve and sweep without the cost models
    from .costs import cost_distribution_from_json
    from .montecarlo import HeterogeneousCosts, SimConfig, SingleCost, simulate_market

    prior, n, alpha, s = _market_params(cfg)
    if args.seed is None:
        raise ConfigError("simulate requires --seed (no wall-clock default)")
    workers = _thread_count()  # a malformed DISCLOSE_EQ_THREADS fails before the solve
    eq = solve_endog(prior, n, alpha, s)
    cost_spec = cfg.get("cost_model")
    if cost_spec is None:
        cost_model = SingleCost(s)
    elif isinstance(cost_spec, dict) and cost_spec.get("type") == "single":
        cost_model = SingleCost(_read(cost_spec, "s", float))
    else:
        cost_model = HeterogeneousCosts(cost_distribution_from_json(cost_spec))
    config = SimConfig(
        consumers=_read(cfg, "consumers", int, 100_000),
        seed=args.seed,
        cost_model=cost_model,
        bins=_read(cfg, "bins", int, 50),
        workers=workers,
    )
    report = simulate_market(eq, config)
    if args.curve_out:  # before the JSON, so that a failed write leaves no output
        _write(_curve_csv(eq, report, cfg), args.curve_out)
    z_scores = _z_scores(eq, report)
    body = {"equilibrium": eq.to_json_dict(), "report": report.to_json_dict(), "z_scores": z_scores}
    worst = max((abs(z) for z in z_scores.values() if not np.isnan(z)), default=0.0)
    return body, EXIT_OK if worst <= 5.0 else EXIT_STATISTICAL


def _thread_count() -> int:
    """DISCLOSE_EQ_THREADS, else 1."""
    raw = os.environ.get("DISCLOSE_EQ_THREADS", "1")
    try:
        threads = int(raw)
    except ValueError:
        threads = 0
    if threads < 1:
        raise DomainError(f"DISCLOSE_EQ_THREADS must be a positive integer, not {raw!r}")
    return threads


def _curve_theory(eq: Equilibrium, report) -> list[float]:
    """The analytic payoff at the midpoints of the report's curve bins."""
    return payoff_u(eq, np.array([b.v_mid for b in report.curve])).tolist()


def _z_scores(eq: Equilibrium, report) -> dict[str, float]:
    from .welfare import cs_inexperienced, cs_savvy

    out: dict[str, float] = {}
    if report.eta_se and not np.isnan(report.eta_se) and report.eta_se > 0:
        out["eta"] = (report.eta_hat - eq.eta) / report.eta_se
    if report.cs_savvy_se and report.cs_savvy_se > 0:
        out["cs_savvy"] = (report.cs_savvy_hat - cs_savvy(eq.g, eq.n)) / report.cs_savvy_se
    if report.cs_inexperienced_se and report.cs_inexperienced_se > 0:
        out["cs_inexperienced"] = (
            report.cs_inexperienced_hat - cs_inexperienced(eq)
        ) / report.cs_inexperienced_se
    share_se = np.sqrt((1.0 / eq.n) * (1.0 - 1.0 / eq.n) / report.consumers)
    worst_share = max(abs(sh - 1.0 / eq.n) for sh in report.firm_sale_shares)
    out["firm_share"] = float(worst_share / share_se)
    worst_curve = 0.0
    for b, u in zip(report.curve, _curve_theory(eq, report)):
        if b.visits >= 1000 and b.se > 0:
            worst_curve = max(worst_curve, abs((b.u_hat - u) / b.se))
    out["curve_max"] = worst_curve
    return out


def _curve_csv(eq: Equilibrium, report, cfg: dict[str, Any]) -> str:
    lines = [f"# {c}" for c in _csv_comments(cfg)]
    lines.append("bin_left,bin_right,v_mid,u_hat,se,u_analytic")
    for b, u in zip(report.curve, _curve_theory(eq, report)):
        lines.append(f"{b.bin_left!r},{b.bin_right!r},{b.v_mid!r},{b.u_hat!r},{b.se!r},{u!r}")
    return "\n".join(lines) + "\n"


def cmd_limit(cfg: dict[str, Any], args) -> tuple[dict[str, Any], int]:
    prior = prior_from_json(_require(cfg, "prior"))
    alpha, s = _read(cfg, "alpha", float), _read(cfg, "s", float)
    nbar = n_lower_bar(prior, alpha, s)
    r = prior.mean() - s  # every n >= nbar conceals: v_L* = 0 and r* = mu - s
    doublings = _read(cfg, "doublings", int, 6)
    if doublings < 0:
        raise ConfigError(f"doublings must be at least 0, got {doublings}")
    ns = []
    for k in range(doublings + 1):  # stops at the first n past float range
        ns.append(nbar << k)
        check_n(ns[-1])
    seq = [[n, solve_beta(prior, n, 0.0, r)[1]] for n in ns]
    lim = limit_equilibrium(prior, alpha, s)
    body = {
        "n_lower_bar": nbar,
        "v_H_sequence": seq,
        "limit": {
            "v_H_inf": lim.v_h_inf,
            "atom_mass": lim.atom_mass,
            "atom_location": prior.mean() - s,
            "G_inf": lim.g_inf.to_json_dict(),
        },
    }
    return body, EXIT_OK


def cmd_hetero(cfg: dict[str, Any], args) -> tuple[dict[str, Any], int]:
    # imported here so that the other commands start without the HiGHS binding
    from .costs import cost_distribution_from_json
    from .verify import hetero_check, hetero_first_holding_n

    prior = prior_from_json(_require(cfg, "prior"))
    alpha = _read(cfg, "alpha", float)
    costs = cost_distribution_from_json(_require(cfg, "cost_model"))
    body: dict[str, Any] = {}
    if "n" in cfg:
        body["report"] = hetero_check(prior, _read(cfg, "n", int), alpha, costs).to_json_dict()
    first_n, first_report = hetero_first_holding_n(prior, alpha, costs)
    body["first_holding_n"] = first_n
    body["first_holding_report"] = first_report.to_json_dict()
    return body, EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="disclose-eq",
        description="Disclosure equilibria in consumer-search markets",
    )
    parser.add_argument("command", choices=list(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--oracle-grid", type=int, default=None)
    parser.add_argument("--perturb", nargs=2, metavar=("FIELD", "DELTA"), default=None)
    parser.add_argument("--curve-out", default=None, help="CSV path for the sale curve")
    return parser


_COMMANDS = {
    "solve": cmd_solve,
    "sweep": cmd_sweep,
    "verify": cmd_verify,
    "simulate": cmd_simulate,
    "limit": cmd_limit,
    "hetero": cmd_hetero,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        body, code = _COMMANDS[args.command](cfg, args)
        if isinstance(body, dict):
            head = {"command": args.command, "provenance": _provenance(cfg)}
            body = json.dumps({**head, **body}, indent=2) + "\n"
        _write(body, args.out)
        return code
    except UnsupportedBoundaryError as exc:
        print(f"unsupported boundary: {exc}", file=sys.stderr)
        return EXIT_BOUNDARY
    except (ValidationFailureError, InfeasibleCandidateError, BracketError) as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (DomainError, DiscloseEqError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

