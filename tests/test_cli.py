import ast
import contextlib
import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
import types

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import disclose_eq
from disclose_eq import costs, endogenous, montecarlo, verify
from disclose_eq.cli import _thread_count, main
from disclose_eq.errors import DomainError


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


BASE = {"prior": {"family": "uniform"}, "n": 2, "alpha": 0.65, "s": 0.1}


def test_solve_emits_equilibrium(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", BASE)
    out = tmp_path / "out.json"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["equilibrium"]["r_star"] == pytest.approx(0.4897479614377023)
    assert payload["provenance"]["version"]
    assert len(payload["provenance"]["config_sha256"]) == 64
    assert payload["equilibrium"]["G"]["segments"]


def test_underflowing_pooled_branch_exits_as_invariant_failure(tmp_path):
    # a disclosing market whose pooled branch starts at F(v_L)**(n-1) = 0
    # (test_underflowing_disclosing_level_is_a_typed_error)
    cfg = {"prior": {"family": "uniform"}, "n": 450, "alpha": 0.05, "s": 0.01}
    assert main(["solve", "--config", _write(tmp_path, "cfg.json", cfg)]) == 2


def test_underflowing_pooled_slope_solves_as_a_concealing_market(tmp_path, capsys):
    # the pooled slope underflows to 0, and the branch is read in its scaled form
    cfg = {"prior": {"family": "uniform"}, "n": 1375, "alpha": 0.5464099987813732, "s": 0.30076378322172764}
    assert main(["solve", "--config", _write(tmp_path, "cfg.json", cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["equilibrium"]["bottom_disclosure"] is False


@pytest.mark.parametrize("n, code", [(2, 0), (50, 0)])
def test_reserve_next_to_zero_is_no_config_error(tmp_path, n, code):
    # r* = mu - s < 1e-12 is a valid market: it solves (at n = 50 with the
    # pooled branch in its scaled form), or fails an invariant
    cfg = {"prior": {"family": "uniform"}, "n": n, "alpha": 0.5, "s": 0.4999999999999}
    assert main(["solve", "--config", _write(tmp_path, "cfg.json", cfg)]) == code


@pytest.mark.parametrize("alpha, code", [(1e-9, 0), (1e-10, 2), (1e-12, 2), (1e-15, 2)])
def test_failed_bracket_on_a_valid_market_is_an_invariant_failure(tmp_path, capsys, alpha, code):
    # below alpha = 1e-9 the gap has no sign change on the solver's bracket:
    # through z-bracket at 1e-10, through the outer bisection's BracketError
    # from 1e-12 on; neither is a malformed config
    cfg = {"prior": {"family": "uniform"}, "n": 2, "alpha": alpha, "s": 0.1}
    assert main(["solve", "--config", _write(tmp_path, "cfg.json", cfg)]) == code
    if code:
        assert "invariant failure: " in capsys.readouterr().err


def test_simulate_rejects_costs_above_the_posterior_mean(tmp_path):
    # E_G[v] = 0.5 here, and the cost support runs to 0.7
    cost_model = {"type": "continuous", "knots": [[0.05, 0.0], [0.7, 1.0]]}
    cfg = _write(tmp_path, "cfg.json", {**BASE, "cost_model": cost_model, "consumers": 20_000})
    assert main(["simulate", "--config", cfg, "--seed", "3"]) == 1


def test_solve_round_trips_through_verify_and_simulate(tmp_path):
    cfg = _write(tmp_path, "cfg.json", BASE)
    solve_out = tmp_path / "solve.json"
    assert main(["solve", "--config", cfg, "--out", str(solve_out)]) == 0
    verify_out = tmp_path / "verify.json"
    assert (
        main(["verify", "--config", str(solve_out), "--out", str(verify_out)]) == 0
    )
    solved = json.loads(solve_out.read_text())["equilibrium"]
    verified = json.loads(verify_out.read_text())["equilibrium"]
    for key in ("r_star", "v_L_star", "v_H_star", "v_T_star", "beta_star", "eta"):
        assert solved[key] == verified[key]  # identical, not just close
    sim_out = tmp_path / "sim.json"
    assert (
        main(["simulate", "--config", str(solve_out), "--seed", "3", "--out", str(sim_out)])
        == 0
    )
    simulated = json.loads(sim_out.read_text())["equilibrium"]
    for key in ("r_star", "v_L_star", "beta_star"):
        assert solved[key] == simulated[key]


def test_verify_oracle_and_perturbation(tmp_path):
    cfg = _write(tmp_path, "cfg.json", BASE)
    out = tmp_path / "v.json"
    assert main(["verify", "--config", cfg, "--oracle-grid", "201", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["certificate"]["pass"]
    assert payload["oracle"]["gap"] <= payload["oracle_bound"]
    # the LP's size and its simplex iterations: this pooling market's
    # starting basis is the LP's optimum
    assert payload["oracle"]["lp_nonzeros"] > 0 and payload["oracle"]["lp_iterations"] == 0
    # perturbed candidate: certificate failure, exit 4
    assert main(["verify", "--config", cfg, "--perturb", "v_L", "0.05"]) == 4


def test_verify_on_a_large_oracle_grid(tmp_path):
    cfg = _write(tmp_path, "cfg.json", {"prior": {"family": "power", "a": 2.0}, "n": 3, "alpha": 0.4, "s": 0.15})
    out = tmp_path / "v.json"
    assert main(["verify", "--config", cfg, "--oracle-grid", "4001", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["oracle"]["m"] >= 4001
    assert payload["oracle"]["gap"] <= payload["oracle_bound"]


def test_the_oracle_value_does_not_depend_on_the_blas_threads(tmp_path):
    # OpenBLAS splits a dot product of more than 10,000 terms over its
    # threads; the oracle's sums are NumPy's pairwise ones, so a caller's
    # OPENBLAS_NUM_THREADS leaves the value's bits alone
    cfg = _write(tmp_path, "cfg.json", {"prior": {"family": "power", "a": 2.0}, "n": 3, "alpha": 0.4, "s": 0.15})
    values = []
    for threads in ("1", "2"):
        proc = _run_entry(["verify", "--config", cfg, "--oracle-grid", "20001"], {"OPENBLAS_NUM_THREADS": threads})
        assert proc.returncode == 0
        values.append(json.loads(proc.stdout)["oracle"]["oracle_value"])
    assert values[0] == values[1]


def test_exit_codes(tmp_path, capsys):
    missing = _write(tmp_path, "bad.json", {"prior": {"family": "uniform"}})
    assert main(["solve", "--config", missing]) == 1
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert main(["solve", "--config", str(garbled)]) == 1
    boundary = _write(tmp_path, "alpha1.json", {**BASE, "alpha": 1.0})
    assert main(["solve", "--config", boundary]) == 3
    assert main(["limit", "--config", boundary]) == 3
    cfg = _write(tmp_path, "cfg.json", BASE)
    # perturbing the reserve above the feasibility frontier: invariant failure
    assert main(["verify", "--config", cfg, "--perturb", "r", "0.4"]) == 2
    # an oracle grid below 101 points, 0 included, is a domain error
    for m in ("0", "100"):
        assert main(["verify", "--config", cfg, "--oracle-grid", m]) == 1
    capsys.readouterr()


def test_an_oracle_grid_past_its_cap_is_a_config_error(tmp_path, capsys):
    # the cap is checked before the grid is made (10**12 points would take
    # 8 TB): one config-error line, and no large allocation
    cfg = _write(tmp_path, "cfg.json", BASE)
    for m in (verify.ORACLE_GRID_MAX + 1, 10**12):
        tracemalloc.start()
        try:
            assert main(["verify", "--config", cfg, "--oracle-grid", str(m)]) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 24
        err = capsys.readouterr().err
        assert err == f"config error: oracle grid takes at most {verify.ORACLE_GRID_MAX} points, not {m}\n"


def test_stepping_down_density_exits_as_config_error(tmp_path, capsys):
    # piece slopes 0.79, 0.69, 1.82: F^(n-1) is concave at the first knot,
    # outside the model's domain, though the market would solve and certify
    knots = [[0, 0], [0.6072927943102149, 0.48088226137135215], [0.781401055201095, 0.6017525263933973], [1, 1]]
    cfg = {"prior": {"family": "piecewise", "knots": knots}, "n": 108, "alpha": 0.5922835957132465, "s": 0.53560838314196}
    path = _write(tmp_path, "cfg.json", cfg)
    assert main(["solve", "--config", path]) == 1
    assert main(["verify", "--config", path, "--oracle-grid", "201"]) == 1
    assert "convexity requirement on F**(n-1): n=108" in capsys.readouterr().err


def test_alpha_zero_note(tmp_path):
    cfg = _write(tmp_path, "cfg.json", {**BASE, "alpha": 0.0})
    out = tmp_path / "out.json"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert "full disclosure" in payload["note"]


def test_alpha_zero_verify_passes(tmp_path):
    cfg = _write(tmp_path, "cfg.json", {**BASE, "n": 3, "alpha": 0.0})
    out = tmp_path / "v.json"
    assert main(["verify", "--config", cfg, "--oracle-grid", "201", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["certificate"]["pass"]
    assert payload["equilibrium"]["beta_star"] is None


def test_sweep_csv(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        "sweep.json",
        {
            "prior": {"family": "uniform"},
            "alpha": 0.5,
            "s": 0.1,
            "axis": "n",
            "grid": [2, 3, 19, 20],
        },
    )
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("# config_sha256=")
    assert lines[1].startswith("# version=")
    header = lines[2].split(",")
    assert header[0] == "n"
    assert "verdict_vs_prev" in header
    assert len(lines) == 3 + 4
    # the multi-visit column drops to zero at the concealment threshold
    rows = [dict(zip(header, line.split(","))) for line in lines[3:]]
    assert float(rows[0]["p_multi_visit"]) > 0
    assert float(rows[2]["p_multi_visit"]) == 0.0

    # an alpha axis keeps the grid values as written, and alpha = 1 is a
    # per-point error
    alpha_cfg = {"prior": {"family": "uniform"}, "n": 2, "s": 0.1, "axis": "alpha", "grid": [0, 0.5, 1]}
    assert main(["sweep", "--config", _write(tmp_path, "alpha.json", alpha_cfg), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert [line.split(",")[0] for line in lines[3:]] == ["0", "0.5", "1"]
    assert lines[-1].endswith(",alpha = 1 admits a continuum of pooling equilibria; not representable")


def test_sweep_carries_errors_per_point(tmp_path):
    cfg = _write(
        tmp_path,
        "sweep.json",
        {
            "prior": {"family": "uniform"},
            "n": 2,
            "alpha": 0.5,
            "axis": "s",
            "grid": [0.1, 0.7, 0.2],  # middle point is outside (0, mean)
        },
    )
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    rows = lines[3:]
    assert len(rows) == 3
    assert "search cost" in rows[1]
    # the point after an error has no verdict against it
    header = lines[2].split(",")
    assert dict(zip(header, rows[2].split(",")))["verdict_vs_prev"] == ""


def test_simulate_requires_seed_and_writes_curve(tmp_path):
    cfg = _write(tmp_path, "sim.json", {**BASE, "consumers": 20000, "bins": 20})
    assert main(["simulate", "--config", cfg]) == 1  # --seed is mandatory
    out = tmp_path / "sim.json.out"
    curve = tmp_path / "curve.csv"
    code = main(
        [
            "simulate",
            "--config",
            cfg,
            "--seed",
            "99",
            "--out",
            str(out),
            "--curve-out",
            str(curve),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["report"]["consumers"] == 20000
    assert max(abs(z) for z in payload["z_scores"].values()) <= 5.0
    lines = curve.read_text().strip().splitlines()
    assert lines[2].split(",") == ["bin_left", "bin_right", "v_mid", "u_hat", "se", "u_analytic"]


def test_simulate_statistical_failure_exit(tmp_path, monkeypatch):
    # force an impossible z-score to confirm the hard-failure exit path
    import disclose_eq.cli as cli

    monkeypatch.setattr(cli, "_z_scores", lambda eq, report: {"eta": 12.0})
    cfg = _write(tmp_path, "sim.json", {**BASE, "consumers": 2000, "bins": 20})
    assert main(["simulate", "--config", cfg, "--seed", "1"]) == 5


def test_limit_command(tmp_path):
    cfg = _write(
        tmp_path, "lim.json", {"prior": {"family": "uniform"}, "alpha": 0.5, "s": 0.1}
    )
    out = tmp_path / "lim.out"
    assert main(["limit", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["n_lower_bar"] == 19
    seq = payload["v_H_sequence"]
    assert [n for n, _ in seq] == [19 * 2**k for k in range(7)]
    vs = [v for _, v in seq]
    assert all(b < a for a, b in zip(vs, vs[1:]))
    # each entry is the solved market's contact point, to the bit
    for n, v_h in seq:
        assert v_h == endogenous.solve_endog(disclose_eq.UniformPrior(), n, 0.5, 0.1).v_h_star
    assert payload["limit"]["v_H_inf"] == pytest.approx(0.8, abs=1e-9)
    assert payload["limit"]["atom_mass"] == pytest.approx(0.8, abs=1e-9)


def test_limit_starts_inside_the_domain(tmp_path):
    # power(0.524...) is convex only from n = 3; n = 2 would conceal but lies outside the model
    config = {"prior": {"family": "power", "a": 0.5242896958412805}, "alpha": 0.544892716095088, "s": 0.24267768031576822}
    out = tmp_path / "lim.out"
    assert main(["limit", "--config", _write(tmp_path, "lim.json", config), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["n_lower_bar"] == 3
    assert payload["v_H_sequence"][0][0] == 3
    assert main(["solve", "--config", _write(tmp_path, "cfg.json", {**config, "n": 2})]) == 1


def test_hetero_command(tmp_path):
    cfg = _write(
        tmp_path,
        "het.json",
        {
            "prior": {"family": "uniform"},
            "alpha": 0.5,
            "cost_model": {"type": "discrete", "points": [[0.1, 0.5], [0.2, 0.5]]},
        },
    )
    out = tmp_path / "het.out"
    assert main(["hetero", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["first_holding_n"] == 32
    assert payload["first_holding_report"]["holds"]
    assert payload["first_holding_report"]["b_star"] == pytest.approx(2.5)
    bad = _write(
        tmp_path,
        "bad.json",
        {
            "prior": {"family": "uniform"},
            "alpha": 0.5,
            "cost_model": {"type": "discrete", "points": [[-0.1, 1.0]]},
        },
    )
    assert main(["hetero", "--config", bad]) == 1


SIM = {**BASE, "consumers": 2000, "bins": 20}
SWEEP = {**BASE, "axis": "s", "grid": [0.1, 0.2]}
LIMIT = {"prior": {"family": "uniform"}, "alpha": 0.5, "s": 0.1, "doublings": 1}
HETERO = {
    "prior": {"family": "uniform"},
    "alpha": 0.5,
    "cost_model": {"type": "discrete", "points": [[0.1, 0.5], [0.2, 0.5]]},
}


@pytest.mark.parametrize(
    "command, cfg, extra",
    [
        ("sweep", {k: v for k, v in SWEEP.items() if k != "n"}, []),
        ("sweep", {**SWEEP, "grid": [0.1, "x"]}, []),
        ("sweep", {**SWEEP, "axis": "n", "grid": [2.7, 3.9]}, []),
        ("sweep", {**SWEEP, "axis": "beta"}, []),
        ("solve", {**BASE, "alpha": "abc"}, []),
        ("solve", {**BASE, "alpha": [1]}, []),
        ("limit", {**LIMIT, "alpha": "x"}, []),
        ("limit", {**LIMIT, "doublings": "x"}, []),
        ("limit", {**LIMIT, "doublings": -1}, []),
        ("limit", {**LIMIT, "doublings": 2000}, []),
        ("solve", {**BASE, "n": 10**400}, []),
        ("hetero", {**HETERO, "n": "abc"}, []),
        ("simulate", {**SIM, "consumers": "many"}, ["--seed", "1"]),
        ("simulate", {**SIM, "bins": "x"}, ["--seed", "1"]),
        ("simulate", {**SIM, "consumers": 10**15}, ["--seed", "1"]),
        ("simulate", {**SIM, "bins": 10**6}, ["--seed", "1"]),
        ("simulate", {**SIM, "cost_model": {"type": "single"}}, ["--seed", "1"]),
        ("verify", BASE, ["--perturb", "v_L", "abc"]),
        ("verify", BASE, ["--perturb", "v_L", "inf"]),
        ("verify", BASE, ["--perturb", "v_L", "nan"]),
        ("solve", {**BASE, "prior": {"family": "power", "a": "2.0"}}, []),
        ("solve", {**BASE, "prior": {"family": "power", "a": True}}, []),
        ("solve", {**BASE, "prior": {"family": "power", "a": 10**400}}, []),
        ("solve", {**BASE, "prior": {"family": "piecewise", "knots": [[0, 0], ["0.5", 0.5], [1, 1]]}}, []),
        ("hetero", {**HETERO, "cost_model": {"type": "discrete", "points": [["0.05", 0.5], [0.1, 0.5]]}}, []),
        ("hetero", {**HETERO, "cost_model": {"type": "continuous", "knots": [[0.05, False], [0.1, True]]}}, []),
        ("simulate", {**SIM, "cost_model": {"type": "discrete", "points": [[10**400, 1.0]]}}, ["--seed", "1"]),
    ],
    ids=[
        "sweep-no-base-n",
        "sweep-grid-string",
        "sweep-non-integral-n",
        "sweep-unknown-axis",
        "solve-alpha-string",
        "solve-alpha-list",
        "limit-alpha-string",
        "limit-doublings-string",
        "limit-doublings-negative",
        "limit-n-past-float-range",
        "solve-n-past-float-range",
        "hetero-n-string",
        "simulate-consumers-string",
        "simulate-bins-string",
        "simulate-consumers-past-cap",
        "simulate-bins-past-cap",
        "simulate-single-cost-no-s",
        "verify-perturb-delta-string",
        "verify-perturb-delta-inf",
        "verify-perturb-delta-nan",
        "prior-a-string",
        "prior-a-bool",
        "prior-a-past-float-range",
        "prior-knot-string",
        "discrete-cost-string",
        "continuous-knot-bool",
        "cost-past-float-range",
    ],
)
def test_malformed_config_is_a_config_error(tmp_path, capsys, command, cfg, extra):
    cfg_path = _write(tmp_path, "cfg.json", cfg)
    out = str(tmp_path / "out")
    assert main([command, "--config", cfg_path, "--out", out, *extra]) == 1
    assert capsys.readouterr().err.startswith("config error:")


NAN = float("nan")  # json.dumps writes NaN and Infinity, and json.load reads them


@pytest.mark.parametrize(
    "command, cfg, key",
    [
        ("hetero", {**HETERO, "cost_model": {"type": "discrete", "points": [[0.05, 0.5], [NAN, 0.25], [0.1, 0.25]]}}, "cost"),
        ("solve", {**BASE, "prior": {"family": "piecewise", "knots": [[0, 0], [NAN, 0.5], [1, 1]]}}, "knot"),
        ("sweep", {**SWEEP, "grid": [0.1, NAN, 0.2]}, "grid"),
        ("solve", {**BASE, "alpha": float("inf")}, "alpha"),
    ],
    ids=["hetero-cost-nan", "prior-knot-nan", "sweep-grid-nan", "solve-alpha-infinity"],
)
def test_a_non_finite_number_is_a_config_error_naming_its_key(tmp_path, capsys, command, cfg, key):
    assert main([command, "--config", _write(tmp_path, "cfg.json", cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"{key} must be finite, got " in err


@pytest.mark.parametrize(
    "command, cfg, extra",
    [
        ("solve", BASE, ["--out", "{missing}/out.json"]),
        ("sweep", SWEEP, ["--out", "{missing}/out.csv"]),
        ("simulate", SIM, ["--seed", "1", "--curve-out", "{missing}/curve.csv"]),
    ],
    ids=["solve-out", "sweep-out", "simulate-curve-out"],
)
def test_unwritable_output_is_a_config_error(tmp_path, capsys, command, cfg, extra):
    missing = tmp_path / "no-such-dir"
    argv = [command, "--config", _write(tmp_path, "cfg.json", cfg), *(a.format(missing=missing) for a in extra)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert f"config error: cannot write {missing}/" in captured.err
    assert captured.out == ""  # simulate writes its curve before its JSON


# Byte-level pin of the outputs: the exit code and the sha256 of stdout,
# stderr and every written file, recorded before the output path was
# rewritten.  They cover what the other tests read past: key order,
# indentation, trailing newlines and CSV line endings.  The package
# version is in every output, so a version bump re-records them.
# id: (config, arguments after --config; "{out}" and "{curve}" name written files)
PINNED_CASES = {
    "solve": (BASE, ["solve"]),
    "solve-out": (BASE, ["solve", "--out", "{out}"]),
    "solve-alpha-0": ({**BASE, "alpha": 0.0}, ["solve"]),
    "sweep": ({**SWEEP, "grid": [0.05, 0.1, 0.7, 0.2]}, ["sweep"]),  # 0.7: a per-point error
    "sweep-out": ({**SWEEP, "grid": [0.05, 0.1, 0.7, 0.2]}, ["sweep", "--out", "{out}"]),
    "verify-oracle": (BASE, ["verify", "--oracle-grid", "201"]),
    "verify-perturb": (BASE, ["verify", "--perturb", "v_L", "0.05"]),
    "simulate-curve": (SIM, ["simulate", "--seed", "3", "--curve-out", "{curve}"]),
    "limit": (LIMIT, ["limit"]),
    "hetero": ({**HETERO, "n": 32}, ["hetero"]),
}
PINNED = {
    "hetero": {"code": 0, "stdout": "e5807bef565027ea", "stderr": "e3b0c44298fc1c14", "files": {}},
    "limit": {"code": 0, "stdout": "5855e61915c3c695", "stderr": "e3b0c44298fc1c14", "files": {}},
    "simulate-curve": {"code": 0, "stdout": "b38413ae25cf9f03", "stderr": "e3b0c44298fc1c14", "files": {"curve": "895ed028676fd2bd"}},
    "solve": {"code": 0, "stdout": "4ecb4ef57d7d319e", "stderr": "8db909dcd60e1bcc", "files": {}},
    "solve-alpha-0": {"code": 0, "stdout": "edb38ef76aefc56b", "stderr": "05da6159a7629f17", "files": {}},
    "solve-out": {"code": 0, "stdout": "e3b0c44298fc1c14", "stderr": "8db909dcd60e1bcc", "files": {"out": "4ecb4ef57d7d319e"}},
    "sweep": {"code": 0, "stdout": "0545831dc137cccc", "stderr": "e3b0c44298fc1c14", "files": {}},
    "sweep-out": {"code": 0, "stdout": "e3b0c44298fc1c14", "stderr": "e3b0c44298fc1c14", "files": {"out": "0545831dc137cccc"}},
    "verify-oracle": {"code": 0, "stdout": "7e511c21d81526ff", "stderr": "e3b0c44298fc1c14", "files": {}},
    "verify-perturb": {"code": 4, "stdout": "6e0bf68f85efffa1", "stderr": "e3b0c44298fc1c14", "files": {}},
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def run_pinned_case(case: str, tmp_path, environ: dict[str, str] | None = None) -> dict:
    """Run a pinned case through cli.main in this process, or, given
    environment variables to add, through `python -m disclose_eq`."""
    cfg, args = PINNED_CASES[case]
    files = {name: tmp_path / f"{name}.txt" for name in ("out", "curve") if f"{{{name}}}" in args}
    argv = [a.format(out=files.get("out"), curve=files.get("curve")) for a in args]
    argv[1:1] = ["--config", _write(tmp_path, "cfg.json", cfg)]
    if environ is None:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        stdout, stderr = out.getvalue().encode(), err.getvalue().encode()
    else:
        proc = _run_entry(argv, environ)
        code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
    return {
        "code": code,
        "stdout": _sha(stdout),
        "stderr": _sha(stderr),
        "files": {name: _sha(path.read_bytes()) for name, path in files.items()},
    }


@pytest.mark.parametrize(
    "case, environ",
    [pytest.param(case, None, id=case) for case in sorted(PINNED_CASES)]
    # a cold process, which ends by os._exit, writes the same bytes and
    # exit code (4 among them), and so it does with the caller's own
    # OpenBLAS pool
    + [pytest.param(case, {}, id=f"{case}-python-m") for case in sorted(PINNED_CASES)]
    + [pytest.param("verify-oracle", {"OPENBLAS_NUM_THREADS": "2"}, id="verify-oracle-python-m-openblas-2")],
)
def test_output_bytes_are_pinned(tmp_path, case, environ):
    assert run_pinned_case(case, tmp_path, environ) == PINNED[case]


@pytest.mark.parametrize("threads", ["abc", "0"])
def test_malformed_thread_count_is_a_config_error(tmp_path, threads):
    argv = ["simulate", "--config", _write(tmp_path, "sim.json", SIM), "--seed", "1"]
    proc = _run_entry(argv, {"DISCLOSE_EQ_THREADS": threads}, text=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith("config error:") and "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("threads", ["abc", "0", "-2", "1.5", ""])
def test_malformed_thread_env_var_is_a_domain_error(eq_uniform_small, monkeypatch, threads):
    monkeypatch.setenv("DISCLOSE_EQ_THREADS", threads)
    with pytest.raises(DomainError, match="DISCLOSE_EQ_THREADS"):
        _thread_count()
    # the variable is the command line's: the library does not read it
    cfg = montecarlo.SimConfig(consumers=1000, seed=1, cost_model=montecarlo.SingleCost(0.1), bins=20)
    montecarlo.simulate_market(eq_uniform_small, cfg)


def test_thread_env_var_leaves_totals_unchanged(tmp_path, monkeypatch, capsys):
    cfg = {**SIM, "consumers": 150_000, "bins": 25}
    argv = ["simulate", "--config", _write(tmp_path, "sim.json", cfg), "--seed", "77"]
    monkeypatch.delenv("DISCLOSE_EQ_THREADS", raising=False)
    assert main(argv) == 0
    serial = capsys.readouterr().out
    monkeypatch.setenv("DISCLOSE_EQ_THREADS", "3")
    assert main(argv) == 0
    assert capsys.readouterr().out == serial


def test_malformed_thread_count_fails_before_the_solve(tmp_path, monkeypatch, capsys):
    import disclose_eq.cli as cli

    def never(*args):
        raise AssertionError("solved the market before reading DISCLOSE_EQ_THREADS")

    monkeypatch.setenv("DISCLOSE_EQ_THREADS", "abc")
    monkeypatch.setattr(cli, "solve_endog", never)
    assert main(["simulate", "--config", _write(tmp_path, "sim.json", SIM), "--seed", "1"]) == 1
    assert capsys.readouterr().err.startswith("config error:")


# Runs in a fresh interpreter, so that the imports of this test process do
# not count: every command but verify and hetero must leave scipy unloaded,
# none of them may load numpy.ma (np.unique's first call imports it) or
# numpy.polynomial (about 10 ms of import that no command needs), and
# "loaded" lists, after each command, which of the modules that only some
# commands run are loaded: a cold process compiles and builds only what
# its command calls.
_NO_SCIPY_SCRIPT = """
import json, sys
from disclose_eq import cli
runs = json.loads(sys.argv[1])
watched = {"concurrent.futures", "csv", "disclose_eq.costs", "disclose_eq.montecarlo",
           "disclose_eq.verify", "disclose_eq.welfare"}
codes, loaded = [], []
for argv in runs:
    codes.append(cli.main(argv))
    loaded.append(sorted(watched & set(sys.modules)))
print(json.dumps({
    "codes": codes,
    "loaded": loaded,
    "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
    "numpy.ma": "numpy.ma" in sys.modules,
    "numpy.polynomial": "numpy.polynomial" in sys.modules,
}))
"""


def test_solve_sweep_limit_simulate_do_not_import_scipy(tmp_path):
    sweep = {**BASE, "axis": "s", "grid": [0.05, 0.1, 0.15]}
    limit = {"prior": {"family": "uniform"}, "alpha": 0.5, "s": 0.1, "doublings": 2}
    # a one-point cost distribution at s: the z-scores against the theory hold
    cost_model = {"type": "discrete", "points": [[0.1, 1.0]]}
    sim = {**BASE, "consumers": 4000, "bins": 20, "cost_model": cost_model}
    runs = [
        ["solve", "--config", _write(tmp_path, "solve.json", BASE)],
        ["sweep", "--config", _write(tmp_path, "sweep.json", sweep)],
        ["limit", "--config", _write(tmp_path, "limit.json", limit)],
        ["simulate", "--config", _write(tmp_path, "sim.json", sim), "--seed", "5"],
    ]
    for argv in runs:
        argv += ["--out", str(tmp_path / f"{argv[0]}.out")]
    result = _run_fresh(_NO_SCIPY_SCRIPT, json.dumps(runs))
    assert result["codes"] == [0, 0, 0, 0]
    # solve loads none of them, sweep the welfare layer and csv, and only
    # simulate the cost models and the simulator with its thread pool
    welfare = ["csv", "disclose_eq.welfare"]
    simulator = ["concurrent.futures", "disclose_eq.costs", "disclose_eq.montecarlo"]
    assert result["loaded"] == [[], welfare, welfare, sorted(welfare + simulator)]
    assert result["scipy"] == []
    assert result["numpy.ma"] is False
    assert result["numpy.polynomial"] is False
    # verify re-exports the moved names as the same objects
    assert verify.DiscreteCosts is costs.DiscreteCosts
    assert verify.ContinuousCosts is costs.ContinuousCosts
    assert verify.payoff_u is endogenous.payoff_u


def _fresh_env(**environ):
    """This process's environment with src on the path and environ's
    variables set, or removed where their value is None."""
    src = os.path.dirname(os.path.dirname(disclose_eq.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])), **environ}
    return {key: value for key, value in env.items() if value is not None}


def _run_entry(argv, environ=None, prefix=(), **kwargs):
    """Run `python [prefix] -m disclose_eq argv` with src on the path and
    environ as _fresh_env applies it.  PYTHONUNBUFFERED is unset unless
    environ sets it: a pipe's stdout is then block-buffered, as a user's
    is, and the entry's flush before its os._exit is what writes it."""
    command = [sys.executable, *prefix, "-m", "disclose_eq", *argv]
    env = _fresh_env(**{"PYTHONUNBUFFERED": None, **(environ or {})})
    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE}
    return subprocess.run(command, env=env, timeout=120, **{**streams, **kwargs})


def _run_fresh(script, *args, **environ):
    """Run a script in a fresh interpreter with src on the path (and
    environ as _fresh_env applies it); its last stdout line, read as JSON."""
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, env=_fresh_env(**environ), timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


_HIGHS_CORE = "scipy.optimize._highspy._core"


def test_verify_and_hetero_load_only_the_highs_binding(tmp_path):
    power = {"prior": {"family": "power", "a": 2.0}, "n": 3, "alpha": 0.4, "s": 0.15}
    runs = [
        ["verify", "--config", _write(tmp_path, "verify.json", power), "--oracle-grid", "201"],
        ["hetero", "--config", _write(tmp_path, "hetero.json", HETERO)],
    ]
    for argv in runs:
        argv += ["--out", str(tmp_path / f"{argv[0]}.out")]
    result = _run_fresh(_NO_SCIPY_SCRIPT, json.dumps(runs))
    assert result["codes"] == [0, 0]
    # the certificates read the cost models, never the welfare layer or the simulator
    assert result["loaded"] == [["disclose_eq.costs", "disclose_eq.verify"]] * 2
    # the binding and its two pybind11 submodules, and no scipy.optimize,
    # scipy.linalg or scipy.sparse
    assert _HIGHS_CORE in result["scipy"]
    assert all(m == _HIGHS_CORE or m.startswith(_HIGHS_CORE + ".") for m in result["scipy"])
    assert result["numpy.polynomial"] is False
    # the LP was solved: its value is the played one or more, where the
    # slack basis's vertex, full disclosure, pays 0.013 less
    payload = json.loads((tmp_path / "verify.out").read_text())
    assert 0.0 <= payload["oracle"]["gap"] <= payload["oracle_bound"]


# Either package may be imported first; both end up with one binding module.
_IMPORT_ORDER_SCRIPT = """
import json, sys
if sys.argv[1] == "scipy-first":
    import scipy.optimize
from disclose_eq import UniformPrior, verify
from scipy.optimize import linprog
import scipy.optimize._highspy._core as core
res = linprog([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0], method="highs")
gap = verify.oracle_gap(verify.solve_endog(UniformPrior(), 2, 0.65, 0.1), 201)["gap"]
print(json.dumps({"same": verify._Highs is core._Highs, "fun": res.fun, "x": list(res.x), "gap": gap}))
"""


@pytest.mark.parametrize("order", ["verify-first", "scipy-first"])
def test_verify_and_scipy_optimize_share_the_binding_in_either_order(order):
    result = _run_fresh(_IMPORT_ORDER_SCRIPT, order)
    assert result["same"] is True
    assert (result["fun"], result["x"]) == (1.0, [1.0, 0.0])
    assert abs(result["gap"]) < 0.2 / 201


_MISSING_BINDING_SCRIPT = """
import importlib.machinery, json
find_spec = importlib.machinery.PathFinder.find_spec
importlib.machinery.PathFinder.find_spec = classmethod(
    lambda cls, name, path=None, target=None: None if name == "_core" else find_spec(name, path, target)
)
try:
    import disclose_eq.verify
except Exception as exc:
    print(json.dumps({"type": type(exc).__name__, "message": str(exc)}))
"""


def test_a_missing_binding_is_an_import_error():
    import scipy

    result = _run_fresh(_MISSING_BINDING_SCRIPT)
    assert result["type"] == "ImportError"
    directory = os.path.join(os.path.dirname(scipy.__file__), "optimize", "_highspy")
    assert result["message"] == f"SciPy {scipy.__version__} has no HiGHS binding _core in {directory}"


# Each module imports only from strictly lower layers, so no import cycle
# can form.  The package __init__ re-exports the layers up to candidate,
# lazily (its __getattr__ imports them on first use), and __main__ runs the
# CLI.
_LAYERS = (
    ("errors", "tolerances"),
    ("rootfind", "priors", "costs"),
    ("posterior",),
    ("candidate",),
    ("__init__",),
    ("endogenous",),
    ("exogenous",),
    ("welfare", "verify", "montecarlo"),
    ("cli",),
    ("__main__",),
)


def test_modules_import_only_from_lower_layers():
    rank = {name: i for i, layer in enumerate(_LAYERS) for name in layer}
    pkg = os.path.dirname(disclose_eq.__file__)
    modules = sorted(name[:-3] for name in os.listdir(pkg) if name.endswith(".py"))
    assert sorted(rank) == modules  # a new module needs a layer
    for mod in modules:
        with open(os.path.join(pkg, f"{mod}.py")) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or node.level == 0:
                continue
            if node.module:
                targets = [node.module]
            else:  # "from . import x": a sibling module, else a name of __init__
                targets = [a.name if a.name in rank else "__init__" for a in node.names]
            for target in targets:
                assert rank[target] < rank[mod], f"{mod} imports {target}"


# Importing the package loads no numpy, a re-export, a submodule and every
# name in __all__ resolve afterwards, and importing any module of the
# package leaves the environment as it was: only __main__.main sets a default.
_IMPORT_SCRIPT = """
import json, os, sys
before = dict(os.environ)
import disclose_eq
numpy = sorted(m for m in sys.modules if m.split(".")[0] == "numpy")
from disclose_eq import UniformPrior, costs
exported = sorted({getattr(disclose_eq, name).__module__ for name in disclose_eq.__all__})
import disclose_eq.__main__, disclose_eq.cli, disclose_eq.montecarlo, disclose_eq.verify
print(json.dumps({
    "numpy": numpy,
    "resolved": [UniformPrior.__module__, costs.__name__],
    "exported": exported,
    "environ_kept": dict(os.environ) == before,
}))
"""


def test_importing_the_package_loads_no_numpy_and_sets_no_environment():
    result = _run_fresh(_IMPORT_SCRIPT)
    assert result == {
        "numpy": [],
        "resolved": ["disclose_eq.priors", "disclose_eq.costs"],
        "exported": ["disclose_eq.candidate", "disclose_eq.posterior", "disclose_eq.priors"],
        "environ_kept": True,
    }
    # a name that is neither a re-export nor a submodule fails as usual
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        disclose_eq.no_such_name


# Runs the CLI through __main__.main in a fresh interpreter and reports the
# process's OS threads afterwards, numpy loaded.  The entry ends the process
# by os._exit, which the probe turns into a SystemExit to report first.
_ENTRY_SCRIPT = """
import json, os
from disclose_eq.__main__ import main

def exit_to_the_probe(code):
    raise SystemExit(code)

os._exit = exit_to_the_probe
try:
    main()
except SystemExit as exc:
    code = exc.code
print(json.dumps({
    "code": code,
    "threads": len(os.listdir("/proc/self/task")),
    "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
}))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="counts threads in /proc/self/task")
@pytest.mark.parametrize("caller", [None, "2"], ids=["unset", "caller-2"])
def test_the_entry_defaults_to_a_one_thread_blas_pool(tmp_path, caller):
    argv = ["solve", "--config", _write(tmp_path, "cfg.json", BASE), "--out", str(tmp_path / "out.json")]
    result = _run_fresh(_ENTRY_SCRIPT, *argv, OPENBLAS_NUM_THREADS=caller)
    assert (result["code"], result["OPENBLAS_NUM_THREADS"]) == (0, caller or "1")
    if caller is None:  # OpenBLAS caps a caller's count at the cores it finds
        assert result["threads"] == 1


def test_a_parallel_simulation_exits_with_its_code_and_output(tmp_path, capsys):
    # three blocks of consumers, so the pool runs two threads before the exit
    argv = ["simulate", "--config", _write(tmp_path, "sim.json", {**SIM, "consumers": 140_000}), "--seed", "3"]
    assert main(argv) == 0
    serial = capsys.readouterr().out
    proc = _run_entry(argv, {"DISCLOSE_EQ_THREADS": "2"}, text=True)
    assert (proc.returncode, proc.stdout) == (0, serial)


@pytest.mark.parametrize("unbuffered", ["1", None], ids=["unbuffered", "buffered"])
def test_a_closed_stdout_still_fails(tmp_path, unbuffered):
    # like an unwritable --out: one line on stderr and exit 1, whether the
    # write or the flush after it fails, and nothing left for the exit to report
    argv = ["solve", "--config", _write(tmp_path, "cfg.json", BASE)]
    read_end, write_end = os.pipe()
    os.close(read_end)  # as `disclose-eq solve | head -c 0` leaves it
    try:
        proc = _run_entry(argv, {"PYTHONUNBUFFERED": unbuffered}, stdout=write_end)
    finally:
        os.close(write_end)
    err = proc.stderr.decode()
    assert proc.returncode == 1 and "Traceback" not in err and "Exception ignored" not in err, err
    summary, error = err.splitlines()  # solve's summary, then the error
    assert summary.startswith("r* = ") and error.startswith("config error: cannot write stdout: "), err


def test_a_missing_stdout_keeps_the_code(tmp_path):
    # no stdout at all: the output goes to --out, and the failed flush of
    # the missing stream exits as before, with the command's code
    out = tmp_path / "out.json"
    argv = ["solve", "--config", _write(tmp_path, "cfg.json", BASE), "--out", str(out)]
    proc = _run_entry(argv, stdout=None, preexec_fn=lambda: os.close(1))
    assert proc.returncode == 0 and json.loads(out.read_text())["command"] == "solve"


def test_a_profiled_entry_still_reports(tmp_path):
    # a profiler's report comes after the command returns: no fast exit under it
    proc = _run_entry(["solve", "--config", _write(tmp_path, "cfg.json", BASE)], prefix=["-m", "cProfile"])
    assert proc.returncode == 0
    assert b"function calls" in proc.stdout and b'"command": "solve"' in proc.stdout


def test_a_monitoring_tool_counts_as_a_tracer(monkeypatch):
    # Python 3.12's sys.monitoring, as coverage's sysmon core uses it
    from disclose_eq.__main__ import _observed

    monkeypatch.setattr(sys, "gettrace", lambda: None)
    monkeypatch.setattr(sys, "getprofile", lambda: None)
    tools = {}
    monkeypatch.setattr(sys, "monitoring", types.SimpleNamespace(get_tool=tools.get), raising=False)
    assert _observed() is False
    tools[1] = "coverage.py"
    assert _observed() is True


def test_the_installed_script_names_an_importable_entry():
    import tomllib
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml"), "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    module, _, name = scripts["disclose-eq"].partition(":")
    target = getattr(importlib.import_module(module), name)
    assert callable(target) and target.__module__ == "disclose_eq.__main__"


# ---------------------------------------------------------------------------
# config fuzz: malformed and edge configs through every command
# ---------------------------------------------------------------------------

_EXIT_CODES = {0, 1, 2, 3, 4, 5}  # the codes of the module docstring of cli
_ODD = [None, True, "x", "0.1", [], {}, [0.1], 0, 1, -1, 2, 0.5, 1.0, -0.0, 1e-300, 10**400, NAN, float("inf")]
_VALUES = st.one_of(st.sampled_from(_ODD), st.floats(-0.1, 1.1), st.integers(-3, 40))
# a simulation's sizes (consumers, bins, n): _VALUES without 10**400
_SMALL = st.one_of(st.sampled_from([v for v in _ODD if v != 10**400]), st.floats(-0.1, 1.1), st.integers(-3, 40))
_PAIRS = st.lists(st.lists(_VALUES, max_size=3), max_size=4)
_PRIORS = st.one_of(
    st.sampled_from([BASE["prior"], {"family": "power", "a": 2.0}, PINNED_CASES["solve"][0]["prior"]]),
    st.builds(lambda a: {"family": "power", "a": a}, _VALUES),
    st.builds(lambda knots: {"family": "piecewise", "knots": knots}, _PAIRS),
    st.sampled_from([{"family": "beta"}, {"knots": []}, "uniform"]),
)
_COSTS = st.one_of(
    st.sampled_from([HETERO["cost_model"], {"type": "continuous", "knots": [[0.05, 0.0], [0.2, 1.0]]}]),
    st.builds(lambda s: {"type": "single", "s": s}, _VALUES),
    st.builds(lambda points: {"type": "discrete", "points": points}, _PAIRS),
    st.builds(lambda knots: {"type": "continuous", "knots": knots}, _PAIRS),
    _VALUES,
)
# each command's valid config, and the values each key may take; every size
# is bounded: n <= 40 and consumers <= 10^4 where a simulation allocates
# consumers x n, at most 500 bins, 12 doublings and 4 sweep points
_FUZZ_BASES = {
    "solve": BASE, "verify": BASE, "sweep": SWEEP, "simulate": SIM, "limit": LIMIT,
    "hetero": {**HETERO, "n": 32},
}
_N_LARGE = st.sampled_from([1000, 10**6, 2**60])
_FUZZ_KEYS = {
    "prior": _PRIORS,
    "n": st.one_of(_VALUES, _N_LARGE),
    "alpha": _VALUES,
    "s": _VALUES,
    "axis": st.sampled_from(["s", "alpha", "n", "beta", 3, None]),
    "grid": st.one_of(_VALUES, st.lists(_VALUES, max_size=4)),
    "consumers": st.one_of(_SMALL, st.integers(-2, 10**4)),
    "bins": st.one_of(_SMALL, st.integers(-1, 500)),
    "cost_model": _COSTS,
    "doublings": st.one_of(_VALUES.filter(lambda v: not isinstance(v, int) or v <= 12), st.integers(-2, 12)),
}


@st.composite
def _fuzzed_run(draw):
    """(argv after the config, config, DISCLOSE_EQ_THREADS or None)."""
    command = draw(st.sampled_from(sorted(_FUZZ_BASES)))
    cfg = dict(_FUZZ_BASES[command])
    for key in draw(st.lists(st.sampled_from(sorted(_FUZZ_KEYS)), max_size=3, unique=True)):
        if draw(st.integers(0, 3)) == 0 and key in cfg:
            del cfg[key]
        else:
            cfg[key] = draw(_SMALL if command == "simulate" and key == "n" else _FUZZ_KEYS[key])
    if draw(st.integers(0, 19)) == 0:
        cfg = draw(st.sampled_from([[], "solve", 3, None, {"config": [], "equilibrium": {}}]))
    argv = [command]
    if command == "verify":
        grid = draw(st.sampled_from([None, -1, 0, 100, 101, 201, 2001]))
        argv += [] if grid is None else ["--oracle-grid", str(grid)]
        if draw(st.booleans()):
            field = draw(st.sampled_from(["v_L", "v_L", "r", "beta"]))
            argv += ["--perturb", field, draw(st.sampled_from(["0.05", "-0.05", "0.4", "1e-9", "abc", "nan"]))]
    if command == "simulate":
        seed = draw(st.sampled_from([None, 0, 1, 7, 8, -1, 2**64]))
        argv += [] if seed is None else ["--seed", str(seed)]
        argv += ["--curve-out", "{curve}"] if draw(st.booleans()) else []
    threads = draw(st.sampled_from([None, None, None, "1", "2", "0", "abc", ""]))
    return argv, cfg, threads


@settings(derandomize=True, max_examples=200, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(run=_fuzzed_run())
# codes the draws seldom reach: an unsupported boundary, a certificate
# failure, an invariant failure, and a parallel simulation
@example(run=(["solve"], {**BASE, "alpha": 1.0}, None))
@example(run=(["verify", "--perturb", "v_L", "0.05"], BASE, None))
@example(run=(["solve"], {**BASE, "n": 1375, "alpha": 0.5464099987813732, "s": 0.30076378322172764}, None))
@example(run=(["simulate", "--seed", "1"], {**SIM, "consumers": 10**4}, "2"))
def test_every_fuzzed_config_exits_with_a_documented_code(tmp_path, run):
    argv, cfg, threads = run
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(cfg))
    argv = [a.format(curve=tmp_path / "curve.csv") for a in argv]
    argv[1:1] = ["--config", str(config), "--out", str(tmp_path / "out")]
    saved = os.environ.get("DISCLOSE_EQ_THREADS")
    if threads is None:
        os.environ.pop("DISCLOSE_EQ_THREADS", None)
    else:
        os.environ["DISCLOSE_EQ_THREADS"] = threads
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            code = main(argv)  # an exception that escapes fails the test
    finally:
        if saved is None:
            os.environ.pop("DISCLOSE_EQ_THREADS", None)
        else:
            os.environ["DISCLOSE_EQ_THREADS"] = saved
    assert code in _EXIT_CODES
    if code == 1:
        assert err.getvalue().startswith("config error:")
