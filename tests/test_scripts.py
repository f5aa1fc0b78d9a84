import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args",
    [
        ("paper_claims.py", ["--markets", "6"]),
        ("domain_probe.py", ["--seed", "1", "--markets", "30", "--out", "domain_probe.csv"]),
        ("domain_probe.py", ["--edges", "--markets", "30", "--out", "domain_probe.csv"]),
    ],
)
def test_script_runs(tmp_path, script, args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    for arg in args:
        if arg.endswith(".csv"):
            assert (tmp_path / arg).stat().st_size > 0
    if script == "paper_claims.py":
        rows = [line for line in proc.stdout.splitlines() if line.startswith("(")]
        assert [row[:3] for row in rows[:4]] == ["(a)", "(b)", "(c)", "(d)"] and len(rows) == 10
        assert "typed errors: " in proc.stdout and proc.stdout.endswith("untyped exceptions: 0\n")
    if script == "domain_probe.py":
        with open(tmp_path / "domain_probe.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 30
        assert {row["family"] for row in rows} == {"uniform", "power", "piecewise"}
        assert "total 30: " in proc.stdout
        if "--edges" in args:  # the tally by edge, and each market's edge in the CSV
            assert {row["edge"] for row in rows} == {"alpha->0", "alpha->1", "s->0", "s->mu"}
            assert [line.split()[0] for line in proc.stdout.splitlines() if line.startswith(("alpha->", "s->"))] == [
                "alpha->0", "alpha->1", "s->0", "s->mu"]


def test_script_runs_from_a_bare_checkout(tmp_path):
    # no install and no PYTHONPATH: the script finds the checkout's src/ itself
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "paper_claims.py"), "--markets", "3"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "untyped exceptions: 0" in proc.stdout


# The benchmark's tracer binds functions of the package by name
# (exogenous.solve_v_l_eq, exogenous.r_lower_bar.cache_info,
# exogenous.z_function, montecarlo._simulate_block, ...): a rename fails
# install() here, and a traced solve must give the untraced numbers.
_TRACED_RUN = """
import json
from disclose_eq import UniformPrior, endogenous, montecarlo, verify

def run():
    eq = endogenous.solve_endog(UniformPrior(), 2, 0.65, 0.1)
    sim = montecarlo.simulate_market(eq, montecarlo.SimConfig(2000, 1, montecarlo.SingleCost(0.1)))
    out = [eq.to_json_dict(), verify.check_dm_conditions(eq).to_json_dict(), verify.oracle_gap(eq, 201)]
    return json.dumps(out + [sim.to_json_dict()], sort_keys=True)

untraced = run()
import tracer
t = tracer.Tracer()
tracer.install(t)
import worker
print(json.dumps([untraced, run(), sorted(t.summary()["spans"])]))
"""


def test_the_benchmark_tracer_binds_and_keeps_the_outputs(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]))
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_RUN], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    untraced, traced, spans = json.loads(proc.stdout)
    assert traced == untraced
    assert {"endogenous.solve_endog.uniform", "verify.oracle_gap", "montecarlo.simulate_market.single"} <= set(spans)
