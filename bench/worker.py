"""One benchmark run of one workload, in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N --seconds T \\
        --mode measure|profile|setup|traced [--rounds R] --out RESULT.json

`setup` stops once the inputs exist (the set-up probe), `measure` runs
a fixed number of whole rounds of work, sized from T, `profile` does the
same with the CLI processes under -X importtime (the untraced run of a
traced benchmark run), and `traced` installs the tracer and replays
exactly R rounds.  Work is a closed loop: one call
at a time from this process (the simulator's own pool aside), CLI
subprocesses one after another.  Run with `src` on PYTHONPATH.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".bench_out"

ORACLE_M = 201
ORACLE_COEFF = 0.2  # the CLI's calibrated oracle-gap bound is ORACLE_COEFF / m
CLOSED_FORM_TOL = 1e-8
PAYOFF_TOL = 1e-9
Z_LIMIT = 5.0
SAFETY_FACTOR = 2.5  # a run stops starting rounds after this many times --seconds
PROBE_REF_S = 0.002  # machine_speed()'s kernel on a 2-vCPU Xeon VM at its usual speed

# certify_random draws each round's markets from a fixed design stream that
# spans the documented domain, and --seed perturbs every draw; see README.
DESIGN_SEED = 250606319
JITTER = 0.1  # logit-scale perturbation of alpha, s/mu and knots per seed
# Failures the baseline shows only on large-n and near-bound markets; see
# CertifyRandom.summarize.
KNOWN_DEFECT_SLOTS = ("large", "edge")
KNOWN_DEFECT_CHECKS = ("exception", "certificate", "oracle")


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _logit_jitter(p: float, rng: np.random.Generator) -> float:
    z = math.log(p) - math.log1p(-p) + JITTER * float(rng.standard_normal())
    return min(max(1.0 / (1.0 + math.exp(-z)), 1e-9), 1.0 - 1e-9)


def _near_bound(rng: np.random.Generator) -> float:
    return float(10.0 ** rng.uniform(-6.0, -3.0))


# ---------------------------------------------------------------------------
# certify_random: independent markets, solved and certified one by one
# ---------------------------------------------------------------------------

# (family, kind): small-n markets in the bottom-disclosure zone (s small
# against 1 - alpha), in the no-bottom-disclosure zone, large n, and
# alpha or s within 1e-3 of a bound.  Every round holds one of each.
SLOTS = [
    (fam, kind)
    for fam in ("uniform", "power", "piecewise")
    for kind in ("bottom", "top", "large", "edge")
    if not (fam == "piecewise" and kind == "edge")
]


def _design_market(rng: np.random.Generator, fam: str, kind: str) -> dict:
    """A market from the design stream, before the per-seed perturbation."""
    if fam == "power":
        prior = {"family": "power", "a": float(np.exp(rng.uniform(np.log(0.25), np.log(8.0))))}
    elif fam == "piecewise":
        k = int(rng.integers(1, 4))
        xs = np.sort(rng.uniform(0.05, 0.95, k))
        qs = np.sort(rng.uniform(0.02, 0.98, k))
        prior = {"family": "piecewise", "knots": [[0.0, 0.0], *zip(xs.tolist(), qs.tolist()), [1.0, 1.0]]}
    else:
        prior = {"family": "uniform"}
    if kind == "large":
        n = int(np.exp(rng.uniform(np.log(7.0), np.log(1e4))))
    else:
        n = int(rng.integers(2, 7))
    alpha = float(rng.uniform(0.02, 0.98))
    if kind == "bottom":
        t = float(rng.uniform(0.02, 0.45)) * (1.0 - alpha)
    elif kind == "top":
        t = float(rng.uniform(min(1.1 * (1.0 - alpha), 0.97), 0.99))
    elif kind == "large":
        t = float(rng.uniform(0.01, 0.99))
    else:  # edge
        t = float(rng.uniform(0.01, 0.99))
        which = int(rng.integers(4))
        if which == 0:
            alpha = _near_bound(rng)
        elif which == 1:
            alpha = 1.0 - _near_bound(rng)
        elif which == 2:
            t = _near_bound(rng)
        else:
            t = 1.0 - _near_bound(rng)
    return {"prior": prior, "n": n, "alpha": alpha, "t": t}


def _perturb(base: dict, rng: np.random.Generator) -> dict:
    prior = dict(base["prior"])
    if prior["family"] == "power":
        prior["a"] = prior["a"] * math.exp(JITTER * float(rng.standard_normal()))
    elif prior["family"] == "piecewise":
        inner = [[_logit_jitter(x, rng), _logit_jitter(q, rng)] for x, q in prior["knots"][1:-1]]
        prior["knots"] = [[0.0, 0.0], *inner, [1.0, 1.0]]
    return {"prior": prior, "n": base["n"], "alpha": _logit_jitter(base["alpha"], rng), "t": _logit_jitter(base["t"], rng)}


def certify_rounds(seed: int):
    """Endless rounds of market configs; the design stream is the same for
    every seed, the perturbations come from the seed."""
    from disclose_eq.errors import ConfigError
    from disclose_eq.priors import prior_from_json

    def admissible(m: dict):
        try:
            prior = prior_from_json(m["prior"])
        except ConfigError:  # a perturbation crossed two knots; perturb again
            return None
        return prior if prior.check_convexity(m["n"]) else None

    design = np.random.default_rng(DESIGN_SEED)
    jitter = np.random.default_rng(seed)
    while True:
        batch = []
        for fam, kind in SLOTS:
            base = _design_market(design, fam, kind)
            while admissible(base) is None:  # the only discarded draws
                base = _design_market(design, fam, kind)
            while True:
                m = _perturb(base, jitter)
                prior = admissible(m)
                if prior is not None:
                    break
            cfg = {"prior": m["prior"], "n": m["n"], "alpha": m["alpha"], "s": m["t"] * prior.mean()}
            batch.append({"slot": f"{fam}/{kind}", "config": cfg})
        yield batch


def closed_form_error(alpha: float, s: float, r_star: float, v_l_star: float) -> float:
    """Largest deviation from the uniform n = 2 closed forms (criterion 2)."""
    if s < (1.0 - alpha) / 2.0:
        q = math.sqrt(2.0 * s / (1.0 - alpha))
        v_l, r = 1.0 - q, 1.0 - (2.0 - alpha) / 2.0 * q
    else:
        v_l, r = 0.0, 0.5 - s
    return max(abs(v_l_star - v_l), abs(r_star - r))


class CertifyRandom:
    name = "certify_random"
    # At the reference speed the baseline takes 21 s for the first four
    # rounds (2.6 to 11.7 s each), so --seconds 25 asks for four.
    round_s = 6.0
    min_rounds = 1

    def setup(self, seed: int, mode: str) -> None:
        from disclose_eq import cli, endogenous, priors, verify

        self.cli, self.endog, self.priors, self.verify = cli, endogenous, priors, verify
        self.rounds = certify_rounds(seed)

    def next_round(self) -> list:
        return next(self.rounds)

    def execute(self, item: dict) -> dict:
        cfg = item["config"]
        rec = {"slot": item["slot"], "config_sha256": self.cli._config_hash(cfg), "config": cfg}
        t0 = time.perf_counter()
        solve_s = cert_s = None
        try:
            prior = self.priors.prior_from_json(cfg["prior"])
            eq = self.endog.solve_endog(prior, cfg["n"], cfg["alpha"], cfg["s"])
            t1 = time.perf_counter()
            solve_s = t1 - t0
            report = self.verify.check_dm_conditions(eq)
            gap = self.verify.oracle_gap(eq, ORACLE_M)
            identity = self.verify.payoff_identity_gap(eq)
            cert_s = time.perf_counter() - t1
            check, reason = "", ""
            err = (closed_form_error(cfg["alpha"], cfg["s"], eq.r_star, eq.v_l_star)
                   if cfg["prior"]["family"] == "uniform" and cfg["n"] == 2 else 0.0)
            if err > CLOSED_FORM_TOL:
                check, reason = "closed_form", f"closed-form error {err!r}"
            elif abs(identity) > PAYOFF_TOL:
                check, reason = "identity", f"payoff identity gap {identity!r}"
            elif not report.passed:
                check, reason = "certificate", "certificate rejected"
            elif gap["gap"] > ORACLE_COEFF / gap["m"]:
                check, reason = "oracle", f"oracle gap {gap['gap']!r}"
            out = [eq.r_star, eq.v_l_star, eq.v_h_star, eq.v_t_star, eq.beta_star, eq.eta, gap["gap"], identity]
            rec["out"] = [repr(x) for x in out] + [repr(report.to_json_dict())]
        except Exception as exc:  # any failure of the program is a failed attempt
            check, reason = "exception", f"{type(exc).__name__}: {exc}"
            rec["out"] = [reason]
        rec.update(wall=time.perf_counter() - t0, solve_s=solve_s, cert_s=cert_s, failed=reason, check=check)
        return rec

    def summarize(self, records: list, seconds) -> tuple[dict, dict, list]:
        ok = [r for r in records if not r["failed"]]
        solves = [seconds(r, "solve_s") for r in records if r["solve_s"] is not None]
        certs = [seconds(r, "cert_s") for r in records if r["cert_s"] is not None]
        named = {
            "markets_per_s": len(ok) / sum(seconds(r, "wall") for r in records),
            "certificates_per_s": 1.0 / statistics.geometric_mean(certs) if certs else 0.0,
            "solves_per_s": 1.0 / statistics.geometric_mean(solves) if solves else 0.0,
        }
        ops = {
            "op1_per_s": named["markets_per_s"],
            "op2_per_s": named["certificates_per_s"],
            "op3_per_s": named["solves_per_s"],
        }
        # Known defects (large n, alpha or s near a bound) are counted in
        # `failed`.  Any other failure, such as a closed-form mismatch or a
        # failure on a small market away from the bounds, none of which the
        # baseline shows, is a wrong output.
        violations = [
            f"{r['slot']} {r['config_sha256']}: {r['failed']}"
            for r in records
            if r["failed"] and not (r["slot"].split("/")[1] in KNOWN_DEFECT_SLOTS and r["check"] in KNOWN_DEFECT_CHECKS)
        ]
        return named, ops, violations


# ---------------------------------------------------------------------------
# simulate: the Monte Carlo market on two solved equilibria
# ---------------------------------------------------------------------------

SIM_CONSUMERS = 1_000_000  # criterion 8's size
DISCRETE_CONSUMERS = 1 << 18
HETERO_CONSUMERS = 1 << 13  # an eighth of a block: about 2 s on a 2-vCPU Xeon VM


class Simulate:
    name = "simulate"
    round_s = 4.0  # about 3.4 s at the reference speed
    min_rounds = 3  # every kind runs at least three times; reruns must match

    def setup(self, seed: int, mode: str) -> None:
        from disclose_eq import UniformPrior, cli, endogenous, montecarlo, verify

        self.cli, self.mc = cli, montecarlo
        self.eq2 = endogenous.solve_endog(UniformPrior(), 2, 0.65, 0.1)  # criterion 8
        self.eq5 = endogenous.solve_endog(UniformPrior(), 5, 0.5, 0.1)
        self.sim_seed = int(np.random.default_rng(seed).integers(2**63))
        single = montecarlo.SingleCost(0.1)
        discrete = montecarlo.HeterogeneousCosts(verify.DiscreteCosts(points=((0.05, 0.5), (0.1, 0.5))))
        continuous = montecarlo.HeterogeneousCosts(verify.ContinuousCosts(knots=((0.05, 0.0), (0.2, 1.0))))
        self.round = [
            ("single", self.eq2, SIM_CONSUMERS, single, 1),
            ("parallel", self.eq2, SIM_CONSUMERS, single, 2),
            ("discrete", self.eq5, DISCRETE_CONSUMERS, discrete, 1),
            ("continuous", self.eq2, HETERO_CONSUMERS, continuous, 1),
        ]

    def next_round(self) -> list:
        return self.round

    def execute(self, item) -> dict:
        kind, eq, consumers, cost_model, workers = item
        config = self.mc.SimConfig(consumers=consumers, seed=self.sim_seed, cost_model=cost_model, workers=workers)
        rec = {"kind": kind, "consumers": consumers}
        t0 = time.perf_counter()
        try:
            report = self.mc.simulate_market(eq, config)
            rec["wall"] = time.perf_counter() - t0
            rec["out"] = [_digest(report.to_json_dict())]
            reason = ""
            if kind in ("single", "parallel"):
                z = self.cli._z_scores(eq, report)
                worst = max((abs(v) for v in z.values() if not math.isnan(v)), default=0.0)
                if worst > Z_LIMIT:
                    reason = f"z-score {worst!r} above {Z_LIMIT}"
        except Exception as exc:  # any failure of the program is a failed attempt
            rec["wall"] = time.perf_counter() - t0
            reason = f"{type(exc).__name__}: {exc}"
            rec["out"] = [reason]
        rec["failed"] = reason
        return rec

    def summarize(self, records: list, seconds) -> tuple[dict, dict, list]:
        def rate(kind: str) -> float:
            done = [r for r in records if r["kind"] == kind and not r["failed"]]
            return sum(r["consumers"] for r in done) / sum(seconds(r, "wall") for r in done) if done else 0.0

        named = {
            "sim_consumers_per_s": rate("single"),
            "sim_parallel_consumers_per_s": rate("parallel"),
            "sim_discrete_consumers_per_s": rate("discrete"),
            "sim_hetero_consumers_per_s": rate("continuous"),
        }
        ops = {
            "op1_per_s": named["sim_consumers_per_s"],
            "op2_per_s": named["sim_parallel_consumers_per_s"],
            "op3_per_s": named["sim_hetero_consumers_per_s"],
        }
        # serial, workers=2 and every rerun share one config: one digest
        violations = []
        for kinds in (("single", "parallel"), ("discrete",), ("continuous",)):
            digests = {r["out"][0] for r in records if r["kind"] in kinds and not r["failed"]}
            if len(digests) > 1:
                violations.append(f"{'/'.join(kinds)} report digests differ across reruns")
        # these markets are inside what the program handles: any failure is a wrong output
        violations += [f"{r['kind']}: {r['failed']}" for r in records if r["failed"]]
        return named, ops, violations


# ---------------------------------------------------------------------------
# cli: `python -m disclose_eq` subprocesses, one after another
# ---------------------------------------------------------------------------

SWEEP_POINTS = 30


def _import_times(stderr: str) -> tuple[float, float]:
    """Total import time and the scipy.optimize share, from -X importtime."""
    total = scipy_opt = 0.0
    for line in stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        seconds = int(parts[1]) * 1e-6
        name = parts[2][1:]
        if not name.startswith(" "):  # top level: nested imports are inside its figure
            total += seconds
        if name.strip() == "scipy.optimize" and not scipy_opt:
            scipy_opt = seconds
    return total, scipy_opt


# The machine's speed for a fresh interpreter, measured by one: start-up,
# the imports the CLI also needs, and interpreted arithmetic and dict
# building.  It runs nothing of the program.
REFERENCE_PROCESS = """
import math, numpy, scipy.optimize
x = 0.0
for i in range(300000):
    x += math.sqrt(i + x % 7.0)
d = {}
for i in range(100000):
    d[i] = (i, float(i))
"""
REFERENCE_PROCESS_S = 1.05  # its wall time on a 2-vCPU Xeon VM at its usual speed


class Cli:
    name = "cli"
    round_s = 6.0  # about 7.7 s at the reference speed, reference processes included
    min_rounds = 3

    def setup(self, seed: int, mode: str) -> None:
        from disclose_eq import cli

        self.cli, self.mode = cli, mode
        rng = np.random.default_rng(seed)
        self.dir = OUT_DIR / f"cli-{seed}-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        sweep_alpha = 0.5 + float(rng.uniform(-0.01, 0.01))
        offset = float(rng.uniform(0.0, 0.005))
        self.configs = {
            "solve": {"prior": {"family": "uniform"}, "n": 2,
                      "alpha": 0.65 + float(rng.uniform(-0.02, 0.02)), "s": 0.1 + float(rng.uniform(-0.01, 0.01))},
            "verify": {"prior": {"family": "power", "a": 2.0}, "n": 3,
                       "alpha": 0.4 + float(rng.uniform(-0.02, 0.02)), "s": 0.15 + float(rng.uniform(-0.01, 0.01))},
            "sweep": {"prior": {"family": "uniform"}, "n": 2, "alpha": sweep_alpha, "s": 0.1, "axis": "s",
                      "grid": [float(x) for x in np.linspace(0.01 + offset, 0.485 + offset, SWEEP_POINTS)]},
        }
        self.paths = {}
        for cmd, cfg in self.configs.items():
            self.paths[cmd] = self.dir / f"{cmd}.json"
            self.paths[cmd].write_text(json.dumps(cfg))
        self.hashes = {cmd: cli._config_hash(cfg) for cmd, cfg in self.configs.items()}
        self.summaries: list[dict] = []
        self.import_rows: list[tuple[float, float, float]] = []
        self.last_reference = None

    def next_round(self) -> list:
        return ["solve", "verify", "sweep"]

    def execute(self, cmd: str) -> dict:
        argv = [cmd, "--config", str(self.paths[cmd])]
        if cmd == "verify":
            argv += ["--oracle-grid", str(ORACLE_M)]
        if self.mode == "traced":
            summary = self.dir / f"trace-{len(self.summaries)}.json"
            spans = self.dir / f"spans-{len(self.summaries)}.tsv"
            rec = self._run(cmd, [sys.executable, str(BENCH / "cli_shim.py"), str(summary), str(spans), *argv])[0]
            if rec["returncode"] == 0:
                self.summaries.append(json.loads(summary.read_text()))
            return rec
        if self.mode == "profile":
            # -X importtime costs about 3% of a process, so only the
            # untraced run of a traced benchmark run pays it.
            rec, stderr = self._run(cmd, [sys.executable, "-X", "importtime", "-m", "disclose_eq", *argv])
            if not rec["failed"]:
                total, scipy_opt = _import_times(stderr)
                self.import_rows.append((total, scipy_opt, rec["wall"] - total))
            return rec
        # A CLI process runs 30-50% slower in some phases of the machine
        # that the in-process kernel (machine_speed) does not see, and the
        # phases change within seconds.  A reference process right before
        # and after each one does see them: scaling by it cut the spread of
        # single process times by a third.
        before = self.last_reference or self._reference()
        rec = self._run(cmd, [sys.executable, "-m", "disclose_eq", *argv])[0]
        self.last_reference = self._reference()
        rec["speed"] = 0.5 * (before + self.last_reference)
        return rec

    def _reference(self) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", REFERENCE_PROCESS], check=True, timeout=60, capture_output=True)
        return (time.perf_counter() - t0) / REFERENCE_PROCESS_S

    def _run(self, cmd: str, command: list[str]) -> tuple[dict, str]:
        """Run one CLI process; wait4 gives its own peak RSS."""
        out_path, err_path = self.dir / "stdout.txt", self.dir / "stderr.txt"
        t0 = time.perf_counter()
        with open(out_path, "w") as out, open(err_path, "w") as err:
            child = subprocess.Popen(command, stdout=out, stderr=err, cwd=self.dir)
            _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - t0
        child.returncode = os.waitstatus_to_exitcode(status)
        proc = subprocess.CompletedProcess(command, child.returncode, out_path.read_text(), err_path.read_text())
        rec = {"kind": cmd, "config_sha256": self.hashes[cmd], "wall": wall, "returncode": proc.returncode,
               "out": [_digest(proc.stdout)], "failed": self._check(cmd, proc), "maxrss_kb": usage.ru_maxrss}
        return rec, proc.stderr

    def _check(self, cmd: str, proc) -> str:
        if proc.returncode != 0:
            return f"exit code {proc.returncode}: {proc.stderr.strip()[-200:]}"
        try:
            return self._check_sweep(proc.stdout) if cmd == "sweep" else self._check_json(cmd, json.loads(proc.stdout))
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unreadable output: {type(exc).__name__}: {exc}"

    def _check_json(self, cmd: str, payload: dict) -> str:
        if payload["provenance"]["config_sha256"] != self.hashes[cmd]:
            return "config hash mismatch"
        eq = payload["equilibrium"]
        if cmd == "solve":
            cfg = self.configs["solve"]
            err = closed_form_error(cfg["alpha"], cfg["s"], eq["r_star"], eq["v_L_star"])
            return f"closed-form error {err!r}" if err > CLOSED_FORM_TOL else ""
        if not payload["certificate"]["pass"]:
            return "certificate rejected"
        if abs(payload["payoff_identity_gap"]) > PAYOFF_TOL:
            return "payoff identity gap"
        if payload["oracle"]["gap"] > payload["oracle_bound"]:
            return "oracle gap above bound"
        return ""

    def _check_sweep(self, text: str) -> str:
        lines = text.splitlines()
        if f"# config_sha256={self.hashes['sweep']}" not in lines:
            return "config hash mismatch"
        rows = [line.split(",") for line in lines if not line.startswith("#")]
        header, rows = rows[0], rows[1:]
        cfg = self.configs["sweep"]
        if len(rows) != len(cfg["grid"]):
            return f"{len(rows)} sweep rows for {len(cfg['grid'])} grid points"
        col = {name: i for i, name in enumerate(header)}
        for row in rows:
            if row[col["error"]]:
                return f"sweep point failed: {row[col['error']]}"
            err = closed_form_error(cfg["alpha"], float(row[col["s"]]), float(row[col["r_star"]]),
                                    float(row[col["v_L_star"]]))
            if err > CLOSED_FORM_TOL:
                return f"closed-form error {err!r} at s={row[col['s']]}"
        return ""

    def summarize(self, records: list, seconds) -> tuple[dict, dict, list]:
        def mean_wall(kind: str) -> float:
            walls = [seconds(r, "wall") for r in records if r["kind"] == kind and not r["failed"]]
            return statistics.mean(walls) if walls else math.inf

        named = {f"cli_{cmd}_s": mean_wall(cmd) for cmd in ("solve", "verify", "sweep")}
        ops = {
            "op1_per_s": 1.0 / named["cli_solve_s"],
            "op2_per_s": 1.0 / named["cli_verify_s"],
            "op3_per_s": 1.0 / named["cli_sweep_s"],
        }
        violations = [f"{r['kind']}: {r['failed']}" for r in records if r["failed"]]
        return named, ops, violations


WORKLOADS = {w.name: w for w in (CertifyRandom, Simulate, Cli)}


def machine_speed() -> float:
    """Slowdown of the machine against its reference speed, right now.

    Times a fixed kernel that does not touch the program (interpreted
    float arithmetic and small numpy calls, the program's own mix) and
    divides by its time at the reference speed.  The machine's speed
    drifts by up to 2x for seconds to minutes at a time; dividing each
    measured time by the slowdown around it removes most of that drift.
    """
    best = math.inf
    for _ in range(2):
        t0 = time.perf_counter()
        x = 0.0
        for i in range(4000):
            x += math.sqrt(i + x % 7.0)
        a = np.arange(2000, dtype=float)
        for _ in range(20):
            a = np.sort(np.sin(a) * 1e3)
        best = min(best, time.perf_counter() - t0)
    return best / PROBE_REF_S


def _peak_rss_mb(records: list[dict]) -> float:
    """Peak RSS of this process and of the CLI processes it ran (not of the
    reference processes)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return max([own] + [r.get("maxrss_kb", 0) for r in records]) / 1024.0


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=["measure", "profile", "setup", "traced"])
    parser.add_argument("--rounds", type=int, default=None)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    tracer = None
    if args.mode == "traced":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    workload = WORKLOADS[args.workload]()
    workload.setup(args.seed, args.mode)
    result = {"ready": time.monotonic()}
    before = result["speed"] = machine_speed()
    if args.mode != "setup":
        # A run does a fixed amount of work, so parent and change time the
        # same inputs however fast the code or the machine is; the time
        # limit is only a safety stop.
        records: list[dict] = []
        rounds = 0
        target = args.rounds or max(workload.min_rounds, round(args.seconds / workload.round_s))
        safety_stop = False
        start = time.perf_counter()
        while rounds < target:
            if args.rounds is None and rounds and time.perf_counter() - start >= SAFETY_FACTOR * args.seconds:
                safety_stop = True  # far slower than the reference: keep the run within its time limit
                break
            for item in workload.next_round():
                rec = workload.execute(item)
                after = machine_speed()
                rec.setdefault("speed", 0.5 * (before + after))
                records.append(rec)
                before = after
            rounds += 1
        work_s = time.perf_counter() - start
        run_speed = statistics.median(r["speed"] for r in records)

        def raw(r, key):
            return r[key]

        def scaled(r, key):
            return r[key] / r["speed"]

        named, ops, violations = workload.summarize(records, scaled)
        raw_named = workload.summarize(records, raw)[0]
        result.update(
            rounds=rounds,
            safety_stop=safety_stop,
            work_s=work_s,
            named=named,
            raw_named=raw_named,
            machine_speed=run_speed,
            ops=ops,
            violations=violations,
            records=records,
            peak_rss_mb=_peak_rss_mb(records),
        )
        if args.mode == "profile":
            rows = getattr(workload, "import_rows", [])
            result["layers"] = {
                key: statistics.mean(row[i] for row in rows) if rows else 0.0
                for i, key in enumerate(("cli.import_s", "cli.scipy_optimize_import_s", "cli.work_s"))
            }
        if tracer is not None:
            summaries = [tracer.summary()] + getattr(workload, "summaries", [])
            result["layers"] = tracing.layer_metrics(tracing.merge(summaries))
            tracer.write_spans(Path(args.out).with_suffix(".spans.tsv"))
    with open(args.out, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
