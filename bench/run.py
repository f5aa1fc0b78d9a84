"""Benchmark entry point: one run of one workload of disclose-eq.

    python3 bench/run.py --workload certify_random|simulate|cli \
        --seed N --seconds T --trace 0|1

Run from anywhere inside a checkout; the program is imported from `src/`.
Each run uses fresh interpreters (bench/worker.py).  With --trace 0 it
times set-up in several fresh interpreters and then runs the workload
untraced, printing the end-to-end metrics.  With --trace 1 it runs the
workload untraced (CLI processes under -X importtime) and then replays
the same rounds with the tracer installed, checks that both runs
produced identical numbers, and prints the per-layer metrics.  Readable figures come first; the last line of
standard output is one JSON object with keys correct, attempted, failed
and metrics.  Full records (every market's config sha256 included) go
to .bench_out/.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 3  # set-up is timed in this many extra interpreters
DEADLINE_S = 170.0  # every process of a run has ended by then


class RunError(Exception):
    """The harness could not produce a result."""


_serial = itertools.count()


def run_worker(args, mode: str, deadline: float, rounds: int | None = None) -> dict:
    """Run bench/worker.py in a fresh interpreter and return its result."""
    out = OUT_DIR / f"{args.workload}-{args.seed}-{mode}-{os.getpid()}-{next(_serial)}.json"
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--mode", mode, "--out", str(out),
    ]
    if rounds is not None:
        cmd += ["--rounds", str(rounds)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("DISCLOSE_EQ_THREADS", None)  # the workload sets workers explicitly
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=sys.stderr, start_new_session=True)
    try:
        proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RunError(f"{mode} worker exceeded the run's time limit")
    finally:
        if proc.poll() is None:  # interrupted: take the worker's process group down too
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise RunError(f"{mode} worker exited with code {proc.returncode}")
    result = json.loads(out.read_text())
    result["setup_s"] = (result["ready"] - spawned) / result["speed"]
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["certify_random", "simulate", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "disclose_eq" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}; nothing to measure", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT_DIR.mkdir(exist_ok=True)

    try:
        main_run = run_worker(args, "profile" if args.trace else "measure", deadline)
        records = main_run["records"]
        violations = list(main_run["violations"])
        if args.trace:
            traced = run_worker(args, "traced", deadline, rounds=main_run["rounds"])
            violations += [f"traced run: {v}" for v in traced["violations"]]
            if [r["out"] for r in traced["records"]] != [r["out"] for r in records]:
                violations.append("traced run's outputs differ from the untraced run's")
            values = {**traced["layers"], **main_run["layers"]}
            values["trace.overhead_s"] = (sum(r["wall"] for r in traced["records"])
                                          - sum(r["wall"] for r in records))
            values["machine.slowdown"] = main_run["machine_speed"]
            wanted = spec["per_layer"]
        else:
            setups = [main_run["setup_s"]]
            for _ in range(SETUP_PROBES):
                setups.append(run_worker(args, "setup", deadline)["setup_s"])
            values = dict(main_run["ops"], setup_s=statistics.median(setups), peak_rss_mb=main_run["peak_rss_mb"])
            wanted = spec["end_to_end"]
    except (RunError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    failures = [r for r in records if r["failed"]]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"workload {args.workload}  seed {args.seed}  rounds {main_run['rounds']}  "
          f"measured {main_run['work_s']:.2f} s")
    if main_run["safety_stop"]:
        print("  SAFETY STOP: the machine or the code is far slower than the reference; "
              "fewer rounds than the seed's fixed work were timed")
    print(f"  {'machine slowdown':32s} {main_run['machine_speed']:.4g}  (figures below: raw, then scaled to reference speed)")
    for name, value in main_run["named"].items():
        print(f"  {name:32s} {main_run['raw_named'][name]:<12.6g} {value:.6g}")
    print(f"  {'failed_frac':32s} {len(failures) / len(records):.6g}  ({len(failures)} of {len(records)})")
    for r in failures[:20]:
        print(f"    failed {r.get('config_sha256', r.get('kind'))}: {r['failed'][:160]}")
    for v in violations:
        print(f"  CHECK FAILED: {v}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    result_path = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "trace": args.trace, "metrics": metrics,
         "named": main_run["named"], "raw_named": main_run["raw_named"],
         "machine_slowdown": main_run["machine_speed"], "violations": violations, "records": records}, indent=1))
    print(f"  records: {result_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not violations,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
