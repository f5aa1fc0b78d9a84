"""Self-test of the benchmark harness.

    python3 bench/selftest.py [WORKLOAD ...]

For each workload (all three by default) this runs bench/run.py once
untraced and once traced, with a short measuring time, and checks that

* the last line of standard output is one JSON object with exactly the
  keys correct, attempted, failed and metrics;
* the metric names and units are exactly those BENCHMARK.json lists
  (end_to_end untraced, per_layer traced), every value a finite number;
* correct is true: the traced replay reproduced the untraced run's
  numbers and simulation digests, and every output check passed.

It also checks that in a directory holding only BENCHMARK.json and the
benchmark's files, run.py exits with a non-zero code and prints no result.
Takes about two minutes on a 2-core machine.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7", "--seconds", "2",
           "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(workload: str, trace: int) -> list[str]:
    proc = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}\n{proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True:
        errors.append(f"{where}: correct is {result.get('correct')!r}\n{proc.stdout[-2000:]}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1 and isinstance(result["failed"], int)):
        errors.append(f"{where}: attempted/failed {result['attempted']!r}/{result['failed']!r}")
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        errors.append(f"{where}: metric names/units differ from BENCHMARK.json: "
                      f"missing {sorted(set(wanted) - set(got))}, extra {sorted(set(got) - set(wanted))}")
    for name, m in result["metrics"].items():
        if not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"])):
            errors.append(f"{where}: {name} = {m['value']!r}")
    return errors


def check_bare_directory() -> list[str]:
    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, SPEC["workloads"][0]["name"], 0)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit code {proc.returncode}, stdout {proc.stdout[-300:]!r}"]
    return []


def main() -> int:
    workloads = sys.argv[1:] or [w["name"] for w in SPEC["workloads"]]
    errors = check_bare_directory()
    for workload in workloads:
        for trace in (0, 1):
            found = check_result(workload, trace)
            print(f"{workload} --trace {trace}: {'FAIL' if found else 'ok'}", flush=True)
            errors += found
    for err in errors:
        print(err, file=sys.stderr)
    print("selftest", "FAILED" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
