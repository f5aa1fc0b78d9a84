"""The certificate's outputs, market by market, as a ratchet.

tests/data/certificate_outputs.json maps the config sha256 of each of the
first MARKETS markets of `scripts/domain_probe.py --seed 8` that solve
(the hash that `disclose-eq solve` prints for that market's config) to
the repr of every CertificateReport field, of every value oracle_gap(eq,
ORACLE_M) returns and of payoff_identity_gap(eq).  The test draws, solves
and certifies the same markets again and fails on any market whose
outputs moved by as much as one bit, listing the moved markets by the
fields that moved.  A change that moves them on purpose records the file
again with `PYTHONPATH=src python tests/test_certificate_outputs.py` and
lists the moves in CHANGES.md.
The file was recorded on numpy 2.4.6 and scipy 1.17.1, the versions the
CI workflow pins.
"""
import importlib.util
import json
import sys
from collections import defaultdict
from dataclasses import asdict
from pathlib import Path

from disclose_eq.cli import _config_hash
from disclose_eq.endogenous import solve_endog
from disclose_eq.errors import DiscloseEqError
from disclose_eq.verify import check_dm_conditions, oracle_gap, payoff_identity_gap

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data" / "certificate_outputs.json"
SEED, MARKETS, ORACLE_M = 8, 300, 201


def _domain_probe():
    spec = importlib.util.spec_from_file_location("domain_probe", ROOT / "scripts" / "domain_probe.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def certificate_outputs() -> dict[str, tuple[dict[str, str], dict]]:
    """config sha256 -> (field -> repr, config) for the first MARKETS
    markets of the seed-SEED draw that solve."""
    out = {}
    for _, prior, n, alpha, s in _domain_probe().draw_markets(SEED, 10 * MARKETS):
        try:
            eq = solve_endog(prior, n, alpha, s)
        except DiscloseEqError:
            continue
        fields = {f"dm.{k}": repr(v) for k, v in asdict(check_dm_conditions(eq)).items()}
        fields.update({f"oracle.{k}": repr(v) for k, v in oracle_gap(eq, ORACLE_M).items()})
        fields["payoff_identity_gap"] = repr(payoff_identity_gap(eq))
        config = {"prior": prior.to_json_dict(), "n": n, "alpha": alpha, "s": s}
        out[_config_hash(config)] = (fields, config)
        if len(out) == MARKETS:
            break
    return out


def test_certificate_outputs_match_the_recording():
    recorded = json.loads(DATA.read_text())["outputs"]
    now = certificate_outputs()
    assert len(now) == len(recorded) == MARKETS
    moved = defaultdict(list)
    for sha, (fields, config) in now.items():
        before = recorded.get(sha)
        if before is None:
            moved["unrecorded market"].append(f"{sha[:12]} {json.dumps(config)}")
            continue
        changed = sorted(k for k in fields if fields[k] != before.get(k))
        if changed:
            diffs = ", ".join(f"{k} {before.get(k)} -> {fields[k]}" for k in changed)
            moved[" ".join(changed)].append(f"{sha[:12]} {json.dumps(config)}: {diffs}")
    report = "\n".join(
        f"{fields}: {len(rows)} markets\n    " + "\n    ".join(rows[:10])
        for fields, rows in sorted(moved.items())
    )
    assert not moved, f"certificate outputs moved:\n{report}"


if __name__ == "__main__":
    import numpy as np
    import scipy

    outputs = {sha: fields for sha, (fields, _) in certificate_outputs().items()}
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps({
        "markets": f"the first {MARKETS} markets of scripts/domain_probe.py --seed {SEED} that solve",
        "oracle_grid": ORACLE_M,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "outputs": outputs,
    }, indent=1) + "\n")
    print(f"wrote {DATA}: {len(outputs)} markets", file=sys.stderr)
