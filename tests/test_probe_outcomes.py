"""The domain probe's outcomes, market by market, as a ratchet.

tests/data/probe_outcomes.json maps the config sha256 of each market that
`scripts/domain_probe.py --seed 8 --markets 1500` or
`scripts/domain_probe.py --edges` draws (the hash that `disclose-eq solve`
prints for that market's config) to its outcome: certified, rejected or
error:<invariant>.  The test draws and probes the same markets again and
fails on any market whose outcome moved, for the better or the worse,
listing the moved markets by outcome.  A change that moves outcomes on
purpose records the file again with
`PYTHONPATH=src python tests/test_probe_outcomes.py` and lists the moves
in CHANGES.md.
The file was recorded on numpy 2.4.6 and scipy 1.17.1, the versions the
CI workflow pins.
"""
import importlib.util
import json
import sys
from collections import defaultdict
from pathlib import Path

from disclose_eq.cli import _config_hash

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data" / "probe_outcomes.json"
SEED, MARKETS = 8, 1500
EDGE_SEED, EDGE_MARKETS = 5, 2400
PROBES = (
    f"scripts/domain_probe.py --seed {SEED} --markets {MARKETS}",
    f"scripts/domain_probe.py --edges --seed {EDGE_SEED} --markets {EDGE_MARKETS}",
)


def _domain_probe():
    spec = importlib.util.spec_from_file_location("domain_probe", ROOT / "scripts" / "domain_probe.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def probe_outcomes() -> dict[str, tuple[str, dict]]:
    """config sha256 -> (outcome, config) for every market of both draws."""
    probe = _domain_probe()
    markets = [market[1:] for market in probe.draw_markets(SEED, MARKETS)]
    markets += [market[2:] for market in probe.draw_edge_markets(EDGE_SEED, EDGE_MARKETS)]
    out = {}
    for prior, n, alpha, s in markets:
        config = {"prior": prior.to_json_dict(), "n": n, "alpha": alpha, "s": s}
        out[_config_hash(config)] = (probe.probe(prior, n, alpha, s)[0], config)
    return out


def test_probe_outcomes_match_the_recording():
    recorded = json.loads(DATA.read_text())["outcomes"]
    now = probe_outcomes()
    assert len(now) == len(recorded) == MARKETS + EDGE_MARKETS
    moved = defaultdict(list)
    for sha, (outcome, config) in now.items():
        before = recorded.get(sha, "unrecorded")
        if outcome != before:
            moved[f"{before} -> {outcome}"].append(f"{sha[:12]} {json.dumps(config)}")
    report = "\n".join(
        f"{move}: {len(rows)} markets\n    " + "\n    ".join(rows[:10])
        for move, rows in sorted(moved.items())
    )
    assert not moved, f"domain-probe outcomes moved:\n{report}"


if __name__ == "__main__":
    import numpy as np
    import scipy

    outcomes = {sha: outcome for sha, (outcome, _) in probe_outcomes().items()}
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps({
        "probes": PROBES,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "outcomes": outcomes,
    }, indent=1) + "\n")
    print(f"wrote {DATA}: {len(outcomes)} markets", file=sys.stderr)
