"""The abstract's claims (a)-(c) on the first markets of scripts/paper_claims.py's draw.

(a) the bottom is concealed iff n >= n_lower_bar, (b) no costly searcher
visits a second firm at n >= n_lower_bar, and (c) cs_savvy does not fall as
n rises.  The report's rows (d) and (e) are printed, not asserted here: (d)
is a count, and (e) has counterexamples at seed 3 (CHANGES.md).  The seed
is fixed, so a failure names a market that fails on every run.
"""
import importlib.util
from collections import Counter
from pathlib import Path

from disclose_eq.endogenous import n_lower_bar, solve_endog
from disclose_eq.errors import DiscloseEqError

ROOT = Path(__file__).resolve().parents[1]
SEED, MARKETS = 3, 12
CLAIMS_A_TO_C = ("(a) conceals iff n >= n_lower_bar", "(b) p_multi_visit = 0 at n >= n_lower_bar",
                 "(c) cs_savvy does not fall in n")


def _paper_claims(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))  # it imports domain_probe from its own directory
    spec = importlib.util.spec_from_file_location("paper_claims", ROOT / "scripts" / "paper_claims.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_claims_a_to_c_hold_and_every_typed_error_is_tallied(monkeypatch):
    claims = _paper_claims(monkeypatch)
    markets = list(claims.draw_markets(SEED, MARKETS))
    assert Counter(prior.to_json_dict()["family"] for prior, _, _ in markets) == {
        "uniform": 4, "power": 4, "piecewise": 4}
    typed = 0
    for prior, alpha, s in markets:
        cases, errors, _ = claims.check_market(prior, alpha, s)
        for claim in CLAIMS_A_TO_C:
            assert cases[claim] and all(held for held, _ in cases[claim]), (claim, cases[claim])
        # each size of the sweep is a solve that claim (a) counts, or a typed error listed with its config
        nbar = n_lower_bar(prior, alpha, s)
        solved = [config for _, config in cases[CLAIMS_A_TO_C[0]]]
        market = {"prior": prior.to_json_dict(), "alpha": alpha, "s": s}
        failed = 0
        for n in sorted({*claims.N_GRID, nbar, nbar + 1}):
            if n > claims.N_GRID[-1] or not prior.check_convexity(n):
                continue
            config = {**market, "n": n}
            try:
                solve_endog(prior, n, alpha, s)
            except DiscloseEqError as exc:
                failed += 1
                assert any(type(e) is type(exc) and str(e) == str(exc) for e, c in errors if c == config)
            else:
                assert config in solved
        assert failed == sum("n" in c and "axis" not in c for _, c in errors)
        typed += failed
    # the draw reaches sizes up to 2**20, where the pooled slope underflows:
    # read in its scaled form, every one of them solves
    assert typed == 0
