"""Each market and each pooled branch has one builder, checked statically.

An Equilibrium is called into being only by endogenous.assemble_market (a
candidate solved at given thresholds) and endogenous.full_disclosure_market
(the degenerate candidate at r), in src/, scripts/ and the tests, so every
market carries the candidate its payoff branches are read from, and stores
nothing else that the candidate fixes.  Code that needs a changed market
derives it with dataclasses.replace.  An AffinePower in src/ is built only
by Candidate.pooled, the one home of the pooled branch.
"""
import ast
import dataclasses
from pathlib import Path

from disclose_eq.endogenous import Equilibrium

ROOT = Path(__file__).resolve().parents[1]


def _callers(name: str, *tops: str) -> set[tuple[str, str]]:
    """(file, qualified name of the enclosing def or class) of each call of
    name under the directories tops, bare or as a module attribute."""
    found = set()

    def visit(node, path: str, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            elif isinstance(child, ast.Call):
                func = child.func
                if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == name:
                    found.add((path, scope))
            visit(child, path, inner)

    for top in tops:
        for path in sorted((ROOT / top).rglob("*.py")):
            visit(ast.parse(path.read_text()), path.relative_to(ROOT).as_posix(), "")
    return found


def test_a_market_is_built_by_its_two_constructors_only():
    assert _callers("Equilibrium", "src", "scripts", "tests") == {
        ("src/disclose_eq/endogenous.py", "assemble_market"),
        ("src/disclose_eq/endogenous.py", "full_disclosure_market"),
    }


def test_the_pooled_branch_is_built_by_the_candidate_only():
    assert _callers("AffinePower", "src") == {("src/disclose_eq/candidate.py", "Candidate.pooled")}


def test_a_market_stores_its_candidate_and_no_copy_of_it():
    """A market stores alpha, s, its candidate and its posterior g, and no
    more: the prior, n, the four thresholds, beta*, eta, alpha~, both regime
    flags and the note are fixed by the candidate (and alpha), so a stored
    copy could disagree with the candidate the payoff branches read.  g stays
    a field, so that a test can substitute a posterior with
    dataclasses.replace(eq, g=...)."""
    assert tuple(f.name for f in dataclasses.fields(Equilibrium)) == ("alpha", "s", "candidate", "g")
