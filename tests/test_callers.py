"""Every public top-level name of the package has a reader outside the
tests, checked statically: code that only tests call belongs in
tests/reference.py, next to the other references.

A name defined at the top level of a module of src/disclose_eq/ is read
when its own module loads it, when a module of src/, scripts/ or bench/
imports it from that module (the package __init__'s re-exports count), or
when one of them reads it as an attribute (`exogenous.solve_v_l_eq`).
Docstrings and comments do not count.
"""
import ast
import functools
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PKG = ROOT / "src" / "disclose_eq"

# names kept without a reader outside the tests, each for a reason
ALLOWED = {
    "simulate_deviation": "the entry point of the simulator kernel's own deviant path",
    "best_response_oracle": "the LP oracle's public form, without the size and iteration counts oracle_gap reads",
}


def _defined(tree) -> set[str]:
    """Public names bound at the top level of a module, imports aside."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return {name for name in names if not name.startswith("_")}


def _source_module(node) -> str | None:
    """The package module an ImportFrom node imports names from, if any."""
    if node.level == 1:
        return node.module
    if node.level == 0 and node.module and node.module.startswith("disclose_eq."):
        return node.module.removeprefix("disclose_eq.")
    return None


@functools.cache
def _unread() -> dict[str, list[str]]:
    trees = {
        path: ast.parse(path.read_text())
        for top in ("src", "scripts", "bench")
        for path in sorted((ROOT / top).rglob("*.py"))
    }
    nodes = [node for tree in trees.values() for node in ast.walk(tree)]
    attributes = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    imported = {
        (_source_module(node), alias.name)
        for node in nodes
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    unread = {}
    for path in sorted(PKG.glob("*.py")):
        tree = trees[path]
        loaded = {
            node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        names = sorted(
            name
            for name in _defined(tree)
            if name not in loaded and name not in attributes and (path.stem, name) not in imported
        )
        if names:
            unread[path.stem] = names
    return unread


def test_every_public_name_has_a_reader_outside_the_tests():
    unread = {
        module: [name for name in names if name not in ALLOWED] for module, names in _unread().items()
    }
    unread = {module: names for module, names in unread.items() if names}
    assert not unread, f"public names that only tests read (move them to tests/reference.py): {unread}"


def test_every_allowed_name_is_still_unread():
    # an allowed name that gained a reader needs no entry any more
    still = {name for names in _unread().values() for name in names}
    assert sorted(set(ALLOWED) - still) == []
