"""The tolerance ledger (disclose_eq.tolerances) is the one home of every
bound, the solver xtols among them, checked statically over the source
tree:

* no float literal of at most 1e-6 lives in src/ outside the ledger
  (docstrings and message strings hold text, not floats);
* every tolerance in the ledger is imported and read by some module of
  src/.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
LEDGER = SRC / "disclose_eq" / "tolerances.py"


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        if path != LEDGER:
            yield path, ast.parse(path.read_text())


def _is_tolerance(node) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) is float and 0.0 < abs(node.value) <= 1e-6


def test_no_bare_tolerance_outside_the_ledger():
    bare = [
        f"{path.relative_to(SRC)}:{node.lineno}: {node.value!r}"
        for path, tree in _modules()
        for node in ast.walk(tree)
        if _is_tolerance(node)
    ]
    assert not bare, "tolerances outside disclose_eq/tolerances.py:\n" + "\n".join(bare)


def test_every_ledger_tolerance_has_a_reader():
    ledger = ast.parse(LEDGER.read_text())
    names = {
        target.id
        for node in ledger.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    read = set()
    for _, tree in _modules():
        imported = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "tolerances" and node.level == 1
            for alias in node.names
        }
        loaded = {
            node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        read |= imported & loaded
    unread = sorted(names - read)
    assert not unread, f"ledger names that no module of src/ reads: {unread}"
