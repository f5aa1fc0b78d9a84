"""The tolerance ledger (disclose_eq.tolerances) is the one home of every
bound, checked statically over the source tree:

* no float literal of at most 1e-6 lives in src/ outside the ledger,
  except a solver xtol at its bisection (docstrings and message strings
  hold text, not floats);
* every solver xtol (an `xtol=` argument, given as a literal or as a
  module constant such as candidate._XTOL, and bisect_root's default) is
  listed in SOLVER_XTOLS under its function, with its value, and every
  listed xtol exists;
* every tolerance in the ledger is imported and read by some module of
  src/.
"""
import ast
from pathlib import Path

from disclose_eq import tolerances

SRC = Path(__file__).resolve().parents[1] / "src"
LEDGER = SRC / "disclose_eq" / "tolerances.py"


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        if path != LEDGER:
            yield path, ast.parse(path.read_text())


def _is_tolerance(node) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) is float and 0.0 < abs(node.value) <= 1e-6


class _Xtols(ast.NodeVisitor):
    """The solver xtols of one module: found maps "module.function" to the
    values given there, and constants holds the float constants that give
    them."""

    def __init__(self, path, tree):
        self.path = path
        self.module_constants = {
            target.id: node.value
            for node in tree.body
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        self.scope = [path.stem]
        self.found: dict[str, set] = {}
        self.constants = set()
        self.visit(tree)

    def _add(self, name, node):
        self.found.setdefault(f"{self.path.stem}.{name}", set()).add(node.value)
        self.constants.add(id(node))

    def visit_FunctionDef(self, fn):
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if arg.arg == "xtol" and default is not None:
                self._add(fn.name, default)
        self.scope.append(fn.name)
        self.generic_visit(fn)
        self.scope.pop()

    def visit_keyword(self, kw):
        if kw.arg == "xtol":
            value = kw.value
            if isinstance(value, ast.Name):
                value = self.module_constants.get(value.id)
            assert isinstance(value, ast.Constant), (
                f"{self.path.name}:{kw.value.lineno}: an xtol must be a literal or a module constant"
            )
            self._add(self.scope[-1], value)
        self.generic_visit(kw)


def test_no_bare_tolerance_outside_the_ledger():
    bare = []
    for path, tree in _modules():
        xtols = _Xtols(path, tree).constants
        bare += [
            f"{path.relative_to(SRC)}:{node.lineno}: {node.value!r}"
            for node in ast.walk(tree)
            if _is_tolerance(node) and id(node) not in xtols
        ]
    assert not bare, "tolerances outside disclose_eq/tolerances.py:\n" + "\n".join(bare)


def test_the_ledger_lists_every_solver_xtol():
    found: dict[str, set] = {}
    for path, tree in _modules():
        for key, values in _Xtols(path, tree).found.items():
            found.setdefault(key, set()).update(values)
    listed = {key: {value} for key, value in tolerances.SOLVER_XTOLS.items()}
    unlisted = {key: values for key, values in found.items() if listed.get(key) != values}
    stale = sorted(set(listed) - set(found))
    assert not unlisted and not stale, (
        f"xtols not in SOLVER_XTOLS as found: {unlisted}; listed but not found: {stale}"
    )


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
    # SOLVER_XTOLS is the listing that test_the_ledger_lists_every_solver_xtol reads
    unread = sorted(names - read - {"SOLVER_XTOLS"})
    assert not unread, f"ledger names that no module of src/ reads: {unread}"
