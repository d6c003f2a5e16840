"""numpy's ufunc buffer size is a per-context setting that every later ufunc
in the thread inherits, so the package changes it in one function only:
`hypotheses.forward_batch`, which restores it before it returns or raises.
No other function of src/, scripts/ or perfbench/ names `setbufsize`."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEARCHED = sorted(p for d in ("src", "scripts", "perfbench") for p in (ROOT / d).rglob("*.py"))
ALLOWED = {("src/vclab/hypotheses.py", "forward_batch")}


def _setbufsize_sites(tree: ast.AST, scope: str = ""):
    """(enclosing function, line) for each mention of `setbufsize`: an
    attribute (np.setbufsize), a bare name, a `from numpy import`, or a
    string (getattr); the scope is the dotted name of the enclosing
    functions and classes, "" at module level."""
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{node.name}" if scope else node.name
        if (isinstance(node, ast.Attribute) and node.attr == "setbufsize"
                or isinstance(node, ast.Name) and node.id == "setbufsize"
                or isinstance(node, ast.Constant) and node.value == "setbufsize"
                or isinstance(node, ast.ImportFrom)
                and any(alias.name == "setbufsize" for alias in node.names)):
            yield scope, node.lineno
        yield from _setbufsize_sites(node, inner)


def test_setbufsize_is_called_only_in_forward_batch():
    sites = [
        f"{path.relative_to(ROOT)}:{line} ({scope or 'module level'})"
        for path in SEARCHED
        for scope, line in _setbufsize_sites(ast.parse(path.read_text()))
        if (path.relative_to(ROOT).as_posix(), scope) not in ALLOWED
    ]
    assert not sites, f"setbufsize outside hypotheses.forward_batch: {sites}"


def test_forward_batch_sets_the_buffer():
    source = (ROOT / "src" / "vclab" / "hypotheses.py").read_text()
    assert [scope for scope, _ in _setbufsize_sites(ast.parse(source))] == ["forward_batch"] * 2


def test_setbufsize_check_sees_every_form():
    source = """
import numpy as np
from numpy import setbufsize
np.setbufsize(1)
def f():
    getattr(np, "setbufsize")(1)
class C:
    def g(self):
        def h():
            return setbufsize
"""
    found = sorted(_setbufsize_sites(ast.parse(source)))
    assert found == [("", 3), ("", 4), ("C.g.h", 10), ("f", 6)]
