"""numpy's ufunc buffer size and floating-point error state are per-context
settings that every later ufunc in the thread inherits. So the package
changes the buffer in one function only: `hypotheses.forward_batch`, which
restores it before it returns or raises. No other function of src/,
scripts/ or perfbench/ names `setbufsize`. The error state is changed only
in `np.errstate` blocks, which restore it on exit, so none of them names
`seterr`."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEARCHED = sorted(p for d in ("src", "scripts", "perfbench") for p in (ROOT / d).rglob("*.py"))
ALLOWED = {("src/vclab/hypotheses.py", "forward_batch")}


def _sites(tree: ast.AST, name: str, scope: str = ""):
    """(enclosing function, line) for each mention of the numpy function
    `name`: an attribute (np.setbufsize), a bare name, a `from numpy import`,
    or a string (getattr); the scope is the dotted name of the enclosing
    functions and classes, "" at module level."""
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{node.name}" if scope else node.name
        if (isinstance(node, ast.Attribute) and node.attr == name
                or isinstance(node, ast.Name) and node.id == name
                or isinstance(node, ast.Constant) and node.value == name
                or isinstance(node, ast.ImportFrom)
                and any(alias.name == name for alias in node.names)):
            yield scope, node.lineno
        yield from _sites(node, name, inner)


def _searched_sites(name: str):
    """(path, scope, "path:line (scope)") for each mention of `name` in the
    searched files."""
    for path in SEARCHED:
        rel = path.relative_to(ROOT).as_posix()
        for scope, line in _sites(ast.parse(path.read_text()), name):
            yield rel, scope, f"{rel}:{line} ({scope or 'module level'})"


def test_setbufsize_is_called_only_in_forward_batch():
    sites = [where for rel, scope, where in _searched_sites("setbufsize")
             if (rel, scope) not in ALLOWED]
    assert not sites, f"setbufsize outside hypotheses.forward_batch: {sites}"


def test_seterr_is_called_nowhere():
    sites = [where for _, _, where in _searched_sites("seterr")]
    assert not sites, f"seterr, which outlives its caller; use np.errstate: {sites}"


def test_forward_batch_sets_the_buffer():
    source = (ROOT / "src" / "vclab" / "hypotheses.py").read_text()
    sites = _sites(ast.parse(source), "setbufsize")
    assert [scope for scope, _ in sites] == ["forward_batch"] * 2


def test_setbufsize_check_sees_every_form():
    source = """
import numpy as np
from numpy import setbufsize, seterr
np.setbufsize(1)
def f():
    getattr(np, "setbufsize")(1)
class C:
    def g(self):
        def h():
            return setbufsize
np.seterr(all="ignore")
"""
    tree = ast.parse(source)
    assert sorted(_sites(tree, "setbufsize")) == [("", 3), ("", 4), ("C.g.h", 10), ("f", 6)]
    assert sorted(_sites(tree, "seterr")) == [("", 3), ("", 11)]
