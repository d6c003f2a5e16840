"""Dead-code checks on the package modules (all of src/vclab but __init__.py):
every imported name is used by its module, and every module-level name,
private or public, is referenced outside its own definition somewhere in
src/, tests/, scripts/ or perfbench/; a re-export in vclab/__init__.py is no
reference. Private names also stay private: no src/vclab module reads one of
another vclab module."""

import ast
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "vclab").glob("*.py") if p.name != "__init__.py")
SEARCHED = sorted(
    p for d in ("src", "tests", "scripts", "perfbench") for p in (ROOT / d).rglob("*.py")
)
INIT = ROOT / "src" / "vclab" / "__init__.py"


def _references(tree: ast.AST):
    """(name, line) for every read of a name: a loaded variable, an
    attribute, a `from` import, or a string naming it (getattr, setattr)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def _definitions(tree: ast.Module, private: bool):
    """(name, first line, last line) of each module-level private (or
    public) function, class or constant; dunder names are neither."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if not name.startswith("__") and name.startswith("_") == private:
                yield name, node.lineno, node.end_lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in used:
                unused.append(name)
    assert not unused, f"{path.name} imports but never uses {unused}"


def _unreferenced(private: bool, searched=SEARCHED, modules=MODULES) -> list[str]:
    """"module: name" for each private (or public) module-level name of
    `modules` that no file of `searched` references outside its definition."""
    sites = defaultdict(list)  # name -> [(path, line)]
    for p in searched:
        for name, line in _references(ast.parse(p.read_text())):
            sites[name].append((p, line))
    return [
        f"{path.name}: {name}"
        for path in modules
        for name, first, last in _definitions(ast.parse(path.read_text()), private)
        if all(p == path and first <= line <= last for p, line in sites[name])
    ]


def test_every_private_name_is_referenced():
    unreferenced = _unreferenced(private=True)
    assert not unreferenced, f"private names nothing references: {unreferenced}"


def test_every_public_name_is_referenced():
    unreferenced = _unreferenced(private=False, searched=[p for p in SEARCHED if p != INIT])
    assert not unreferenced, f"public names nothing references: {unreferenced}"


def test_public_check_sees_a_stranded_name(tmp_path):
    module, user, init = tmp_path / "m.py", tmp_path / "use.py", tmp_path / "__init__.py"
    module.write_text("KEPT = 1\nclass Stranded:\n    x = Stranded\ndef used():\n    return KEPT\n")
    user.write_text("from m import used\nused()\n")
    init.write_text("from .m import KEPT, Stranded, used\n")
    assert _unreferenced(False, searched=[module, user], modules=[module]) == ["m.py: Stranded"]
    assert _unreferenced(False, searched=[module, user, init], modules=[module]) == []


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _private_reads(tree: ast.Module):
    """(module.name, line) for each private name of another vclab module that
    the tree reads: `from .m import _x`, or `m._x` where m is bound by
    `from . import m [as alias]` (or the absolute `vclab` forms)."""
    modules = {}  # local name -> vclab module name
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = ("vclab." + (node.module or "") if node.level else node.module).rstrip(".")
            for alias in node.names:
                if source == "vclab":
                    modules[alias.asname or alias.name] = alias.name
                elif source.startswith("vclab.") and _private(alias.name):
                    yield f"{source.removeprefix('vclab.')}.{alias.name}", node.lineno
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("vclab.") and alias.asname:
                    modules[alias.asname] = alias.name.removeprefix("vclab.")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            yield f"{modules[node.value.id]}.{node.attr}", node.lineno


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "vclab").glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_reads_another_modules_private_names(path):
    reads = [f"{name} (line {line})" for name, line in _private_reads(ast.parse(path.read_text()))]
    assert not reads, f"{path.name} reads private names of other vclab modules: {reads}"


def test_private_read_check_sees_every_import_form():
    source = """
from . import linsep
from . import bounds as bnd
from .pointsets import _GP_TOL, subset_table
from vclab.dichotomy import _packed
import vclab.hypotheses as hyp
linsep._cells(1); bnd._least_k; hyp._parse_activation; linsep.unique_rows; bnd.__name__
"""
    found = sorted(name for name, _ in _private_reads(ast.parse(source)))
    assert found == ["bounds._least_k", "dichotomy._packed", "hypotheses._parse_activation",
                     "linsep._cells", "pointsets._GP_TOL"]
