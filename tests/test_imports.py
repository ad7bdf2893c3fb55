"""Every name a package module imports from a sibling module is used there:
a deletion cannot leave a dead import behind.  __init__.py is exempt, since
its imports are the package's re-exports.  Every private name a package
module defines at its top level is read by some package module: a deleted
route cannot leave its helper behind as code that only the tests call.  Only
linalg reads PSD_TOL: every PSD and PPT verdict is one linalg rule.  Only the
kernels (linalg, twirl, gaussian) read the chunk budget _chunk_lengths."""

import ast
from pathlib import Path

import pytest

import twirlbreak

PACKAGE = sorted(Path(twirlbreak.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


def _unused_relative_imports(source: str) -> list[str]:
    """The names bound by `from .x import ...` in source that no other
    expression of the module reads."""
    tree = ast.parse(source)
    imported = [
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
    ]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def _private_definitions(tree: ast.Module) -> list[str]:
    """The private names (one leading underscore) that a module's top-level
    functions, classes and assignments bind, in order."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def _reads(tree: ast.Module) -> set[str]:
    """The names a module reads: as a name, as an attribute (linalg._x) or
    by importing it from a sibling."""
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            reads.update(alias.name for alias in node.names)
    return reads


def test_finds_a_module_per_source_file():
    assert {p.stem for p in MODULES} >= {"channels", "gaussian", "linalg", "twirl", "verification"}


def test_detects_an_unused_import():
    source = "from .linalg import kron, negativity\n\ndef f(x):\n    return kron(x, x)\n"
    assert _unused_relative_imports(source) == ["negativity"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_relative_import(path):
    assert _unused_relative_imports(path.read_text()) == []


def test_detects_an_unread_private_definition():
    tree = ast.parse("_A = 1\n_B: int = 2\n\ndef _f():\n    return _A\n\nclass _C:\n    pass\n")
    assert [name for name in _private_definitions(tree) if name not in _reads(tree)] == ["_B", "_f", "_C"]


def test_only_linalg_reads_the_psd_tolerance():
    readers = [path.name for path in PACKAGE if "PSD_TOL" in _reads(ast.parse(path.read_text()))]
    assert readers == ["linalg.py"]


def test_only_the_kernels_read_the_chunk_budget():
    # callers hand whole stacks to the kernels, which split them into chunks
    readers = [path.name for path in PACKAGE if "_chunk_lengths" in _reads(ast.parse(path.read_text()))]
    assert readers == ["gaussian.py", "linalg.py", "twirl.py"]


def test_every_private_definition_is_read_by_the_package():
    trees = {path.name: ast.parse(path.read_text()) for path in PACKAGE}
    read = set().union(*map(_reads, trees.values()))
    defined = [(module, name) for module, tree in trees.items() for name in _private_definitions(tree)]
    assert [f"{module}:{name}" for module, name in defined if name not in read] == []
