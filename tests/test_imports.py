"""Every name a package module imports from a sibling module is used there:
a deletion cannot leave a dead import behind.  __init__.py is exempt, since
its imports are the package's re-exports."""

import ast
from pathlib import Path

import pytest

import twirlbreak

MODULES = sorted(p for p in Path(twirlbreak.__file__).parent.glob("*.py") if p.name != "__init__.py")


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


def test_finds_a_module_per_source_file():
    assert {p.stem for p in MODULES} >= {"channels", "gaussian", "linalg", "twirl", "verification"}


def test_detects_an_unused_import():
    source = "from .linalg import kron, negativity\n\ndef f(x):\n    return kron(x, x)\n"
    assert _unused_relative_imports(source) == ["negativity"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_relative_import(path):
    assert _unused_relative_imports(path.read_text()) == []
