"""Every module of the package, tests and demos uses each name it imports.

Standard library only: the names an import binds are compared with the
names the module reads.  `__init__.py` re-exports by importing, and
`from __future__` imports bind nothing, so both are skipped.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "alcovelab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
MODULES += sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("demos/*.py"))


def unused_imports(source):
    """Names bound by the imports of source that it never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_the_check_sees_an_unused_name():
    source = "import os\nfrom .x import a, b as c\nprint(a)\n"
    assert unused_imports(source) == [(1, "os"), (2, "c")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: (
    p.name if p.parent == PACKAGE else f"{p.parent.name}/{p.name}"))
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
