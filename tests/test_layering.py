"""The core modules never import the config module.

Standard library only.  `config` is the one module that reads JSON input,
so the modules below it know nothing of the input contract: a core module
that imported `.config` would start a second reader.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "alcovelab"
CORE = ("arith", "polyhedra", "alcoves", "instances", "compat", "orders",
        "validate", "mullineux")


def imports_config(source):
    """Line numbers of the imports in source that reach alcovelab.config."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = ("." * node.level) + (node.module or "")
            names = [alias.name for alias in node.names]
            if module in (".config", "alcovelab.config") or (
                    module in (".", "alcovelab") and "config" in names):
                lines.append(node.lineno)
        elif isinstance(node, ast.Import):
            if any(alias.name == "alcovelab.config" for alias in node.names):
                lines.append(node.lineno)
    return lines


def test_the_check_sees_each_import_form():
    source = ("from .config import ConfigError\n"
              "from . import config\n"
              "import alcovelab.config\n"
              "from alcovelab.config import parse_config\n"
              "from .configure import x\n"
              "from . import arith\n")
    assert imports_config(source) == [1, 2, 3, 4]


@pytest.mark.parametrize("name", CORE)
def test_core_module_does_not_import_config(name):
    path = PACKAGE / f"{name}.py"
    assert imports_config(path.read_text(encoding="utf-8")) == []
