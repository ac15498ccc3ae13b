"""The core modules never import the config module, the facet rule stays
in alcoves, and polyhedra has one facet path.

Standard library only.  `config` is the one module that reads JSON input,
so the modules below it know nothing of the input contract: a core module
that imported `.config` would start a second reader.  Likewise `alcoves`
is the one module that orients an alcove's inequalities: a module that
used `oriented_facet` or the senses `GE`/`LE` would start a second copy of
the p-alcove's facets.  `polyhedra.facets_and_vertices` reads the facets
of every system with an interior off its rays: a second call of
`irredundant` would start a second facet path.
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


# The facet rule lives in alcoves: only it orients an inequality of an
# alcove (oriented_facet) or reads its sense (GE, LE); config, the JSON
# reader, may check a sense.  Every other module reads the p-alcove's
# oriented facets (PAlcove.facets).
FACET_RULE = {"oriented_facet": {"alcoves"},
              "GE": {"alcoves", "config"}, "LE": {"alcoves", "config"}}


def facet_rule_names(source):
    """The names of FACET_RULE that source reads, imports or defines."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.asname or node.name)
            found.add(node.name)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
    return found & set(FACET_RULE)


def test_the_check_sees_each_use_of_the_facet_rule():
    source = ("from .alcoves import GE as ge, oriented_facet\n"
              "from . import alcoves\n"
              "x = alcoves.LE\n")
    assert facet_rule_names(source) == {"GE", "LE", "oriented_facet"}
    assert facet_rule_names("x = '>='\n") == set()


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_the_facet_rule_stays_in_alcoves(path):
    assert {name for name in facet_rule_names(path.read_text(encoding="utf-8"))
            if path.stem not in FACET_RULE[name]} == set()


def irredundant_calls(source):
    """(enclosing function, in an if's body) for each call of irredundant
    in source, by name or as an attribute."""
    calls = []

    def visit(node, function, in_if):
        if isinstance(node, ast.Call) and "irredundant" in (
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None)):
            calls.append((function, in_if))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function, in_if = node.name, False
        for field, value in ast.iter_fields(node):
            children = value if isinstance(value, list) else [value]
            for child in children:
                if isinstance(child, ast.AST):
                    visit(child, function,
                          in_if or (isinstance(node, ast.If)
                                    and field == "body"))

    visit(ast.parse(source), None, False)
    return calls


def test_the_check_sees_each_call_of_irredundant():
    source = ("from .polyhedra import irredundant\n"
              "from . import polyhedra\n"
              "def f(cons):\n"
              "    if cons:\n"
              "        return irredundant(cons, 2)\n"
              "    return polyhedra.irredundant(cons, 2)\n"
              "x = irredundant\n")
    assert irredundant_calls(source) == [("f", True), ("f", False)]


def test_irredundant_is_called_only_for_systems_without_interior():
    # the one call is the fallback branch of facets_and_vertices
    calls = [(path.stem, *call) for path in sorted(PACKAGE.glob("*.py"))
             for call in irredundant_calls(path.read_text(encoding="utf-8"))]
    assert calls == [("polyhedra", "facets_and_vertices", True)]
