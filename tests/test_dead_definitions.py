"""Every function, method and class of the package is referenced somewhere.

Standard library only: the names defined under `src/alcovelab/` (dunders
aside) are compared with the names read anywhere in `src/`, `tests/`,
`demos/` or `perfbench/`.  A reference is a name, an attribute, an
imported name, a keyword argument or a string constant, so a definition
reached through `getattr` still counts.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "alcovelab"
TREES = ("src", "tests", "demos", "perfbench")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def definitions(source):
    """(line, name) of every function, method and class source defines."""
    return [(node.lineno, node.name) for node in ast.walk(ast.parse(source))
            if isinstance(node, DEFINITIONS)
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def references(source):
    """Every name source reads, imports, passes as a keyword or spells out
    as a string constant."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
        elif isinstance(node, ast.keyword) and node.arg:
            names.add(node.arg)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def dead_definitions(defining, reading):
    """(file, line, name) of each definition in the sources of defining (a
    {file: source} map) that no source of reading references."""
    used = set().union(*map(references, reading.values()))
    return sorted((path, line, name) for path, source in defining.items()
                  for line, name in definitions(source) if name not in used)


def test_the_check_sees_an_unreferenced_definition():
    defining = {"m.py": "class A:\n    def f(self):\n        pass\n"
                        "    def __eq__(self, other):\n        pass\n"
                        "def g():\n    pass\ndef h(k=1):\n    pass\n"}
    reading = {**defining, "t.py": "from m import A\nA().x\nh(k=2)\n"
                                   "getattr(A, 'g')\n"}
    assert dead_definitions(defining, reading) == [("m.py", 2, "f")]


def test_every_definition_is_referenced():
    defining = {p.relative_to(ROOT).as_posix(): p.read_text(encoding="utf-8")
                for p in sorted(PACKAGE.glob("*.py"))}
    reading = {p.relative_to(ROOT).as_posix(): p.read_text(encoding="utf-8")
               for tree in TREES for p in sorted((ROOT / tree).rglob("*.py"))}
    assert dead_definitions(defining, reading) == []
