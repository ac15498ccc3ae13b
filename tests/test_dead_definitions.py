"""Every function, method and class of the package is used by a user path.

Standard library only: the names defined under `src/alcovelab/` (dunders
aside) are compared with the names read in `src/`, `demos/` or
`perfbench/`, the trees a user path runs.  A test, or the package's
re-export in `src/alcovelab/__init__.py`, is no use: a name only they
read belongs in the tests, as an oracle, or nowhere.  A reference is a
name, an attribute, an imported name or a keyword argument.  A string
constant counts only under `perfbench/`, the one tree that reaches
definitions by name (its tracer's `getattr`); elsewhere an error message
that spells a name is no use of it.  A method, a function defined
directly in a class body, is reached only through an attribute, a keyword
or such a string: a bare name of the same spelling is some other variable.
A method whose name another class also defines counts as used when either
is read; `test_live_methods` runs the user paths and covers those name
collisions.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "alcovelab"
TREES = ("src", "demos", "perfbench")
REEXPORT = "src/alcovelab/__init__.py"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def definitions(source):
    """(line, name, is_method) of every function, method and class source
    defines."""
    tree = ast.parse(source)
    methods = {id(child) for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef) for child in node.body
               if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))}
    return [(node.lineno, node.name, id(node) in methods)
            for node in ast.walk(tree) if isinstance(node, DEFINITIONS)
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def references(source, strings):
    """(names, members): every name source reads, imports, passes as a
    keyword or, when strings is set, spells out as a string constant, and
    the subset of those read as an attribute, a keyword or a string."""
    names, members = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Attribute):
            members.add(node.attr)
        elif isinstance(node, ast.keyword) and node.arg:
            members.add(node.arg)
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str)):
            members.add(node.value)
    return names | members, members


def on_a_user_path(path):
    """Whether a reference in the file at path (relative to the repo root)
    counts as a use: it lies in a tree a user path runs, and is not the
    package's re-export."""
    return path.split("/")[0] in TREES and path != REEXPORT


def dead_definitions(defining, reading):
    """(file, line, name) of each definition in the sources of defining (a
    {file: source} map) that no source of reading on a user path
    references; a method counts only as a member, and a string only in a
    file under perfbench/."""
    refs = [references(source, path.startswith("perfbench/"))
            for path, source in reading.items() if on_a_user_path(path)]
    used = set().union(*(names for names, _ in refs))
    used_members = set().union(*(members for _, members in refs))
    return sorted((path, line, name) for path, source in defining.items()
                  for line, name, is_method in definitions(source)
                  if name not in (used_members if is_method else used))


def test_the_check_sees_an_unreferenced_definition():
    defining = {"src/m.py": "class A:\n    def f(self):\n        pass\n"
                            "    def width(self):\n        pass\n"
                            "    def m(self):\n        pass\n"
                            "    def spelled(self):\n        pass\n"
                            "    def __eq__(self, other):\n        pass\n"
                            "def g():\n    pass\ndef h(k=1):\n    pass\n"
                            "def tested():\n    pass\n"}
    # the loop variable width is a bare name, not a use of the method
    # A.width, and a demo's string "spelled" is no use of A.spelled; only
    # perfbench/ reaches a definition by its name.  tested is read by a
    # test and re-exported by the package, and neither is a user path
    reading = {**defining,
               "demos/d.py": "from m import A\nA().m()\nh(k=2)\n"
                             "for width in range(3):\n    pass\n"
                             "assert 'spelled' in dir(A)\n",
               "perfbench/b.py": "from m import A\ngetattr(A, 'g')\n",
               "tests/t.py": "from m import tested\ntested()\n",
               REEXPORT: "from .m import A, g, h, tested\n"}
    assert dead_definitions(defining, reading) == [("src/m.py", 2, "f"),
                                                   ("src/m.py", 4, "width"),
                                                   ("src/m.py", 8, "spelled"),
                                                   ("src/m.py", 16, "tested")]


def test_every_definition_is_referenced():
    defining = {p.relative_to(ROOT).as_posix(): p.read_text(encoding="utf-8")
                for p in sorted(PACKAGE.glob("*.py"))}
    reading = {p.relative_to(ROOT).as_posix(): p.read_text(encoding="utf-8")
               for tree in TREES for p in sorted((ROOT / tree).rglob("*.py"))}
    assert dead_definitions(defining, reading) == []
