"""Every function and method of the package runs on a user path.

One process runs, under `sys.setprofile`, what a user runs: the six
`demos/*.py`, every README command (with the substitutions of
`test_readme_commands`) and the four perfbench smoke passes, each through
`workloads.WORKLOADS` with a `worker.Ops()`.  The test fails on any
function that a module of `src/alcovelab/` defines at its top level, and
on any method, property or cached property, dunders included, of a class
defined there, whose code never starts, unless NOT_ON_A_USER_PATH names
it with its reason.  This covers what the static check of
`test_dead_definitions` cannot see: a name that a path reads but no path
calls, a method whose name another class also defines, which that check
counts as used when either is read, and a dunder, which that check never
counts.
"""

import io
import random
import runpy
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from unittest import mock

import alcovelab
import alcovelab.cli
from alcovelab.arith import AffineInP, Value
from test_readme_commands import run, substituted_examples

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

NOT_ON_A_USER_PATH = {
    # runs at import, once per value type, before any user path starts
    "Value.__init_subclass__",
    # run only on misuse: assigning or deleting a field of a value
    "Value.__setattr__", "Value.__delattr__",
    # for debugging: no report or output prints a value's repr
    "Value.__repr__",
    # error paths: a singular query point, and a p too small for the
    # real/p-alcove bijection, which no user path's input meets
    "SingularPointError.__init__", "PTooSmallError.__init__",
    # translation_path's general second stage, for dependent generators
    # or when no monotone path stays inside the p-alcove
    "alcoves._bfs_path",
    # no library path calls them; only the benchmark tracer's spans name
    # them (ROADMAP item 2)
    "polyhedra.find_point", "polyhedra.is_redundant",
    "polyhedra.irredundant",
    # a config whose sigma_tilde is not saturated
    "arith.saturate",
    # the console entry point: the user paths call dispatch in process
    "cli.main",
    # argparse's parser, which writes the usage and words a rejected
    # call: every README and benchmark call is one that _parse reads
    "cli.build_parser",
    # runs at import, while config builds its type table, before any
    # user path starts
    "config._array_of",
}


def package_modules():
    return [module for name, module in sorted(sys.modules.items())
            if name.split(".")[0] == "alcovelab"]


def code_of(value):
    """The code object of a function, method, property or cached property,
    under any functools cache; None for any other value."""
    if isinstance(value, property):
        value = value.fget
    elif isinstance(value, cached_property):
        value = value.func
    value = getattr(value, "__func__", value)
    return getattr(getattr(value, "__wrapped__", value), "__code__", None)


def functions():
    """{code object: name} of every function that a module of the package
    defines at its top level, as "module.name", and of every method,
    property and cached property, dunders included, that a class of the
    package defines in its own source, as "Class.name"."""
    out = {}
    for module in package_modules():
        name, source = module.__name__, Path(module.__file__)
        for attr, obj in vars(module).items():
            if not isinstance(obj, type):
                code = code_of(obj)
                if code is not None and Path(code.co_filename) == source:
                    out[code] = f"{name.rpartition('.')[2]}.{attr}"
            elif obj.__module__ == name:
                for method, value in vars(obj).items():
                    code = code_of(value)
                    if code is not None and Path(code.co_filename) == source:
                        out[code] = f"{obj.__name__}.{method}"
    return out


def user_paths(tmp):
    """The demos, the README commands and the perfbench smoke passes."""
    for demo in sorted((ROOT / "demos").glob("*.py")):
        with redirect_stdout(io.StringIO()):
            runpy.run_path(str(demo), run_name="__main__")
    for argv in substituted_examples(tmp):
        assert run(argv)[0] == 0, argv
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    from worker import Ops
    from workloads import WORKLOADS
    for name, (setup, run_pass) in sorted(WORKLOADS.items()):
        workdir = Path(tmp) / name
        workdir.mkdir()
        state = setup(alcovelab, random.Random(f"{name}:1"), "smoke",
                      str(workdir))
        run_pass(alcovelab, state, Ops())


def from_empty_caches(call):
    """call() with the package's caches empty, as in a fresh process, so
    that no result an earlier test cached is skipped: its functools caches
    are cleared, and compat's dict is emptied for the run and then
    restored."""
    for module in package_modules():
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    with mock.patch.dict(alcovelab.compat._cache, clear=True):
        call()


def never_run(call):
    """The names in functions() whose code never starts while call() runs
    under sys.setprofile, from empty caches."""
    started = set()

    def profile(frame, event, arg):
        if event == "call":
            started.add(frame.f_code)

    def profiled():
        sys.setprofile(profile)
        try:
            call()
        finally:
            sys.setprofile(None)

    from_empty_caches(profiled)
    return {name for code, name in functions().items()
            if code not in started}


def test_every_method_runs_on_a_user_path(tmp_path):
    assert never_run(lambda: user_paths(tmp_path)) == NOT_ON_A_USER_PATH


def test_every_affine_function_a_user_path_builds_holds_two_fractions(
        tmp_path):
    # AffineInP stores its fields as given, with no coercion: the library
    # hands it Fractions, and only affine() makes one of an int
    kinds = set()

    def recording_init(self, *args, **named):
        Value.__init__(self, *args, **named)
        kinds.add((type(self.const), type(self.slope)))

    with mock.patch.object(AffineInP, "__init__", recording_init):
        from_empty_caches(lambda: user_paths(tmp_path))
    assert kinds == {(Fraction, Fraction)}


def test_the_check_names_a_function_that_never_runs():
    never = never_run(lambda: alcovelab.arith.vadd((1,), (2,)))
    assert "arith.vadd" not in never
    # a module function, a method and one under a functools cache
    assert {"arith.vsub", "Wall.class_part", "mullineux._images",
            "instances.builtin_instance"} <= never
