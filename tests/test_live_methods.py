"""Every method of the package's classes runs on a user path.

One process runs, under `sys.setprofile`, what a user runs: the six
`demos/*.py`, every README command (with the substitutions of
`test_readme_commands`) and the four perfbench smoke passes, each through
`workloads.WORKLOADS` with a `worker.Ops()`.  The test fails on any method,
property or cached property, dunders included, of a class defined under
`src/alcovelab/` whose code never starts, unless NOT_ON_A_USER_PATH names
it with its reason.  This covers what the static check of
`test_dead_definitions` cannot see: a method whose name another class also
defines, which that check counts as used when either is read, and a dunder,
which that check never counts.
"""

import io
import random
import runpy
import sys
from contextlib import redirect_stdout
from functools import cached_property
from pathlib import Path

import alcovelab
import alcovelab.cli
from test_readme_commands import run, substituted_examples

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "alcovelab"
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
}


def methods():
    """{code object: "Class.name"} of every method, property and cached
    property, dunders included, that a class of the package defines in its
    own source."""
    out = {}
    for name, module in sorted(sys.modules.items()):
        if name.split(".")[0] != "alcovelab":
            continue
        for cls in vars(module).values():
            if not isinstance(cls, type) or cls.__module__ != name:
                continue
            for attr, value in vars(cls).items():
                if isinstance(value, property):
                    value = value.fget
                elif isinstance(value, cached_property):
                    value = value.func
                code = getattr(getattr(value, "__func__", value),
                               "__code__", None)
                if code is not None and Path(code.co_filename).parent == PACKAGE:
                    out[code] = f"{cls.__name__}.{attr}"
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


def test_every_method_runs_on_a_user_path(tmp_path):
    started = set()

    def profile(frame, event, arg):
        if event == "call":
            started.add(frame.f_code)

    sys.setprofile(profile)
    try:
        user_paths(tmp_path)
    finally:
        sys.setprofile(None)
    never = {name for code, name in methods().items() if code not in started}
    assert never == NOT_ON_A_USER_PATH
