"""Hypothesis fuzz over `dispatch` argv.

Each call names a subcommand of `cli.SUBCOMMANDS` with every required flag
and some of its other flags, each in the `--flag value` or the
`--flag=value` form.  A value comes from a small pool that holds "--", a
negative number, an empty string, a word, a zero denominator, a fraction,
a window and two small integers; a flag with choices also takes them, and
the instance flags come most of the time, so that many calls reach the
library.  Whatever the argv, `dispatch` returns 0, 1 or 2, or argparse
exits 2, and nothing else escapes.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import example, given, settings
from hypothesis import strategies as st

from alcovelab import cli

VALUES = ["--", "-3", "", "x", "1/0", "1/3", "0:3", "2", "5"]


@st.composite
def argvs(draw):
    cmd = draw(st.sampled_from(list(cli.SUBCOMMANDS)))
    rows = cli.SUBCOMMANDS[cmd][1]
    chosen = [row for row in rows if row[3] or (
        row[0] in ("--builtin", "--n") and draw(st.integers(0, 4)))]
    chosen += draw(st.lists(st.sampled_from(rows), max_size=3))
    argv = [cmd]
    for flag, _, _, _, _, choices, action, _ in draw(st.permutations(chosen)):
        if action == "store_true" and draw(st.integers(0, 3)):
            argv.append(flag)
            continue
        value = draw(st.sampled_from([*(choices or ()), *VALUES]))
        if draw(st.booleans()):
            argv.append(f"{flag}={value}")
        else:
            argv += [flag, value]
    return argv


@settings(max_examples=1000, deadline=None)
@given(argvs())
@example(["alcove", "--builtin", "hilb", "--n", "2", "--point=--"])
@example(["validate-p", "--builtin=hilb", "--n=2", "--p=5",
          "--alcove-point=--"])
@example(["export", "--in=--"])
def test_dispatch_exits_0_1_or_2(argv):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            code = cli.dispatch(argv)
        except SystemExit as exc:
            code = exc.code
            assert code == 2, argv
    assert code in (0, 1, 2), argv
