"""The CLI's one-pass argv reader against argparse.

`oracle_parser` is the CLI's parser as a chain of `add_argument` calls, the
form it had before its flags moved into `cli.SUBCOMMANDS`.  Whatever the
argv, `cli._parse` must give the oracle's namespace, or exit with the
oracle's code and text; a call it reads without handing off to argparse
must be one the oracle accepts.  The help of the table-built parser must
match the oracle's byte for byte.

`_parse` departs from the oracle in one place.  argparse stores a
"--flag=--" value as [], and its namespace would hand the list to code that
reads a str or an int.  `_parse` words that call itself: it raises a
ConfigError naming the flag, and `dispatch` prints it as one
{"error": ...} line with exit 1.
"""

import argparse
import functools
import io
import json
import shlex
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from alcovelab import cli
from alcovelab.config import ConfigError
from alcovelab.instances import BUILTINS

from test_readme_commands import readme_examples


@functools.cache
def oracle_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="alcove-lab",
        description="exact alcove and label-set combinatorics")
    sp = ap.add_subparsers(dest="cmd")

    def sub(name, **kw):
        s = sp.add_parser(name, **kw)
        s.add_argument("--config", help="instance config JSON")
        s.add_argument("--builtin", choices=BUILTINS,
                       help="builtin instance instead of a config file")
        s.add_argument("--n", type=int, help="builtin size parameter")
        s.add_argument("--ell", type=int, default=None,
                       help="builtin hilb window parameter (default 0)")
        return s

    s = sub("alcove", help="real alcove containing a point")
    s.add_argument("--point", required=True)

    s = sub("faces", help="faces of the alcove containing a point")
    s.add_argument("--point", required=True)

    s = sub("palcove", help="p-alcove of a real alcove")
    s.add_argument("--point", help="interior point identifying the alcove")
    s.add_argument("--alcove-id", help="path to an exported alcove JSON")
    s.add_argument("--p", type=int, help="also evaluate bounds at this prime")

    s = sub("membership", help="p-alcove containing a lattice point")
    s.add_argument("--point", required=True)
    s.add_argument("--p", type=int, required=True)

    s = sub("chambers", help="integral walls and positive chamber")
    s.add_argument("--lambda", dest="lam", required=True)

    s = sub("quantum", help="quantum chamber shifted from the positive chamber")
    s.add_argument("--lambda", dest="lam", required=True)

    s = sub("validate-p", help="admissibility report for a prime")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--alcove-point", action="append", default=[],
                   help="interior point of a real alcove to check nonempty")

    s = sub("path", help="lattice translation path inside a p-alcove")
    s.add_argument("--from", dest="src", required=True)
    s.add_argument("--to", dest="dst", required=True)
    s.add_argument("--p", type=int, required=True)

    s = sub("compatible", help="compatible parameter for (alcove, face)")
    s.add_argument("--point", required=True,
                   help="interior point identifying the alcove")
    s.add_argument("--face", type=int, required=True,
                   help="face index as listed by the faces subcommand")
    s.add_argument("--p-samples", default="",
                   help="comma-separated primes for sampled verification")
    s.add_argument("--opposite", action="store_true",
                   help="also construct the opposite pair across the face")

    s = sub("order", help="highest-weight order window at a prime")
    s.add_argument("--lambda-prime", dest="lam_prime", required=True)
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--window", required=True, help="z1:z2 half-open")
    s.add_argument("--format", choices=("json", "dot"), default="json")

    s = sub("preorder", help="standardly stratified pre-order from a face")
    s.add_argument("--point", required=True)
    s.add_argument("--face", type=int, required=True)
    s.add_argument("--window", required=True, help="m1:m2 shift window")
    s.add_argument("--format", choices=("json", "dot"), default="json")

    s = sub("classes", help="equivalence classes of the pre-order, two ways")
    s.add_argument("--point", required=True)
    s.add_argument("--face", type=int, required=True)
    s.add_argument("--window", required=True)

    s = sub("check-phw", help="periodic highest-weight axiom suite")
    s.add_argument("--lambda-prime", dest="lam_prime", required=True)
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--window", required=True)
    s.add_argument("--d-bound", type=int, default=None)

    s = sub("check-compat", help="pre-order vs order compatibility chain")
    s.add_argument("--point", required=True)
    s.add_argument("--face", type=int, required=True)
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--window", required=True, help="kappa window z1:z2")
    s.add_argument("--m-window", default="-2:2", help="shift window m1:m2")

    s = sp.add_parser("wallcross",
                      help="wall-crossing bijection table (Hilb case)")
    s.add_argument("--n", type=int, required=True,
                   help="the table lists the partitions of n")
    s.add_argument("--b", type=int, required=True)
    s.add_argument("--variant", default="plain")
    s.add_argument("--csv", action="store_true", help="emit CSV instead of JSON")

    s = sp.add_parser("export", help="re-emit a poset report as dot/json")
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--format", choices=("json", "dot"), default="dot")

    return ap


def subparsers(ap):
    action = next(a for a in ap._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def outcome(parse, argv):
    """(vars of the namespace, ("exit", code) or ("error", message)),
    stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = ("exit", exc.code)
        except ConfigError as exc:
            result = ("error", str(exc))
    return result, out.getvalue(), err.getvalue()


def dropped(result):
    """The flags whose value the oracle's outcome result holds as [], the
    value argparse stores for "--flag=--"."""
    if not isinstance(result, dict) or result["cmd"] is None:
        return []
    rows = cli.SUBCOMMANDS[result["cmd"]][1]
    return [flag for flag, dest, *_, action, _ in rows
            if [] in (result[dest] if action == "append" else [result[dest]])]


def read(argv):
    """outcome of cli._parse, and whether it handed argv to argparse."""
    handed = []

    def counting_build_parser():
        handed.append(argv)
        return build_parser()

    build_parser = cli.build_parser
    with mock.patch.object(cli, "build_parser", counting_build_parser):
        return outcome(cli._parse, argv), bool(handed)


ALL_FLAGS = sorted({flag for _, rows in cli.SUBCOMMANDS.values()
                    for flag, *_ in rows})
OTHER_FLAGS = ["--po", "--poin", "--p-s", "--lam", "--win", "--form", "--bu",
               "--opp", "--alc", "--bogus", "-x", "-h", "--help", "--", "-3"]
VALUES = ["-3", "-3:3", "5/12", "", "x", "7", "0", "hilb", "weyl_a", "json",
          "dot", "--", "-", " 4", "1,2", "=", "-3 x"]


def plausible(row):
    """Values a row's flag takes, for calls that argparse accepts."""
    _, _, kind, _, _, choices, _, _ = row
    if choices:
        return list(choices)
    return ["7", "0"] if kind is int else ["5/12", "x", "", "1,2", "0:9"]


@st.composite
def argvs(draw):
    cmd = draw(st.sampled_from([*cli.SUBCOMMANDS, "alc", "bogus", "-h", ""]))
    rows = cli.SUBCOMMANDS.get(cmd, (None, ()))[1]
    groups = []
    # each required flag, most of the time, so that many calls are valid
    for row in rows:
        if row[3] and draw(st.integers(0, 19)):
            groups.append((row, draw(st.sampled_from(plausible(row)))))
    # other flags of the subcommand, and now and then any token
    for _ in range(draw(st.integers(0, 4))):
        if rows and draw(st.integers(0, 5)):
            row = draw(st.sampled_from(rows))
            value = draw(st.sampled_from(
                plausible(row) if draw(st.integers(0, 4)) else VALUES))
        else:
            flag = draw(st.sampled_from(ALL_FLAGS + OTHER_FLAGS))
            row, value = (flag,), draw(st.sampled_from(VALUES))
        groups.append((row, value))
    if cmd == "validate-p":
        point = next(row for row in rows if row[0] == "--alcove-point")
        groups += [(point, v) for v in draw(st.lists(
            st.sampled_from(["5/12", "1/3", "-3"]), max_size=3))]
    groups = draw(st.permutations(groups))
    argv = [cmd] if cmd or draw(st.booleans()) else []
    for row, value in groups:
        form = draw(st.sampled_from(["apart"] * 3 + ["joined"] * 3 + ["bare"]))
        if form == "bare" or (len(row) > 6 and row[6] == "store_true"
                              and draw(st.integers(0, 3))):
            argv.append(row[0])
        elif form == "joined":
            argv.append(f"{row[0]}={value}")
        else:
            argv += [row[0], value]
    return argv


@settings(max_examples=600, deadline=None)
@given(argvs())
@example(["validate-p", "--builtin", "hilb", "--n", "3", "--p", "23",
          "--alcove-point", "5/12", "--alcove-point=1/3"])
@example(["wallcross", "--n", "-3", "--b", "2"])
@example(["alcove", "--point=--"])
@example(["alcove", "--point="])
@example(["compatible", "--point", "1", "--face", "0", "--opposite=1"])
@example(["alcove", "--point", "1", "--poin", "2"])
@example([])
def test_parse_matches_the_oracle(argv):
    (got, out, err), handed = read(argv)
    expected = outcome(oracle_parser().parse_args, argv)
    flags = dropped(expected[0])
    if flags:
        # the one departure: an error line that names a "--flag=--" flag
        assert handed and (out, err) == ("", "")
        assert got in [("error", f"{flag} needs a value, not '--'")
                       for flag in flags]
        printed = io.StringIO()
        with redirect_stdout(printed):
            assert cli.dispatch(argv) == 1
        assert printed.getvalue() == json.dumps({"error": got[1]}) + "\n"
        return
    assert (got, out, err) == expected
    if not handed:
        assert isinstance(got, dict) and got["cmd"] is not None
    if isinstance(got, tuple):
        # dispatch exits as argparse does, with its text
        assert outcome(cli.dispatch, argv) == expected


def test_help_matches_the_oracle():
    new, old = cli.build_parser(), oracle_parser()
    assert new.format_help() == old.format_help()
    assert new.format_usage() == old.format_usage()
    assert list(subparsers(new)) == list(subparsers(old))
    for name, sub in subparsers(new).items():
        assert sub.format_help() == subparsers(old)[name].format_help(), name


def test_valid_calls_are_read_without_argparse():
    """Every README command and a call with each flag in both forms reads
    the oracle's namespace without handing off."""
    calls = [argv for argv in readme_examples() if "[--csv]" not in argv]
    calls += [shlex.split(line) for line in (
        "wallcross --n 6 --b 3 --variant plain --csv",
        "check-phw --builtin hilb --n 2 --lambda-prime=-5 --p 5 "
        "--window=-3:12 --d-bound 4",
        "compatible --config=c.json --point 5/12 --face=0 --p-samples= "
        "--opposite",
        "palcove --builtin=weyl_a --n=3 --ell 0 --alcove-id a.json --p=7",
        "palcove",
        "path --from=1 --to 2 --p 5 --from 3",
        "check-compat --point 1 --face 1 --p 23 --window=-69:69 "
        "--m-window=-1:1",
        "export --in poset.json --format json")]
    for argv in calls:
        (got, out, err), handed = read(argv)
        assert not handed, argv
        assert (got, out, err) == outcome(oracle_parser().parse_args, argv)
