"""The report writer and the builtin-instance memo against their slow
references.

`config.report_to_json` must print what
`json.dumps(obj, sort_keys=True, indent=2, default=str)` prints, byte for
byte, at every nesting depth that call writes; that call stays here as the
oracle.  `instances.builtin_instance` keeps one build per (name, n, ell),
which is safe only while no user path writes to an instance; a fresh build
through `__wrapped__` is the oracle.
"""

import enum
import inspect
import io
import json
import runpy
import sys
import tempfile
from collections import OrderedDict, defaultdict, namedtuple
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alcovelab import cli, config
from alcovelab.config import parse_config, report_to_json
from alcovelab.instances import builtin_instance
from test_readme_commands import run, substituted_examples

ROOT = Path(__file__).resolve().parents[1]


def oracle(obj):
    return json.dumps(obj, sort_keys=True, indent=2, default=str)


TEXT = st.text(st.one_of(st.sampled_from('[]{},:"\\\n'), st.characters()),
               max_size=6)
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                    st.fractions(), TEXT)


def trees(depth):
    """Values nested at most depth containers deep: lists, tuples and dicts
    keyed by str, by numbers (int, bool, float) or by None, empty ones
    included."""
    if depth == 0:
        return SCALARS
    inner = trees(depth - 1)
    return st.one_of(
        SCALARS,
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(TEXT, inner, max_size=4),
        st.dictionaries(st.one_of(st.integers(), st.booleans(), st.floats()),
                        inner, max_size=4),
        st.dictionaries(st.none(), inner, max_size=1))


def grids(depth):
    """Nonempty lists nested depth deep with every scalar at the bottom,
    the shape the writer indents without walking it."""
    shape = SCALARS
    for _ in range(depth):
        shape = st.lists(shape, min_size=1, max_size=3)
    return shape


@settings(max_examples=400, deadline=None)
@given(st.one_of(trees(5), st.integers(1, 4).flatmap(grids),
                 st.dictionaries(TEXT, st.integers(1, 3).flatmap(grids),
                                 max_size=3)))
def test_writer_matches_indent_encoder(obj):
    assert report_to_json(obj) == oracle(obj)


@pytest.mark.parametrize("obj", [
    {"a": {(1, 2): 3}}, {"a": {(1, 2): [3]}}, {"a": [{(1, 2): 3}]},
    {"a": {"b": 1}, 2: 3}])
def test_writer_rejects_what_json_rejects(obj):
    with pytest.raises(TypeError) as expected:
        oracle(obj)
    with pytest.raises(TypeError) as got:
        report_to_json(obj)
    assert str(got.value) == str(expected.value)


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Name(str):
    pass


Pair = namedtuple("Pair", "x y")


def test_writer_matches_the_oracle_on_subclasses():
    """json tests containers by isinstance, so a namedtuple is a list and
    an OrderedDict or defaultdict a dict, indented alike; an IntEnum value
    or key is its int, and a str subclass its string."""
    table = defaultdict(list, {Level.HIGH: [Pair(1, Name("b"))], 0: []})
    obj = OrderedDict([("z", table), (Name("y"), Level.LOW),
                       ("x", (Pair(Level.HIGH, OrderedDict()), {}))])
    assert report_to_json(obj) == oracle(obj)


def nested(depth, leaf):
    """leaf inside depth containers, lists and one-key dicts alternating."""
    for i in range(depth):
        leaf = {"k": leaf} if i % 2 else [leaf]
    return leaf


def test_writer_writes_800_levels_as_the_oracle_does():
    obj = nested(800, 1)
    assert report_to_json(obj) == oracle(obj)


@pytest.mark.parametrize("leaf", [1, "s", None, 1.5, True, Fraction(1, 3),
                                  [], {}], ids=repr)
def test_writer_writes_every_depth_the_oracle_writes(leaf):
    """Under a recursion limit 200 frames above this one, the writer writes
    as deep a nesting as the oracle does (each found by bisection), and
    the same text there."""

    def deepest(write):
        lo, hi = 0, 200
        while lo < hi:
            mid = (lo + hi + 1) // 2
            try:
                write(nested(mid, leaf))
                lo = mid
            except RecursionError:
                hi = mid - 1
        return lo

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 200)
    try:
        depth = deepest(oracle)
        assert 100 < depth <= deepest(report_to_json)
    finally:
        sys.setrecursionlimit(limit)
    assert report_to_json(nested(depth, leaf)) == oracle(nested(depth, leaf))


def test_every_readme_report_matches_the_oracle():
    reports = []

    def spy(report):
        reports.append(report)
        return report_to_json(report)

    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(cli, "report_to_json", side_effect=spy):
        for argv in substituted_examples(tmp):
            assert run(argv)[0] == 0, argv
    assert len(reports) > 10
    for report in reports:
        assert report_to_json(report) == oracle(report), report["command"]


def test_cached_builtin_instances_equal_fresh_builds():
    builtin_instance.cache_clear()
    calls = []

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return builtin_instance(*args, **kwargs)

    with mock.patch.object(config, "builtin_instance", side_effect=spy):
        for demo in sorted((ROOT / "demos").glob("*.py")):
            with redirect_stdout(io.StringIO()):
                runpy.run_path(str(demo), run_name="__main__")
        with tempfile.TemporaryDirectory() as tmp:
            for argv in substituted_examples(tmp):
                assert run(argv)[0] == 0, argv
    assert calls and builtin_instance.cache_info().hits
    for args, kwargs in calls:
        # value equality compares every field, the dicts included
        assert builtin_instance(*args, **kwargs) == \
            builtin_instance.__wrapped__(*args, **kwargs), (args, kwargs)


def test_load_config_shares_one_builtin_build():
    argv = ["alcove", "--builtin", "hilb", "--n", "3", "--point", "1/3"]
    first, second = (
        parse_config(*cli._load_config(cli.build_parser().parse_args(argv)))[0]
        for _ in range(2))
    assert first is second
    assert first is builtin_instance("hilb", n=3)
