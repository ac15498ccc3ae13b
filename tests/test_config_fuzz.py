"""Hypothesis fuzz over config files in each of the three forms.

Each key of a builtin, points or walls config, and each key of its wall
and point entries, holds a plausible value five times in six and a value
of any JSON type, nested one level, otherwise.  Whatever the file holds,
`alcove --config F --point 1` exits 0 or 1, prints one JSON document (one
line for an error) and raises nothing.
"""

import io
import json
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alcovelab.cli import dispatch

LEAVES = (st.none() | st.booleans() | st.integers(-3, 3)
          | st.floats(allow_nan=False, allow_infinity=False)
          | st.sampled_from(["0", "1/2", "-3/2", "1/0", "x", "", "2+1",
                             "1,2", "*"])
          | st.text(max_size=4))
ANY_JSON = (LEAVES | st.lists(LEAVES, max_size=3)
            | st.dictionaries(st.text(max_size=3), LEAVES, max_size=3))
SMALL = st.integers(1, 6)
RATIONAL = st.integers(-3, 3) | st.sampled_from(
    ["0", "1/2", "-1/2", "1/3", "5/2", "-7/3"])


def either(plausible):
    """A plausible value five times in six, else a value of any JSON type,
    so that one bad key is not always hidden behind another."""
    return st.sampled_from([plausible] * 5 + [ANY_JSON]).flatmap(lambda s: s)


def entries(required, optional=None):
    """A JSON object of the keys of required, and some keys of optional,
    each holding either of its value."""
    return st.fixed_dictionaries(
        {key: either(value) for key, value in required.items()},
        optional={key: either(value)
                  for key, value in (optional or {}).items()})


@st.composite
def config_files(draw, form):
    n = draw(SMALL)
    if form == "builtin":
        name = draw(st.sampled_from(["hilb", "weyl_a"]))
        rank = 1 if name == "hilb" else max(n - 1, 1)
        head = {"builtin": st.just(name), "n": st.just(n)}
        optional = {"ell": SMALL}
    else:
        rank = n
        head = {"rank": st.just(rank)}
        optional = {"name": st.just("custom")}
    vectors = st.lists(
        either(st.lists(RATIONAL, min_size=rank, max_size=rank)), max_size=2)
    walls = st.lists(either(entries({
        "id": st.integers(0, 2),
        "alpha": st.lists(st.integers(-2, 2), min_size=rank, max_size=rank),
        "sigma_tilde": st.lists(RATIONAL, min_size=1, max_size=3)})),
        max_size=3)
    optional.update(
        lambdas=vectors, generators=vectors,
        meta=entries({}, {"points": st.sampled_from(["partitions",
                                                     "permutations"])}))
    if form == "points":
        head["name"] = optional.pop("name")
        head["points"] = st.lists(either(entries({
            "id": st.sampled_from(["a", "b", "2+1", "1+1", "1,2", "2,1"]),
            "c_const": RATIONAL,
            "c_linear": st.lists(RATIONAL, min_size=rank, max_size=rank)})),
            min_size=1, max_size=3)
        optional["walls"] = walls
    elif form == "walls":
        head["walls"] = walls
    else:
        optional["walls"] = walls
    return draw(entries(head, optional))


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "config.json"


@pytest.mark.parametrize("form", ["builtin", "points", "walls"])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_any_config_gives_one_report_or_one_error(config_path, form, data):
    config_path.write_text(json.dumps(data.draw(config_files(form))))
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = dispatch(["alcove", "--config", str(config_path),
                         "--point", "1"])
    out = buf.getvalue()
    report = json.loads(out)
    if code == 1:
        assert list(report) == ["error"] and out.count("\n") == 1
    else:
        assert code == 0 and "alcove" in report["outputs"]
