import argparse
import ast
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction as F
from importlib import import_module
from itertools import islice
from pathlib import Path
from unittest import mock

import pytest

from alcovelab import cli, compat, config, instances
from alcovelab.arith import MAX_SHIFTS, LemmaError
from alcovelab.cli import _is_prime, build_parser, dispatch
from alcovelab.config import (ConfigError, load_json, parse_config,
                              run_report)
from alcovelab.instances import (builtin_instance, hilb_instance,
                                 weyl_a_instance)
from alcovelab.partitions import partition_numbers


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = dispatch(argv)
    return code, buf.getvalue()


def test_load_builtin_hilb(tmp_path):
    path = tmp_path / "hilb.json"
    path.write_text(json.dumps({"builtin": "hilb", "n": 3, "ell": 0}))
    inst, _ = parse_config(load_json(str(path)), str(path))
    assert len(inst.points) == 3
    assert len(inst.walls) == 1


def test_load_builtin_weyl(tmp_path):
    path = tmp_path / "weyl.json"
    path.write_text(json.dumps({"builtin": "weyl_a", "n": 3}))
    inst, _ = parse_config(load_json(str(path)), str(path))
    assert len(inst.points) == 6
    assert len(inst.walls) == 3


def test_malformed_json_reports_offset(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"builtin": "hilb", }')
    with pytest.raises(ConfigError, match="byte offset"):
        load_json(str(path))


def test_builtin_config_without_n_names_path_and_key(tmp_path):
    path = tmp_path / "hilb.json"
    path.write_text(json.dumps({"builtin": "hilb"}))
    code, out = run_cli(["alcove", "--config", str(path), "--point", "5/12"])
    assert code == 1
    assert json.loads(out)["error"] == \
        f"{path}: builtin 'hilb' needs a size \"n\""


def test_unknown_builtin_config_names_path_and_choices(tmp_path):
    path = tmp_path / "foo.json"
    path.write_text(json.dumps({"builtin": "foo", "n": 3}))
    with pytest.raises(ConfigError):
        parse_config(load_json(str(path)), str(path))
    code, out = run_cli(["alcove", "--config", str(path), "--point", "1"])
    assert code == 1
    assert json.loads(out)["error"] == \
        f"{path}: unknown builtin 'foo'; expected one of hilb, weyl_a"


def test_wall_config_schema_errors():
    with pytest.raises(ConfigError, match="missing key"):
        parse_config({"rank": 1, "walls": [{"id": 0, "alpha": [1]}]})
    with pytest.raises(ConfigError, match="rank"):
        parse_config({"walls": [
            {"id": 0, "alpha": [1], "sigma_tilde": ["0"]}]})
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config({"rank": 1, "walls": [
            {"id": 0, "alpha": [1], "sigma_tilde": ["0"]},
            {"id": 0, "alpha": [1], "sigma_tilde": ["1/2"]}]})
    with pytest.raises(ConfigError) as exc:
        parse_config({"rank": 2, "walls": [
            {"id": 0, "alpha": [0, 0], "sigma_tilde": ["0"]}]})
    assert str(exc.value) == \
        "config.walls[0]: key 'alpha' is the zero covector"


@pytest.mark.parametrize("config, argv, expected", [
    (None, ["compatible", "--builtin", "hilb", "--n", "3", "--point", "5/12",
            "--face", "9"], "--face must be in [0, 3)"),
    (None, ["palcove", "--builtin", "hilb", "--n", "3"],
     "identify the alcove with --point or --alcove-id"),
    (None, ["alcove", "--point", "1"],
     "no instance: pass --config FILE or --builtin NAME"),
    # weyl_a has no ell: a config's ell is named, not dropped (in the
    # place of a deleted case, so that the ids of the cases after it stay)
    ({"builtin": "weyl_a", "n": 3, "ell": 5},
     ["alcove", "--config", "{path}", "--point", "1/3,1/3"],
     "{path}: weyl_a takes no ell, got 5"),
    ({"rank": 2, "walls": [{"id": 0, "alpha": [1, 0], "sigma_tilde": ["0"]}]},
     ["faces", "--config", "{path}", "--point", "1/3,1/3"],
     "unbounded alcove: wall covectors do not span"),
    (None, ["membership", "--builtin", "hilb", "--n", "2", "--point", "1/2",
            "--p", "5"], "p_membership expects a lattice point"),
    (None, ["check-phw", "--builtin", "hilb", "--n", "2", "--lambda-prime",
            "5", "--p", "5", "--window", "0:9"],
     "window must contain at least two shift periods"),
    (None, ["preorder", "--builtin", "hilb", "--n", "3", "--point", "5/12",
            "--face", "1", "--window=-1:2"],
     "window must be symmetric in the shift: (-m, m)"),
    # no label of the pre-order in the window: no check to pass
    (None, ["check-compat", "--builtin", "hilb", "--n", "2", "--point", "1",
            "--face", "1", "--p", "29", "--window=1000:1010"],
     "--window 1000:1010 holds no label of the pre-order at p = 29"),
    # check-compat's errors in their order: at hilb(4), 5/12, face 0 and
    # p = 13 both (p+1)c and kappa are not integral, so each error shows
    # only when the ones before it pass
    *[(None, ["check-compat", "--builtin", "hilb", "--n", str(n), "--point",
              "5/12", "--face", "0", "--p", "13", f"--window={window}",
              "--m-window=-1:1"], error) for n, window, error in [
        (4, "5:5", "empty window: [5, 5)"),
        (4, "0:300000", "--window 0:300000: the window asks for 1500000 "
                        "labels, above the bound of 1000000"),
        (4, "0:10",
         "(p+1)*c is not integral at p=13; see validate_p check (c)"),
        (3, "0:10", "kappa not integral at p=13")]],
    # the table needs n >= 2, so a bad n is named, not the valid b
    (None, ["wallcross", "--n", "-3", "--b", "2"],
     "n must be at least 2, got -3"),
    (None, ["wallcross", "--n", "1", "--b", "2"],
     "n must be at least 2, got 1"),
    (None, ["check-phw", "--builtin", "hilb", "--n", "2", "--lambda-prime",
            "5", "--p", "5", "--window", "0:15", "--d-bound", "-1"],
     "--d-bound -1 is below 0"),
    # argparse stores a "--flag=--" value as [], which _parse rejects
    *[(None, argv.split(), f"{flag} needs a value, not '--'")
      for flag, argv in [
          ("--point", "alcove --builtin hilb --n 2 --point=--"),
          ("--lambda", "chambers --builtin weyl_a --n 3 --lambda=--"),
          ("--alcove-point", "validate-p --builtin hilb --n 3 --p 23 "
                             "--alcove-point 1/2 --alcove-point=--"),
          ("--p", "membership --builtin hilb --n 2 --point 5 --p=--"),
          ("--face", "compatible --builtin hilb --n 3 --point 5/12 "
                     "--face=--"),
          ("--b", "wallcross --n 6 --b=--"),
          ("--d-bound", "check-phw --builtin hilb --n 2 --lambda-prime 5 "
                        "--p 5 --window 0:15 --d-bound=--"),
          ("--in", "export --in=--"),
          ("--n", "alcove --builtin hilb --n=-- --point 1"),
          ("--ell", "alcove --builtin hilb --n 2 --ell=-- --point 1"),
          ("--variant", "wallcross --n 6 --b 3 --variant=--"),
          ("--builtin", "alcove --builtin=-- --n 2 --point 1"),
          ("--format", "export --in {path} --format=--")]],
    # a file nested deeper than the JSON decoder's recursion limit
    pytest.param("[" * 100_000, ["export", "--in", "{path}"],
                 "{path}: JSON nested too deeply to read", id="deep-json"),
    (None, ["alcove", "--builtin", "weyl_a", "--n", "3", "--ell", "5",
            "--point", "1/3,1/3"],
     "--builtin weyl_a --n 3 --ell 5: weyl_a takes no ell, got 5"),
])
def test_cli_error_paths(tmp_path, config, argv, expected):
    """Each bad invocation exits 1 with one {"error": ...} line.  A config
    given as a str is the file's text."""
    path = tmp_path / "config.json"
    if config is not None:
        path.write_text(config if isinstance(config, str)
                        else json.dumps(config))
    code, out = run_cli([a.format(path=path) for a in argv])
    assert (code, out) == (
        1, json.dumps({"error": expected.format(path=path)}) + "\n")


def test_cli_no_args_usage(capsys):
    code, out = run_cli([])
    # the usage goes to stderr: stdout carries only reports
    assert (code, out) == (2, "")
    assert capsys.readouterr().err.startswith("usage: alcove-lab")


def test_a_falsified_lemma_is_one_error_line(capsys):
    """A LemmaError escapes no library call as a traceback: dispatch prints
    it as one {"error": ...} line and exits 1."""
    lemma = LemmaError("equivalence-class mismatch")
    with mock.patch.object(cli, "equivalence_classes", side_effect=lemma):
        code, out = run_cli(["classes", "--builtin", "hilb", "--n", "3",
                             "--point", "5/12", "--face", "1",
                             "--window=-3:3"])
    assert (code, out) == (1, json.dumps(
        {"error": "equivalence-class mismatch"}) + "\n")
    assert capsys.readouterr().err == ""


class ClosedPipe(io.StringIO):
    """A stdout whose reader has gone: every write fails as on a closed
    pipe; its file descriptor is fd."""

    def __init__(self, fd):
        super().__init__()
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


# the report of the first, the error line of the second
CLOSED_STDOUT_CASES = [
    ["wallcross", "--n", "6", "--b", "3", "--variant", "plain"],
    ["alcove", "--builtin", "hilb", "--n", "2", "--point", "1/2"]]


@pytest.mark.parametrize("argv", CLOSED_STDOUT_CASES)
def test_a_closed_stdout_ends_main_without_an_error_line(tmp_path, capsys,
                                                         argv):
    with open(tmp_path / "stdout", "w") as target, \
            redirect_stdout(ClosedPipe(target.fileno())), \
            mock.patch.object(sys, "argv", ["alcove-lab", *argv]), \
            pytest.raises(SystemExit) as done:
        cli.main()
    assert done.value.code == 1
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("argv", CLOSED_STDOUT_CASES)
def test_a_closed_pipe_gives_no_traceback(argv):
    # the read end closes before the command starts, so its first write
    # fails however short its output is
    read, write = os.pipe()
    os.close(read)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(__file__).resolve().parents[1] / "src"),
        env.get("PYTHONPATH")]))
    try:
        proc = subprocess.run([sys.executable, "-m", "alcovelab.cli", *argv],
                              stdout=write, stderr=subprocess.PIPE, env=env,
                              timeout=120)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, b"")


def test_every_lemma_site_raises_lemma_error():
    """No library module raises a bare AssertionError: each falsified lemma
    is a LemmaError, which dispatch reports (and which pytest.raises(
    AssertionError) still catches)."""
    assert issubclass(LemmaError, AssertionError)
    package = Path(cli.__file__).parent
    bare, lemma = [], 0
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) \
                    else node.exc
                name = getattr(exc, "id", None)
                if name == "AssertionError":
                    bare.append(f"{path.name}:{node.lineno}")
                lemma += name == "LemmaError"
    assert bare == []
    assert lemma == 4


def test_cli_unknown_subcommand():
    with pytest.raises(SystemExit) as exc:
        run_cli(["frobnicate"])
    assert exc.value.code == 2


def test_cli_validate_p_exit_codes():
    code, out = run_cli(["validate-p", "--builtin", "hilb", "--n", "3",
                         "--p", "23"])
    assert code == 0
    assert json.loads(out)["checks"]["passed"] is True
    code, out = run_cli(["validate-p", "--builtin", "hilb", "--n", "3",
                         "--p", "13"])
    assert code == 1
    assert json.loads(out)["checks"]["a_denominators"]["ok"] is False


def test_cli_validate_p_names_an_unbounded_alcove(tmp_path):
    # one wall in the plane: the p-alcove is the strip 0 < x_0 < 7, which
    # holds (1, 0) but has no vertex to round, so check (e) is an error,
    # not a missing lattice point
    path = tmp_path / "strip.json"
    path.write_text(json.dumps({"rank": 2, "walls": [
        {"id": 0, "alpha": [1, 0], "sigma_tilde": ["0"]}]}))
    code, out = run_cli(["validate-p", "--config", str(path), "--p", "7",
                         "--alcove-point", "1/2,1/3"])
    assert code == 1
    assert json.loads(out)["checks"]["e_nonempty"]["checks"] == [{
        "alcove": {"inequalities": [[0, "1", "<="], [0, "0", ">="]],
                   "rank": 2},
        "ok": False,
        "error": "unbounded alcove: wall covectors do not span"}]


def test_cli_alcove_and_faces():
    code, out = run_cli(["alcove", "--builtin", "hilb", "--n", "2",
                         "--point", "1"])
    assert code == 0
    data = json.loads(out)
    assert data["outputs"]["alcove"]["inequalities"] == [
        [0, "3/2", "<="], [0, "1/2", ">="]]
    code, out = run_cli(["faces", "--builtin", "hilb", "--n", "2",
                         "--point", "1"])
    assert code == 0
    assert len(json.loads(out)["outputs"]["faces"]) == 3


def test_cli_membership_and_path():
    code, out = run_cli(["membership", "--builtin", "hilb", "--n", "2",
                         "--point", "5", "--p", "5"])
    assert code == 0
    code, out = run_cli(["path", "--builtin", "hilb", "--n", "2",
                         "--from", "4", "--to", "7", "--p", "5"])
    assert code == 0
    assert json.loads(out)["outputs"]["steps"] == [["1"], ["1"], ["1"]]


def test_cli_compatible_and_orders():
    code, out = run_cli(["compatible", "--builtin", "hilb", "--n", "2",
                         "--point", "1", "--face", "1",
                         "--p-samples", "23,47"])
    assert code == 0
    data = json.loads(out)
    assert data["checks"]["passed"] is True
    code, out = run_cli(["order", "--builtin", "hilb", "--n", "2",
                         "--lambda-prime", "5", "--p", "5",
                         "--window", "0:15"])
    assert code == 0
    code, out = run_cli(["check-phw", "--builtin", "hilb", "--n", "2",
                         "--lambda-prime", "5", "--p", "5",
                         "--window", "0:15"])
    assert code == 0
    code, out = run_cli(["preorder", "--builtin", "hilb", "--n", "2",
                         "--point", "1", "--face", "1", "--window=-2:2"])
    assert code == 0
    code, out = run_cli(["classes", "--builtin", "hilb", "--n", "2",
                         "--point", "1", "--face", "1", "--window=-2:2"])
    assert code == 0
    code, out = run_cli(["check-compat", "--builtin", "hilb", "--n", "2",
                         "--point", "1", "--face", "1", "--p", "23",
                         "--window=-69:69"])
    assert code == 0


def test_cli_quantum_and_chambers():
    code, out = run_cli(["chambers", "--builtin", "weyl_a", "--n", "3",
                         "--lambda", "1,2"])
    assert code == 0
    assert json.loads(out)["outputs"]["integral_walls"] == [0, 1, 2]
    code, out = run_cli(["quantum", "--builtin", "weyl_a", "--n", "3",
                         "--lambda", "1,2"])
    assert code == 0


def test_cli_wallcross_csv():
    code, out = run_cli(["wallcross", "--n", "3", "--b", "2", "--csv"])
    assert code == 0
    assert "partition,image,provenance" in out
    assert "1+1+1,," in out  # EXTERNAL row has no image


def test_cli_wallcross_bounds_n_before_listing_partitions():
    # p(4) = 5 and p(5) = 7: with the bound patched down to 5, n = 5 is
    # rejected from --n before any partition is listed
    with mock.patch.object(instances, "MAX_POINTS", 5), \
            mock.patch.object(import_module("alcovelab.mullineux"),
                              "partitions",
                              side_effect=AssertionError("listed")) as listed:
        assert run_cli(["wallcross", "--n", "5", "--b", "2"]) == (
            1, json.dumps({"error": "--n 5: n = 5 gives more than 5 fixed "
                                    "points (the bound)"}) + "\n")
        listed.assert_not_called()
    with mock.patch.object(instances, "MAX_POINTS", 5):
        code, out = run_cli(["wallcross", "--n", "4", "--b", "2"])
    assert code == 0 and len(json.loads(out)["outputs"]["map"]) == 5
    # a negative n passes the bound and meets the table's own check on n
    assert run_cli(["wallcross", "--n", "-1", "--b", "2"]) == (
        1, json.dumps({"error": "n must be at least 2, got -1"}) + "\n")


def test_cli_export_roundtrip(tmp_path):
    code, out = run_cli(["order", "--builtin", "hilb", "--n", "2",
                         "--lambda-prime", "5", "--p", "5",
                         "--window", "0:10"])
    poset = json.loads(out)["outputs"]["poset"]
    path = tmp_path / "poset.json"
    path.write_text(json.dumps(poset))
    code, dot = run_cli(["export", "--in", str(path), "--format", "dot"])
    assert code == 0 and dot.startswith("digraph")
    code, js = run_cli(["export", "--in", str(path), "--format", "json"])
    assert json.loads(js) == poset
    assert js == json.dumps(poset, sort_keys=True, indent=2) + "\n"


def test_inline_points_table_config(tmp_path):
    # a user-supplied fixed-point table drives the same machinery as the
    # builtins
    data = {
        "name": "custom", "rank": 1,
        "points": [
            {"id": "a", "c_const": "0", "c_linear": ["2"]},
            {"id": "b", "c_const": "-1/2", "c_linear": ["1"]},
        ],
        "walls": [{"id": 0, "alpha": [1],
                   "sigma_tilde": ["-1/2", "1/2"]}],
        "lambdas": [["3/2"]],
    }
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(data))
    inst, _ = parse_config(load_json(str(path)), str(path))
    assert inst.points == ("a", "b")
    assert inst.c_value("a", (F(2),)) == 4
    code, out = run_cli(["validate-p", "--config", str(path), "--p", "23"])
    assert code == 0
    code, out = run_cli(["alcove", "--config", str(path), "--point", "1"])
    assert code == 0
    assert json.loads(out)["outputs"]["alcove"]["inequalities"] == [
        [0, "3/2", "<="], [0, "1/2", ">="]]


def test_cli_palcove_by_alcove_id(tmp_path):
    code, out = run_cli(["alcove", "--builtin", "hilb", "--n", "2",
                         "--point", "1"])
    alcove = json.loads(out)["outputs"]["alcove"]
    path = tmp_path / "alcove.json"
    path.write_text(json.dumps(alcove))
    code, out = run_cli(["palcove", "--builtin", "hilb", "--n", "2",
                         "--alcove-id", str(path), "--p", "23"])
    assert code == 0
    data = json.loads(out)["outputs"]["palcove"]
    assert data["source"] == alcove
    assert "23" in data["at_p"]
    # reordered and repeated inequalities name the same alcove
    ineqs = alcove["inequalities"]
    path.write_text(json.dumps({**alcove, "inequalities": ineqs[::-1] * 2}))
    assert run_cli(["palcove", "--builtin", "hilb", "--n", "2",
                    "--alcove-id", str(path), "--p", "23"]) == (code, out)


POINTS_CONFIG = {
    "name": "custom", "rank": 1,
    "points": [{"id": "a", "c_const": "0", "c_linear": ["2"]}],
    "walls": [{"id": 0, "alpha": [1], "sigma_tilde": ["-1/2", "1/2"]}],
}


def _without(data, *keys):
    """A deep copy of data with the key at the path keys removed."""
    data = json.loads(json.dumps(data))
    inner = data
    for key in keys[:-1]:
        inner = inner[key]
    del inner[keys[-1]]
    return data


@pytest.mark.parametrize("cmd, data, where, key", [
    ("alcove", _without(POINTS_CONFIG, "name"), "", "name"),
    ("alcove", _without(POINTS_CONFIG, "rank"), "", "rank"),
    ("alcove", _without(POINTS_CONFIG, "points", 0, "c_linear"),
     ".points[0]", "c_linear"),
    ("alcove", _without(POINTS_CONFIG, "points", 0, "id"), ".points[0]", "id"),
    ("alcove", _without(POINTS_CONFIG, "walls", 0, "alpha"),
     ".walls[0]", "alpha"),
    ("palcove", {"rank": 1}, "", "inequalities"),
    ("alcove", {**POINTS_CONFIG, "points": [5]}, ".points[0]", None),
    ("palcove", [1, 2], "", None),
])
def test_missing_json_key_names_path_and_key(tmp_path, cmd, data, where, key):
    path = tmp_path / "data.json"
    path.write_text(json.dumps(data))
    if cmd == "alcove":
        argv = ["alcove", "--config", str(path), "--point", "1"]
    else:
        argv = ["palcove", "--builtin", "hilb", "--n", "2",
                "--alcove-id", str(path)]
    what = "expected a JSON object" if key is None else f"missing key {key!r}"
    assert run_cli(argv) == (1, json.dumps(
        {"error": f"{path}{where}: {what}"}) + "\n")


WALLS_CONFIG = {"rank": 1, "walls": POINTS_CONFIG["walls"]}



def test_unsaturated_sigma_warns_and_saturates():
    # in each of the three forms: walls only, builtin and points table
    for data in ({"rank": 1}, {"builtin": "hilb", "n": 2}, POINTS_CONFIG):
        inst, warnings = parse_config({**data, "walls": [
            {"id": 0, "alpha": [1], "sigma_tilde": ["0", "2"]}]})
        assert warnings == ("config.walls[0]: sigma_tilde was not "
                            "saturated; saturated on load",)
        assert sorted(inst.walls[0].sigma_tilde) == [F(0), F(1), F(2)]


def test_saturation_span_is_bounded_before_saturating():
    def walls_config(*sigma_tilde):
        return {"rank": 1, "walls": [
            {"id": 0, "alpha": [1], "sigma_tilde": list(sigma_tilde)}]}

    # the check lists nothing, so the real size is safe to ask for
    with pytest.raises(ConfigError) as info:
        parse_config(walls_config(0, 1000000000))
    assert str(info.value) == (
        "config.walls[0]: sigma_tilde brings the walls to 1000000001 shifts "
        f"once saturated, more than {MAX_SHIFTS} (the bound)")
    with mock.patch.object(config, "MAX_SHIFTS", 4):
        assert len(parse_config(walls_config("1/2", "5/2", "0"))[0].walls[0]
                   .sigma_tilde) == 4
        with pytest.raises(ConfigError, match=r" to 5 shifts .* more than 4 "):
            parse_config(walls_config("1/2", "7/2", "0"))
    # 20 Z-cosets of span 10000 each: 200020 shifts once saturated, from a
    # config of a few hundred characters
    sigma_tilde = [x for k in range(1, 21)
                   for x in (f"{k}/21", f"{k + 210000}/21")]
    data = {"rank": 1, "walls": [
        {"id": 0, "alpha": [1], "sigma_tilde": sigma_tilde}]}
    assert len(json.dumps(data)) < 600
    with mock.patch.object(config, "saturate",
                           side_effect=AssertionError("listed")) as listed:
        with pytest.raises(ConfigError) as info:
            parse_config(data)
        assert str(info.value) == (
            "config.walls[0]: sigma_tilde brings the walls to 200020 shifts "
            f"once saturated, more than {MAX_SHIFTS} (the bound)")
        listed.assert_not_called()
    # the count runs over every wall, saturated on load or not
    walls = [{"id": 0, "alpha": [1, 0], "sigma_tilde": ["0", "1"]},
             {"id": 1, "alpha": [0, 1], "sigma_tilde": ["1/2", "5/2", "0"]}]
    with mock.patch.object(config, "MAX_SHIFTS", 6):
        inst, _ = parse_config({"rank": 2, "walls": walls})
        assert [len(w.sigma_tilde) for w in inst.walls] == [2, 4]
    with mock.patch.object(config, "MAX_SHIFTS", 5), \
            pytest.raises(ConfigError, match=r"^config\.walls\[1\]: .* to "
                          r"6 shifts once saturated, more than 5 \(the "
                          r"bound\)$"):
        parse_config({"rank": 2, "walls": walls})


def test_rank_is_bounded_before_any_vector_is_built():
    # the check builds nothing, so the real size is safe to ask for
    with pytest.raises(ConfigError) as info:
        parse_config({"rank": 2000, "walls": []})
    assert str(info.value) == (
        f"config: key 'rank' is 2000; the bound is {config.MAX_RANK}")
    with mock.patch.object(config, "MAX_RANK", 2):
        assert parse_config({"rank": 2, "walls": []})[0].rank == 2
        with pytest.raises(ConfigError, match=r"'rank' is 3; .* bound is 2$"):
            parse_config({**POINTS_CONFIG, "rank": 3})


@pytest.mark.parametrize("data, flags, what", [
    ({"builtin": "weyl_a", "n": 1}, "--builtin weyl_a --n 1",
     "n must be >= 2"),
    ({"builtin": "hilb", "n": 0}, "--builtin hilb --n 0", "n must be >= 1"),
    ({"builtin": "hilb", "n": 3, "ell": -1}, "--builtin hilb --n 3 --ell -1",
     "ell must be >= 0"),
])
def test_builtin_size_errors_name_the_source_and_key(tmp_path, data, flags,
                                                     what):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    for source, argv in ((path, ["--config", str(path)]),
                         (flags, flags.split())):
        assert run_cli(["alcove", *argv, "--point", "1"]) == (
            1, json.dumps({"error": f"{source}: {what}"}) + "\n")


def test_builtin_point_count_is_bounded_before_any_point_is_listed():
    # p(100) by the recurrence
    assert next(islice(partition_numbers(), 100, None)) == 190569292
    # the counts stop at the first one above the bound, so a huge n is safe
    for name in ("hilb", "weyl_a"):
        with pytest.raises(ValueError, match="^n = 10000000000 gives more "
                           f"than {instances.MAX_POINTS} fixed points"):
            builtin_instance(name, n=10**10)
    assert run_cli(["alcove", "--builtin", "weyl_a", "--n", "40",
                    "--point", "1"]) == (1, json.dumps({
                        "error": "--builtin weyl_a --n 40: n = 40 gives more "
                                 f"than {instances.MAX_POINTS} fixed points "
                                 "(the bound)"}) + "\n")
    # hilb(4) has 5 points, hilb(5) 7; weyl_a(2) has 2, weyl_a(3) 6
    with mock.patch.object(instances, "MAX_POINTS", 5), \
            mock.patch.object(instances, "partitions",
                              side_effect=AssertionError("listed")) as listed:
        with pytest.raises(ValueError, match="^n = 5 gives more than 5 "):
            hilb_instance(5)
        with pytest.raises(ValueError, match="^n = 3 gives more than 5 "):
            weyl_a_instance(3)
        listed.assert_not_called()
    builtin_instance.cache_clear()   # a build made under the real bound
    with mock.patch.object(instances, "MAX_POINTS", 5):
        assert len(hilb_instance(4).points) == 5
        assert len(weyl_a_instance(2).points) == 2
        with pytest.raises(ConfigError) as info:
            parse_config({"builtin": "hilb", "n": 6})
        assert str(info.value) == \
            "config: n = 6 gives more than 5 fixed points (the bound)"


def test_hilb_shift_count_is_bounded_before_any_shift_is_listed():
    error = ("n = 2 and ell = 1000000000 give 2000000001 sigma_tilde "
             f"shifts, more than {MAX_SHIFTS} (the bound)")
    with mock.patch.object(instances, "product",
                           side_effect=AssertionError("listed")) as listed:
        with pytest.raises(ValueError) as info:
            hilb_instance(2, 10**9)
        assert str(info.value) == error
        assert run_cli(["alcove", "--builtin", "hilb", "--n", "2", "--ell",
                        "1000000000", "--point", "1"]) == (1, json.dumps({
                            "error": "--builtin hilb --n 2 --ell 1000000000: "
                                     + error}) + "\n")
        listed.assert_not_called()
    # the count is the size of the set it guards, and the bound admits it
    for n, ell in ((1, 5), (2, 0), (5, 1), (14, 2)):
        shifts = sum(len(w.sigma_tilde) for w in hilb_instance(n, ell).walls)
        with mock.patch.object(instances, "MAX_SHIFTS", shifts):
            assert hilb_instance(n, ell).meta["ell"] == ell
        if shifts:
            with mock.patch.object(instances, "MAX_SHIFTS", shifts - 1), \
                    pytest.raises(ValueError, match=f" give {shifts} "):
                hilb_instance(n, ell)


WALL = POINTS_CONFIG["walls"][0]
POINT = POINTS_CONFIG["points"][0]
ALCOVE_AT_1 = ["alcove", "--config", "{path}", "--point", "1"]


@pytest.mark.parametrize("data, argv, expected", [
    pytest.param(
        {**POINTS_CONFIG, "walls": [WALL, {**WALL, "sigma_tilde": ["1/3"]}]},
        ALCOVE_AT_1, "{path}.walls[1]: duplicate wall id 0",
        id="duplicate-wall-id"),
    pytest.param(
        {**POINTS_CONFIG, "walls": [{**WALL, "alpha": [1, 2]}]}, ALCOVE_AT_1,
        "{path}.walls[0].alpha: expected 1 coordinates, got 2",
        id="alpha-length-points"),
    pytest.param(
        {"builtin": "hilb", "n": 2, "walls": [{**WALL, "alpha": [1, 2]}]},
        ALCOVE_AT_1, "{path}.walls[0].alpha: expected 1 coordinates, got 2",
        id="alpha-length-builtin"),
    pytest.param(
        {**POINTS_CONFIG, "points": [{**POINT, "c_linear": ["2", "3"]}]},
        ALCOVE_AT_1, "{path}.points[0].c_linear: expected 1 coordinates, got 2",
        id="c-linear-length"),
    pytest.param(
        {"builtin": "hilb", "n": 2, "lambdas": [["1/3", "1"]]},
        ["validate-p", "--config", "{path}", "--p", "23"],
        "{path}.lambdas[0]: expected 1 coordinates, got 2",
        id="lambda-length"),
    pytest.param(
        {**POINTS_CONFIG, "meta": 5}, ALCOVE_AT_1,
        "{path}: key 'meta' must be a JSON object", id="meta-not-object"),
    pytest.param(
        {**POINTS_CONFIG, "meta": {"points": "tableaux"}}, ALCOVE_AT_1,
        "{path}.meta: key 'points' must be \"partitions\" or \"permutations\"",
        id="meta-points-kind"),
    pytest.param(
        {**POINTS_CONFIG, "meta": {"points": "permutations"},
         "points": [{**POINT, "id": 5}]}, ALCOVE_AT_1,
        "{path}.points[0]: key 'id' must be a string",
        id="point-id-not-string"),
    pytest.param(
        {**POINTS_CONFIG, "meta": {"points": "partitions"}}, ALCOVE_AT_1,
        "{path}.points[0]: id 'a' does not parse under meta points "
        "'partitions'", id="point-id-not-partition"),
    pytest.param(
        {**POINTS_CONFIG, "points": [POINT, POINT]}, ALCOVE_AT_1,
        "{path}.points[1]: duplicate point id 'a'", id="duplicate-point-id"),
    pytest.param(
        {**POINTS_CONFIG, "points": []}, ALCOVE_AT_1,
        "{path}: key 'points' must be nonempty", id="no-points"),
    pytest.param(
        {**POINTS_CONFIG, "rank": 0, "walls": [],
         "points": [{**POINT, "c_linear": []}]}, ALCOVE_AT_1,
        "{path}: key 'rank' must be at least 1", id="rank-0"),
    pytest.param(
        {"rank": -2, "walls": []}, ALCOVE_AT_1,
        "{path}: key 'rank' must be at least 1", id="rank-negative"),
    pytest.param(
        POINTS_CONFIG,
        ["path", "--config", "{path}", "--from", "1", "--to", "2", "--p", "7"],
        {"steps": [["1"]]}, id="default-generators"),
    pytest.param(
        '{"rank": 1,',
        ["palcove", "--builtin", "hilb", "--n", "2", "--alcove-id", "{path}"],
        "{path}: malformed JSON at byte offset 11: Expecting property name "
        "enclosed in double quotes", id="malformed-alcove-file"),
    pytest.param(
        '{"covers": [', ["export", "--in", "{path}"],
        "{path}: malformed JSON at byte offset 12: Expecting value",
        id="malformed-poset-file"),
])
def test_every_form_is_read_by_one_reader(tmp_path, data, argv, expected):
    """Each row is a config or file that a reader of one form alone got
    wrong: a traceback, an error naming no file, or a silent answer."""
    path = tmp_path / "input.json"
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    code, out = run_cli([a.format(path=path) for a in argv])
    if isinstance(expected, str):
        assert (code, out) == (1, json.dumps(
            {"error": expected.format(path=path)}) + "\n")
    else:
        assert (code, json.loads(out)["outputs"]) == (0, expected)


@pytest.mark.parametrize("data, where, what", [
    (5, "", "expected a JSON object"),
    ({**POINTS_CONFIG, "points": 5}, "", "key 'points' must be a JSON array"),
    ({**POINTS_CONFIG, "walls": 5}, "", "key 'walls' must be a JSON array"),
    ({**WALLS_CONFIG, "walls": 5}, "", "key 'walls' must be a JSON array"),
    ({"builtin": "hilb", "n": 2, "walls": 5}, "",
     "key 'walls' must be a JSON array"),
    ({"builtin": "hilb", "n": 2, "lambdas": 5}, "",
     "key 'lambdas' must be a JSON array"),
    ({**POINTS_CONFIG, "lambdas": 5}, "", "key 'lambdas' must be a JSON array"),
    ({**WALLS_CONFIG, "generators": 5}, "",
     "key 'generators' must be a JSON array"),
    ({**WALLS_CONFIG, "generators": [[1], 5]}, ".generators[1]",
     "expected a JSON array"),
    ({"builtin": "hilb", "n": "x"}, "", "key 'n' must be an integer"),
    ({"builtin": "hilb", "n": 2, "ell": [0]}, "",
     "key 'ell' must be an integer"),
    ({"builtin": "hilb", "n": 2, "lambdas": [[0.5]]}, ".lambdas[0]",
     "expected an array of rationals"),
    ({**POINTS_CONFIG, "lambdas": [["x"]]}, ".lambdas[0]",
     "expected an array of rationals"),
    ({**POINTS_CONFIG, "walls": [{**POINTS_CONFIG["walls"][0],
                                  "sigma_tilde": [0.5]}]},
     ".walls[0]", "key 'sigma_tilde' must be an array of rationals"),
    ({"builtin": "hilb", "n": 2, "walls": [{**POINTS_CONFIG["walls"][0],
                                            "sigma_tilde": [0.5]}]},
     ".walls[0]", "key 'sigma_tilde' must be an array of rationals"),
    ({**POINTS_CONFIG, "points": [{**POINTS_CONFIG["points"][0],
                                   "c_const": 0.5}]},
     ".points[0]", "key 'c_const' must be a rational"),
    ({**POINTS_CONFIG, "points": [{**POINTS_CONFIG["points"][0],
                                   "c_linear": 2}]},
     ".points[0]", "key 'c_linear' must be an array of rationals"),
    ({**POINTS_CONFIG, "rank": [1]}, "", "key 'rank' must be an integer"),
    ({**WALLS_CONFIG, "rank": "1"}, "", "key 'rank' must be an integer"),
    ({**WALLS_CONFIG, "walls": [{**POINTS_CONFIG["walls"][0], "alpha": 5}]},
     ".walls[0]", "key 'alpha' must be an array of integers"),
    ({**POINTS_CONFIG, "walls": [{**POINTS_CONFIG["walls"][0],
                                  "alpha": [True]}]},
     ".walls[0]", "key 'alpha' must be an array of integers"),
    ({**WALLS_CONFIG, "walls": [{**POINTS_CONFIG["walls"][0], "id": "a"}]},
     ".walls[0]", "key 'id' must be an integer"),
    ({"builtin": "hilb", "n": 2, "lambdas": [["1/0"]]}, ".lambdas[0]",
     "expected an array of rationals"),
    ({**POINTS_CONFIG, "walls": [{**POINTS_CONFIG["walls"][0],
                                  "sigma_tilde": ["1/0"]}]},
     ".walls[0]", "key 'sigma_tilde' must be an array of rationals"),
    ({**POINTS_CONFIG, "points": [{**POINTS_CONFIG["points"][0],
                                   "c_const": "1/0"}]},
     ".points[0]", "key 'c_const' must be a rational"),
])
def test_config_of_the_wrong_json_type_names_path_and_key(tmp_path, data,
                                                         where, what):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigError) as info:
        parse_config(load_json(str(path)), str(path))
    assert str(info.value) == f"{path}{where}: {what}"
    assert run_cli(["alcove", "--config", str(path), "--point", "1"]) == (
        1, json.dumps({"error": f"{path}{where}: {what}"}) + "\n")


ALCOVE_ENTRY = 'expected [wall_id, offset, ">=" or "<="]'


@pytest.mark.parametrize("data, where, what", [
    ({"rank": 1, "inequalities": [[0, "1/2"]]}, ".inequalities[0]",
     ALCOVE_ENTRY),
    ({"rank": 1, "inequalities": [[0, "1/2", ">="], [0, "3/2", "=<"]]},
     ".inequalities[1]", ALCOVE_ENTRY),
    ({"rank": 1, "inequalities": [[0, "x", ">="]]}, ".inequalities[0]",
     ALCOVE_ENTRY),
    ({"rank": 1, "inequalities": [[0, 1, ">"]]}, ".inequalities[0]",
     ALCOVE_ENTRY),
    ({"rank": 1, "inequalities": [["0", "1/2", ">="]]}, ".inequalities[0]",
     ALCOVE_ENTRY),
    ({"rank": 1, "inequalities": 5}, "",
     "key 'inequalities' must be a JSON array"),
    ({"rank": [1], "inequalities": []}, "", "key 'rank' must be an integer"),
    ({"rank": 1, "inequalities": [[7, "1/2", ">="], [0, "3/2", "<="]]},
     ".inequalities[0]", "no wall with id 7"),
    ({"rank": 1, "inequalities": [[0, "1/0", ">="]]}, ".inequalities[0]",
     ALCOVE_ENTRY),
    ({"rank": 2, "inequalities": [[0, "1/2", ">="], [0, "3/2", "<="]]}, "",
     "key 'rank' is 2 but the instance has rank 1"),
    ({"rank": 1, "inequalities": [[0, "3/2", ">="], [0, "1/2", "<="]]}, "",
     "the inequalities have no interior point"),
    ({"rank": 1, "inequalities": [[0, "1/2", ">="], [0, "5/2", "<="]]}, "",
     "the vertex average 3/2 lies on wall 0 at offset 3/2"),
    ({"rank": 1, "inequalities": []}, "",
     "the inequalities have no vertex average"),
    ({"rank": 1, "inequalities": [[0, "1/2", ">="], [0, "7/2", "<="]]}, "",
     "the inequalities are not those of the alcove at their vertex "
     "average 2"),
])
def test_cli_palcove_rejects_a_malformed_alcove_file(tmp_path, data, where,
                                                     what):
    path = tmp_path / "alcove.json"
    path.write_text(json.dumps(data))
    assert run_cli(["palcove", "--builtin", "hilb", "--n", "2",
                    "--alcove-id", str(path)]) == (
        1, json.dumps({"error": f"{path}{where}: {what}"}) + "\n")


def test_cli_export_rejects_a_preorder_and_a_whole_report(tmp_path):
    code, out = run_cli(["preorder", "--builtin", "hilb", "--n", "3",
                         "--point", "5/12", "--face", "1", "--window=-1:1"])
    pre = tmp_path / "preorder.json"
    pre.write_text(json.dumps(json.loads(out)["outputs"]["preorder"]))
    code, out = run_cli(["order", "--builtin", "hilb", "--n", "2",
                         "--lambda-prime", "5", "--p", "5", "--window", "0:10"])
    report = tmp_path / "report.json"
    report.write_text(out)
    for path in (pre, report):
        for fmt in ("dot", "json"):
            code, out = run_cli(["export", "--in", str(path), "--format", fmt])
            assert code == 1
            assert json.loads(out)["error"] == (
                f'{path}: expected a poset JSON whose "covers" are '
                "[[name, kappa], [name, kappa]] pairs")


def test_cli_compatible_opposite():
    code, out = run_cli(["compatible", "--builtin", "hilb", "--n", "2",
                         "--point", "1", "--face", "1", "--opposite"])
    assert code == 0
    opp = json.loads(out)["outputs"]["opposite"]
    assert opp["chi"] == ["-2"]


def test_cli_determinism_byte_identical():
    argv = ["validate-p", "--builtin", "hilb", "--n", "3", "--p", "23"]
    _, out1 = run_cli(argv)
    _, out2 = run_cli(argv)
    assert out1 == out2
    argv = ["order", "--builtin", "hilb", "--n", "2", "--lambda-prime", "5",
            "--p", "5", "--window", "0:15"]
    _, out1 = run_cli(argv)
    _, out2 = run_cli(argv)
    assert out1 == out2


def test_check_phw_max_n_is_the_largest_n_over_all_pairs():
    # kappa 0 < 12 in one block need n = 12 // 2 + 1 = 7; the default
    # d_bound 4 fails axiom 4 first at n = 5, which must not cut max_n short
    code, out = run_cli(["check-phw", "--builtin", "hilb", "--n", "1",
                         "--lambda-prime=0", "--p", "2", "--window=0:14"])
    assert code == 1
    assert json.loads(out)["checks"]["axiom4_cofinality"] == {
        "max_n": 7, "ok": False}


def test_check_phw_report_does_not_depend_on_the_hash_seed(tmp_path):
    # string point ids hash differently under each seed
    path = tmp_path / "toy.json"
    path.write_text(json.dumps({
        "name": "toy", "rank": 1,
        "points": [{"id": "a", "c_const": "0", "c_linear": ["1"]},
                   {"id": "b", "c_const": "-1", "c_linear": ["0"]},
                   {"id": "c", "c_const": "2", "c_linear": ["-1"]}],
        "walls": [{"id": 0, "alpha": [1],
                   "sigma_tilde": ["1/2", "1/3", "2/3"]}]}))
    root = Path(__file__).resolve().parents[1]
    outs = []
    for seed in ("1", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "alcovelab.cli", "check-phw", "--config",
             str(path), "--lambda-prime", "0", "--p", "5", "--window", "0:60",
             "--d-bound", "4"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["checks"]["axiom4_cofinality"] == {
        "max_n": 12, "ok": False}


def test_cli_singular_point_errors_cleanly():
    code, out = run_cli(["alcove", "--builtin", "hilb", "--n", "2",
                         "--point", "1/2"])
    assert code == 1
    assert "singular point" in json.loads(out)["error"]


def test_cli_builtin_without_n_names_the_flag():
    for name, point in (("hilb", "5/12"), ("weyl_a", "1/3,1/3")):
        code, out = run_cli(["alcove", "--builtin", name, "--point", point])
        assert code == 1
        assert json.loads(out)["error"] == f"--builtin {name} needs --n"


def test_cli_point_of_wrong_length_states_both_lengths():
    cases = [
        (["alcove", "--builtin", "weyl_a", "--n", "3", "--point", "1/3"],
         "--point has 1 coordinates but the instance has rank 2"),
        (["quantum", "--builtin", "weyl_a", "--n", "3", "--lambda", "1,2,3"],
         "--lambda has 3 coordinates but the instance has rank 2"),
        (["order", "--builtin", "hilb", "--n", "2", "--lambda-prime", "5,5",
          "--p", "5", "--window", "0:15"],
         "--lambda-prime has 2 coordinates but the instance has rank 1"),
        (["path", "--builtin", "hilb", "--n", "2", "--from", "4",
          "--to", "7,1", "--p", "5"],
         "--to has 2 coordinates but the instance has rank 1"),
    ]
    for argv, message in cases:
        code, out = run_cli(argv)
        assert code == 1
        assert json.loads(out)["error"] == message


def test_cli_rejects_non_prime_p():
    code, out = run_cli(["membership", "--builtin", "hilb", "--n", "3",
                         "--point", "5", "--p", "4"])
    assert code == 1
    assert json.loads(out)["error"] == "--p 4 is not a prime"
    code, out = run_cli(["compatible", "--builtin", "hilb", "--n", "2",
                         "--point", "1", "--face", "1",
                         "--p-samples", "23,49"])
    assert code == 1
    assert json.loads(out)["error"] == "--p-samples 49 is not a prime"
    code, out = run_cli(["compatible", "--builtin", "hilb", "--n", "2",
                         "--point", "1", "--face", "1",
                         "--p-samples", "23,x"])
    assert code == 1
    assert json.loads(out)["error"] == \
        "--p-samples entry 'x' is not an integer"


def test_cli_prime_too_small_for_the_p_alcove_is_one_error_line():
    # at p = 2 the p-alcove built around -40 does not contain it
    message = ("p=2 is too small: the p-alcove built around the point (-40) "
               "does not contain it")
    hilb = ["--builtin", "hilb", "--n", "2", "--ell", "1"]
    for argv in (["membership", *hilb, "--point=-40", "--p", "2"],
                 ["path", *hilb, "--from=-40", "--to=-40", "--p", "2"]):
        code, out = run_cli(argv)
        assert code == 1
        assert out.count("\n") == 1
        assert json.loads(out) == {"error": message}


def test_cli_rejects_a_prime_beyond_the_exact_test():
    # the least strong pseudoprime to the 13 bases: composite, yet
    # _is_prime calls it prime
    big = 3317044064679887385961981
    assert big == 1287836182261 * 2575672364521 and _is_prime(big)
    bound = "not below 3317044064679887385961981, the bound of the exact " \
            "prime test"
    code, out = run_cli(["membership", "--builtin", "hilb", "--n", "3",
                         "--point", "5", "--p", str(big)])
    assert code == 1
    assert json.loads(out)["error"] == f"--p {big} is {bound}"
    code, out = run_cli(["compatible", "--builtin", "hilb", "--n", "2",
                         "--point", "1", "--face", "1",
                         "--p-samples", f"23,{big + 2}"])
    assert code == 1
    assert json.loads(out)["error"] == f"--p-samples {big + 2} is {bound}"


def test_is_prime_matches_trial_division():
    for n in range(-2, 1000):
        assert _is_prime(n) == (n > 1 and all(n % d for d in range(2, n)))
    assert _is_prime(2**61 - 1)
    assert not _is_prime((2**61 - 1) * (2**31 - 1))
    assert not _is_prime(3215031751)   # strong pseudoprime to bases 2, 3, 5, 7


HILB2 = ["--builtin", "hilb", "--n", "2"]


@pytest.mark.parametrize("argv, flag, text", [
    (["order", *HILB2, "--lambda-prime", "5", "--p", "5",
      "--window", "0:1:2"], "--window", "0:1:2"),
    (["order", *HILB2, "--lambda-prime", "5", "--p", "5",
      "--window", "15"], "--window", "15"),
    (["check-phw", *HILB2, "--lambda-prime", "5", "--p", "5",
      "--window", "0:1/2"], "--window", "0:1/2"),
    (["preorder", *HILB2, "--point", "1", "--face", "1",
      "--window=-2:"], "--window", "-2:"),
    (["classes", *HILB2, "--point", "1", "--face", "1",
      "--window", "a:b"], "--window", "a:b"),
    (["check-compat", *HILB2, "--point", "1", "--face", "1", "--p", "23",
      "--window=-69:69", "--m-window=-2:0:2"], "--m-window", "-2:0:2"),
    (["check-compat", *HILB2, "--point", "1", "--face", "1", "--p", "23",
      "--window", "0"], "--window", "0"),
])
def test_cli_malformed_window_names_flag_and_form(argv, flag, text):
    code, out = run_cli(argv)
    assert code == 1
    assert json.loads(out)["error"] == (
        f"{flag} must have the form z1:z2 with integers z1, z2, not {text!r}")


VALIDATE = ["validate-p", "--builtin", "hilb", "--n", "3", "--p", "23"]


def test_cli_reused_parser_keeps_no_appended_points(monkeypatch):
    # --alcove-point appends to a default list; a reused parser must not
    # carry one call's points into the next call's report
    inputs = []

    def recording_run_report(command, inp, outputs, checks=None):
        inputs.append(inp)
        return run_report(command, inp, outputs, checks)

    monkeypatch.setattr(cli, "run_report", recording_run_report)
    build_parser.cache_clear()
    _, fresh = run_cli(VALIDATE)
    code, _ = run_cli(VALIDATE + ["--alcove-point", "5/12"])
    assert code == 0
    assert inputs[-1]["argv"]["alcove_point"] == ["5/12"]
    _, again = run_cli(VALIDATE)
    assert inputs[-1]["argv"]["alcove_point"] == []
    assert again == fresh


def test_cli_dispatch_works_after_an_argparse_exit():
    build_parser.cache_clear()
    argv = ["alcove", *HILB2, "--point", "1"]
    _, fresh = run_cli(argv)
    with pytest.raises(SystemExit) as exc:
        run_cli(["alcove", "--builtin", "hilb", "--n", "x", "--point", "1"])
    assert exc.value.code == 2
    code, out = run_cli(argv)
    assert code == 0 and out == fresh


def test_cli_second_dispatch_builds_no_parser(monkeypatch, capsys):
    """Valid calls are read off the flag table without argparse; the first
    call argparse rejects builds the parser, and later ones reuse it."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    build_parser.cache_clear()
    run_cli(["alcove", *HILB2, "--point", "1"])
    run_cli(["faces", *HILB2, "--point=1"])
    run_cli(VALIDATE + ["--alcove-point", "1/2", "--alcove-point", "1/3"])
    assert built == []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            run_cli(["alcove", *HILB2, "--point", "1", "--pont", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --pont 1" in capsys.readouterr().err
    assert built.count("alcove-lab") == 1
    assert len(built) == 1 + len(cli.SUBCOMMANDS)


@pytest.mark.parametrize("argv, passed", [
    (["check-phw", *HILB2, "--lambda-prime", "5", "--p", "5",
      "--window", "0:15"], True),
    (["check-phw", *HILB2, "--lambda-prime", "5", "--p", "5",
      "--window", "0:15", "--d-bound", "1"], False),
    (["compatible", "--builtin", "hilb", "--n", "3", "--point", "5/12",
      "--face", "0", "--p-samples", "47,59"], True),
    # the margin -23/12 + p/12 of this pair is 0 at p = 23
    (["compatible", "--builtin", "hilb", "--n", "3", "--point", "5/12",
      "--face", "0", "--p-samples", "23,47"], False),
    (["check-compat", *HILB2, "--point", "1", "--face", "1", "--p", "23",
      "--window=-69:69"], True),
    (["check-compat", "--builtin", "hilb", "--n", "3", "--point", "5/12",
      "--face", "1", "--p", "5", "--window=-15:15"], False),
])
def test_cli_exits_one_exactly_when_checks_fail(argv, passed):
    # a fresh compatible-parameter cache, as in a new process
    with mock.patch.dict(compat._cache, clear=True):
        code, out = run_cli(argv)
    assert json.loads(out)["checks"]["passed"] is passed
    assert code == (0 if passed else 1)


ORDER_DOT = """digraph poset {
  rankdir=BT;
  "2|0" [style=filled, fillcolor=lightyellow];
  "2|1" [style=filled, fillcolor=lightgreen];
  "2|2" [style=filled, fillcolor=lightblue];
  "2|3" [style=filled, fillcolor=lightyellow];
  "2|4" [style=filled, fillcolor=lightgreen];
  "2|5" [style=filled, fillcolor=lightblue];
  "1+1|0" [style=filled, fillcolor=lightblue];
  "1+1|1" [style=filled, fillcolor=lightyellow];
  "1+1|2" [style=filled, fillcolor=lightgreen];
  "1+1|3" [style=filled, fillcolor=lightblue];
  "1+1|4" [style=filled, fillcolor=lightyellow];
  "1+1|5" [style=filled, fillcolor=lightgreen];
"""
COVERS_DOT = """  "2|0" -> "1+1|1";
  "1+1|1" -> "2|3";
  "2|3" -> "1+1|4";
  "2|1" -> "1+1|2";
  "1+1|2" -> "2|4";
  "2|4" -> "1+1|5";
  "1+1|0" -> "2|2";
  "2|2" -> "1+1|3";
  "1+1|3" -> "2|5";
}
"""
HEADER_DOT = "digraph poset {\n  rankdir=BT;\n"
PREORDER_DOT = """digraph poset {
  rankdir=BT;
  "1+1|-3/2p - 5/2" [style=filled, fillcolor=lightblue];
  "1+1|-1/2p - 5/2" [style=filled, fillcolor=lightgreen];
  "2|-1/2p + 3/2" [style=filled, fillcolor=lightgreen];
  "1+1|1/2p - 5/2" [style=filled, fillcolor=lightyellow];
  "2|1/2p + 3/2" [style=filled, fillcolor=lightyellow];
  "2|3/2p + 3/2" [style=filled, fillcolor=lightpink];
  "1+1|-3/2p - 5/2" -> "2|-1/2p + 3/2" [style=dashed];
  "1+1|-1/2p - 5/2" -> "2|1/2p + 3/2" [style=dashed];
  "1+1|1/2p - 5/2" -> "2|3/2p + 3/2" [style=dashed];
}
"""


def test_cli_dot_texts_are_golden(tmp_path):
    order = ["order", *HILB2, "--lambda-prime", "5", "--p", "3",
             "--window", "0:6"]
    assert run_cli(order + ["--format", "dot"]) == (0, ORDER_DOT + COVERS_DOT)
    # export draws the covers of a poset report, without node lines
    path = tmp_path / "poset.json"
    path.write_text(json.dumps(json.loads(run_cli(order)[1])["outputs"]["poset"]))
    assert run_cli(["export", "--in", str(path)]) == (0, HEADER_DOT + COVERS_DOT)
    with mock.patch.dict(compat._cache, clear=True):
        assert run_cli(["preorder", *HILB2, "--point", "1", "--face", "1",
                        "--window=-1:1", "--format", "dot"]) == \
            (0, PREORDER_DOT)


def stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


@pytest.mark.parametrize("argv, chain_flag", [
    (["check-phw", "--builtin", "hilb", "--n", "2", "--lambda-prime", "5",
      "--p", "2", "--window", "0:{top}"], "axiom5_chains"),
    (["check-compat", "--builtin", "hilb", "--n", "2", "--point", "1",
      "--face", "1", "--p", "3", "--window=-{top}:{top}"], None),
])
def test_a_block_chain_longer_than_the_recursion_limit_gives_one_report(
        argv, chain_flag):
    """The order keeps no closure and recurses nowhere: a block chain longer
    than the recursion limit in force still prints one JSON report."""
    limit = stack_depth() + 200
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        code, out = run_cli([a.format(top=limit + 100) for a in argv])
    finally:
        sys.setrecursionlimit(saved)
    report = json.loads(out)
    assert code == (0 if report["checks"]["passed"] else 1)
    if chain_flag:
        assert report["checks"][chain_flag]["observed_max"] > limit
