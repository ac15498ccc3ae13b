"""Command-line front end: thin shells over the library operations.

Every subcommand prints one deterministic JSON report, or the DOT, CSV or
JSON text asked for; it exits 1 when its checks fail, and 1 with one
{"error": ...} line when its input is rejected or a result falsifies a
lemma (LemmaError).  A bare call or a flag that argparse rejects prints
the usage on stderr and exits 2.  A closed stdout ends the command with
exit 1 and nothing on stderr.  The flags live in one table, SUBCOMMANDS:
_parse reads a valid call off it, and argparse, built from it, writes the
help and words every rejected flag.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .arith import LemmaError, rat, rat_str, vec
from .alcoves import (faces_of, inequalities_to_json,
                      integral_walls_and_positive_chamber, p_alcove_of,
                      p_membership, quantum_chamber, real_alcove_of,
                      translation_path, RealAlcove)
from .compat import find_compatible, opposite_pair, verify_compatible
from .config import (ConfigError, load_json, parse_alcove, parse_config,
                     report_to_json, run_report)
from .instances import BUILTINS, check_point_count
from .mullineux import wc_bijection_hilb
from .orders import (LabelBudgetError, equivalence_classes, export_poset,
                     hw_order, phw_axiom_check, ss_preorder, to_dot,
                     window_compat_check)
from .partitions import partition_numbers
from .validate import validate_p


def _parse_point(text: str, inst, flag: str) -> tuple:
    """A comma-separated rational point with one coordinate per rank."""
    x = vec(rat(part) for part in text.split(","))
    if len(x) != inst.rank:
        raise ConfigError(f"{flag} has {len(x)} coordinates but the "
                          f"instance has rank {inst.rank}")
    return x


def _poset_covers(data, path):
    """The "covers" of a poset JSON, each a [[name, kappa], [name, kappa]]
    pair; anything else (a pre-order's class-index covers, or a whole
    report) is a ConfigError naming the file."""
    covers = data.get("covers") if isinstance(data, dict) else None
    if not isinstance(covers, list) or not all(
            isinstance(c, list) and len(c) == 2
            and all(isinstance(e, list) and len(e) == 2 for e in c)
            for c in covers):
        raise ConfigError(f'{path}: expected a poset JSON whose "covers" are '
                          "[[name, kappa], [name, kappa]] pairs")
    return covers


# Miller-Rabin with the first 13 primes as bases is exact below this bound,
# the least strong pseudoprime to all of them (Sorenson and Webster, 2017)
PRIME_TEST_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the first 13 primes as bases: exact for every
    n < PRIME_TEST_BOUND, and fast however large n is."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2 or any(n % b == 0 for b in bases):
        return n in bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _checked_p_samples(args) -> tuple:
    """The --p-samples entries as ints, parsed once (an entry that is not
    an integer is a ConfigError naming it).  Every --p and --p-samples
    entry must be a prime below PRIME_TEST_BOUND, where the prime test is
    exact."""
    samples = []
    for entry in getattr(args, "p_samples", "").split(","):
        if not entry:
            continue
        try:
            samples.append(int(entry))
        except ValueError:
            raise ConfigError(f"--p-samples entry {entry!r} is not an "
                              "integer") from None
    primes = [("--p", args.p)] if getattr(args, "p", None) is not None else []
    primes += [("--p-samples", p) for p in samples]
    for flag, p in primes:
        if p >= PRIME_TEST_BOUND:
            raise ConfigError(f"{flag} {p} is not below {PRIME_TEST_BOUND}, "
                              "the bound of the exact prime test")
        if not _is_prime(p):
            raise ConfigError(f"{flag} {p} is not a prime")
    return tuple(samples)


def _parse_window(text: str, flag: str) -> tuple:
    """A window z1:z2 of exactly two integers."""
    parts = text.split(":")
    if len(parts) == 2:
        try:
            return int(parts[0]), int(parts[1])
        except ValueError:
            pass
    raise ConfigError(f"{flag} must have the form z1:z2 with integers "
                      f"z1, z2, not {text!r}")


def _windowed(build, flag, text, *args):
    """build(*args, window) on the window parsed from text; an order that
    would exceed the label budget is a ConfigError naming the flag."""
    window = _parse_window(text, flag)
    try:
        return build(*args, window)
    except LabelBudgetError as exc:
        raise ConfigError(f"{flag} {text}: {exc}") from exc


def _load_config(args):
    """(config JSON, the path its errors name) of --config or --builtin."""
    if args.config:
        return load_json(args.config), args.config
    if args.builtin:
        if args.n is None:
            raise ConfigError(f"--builtin {args.builtin} needs --n")
        data = {"builtin": args.builtin, "n": args.n}
        if args.ell is not None:
            data["ell"] = args.ell
        return data, " ".join(f"--{k} {v}" for k, v in data.items())
    raise ConfigError("no instance: pass --config FILE or --builtin NAME")


def _alcove_at(text: str, inst, flag: str = "--point") -> RealAlcove:
    """The real alcove containing the point given by a flag."""
    return real_alcove_of(_parse_point(text, inst, flag), inst.walls)


def _face_of(args, inst):
    A = _alcove_at(args.point, inst)
    faces = faces_of(A, inst.walls)
    if args.face < 0 or args.face >= len(faces):
        raise ConfigError(f"--face must be in [0, {len(faces)})")
    return A, faces[args.face]


# Every subcommand's help and flags, one row a flag: (flag, dest, type,
# required, default, choices, action, help), where the action is None (store
# the value), "store_true" or "append".  build_parser builds argparse's
# parser from these rows, and _parse reads a valid call straight off them.
_INSTANCE = (
    ("--config", "config", str, False, None, None, None,
     "instance config JSON"),
    ("--builtin", "builtin", str, False, None, BUILTINS, None,
     "builtin instance instead of a config file"),
    ("--n", "n", int, False, None, None, None, "builtin size parameter"),
    ("--ell", "ell", int, False, None, None, None,
     "builtin hilb window parameter (default 0)"))
_POINT = ("--point", "point", str, True, None, None, None, None)
_FACE = ("--face", "face", int, True, None, None, None, None)
_P = ("--p", "p", int, True, None, None, None, None)
_LAMBDA = ("--lambda", "lam", str, True, None, None, None, None)
_LAMBDA_PRIME = ("--lambda-prime", "lam_prime", str, True, None, None, None,
                 None)
_WINDOW = ("--window", "window", str, True, None, None, None, None)
_FORMAT = ("--format", "format", str, False, "json", ("json", "dot"), None,
           None)
SUBCOMMANDS = {
    "alcove": ("real alcove containing a point", _INSTANCE + (_POINT,)),
    "faces": ("faces of the alcove containing a point",
              _INSTANCE + (_POINT,)),
    "palcove": ("p-alcove of a real alcove", _INSTANCE + (
        ("--point", "point", str, False, None, None, None,
         "interior point identifying the alcove"),
        ("--alcove-id", "alcove_id", str, False, None, None, None,
         "path to an exported alcove JSON"),
        ("--p", "p", int, False, None, None, None,
         "also evaluate bounds at this prime"))),
    "membership": ("p-alcove containing a lattice point",
                   _INSTANCE + (_POINT, _P)),
    "chambers": ("integral walls and positive chamber",
                 _INSTANCE + (_LAMBDA,)),
    "quantum": ("quantum chamber shifted from the positive chamber",
                _INSTANCE + (_LAMBDA,)),
    "validate-p": ("admissibility report for a prime", _INSTANCE + (
        _P, ("--alcove-point", "alcove_point", str, False, [], None, "append",
             "interior point of a real alcove to check nonempty"))),
    "path": ("lattice translation path inside a p-alcove", _INSTANCE + (
        ("--from", "src", str, True, None, None, None, None),
        ("--to", "dst", str, True, None, None, None, None), _P)),
    "compatible": ("compatible parameter for (alcove, face)", _INSTANCE + (
        ("--point", "point", str, True, None, None, None,
         "interior point identifying the alcove"),
        ("--face", "face", int, True, None, None, None,
         "face index as listed by the faces subcommand"),
        ("--p-samples", "p_samples", str, False, "", None, None,
         "comma-separated primes for sampled verification"),
        ("--opposite", "opposite", None, False, False, None, "store_true",
         "also construct the opposite pair across the face"))),
    "order": ("highest-weight order window at a prime", _INSTANCE + (
        _LAMBDA_PRIME, _P, ("--window", "window", str, True, None, None, None,
                            "z1:z2 half-open"), _FORMAT)),
    "preorder": ("standardly stratified pre-order from a face", _INSTANCE + (
        _POINT, _FACE, ("--window", "window", str, True, None, None, None,
                        "m1:m2 shift window"), _FORMAT)),
    "classes": ("equivalence classes of the pre-order, two ways",
                _INSTANCE + (_POINT, _FACE, _WINDOW)),
    "check-phw": ("periodic highest-weight axiom suite", _INSTANCE + (
        _LAMBDA_PRIME, _P, _WINDOW,
        ("--d-bound", "d_bound", int, False, None, None, None, None))),
    "check-compat": ("pre-order vs order compatibility chain", _INSTANCE + (
        _POINT, _FACE, _P,
        ("--window", "window", str, True, None, None, None,
         "kappa window z1:z2"),
        ("--m-window", "m_window", str, False, "-2:2", None, None,
         "shift window m1:m2"))),
    "wallcross": ("wall-crossing bijection table (Hilb case)", (
        ("--n", "n", int, True, None, None, None,
         "the table lists the partitions of n"),
        ("--b", "b", int, True, None, None, None, None),
        ("--variant", "variant", str, False, "plain", None, None, None),
        ("--csv", "csv", None, False, False, None, "store_true",
         "emit CSV instead of JSON"))),
    "export": ("re-emit a poset report as dot/json", (
        ("--in", "infile", str, True, None, None, None, None),
        ("--format", "format", str, False, "dot", ("json", "dot"), None,
         None))),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of SUBCOMMANDS, built once on first use: it
    writes every help and usage text and words every rejected call."""
    ap = argparse.ArgumentParser(
        prog="alcove-lab",
        description="exact alcove and label-set combinatorics")
    sp = ap.add_subparsers(dest="cmd")
    for cmd, (summary, rows) in SUBCOMMANDS.items():
        sub = sp.add_parser(cmd, help=summary)
        for flag, dest, kind, required, default, choices, action, text in rows:
            typed = ({} if action == "store_true"
                     else {"type": kind, "choices": choices})
            sub.add_argument(flag, dest=dest, required=required,
                             default=default, action=action, help=text,
                             **typed)
    return ap


def _parse(argv) -> argparse.Namespace:
    """argparse's namespace for argv, read in one pass off SUBCOMMANDS; an
    argv this pass is unsure of (any unknown, abbreviated, missing or bad
    token, or a separate value led by "-") goes to argparse itself.  A
    "--flag=--" value, which argparse stores as [], is a ConfigError naming
    the flag."""
    rows = SUBCOMMANDS[argv[0]][1] if argv and argv[0] in SUBCOMMANDS else ()
    by_flag = {row[0]: row for row in rows}
    values = {row[1]: row[4] for row in rows}
    missing = {row[0] for row in rows if row[3]}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, text = token.partition("=")
        if flag not in by_flag:
            break
        _, dest, kind, _, _, choices, action, _ = by_flag[flag]
        if action == "store_true":
            if eq:
                break
            values[dest] = True
            continue
        if not eq:
            text = next(tokens, "-")   # a missing value is handed off too
            if text.startswith("-"):
                break
        elif text == "--":   # argparse drops a "--" value
            break
        try:
            value = kind(text)
        except ValueError:
            break
        if choices is not None and value not in choices:
            break
        values[dest] = [*values[dest], value] if action == "append" else value
        missing.discard(flag)
    else:
        if rows and not missing:
            return argparse.Namespace(cmd=argv[0], **values)
    args = build_parser().parse_args(argv)
    for flag, dest, *_, action, _ in rows:
        value = getattr(args, dest)
        if [] in (value if action == "append" else [value]):
            raise ConfigError(f"{flag} needs a value, not '--'")
    return args


def dispatch(argv) -> int:
    try:
        args = _parse(argv)
        if args.cmd is None:
            build_parser().print_usage(sys.stderr)
            return 2
        return _run(args, _checked_p_samples(args))
    except BrokenPipeError:
        raise   # stdout is closed: no error line can reach it
    except (ValueError, KeyError, OSError, LemmaError) as exc:
        print(json.dumps({"error": str(exc)}, sort_keys=True), flush=True)
        return 1


def _run(args, samples) -> int:
    """Print the subcommand's report, or the text it prints instead; exit 1
    exactly when the report carries checks that did not pass.  samples are
    the parsed --p-samples entries."""
    cmd, inputs, checks = args.cmd, None, None
    if cmd == "export":
        data = load_json(args.infile)
        covers = _poset_covers(data, args.infile)
        out = (report_to_json(data) if args.format == "json"
               else to_dot((), covers))
    elif cmd == "wallcross":
        n = args.n
        try:
            # the table lists all p(n) partitions of n
            check_point_count(partition_numbers(), n)
        except ValueError as exc:
            raise ConfigError(f"--n {n}: {exc}") from exc
        inputs = {"cmd": cmd, "n": n, "b": args.b, "variant": args.variant}
        out = wc_bijection_hilb(n, args.b, args.variant)
        if args.csv:
            out = "\n".join(["partition,image,provenance"] + [
                f"{key},{e['image'] or ''},{e['provenance']}"
                for key, e in sorted(out["map"].items())])
    else:
        data, path = _load_config(args)
        inst, warnings = parse_config(data, path)
        inputs = {"cmd": cmd,
                  "argv": {k: v for k, v in vars(args).items()
                           if k != "cmd"},
                  "config": data}
        out, checks = _outputs(args, inst, warnings, samples)
    print(out if isinstance(out, str)
          else report_to_json(run_report(cmd, inputs, out, checks)),
          flush=True)   # a closed pipe fails here, not at exit
    return 0 if checks is None or checks["passed"] else 1


def _outputs(args, inst, warnings, samples):
    """(outputs, checks) of a subcommand on a loaded instance and the
    warnings of its config; a DOT text in place of the outputs for
    --format dot.  samples are the parsed --p-samples entries."""
    cmd, walls = args.cmd, inst.walls
    if cmd == "alcove":
        return {"alcove": _alcove_at(args.point, inst).to_json(),
                "warnings": list(warnings)}, None

    if cmd == "faces":
        A = _alcove_at(args.point, inst)
        faces = [{"index": i, "codim": f.codim,
                  "witness": [rat_str(c) for c in f.witness],
                  "active": inequalities_to_json(f.active)}
                 for i, f in enumerate(faces_of(A, walls))]
        return {"alcove": A.to_json(), "faces": faces}, None

    if cmd == "palcove":
        if args.alcove_id:
            A = parse_alcove(load_json(args.alcove_id), args.alcove_id, inst)
        elif args.point:
            A = _alcove_at(args.point, inst)
        else:
            raise ConfigError("identify the alcove with --point or --alcove-id")
        pa = p_alcove_of(A, walls)
        out = pa.to_json()
        if args.p:
            out["at_p"] = {str(args.p): [
                [wid, orient, rat_str(rhs.eval_at(args.p))]
                for wid, orient, rhs in pa.inequalities]}
        return {"palcove": out}, None

    if cmd == "membership":
        pa = p_membership(_parse_point(args.point, inst, "--point"), args.p,
                          walls)
        return {"palcove": pa.to_json()}, None

    if cmd in ("chambers", "quantum"):
        lam = _parse_point(args.lam, inst, "--lambda")
        int_walls, chamber = integral_walls_and_positive_chamber(lam, walls)
        if cmd == "chambers":
            return {"integral_walls": [w.id for w in int_walls],
                    "positive_chamber": chamber.to_json()}, None
        q = quantum_chamber(lam, chamber, walls)
        return {"quantum_chamber": q.to_json()}, None

    if cmd == "validate-p":
        alcoves = [_alcove_at(pt, inst, "--alcove-point")
                   for pt in args.alcove_point]
        return {}, validate_p(args.p, inst, alcoves=alcoves)

    if cmd == "path":
        src = _parse_point(args.src, inst, "--from")
        dst = _parse_point(args.dst, inst, "--to")
        pa = p_membership(src, args.p, walls)
        steps = translation_path(src, dst, pa, args.p,
                                 inst.generators, walls)
        return {"steps": [[rat_str(c) for c in s] for s in steps]}, None

    if cmd == "compatible":
        A, face = _face_of(args, inst)
        pair = find_compatible(A, face, walls)
        report = verify_compatible(pair, walls, p_samples=samples)
        out = {"lambda": [rat_str(c) for c in pair.lam],
               "mu": [rat_str(c) for c in pair.mu],
               "alcove": A.to_json(),
               "face_active": inequalities_to_json(face.active)}
        if args.opposite:
            pm, chi = opposite_pair(A, face, pair, walls)
            out["opposite"] = {"lambda": [rat_str(c) for c in pm.lam],
                               "chi": [rat_str(c) for c in chi]}
        return out, report

    if cmd in ("order", "check-phw"):
        poset = _windowed(hw_order, "--window", args.window, inst,
                          _parse_point(args.lam_prime, inst, "--lambda-prime"),
                          args.p)
        if cmd == "check-phw":
            d_bound = args.d_bound
            if d_bound is None:
                d_bound = 2 * len(inst.points) * args.p
            elif d_bound < 0:
                raise ConfigError(f"--d-bound {d_bound} is below 0")
            return {}, phw_axiom_check(poset, d_bound)
        if args.format == "dot":
            return export_poset(poset, inst), None
        return {"poset": poset.to_json(inst)}, None

    if cmd in ("preorder", "classes", "check-compat"):
        A, face = _face_of(args, inst)
        pair = find_compatible(A, face, walls)
        flag, text = (("--m-window", args.m_window) if cmd == "check-compat"
                      else ("--window", args.window))
        pre = _windowed(ss_preorder, flag, text, inst, pair)
        if cmd == "preorder":
            if args.format == "dot":
                return export_poset(pre), None
            return {"preorder": pre.to_json()}, None
        if cmd == "classes":
            text = pre.texts()
            return {"classes": [["|".join(text[l]) for l in cls]
                                for cls in equivalence_classes(pre)]}, None
        lam_prime = pair.p_point(args.p)
        report = _windowed(window_compat_check, "--window", args.window, pre,
                           lam_prime, args.p)
        if report is None:
            raise ConfigError(f"--window {args.window} holds no label of the "
                              f"pre-order at p = {args.p}")
        return {"lambda_prime": [rat_str(c) for c in lam_prime]}, report


def main() -> None:
    try:
        code = dispatch(sys.argv[1:])
    except BrokenPipeError:
        # the reader closed stdout (`alcove-lab ... | head`): what is still
        # buffered goes to devnull at exit, as in the recipe of Python's
        # signal docs, so no second error follows
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
