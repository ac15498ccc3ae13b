"""Command-line front end: thin shells over the library operations.

Every subcommand prints one deterministic JSON report, or the DOT, CSV or
JSON text asked for; it exits 1 when its checks fail, and 1 with one
{"error": ...} line when its input is rejected or a result falsifies a
lemma (LemmaError).  A bare call or a flag that argparse rejects prints
the usage on stderr and exits 2.  A closed stdout ends the command with
exit 1 and nothing on stderr.
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
from .config import (ConfigError, load_instance, load_json, parse_alcove,
                     parse_config, report_to_json, run_report)
from .instances import BUILTINS, check_point_count
from .mullineux import wc_bijection_hilb
from .orders import (LabelBudgetError, equivalence_classes, export_poset,
                     hw_order, phw_axiom_check, ss_preorder, to_dot,
                     window_compat_check)
from .partitions import partition_numbers
from .validate import validate_p


def _parse_point(text: str, cfg, flag: str) -> tuple:
    """A comma-separated rational point with one coordinate per rank."""
    x = vec(rat(part) for part in text.split(","))
    if len(x) != cfg.instance.rank:
        raise ConfigError(f"{flag} has {len(x)} coordinates but the "
                          f"instance has rank {cfg.instance.rank}")
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
    if getattr(args, "config", None):
        return load_instance(args.config)
    if getattr(args, "builtin", None):
        if args.n is None:
            raise ConfigError(f"--builtin {args.builtin} needs --n")
        data = {"builtin": args.builtin, "n": args.n}
        if getattr(args, "ell", None) is not None:
            data["ell"] = args.ell
        return parse_config(data, " ".join(f"--{k} {v}"
                                           for k, v in data.items()))
    raise ConfigError("no instance: pass --config FILE or --builtin NAME")


def _add_instance_flags(sub):
    sub.add_argument("--config", help="instance config JSON")
    sub.add_argument("--builtin", choices=BUILTINS,
                     help="builtin instance instead of a config file")
    sub.add_argument("--n", type=int, help="builtin size parameter")
    sub.add_argument("--ell", type=int, default=None,
                     help="builtin hilb window parameter (default 0)")


def _alcove_at(text: str, cfg, flag: str = "--point") -> RealAlcove:
    """The real alcove containing the point given by a flag."""
    return real_alcove_of(_parse_point(text, cfg, flag), cfg.walls)


def _face_of(args, cfg):
    A = _alcove_at(args.point, cfg)
    faces = faces_of(A, cfg.walls)
    if args.face < 0 or args.face >= len(faces):
        raise ConfigError(f"--face must be in [0, {len(faces)})")
    return A, faces[args.face]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use: argparse reads
    but never mutates a parser while parsing, so dispatch can reuse it."""
    ap = argparse.ArgumentParser(
        prog="alcove-lab",
        description="exact alcove and label-set combinatorics")
    sp = ap.add_subparsers(dest="cmd")

    def sub(name, **kw):
        s = sp.add_parser(name, **kw)
        _add_instance_flags(s)
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

    s = sub("wallcross", help="wall-crossing bijection table (Hilb case)")
    s.add_argument("--b", type=int, required=True)
    s.add_argument("--variant", default="plain")
    s.add_argument("--csv", action="store_true", help="emit CSV instead of JSON")

    s = sp.add_parser("export", help="re-emit a poset report as dot/json")
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--format", choices=("json", "dot"), default="dot")

    return ap


def dispatch(argv) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.cmd is None:
        ap.print_usage(sys.stderr)
        return 2
    try:
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
        n, source = args.n, f"--n {args.n}"
        if n is None:
            n, source = _load_config(args).instance.meta.get("n"), args.config
        if n is None:
            raise ConfigError("wallcross needs --n or a hilb config")
        if type(n) is not int:
            raise ConfigError(f"{source}: n must be an integer, not {n!r}")
        try:
            # the table lists all p(n) partitions of n
            check_point_count(partition_numbers(), n)
        except ValueError as exc:
            raise ConfigError(f"{source}: {exc}") from exc
        inputs = {"cmd": cmd, "n": n, "b": args.b, "variant": args.variant}
        out = wc_bijection_hilb(n, args.b, args.variant)
        if args.csv:
            out = "\n".join(["partition,image,provenance"] + [
                f"{key},{e['image'] or ''},{e['provenance']}"
                for key, e in sorted(out["map"].items())])
    else:
        cfg = _load_config(args)
        inputs = {"cmd": cmd,
                  "argv": {k: v for k, v in sorted(vars(args).items())
                           if k != "cmd"},
                  "config": cfg.raw}
        out, checks = _outputs(args, cfg, samples)
    print(out if isinstance(out, str)
          else report_to_json(run_report(cmd, inputs, out, checks)),
          flush=True)   # a closed pipe fails here, not at exit
    return 0 if checks is None or checks["passed"] else 1


def _outputs(args, cfg, samples):
    """(outputs, checks) of a subcommand on a loaded instance; a DOT text
    in place of the outputs for --format dot.  samples are the parsed
    --p-samples entries."""
    cmd = args.cmd
    if cmd == "alcove":
        return {"alcove": _alcove_at(args.point, cfg).to_json(),
                "warnings": list(cfg.warnings)}, None

    if cmd == "faces":
        A = _alcove_at(args.point, cfg)
        faces = [{"index": i, "codim": f.codim,
                  "witness": [rat_str(c) for c in f.witness],
                  "active": inequalities_to_json(f.active)}
                 for i, f in enumerate(faces_of(A, cfg.walls))]
        return {"alcove": A.to_json(), "faces": faces}, None

    if cmd == "palcove":
        if args.alcove_id:
            A = parse_alcove(load_json(args.alcove_id), args.alcove_id,
                             cfg.instance)
        elif args.point:
            A = _alcove_at(args.point, cfg)
        else:
            raise ConfigError("identify the alcove with --point or --alcove-id")
        pa = p_alcove_of(A, cfg.walls)
        out = pa.to_json()
        if args.p:
            out["at_p"] = {str(args.p): [
                [wid, orient, rat_str(rhs.eval_at(args.p))]
                for wid, orient, rhs in pa.inequalities]}
        return {"palcove": out}, None

    if cmd == "membership":
        pa = p_membership(_parse_point(args.point, cfg, "--point"), args.p,
                          cfg.walls)
        return {"palcove": pa.to_json()}, None

    if cmd in ("chambers", "quantum"):
        lam = _parse_point(args.lam, cfg, "--lambda")
        int_walls, chamber = integral_walls_and_positive_chamber(lam, cfg.walls)
        if cmd == "chambers":
            return {"integral_walls": [w.id for w in int_walls],
                    "positive_chamber": chamber.to_json()}, None
        q = quantum_chamber(lam, chamber, cfg.walls)
        return {"quantum_chamber": q.to_json()}, None

    if cmd == "validate-p":
        alcoves = [_alcove_at(pt, cfg, "--alcove-point")
                   for pt in args.alcove_point]
        return {}, validate_p(args.p, cfg.instance, alcoves=alcoves)

    if cmd == "path":
        src = _parse_point(args.src, cfg, "--from")
        dst = _parse_point(args.dst, cfg, "--to")
        pa = p_membership(src, args.p, cfg.walls)
        steps = translation_path(src, dst, pa, args.p,
                                 cfg.instance.generators, cfg.walls)
        return {"steps": [[rat_str(c) for c in s] for s in steps]}, None

    if cmd == "compatible":
        A, face = _face_of(args, cfg)
        pair = find_compatible(A, face, cfg.walls)
        report = verify_compatible(pair, cfg.walls, p_samples=samples)
        out = {"lambda": [rat_str(c) for c in pair.lam],
               "mu": [rat_str(c) for c in pair.mu],
               "alcove": A.to_json(),
               "face_active": inequalities_to_json(face.active)}
        if args.opposite:
            pm, chi = opposite_pair(A, face, pair, cfg.walls)
            out["opposite"] = {"lambda": [rat_str(c) for c in pm.lam],
                               "chi": [rat_str(c) for c in chi]}
        return out, report

    if cmd in ("order", "check-phw"):
        poset = _windowed(hw_order, "--window", args.window, cfg.instance,
                          _parse_point(args.lam_prime, cfg, "--lambda-prime"),
                          args.p)
        if cmd == "check-phw":
            d_bound = args.d_bound
            if d_bound is None:
                d_bound = 2 * len(cfg.instance.points) * args.p
            return {}, phw_axiom_check(poset, d_bound)
        if args.format == "dot":
            return export_poset(poset, cfg.instance), None
        return {"poset": poset.to_json(cfg.instance)}, None

    if cmd in ("preorder", "classes", "check-compat"):
        A, face = _face_of(args, cfg)
        pair = find_compatible(A, face, cfg.walls)
        flag, text = (("--m-window", args.m_window) if cmd == "check-compat"
                      else ("--window", args.window))
        pre = _windowed(ss_preorder, flag, text, cfg.instance, pair)
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

    raise ConfigError(f"unknown subcommand: {cmd}")


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
