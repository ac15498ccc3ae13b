"""Command-line front end: thin shells over the library operations.

Every subcommand loads a config, runs one library call, and prints a
deterministic JSON report; nonzero exit signals a failed check.
"""

from __future__ import annotations

import argparse
import json
import sys

from .arith import rat, rat_str, vec
from .alcoves import (faces_of, integral_walls_and_positive_chamber,
                      p_alcove_of, p_membership, quantum_chamber,
                      real_alcove_of, translation_path, RealAlcove)
from .compat import find_compatible, opposite_pair, verify_compatible
from .config import ConfigError, load_instance, parse_config, report_to_json, run_report
from .mullineux import wc_bijection_hilb
from .orders import (equivalence_classes, export_poset, hw_order,
                     order_compat_check, phw_axiom_check, ss_preorder)
from .validate import validate_p


def _parse_point(text: str) -> tuple:
    return vec(rat(part) for part in text.split(","))


def _parse_window(text: str) -> tuple:
    z1, z2 = text.split(":")
    return int(z1), int(z2)


def _load_config(args):
    if getattr(args, "config", None):
        return load_instance(args.config)
    if getattr(args, "builtin", None):
        data = {"builtin": args.builtin}
        if args.n is not None:
            data["n"] = args.n
        if getattr(args, "ell", None) is not None:
            data["ell"] = args.ell
        return parse_config(data)
    raise ConfigError("no instance: pass --config FILE or --builtin NAME")


def _add_instance_flags(sub):
    sub.add_argument("--config", help="instance config JSON")
    sub.add_argument("--builtin", choices=("hilb", "weyl_a"),
                     help="builtin instance instead of a config file")
    sub.add_argument("--n", type=int, help="builtin size parameter")
    sub.add_argument("--ell", type=int, default=None,
                     help="builtin hilb window parameter (default 0)")


def _face_of(args, cfg):
    A = real_alcove_of(_parse_point(args.point), cfg.walls)
    faces = faces_of(A, cfg.walls)
    if args.face < 0 or args.face >= len(faces):
        raise ConfigError(f"--face must be in [0, {len(faces)})")
    return A, faces[args.face]


def _alcove_from_args(args, cfg) -> RealAlcove:
    if getattr(args, "alcove_id", None):
        with open(args.alcove_id, "r", encoding="utf-8") as fh:
            return RealAlcove.from_json(json.load(fh))
    if not getattr(args, "point", None):
        raise ConfigError("identify the alcove with --point or --alcove-id")
    return real_alcove_of(_parse_point(args.point), cfg.walls)


def build_parser() -> argparse.ArgumentParser:
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
    if not argv:
        ap.print_usage()
        return 2
    args = ap.parse_args(argv)
    if args.cmd is None:
        ap.print_usage()
        return 2
    try:
        return _run(args)
    except (ConfigError, ValueError, KeyError, OSError) as exc:
        print(json.dumps({"error": str(exc)}, sort_keys=True))
        return 1


def _emit(report) -> None:
    print(report_to_json(report))


def _run(args) -> int:
    cmd = args.cmd

    if cmd == "export":
        with open(args.infile, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if args.format == "json":
            print(json.dumps(data, sort_keys=True, indent=2))
        else:
            lines = ["digraph poset {", "  rankdir=BT;"]
            for a, b in data.get("covers", []):
                lines.append(f'  "{a[0]}|{a[1]}" -> "{b[0]}|{b[1]}";')
            lines.append("}")
            print("\n".join(lines))
        return 0

    if cmd == "wallcross":
        n = args.n
        if n is None:
            n = _load_config(args).instance.meta.get("n")
        if n is None:
            raise ConfigError("wallcross needs --n or a hilb config")
        table = wc_bijection_hilb(n, args.b, args.variant)
        if args.csv:
            print("partition,image,provenance")
            for key in sorted(table["map"]):
                entry = table["map"][key]
                print(f"{key},{entry['image'] or ''},{entry['provenance']}")
        else:
            inputs = {"cmd": cmd, "n": n, "b": args.b, "variant": args.variant}
            _emit(run_report(cmd, inputs, table))
        return 0

    cfg = _load_config(args)
    inputs = {"cmd": cmd, "argv": {k: v for k, v in sorted(vars(args).items())
                                   if k != "cmd"},
              "config": cfg.raw}

    if cmd == "alcove":
        A = real_alcove_of(_parse_point(args.point), cfg.walls)
        _emit(run_report(cmd, inputs, {"alcove": A.to_json(),
                                       "warnings": list(cfg.warnings)}))
        return 0

    if cmd == "faces":
        A = real_alcove_of(_parse_point(args.point), cfg.walls)
        faces = faces_of(A, cfg.walls)
        out = [{"index": i, "codim": f.codim,
                "witness": [rat_str(c) for c in f.witness],
                "active": [[wid, rat_str(m), s] for wid, m, s in f.active]}
               for i, f in enumerate(faces)]
        _emit(run_report(cmd, inputs, {"alcove": A.to_json(), "faces": out}))
        return 0

    if cmd == "palcove":
        A = _alcove_from_args(args, cfg)
        pa = p_alcove_of(A, cfg.walls)
        out = pa.to_json()
        if args.p:
            out["at_p"] = {str(args.p): [
                [wid, orient, rat_str(rhs.eval_at(args.p))]
                for wid, orient, rhs in pa.inequalities]}
        _emit(run_report(cmd, inputs, {"palcove": out}))
        return 0

    if cmd == "membership":
        pa = p_membership(_parse_point(args.point), args.p, cfg.walls)
        _emit(run_report(cmd, inputs, {"palcove": pa.to_json()}))
        return 0

    if cmd == "chambers":
        lam = _parse_point(args.lam)
        int_walls, chamber = integral_walls_and_positive_chamber(lam, cfg.walls)
        _emit(run_report(cmd, inputs, {
            "integral_walls": [w.id for w in int_walls],
            "positive_chamber": chamber.to_json()}))
        return 0

    if cmd == "quantum":
        lam = _parse_point(args.lam)
        _, chamber = integral_walls_and_positive_chamber(lam, cfg.walls)
        q = quantum_chamber(lam, chamber, cfg.walls)
        _emit(run_report(cmd, inputs, {"quantum_chamber": q.to_json()}))
        return 0

    if cmd == "validate-p":
        alcoves = [real_alcove_of(_parse_point(pt), cfg.walls)
                   for pt in args.alcove_point]
        report = validate_p(args.p, cfg.instance, alcoves=alcoves)
        _emit(run_report(cmd, inputs, {}, checks=report))
        return 0 if report["passed"] else 1

    if cmd == "path":
        src, dst = _parse_point(args.src), _parse_point(args.dst)
        pa = p_membership(src, args.p, cfg.walls)
        steps = translation_path(src, dst, pa, args.p,
                                 cfg.instance.generators, cfg.walls)
        _emit(run_report(cmd, inputs, {
            "steps": [[rat_str(c) for c in s] for s in steps]}))
        return 0

    if cmd == "compatible":
        A, face = _face_of(args, cfg)
        pair = find_compatible(A, face, cfg.walls)
        samples = tuple(int(p) for p in args.p_samples.split(",") if p)
        report = verify_compatible(pair, cfg.walls, p_samples=samples)
        out = {"lambda": [rat_str(c) for c in pair.lam],
               "mu": [rat_str(c) for c in pair.mu],
               "alcove": A.to_json(),
               "face_active": [[wid, rat_str(m), s] for wid, m, s in face.active]}
        if args.opposite:
            pm, chi = opposite_pair(A, face, pair, cfg.walls)
            out["opposite"] = {"lambda": [rat_str(c) for c in pm.lam],
                               "chi": [rat_str(c) for c in chi]}
        _emit(run_report(cmd, inputs, out, checks=report))
        return 0 if report["passed"] else 1

    if cmd == "order":
        poset = hw_order(cfg.instance, _parse_point(args.lam_prime), args.p,
                         _parse_window(args.window))
        if args.format == "dot":
            print(export_poset(poset, "dot", cfg.instance))
        else:
            _emit(run_report(cmd, inputs,
                             {"poset": poset.to_json(cfg.instance)}))
        return 0

    if cmd in ("preorder", "classes", "check-compat"):
        A, face = _face_of(args, cfg)
        pair = find_compatible(A, face, cfg.walls)
        window = _parse_window(args.m_window if cmd == "check-compat"
                               else args.window)
        pre = ss_preorder(cfg.instance, pair, window)
        if cmd == "preorder":
            if args.format == "dot":
                print(export_poset(pre, "dot"))
            else:
                _emit(run_report(cmd, inputs, {"preorder": pre.to_json()}))
            return 0
        if cmd == "classes":
            classes = equivalence_classes(pre)
            _emit(run_report(cmd, inputs, {
                "classes": [[f"{cfg.instance.point_str(l.point)}|{l.kappa}"
                             for l in cls] for cls in classes]}))
            return 0
        lam_prime = pair.p_point(args.p)
        poset = hw_order(cfg.instance, lam_prime, args.p,
                         _parse_window(args.window))
        report = order_compat_check(poset, pre, args.p)
        _emit(run_report(cmd, inputs, {
            "lambda_prime": [rat_str(c) for c in lam_prime]}, checks=report))
        return 0 if report["passed"] else 1

    if cmd == "check-phw":
        poset = hw_order(cfg.instance, _parse_point(args.lam_prime), args.p,
                         _parse_window(args.window))
        d_bound = args.d_bound
        if d_bound is None:
            d_bound = 2 * len(cfg.instance.points) * args.p
        report = phw_axiom_check(poset, d_bound)
        _emit(run_report(cmd, inputs, {}, checks=report))
        return 0 if report["passed"] else 1

    raise ConfigError(f"unknown subcommand: {cmd}")


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
