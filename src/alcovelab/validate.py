"""Admissibility checks for a concrete prime p."""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import lcm

from .arith import AffineInP, is_lattice, rat_str, vscale
from .alcoves import p_alcove_of
from .orders import c_bar
from .polyhedra import first_lattice_point, interior_point, matrix_rank


def p_lattice_point(pa, p: int, walls):
    """A lattice point of the p-alcove at p, or None if there is none.

    The rounded center of the evaluated polytope works once p is moderately
    large (margins grow linearly in p); otherwise the answer is the
    lexicographically first lattice point of the open polytope.  A p-alcove
    with no vertex is empty, or unbounded when its wall covectors do not
    span, which is a ValueError.
    """
    cons = [(c, r, True) for c, r in pa.rows(p, walls)]
    d = pa.source.rank
    center = interior_point(cons, d)
    if center is None:
        if matrix_rank([c for c, _, _ in cons]) < d:
            raise ValueError("unbounded alcove: wall covectors do not span")
        return None
    cand = tuple((c + Fraction(1, 2)).__floor__() for c in center)
    if pa.contains(cand, p, walls):
        return cand
    return first_lattice_point(cons, d)


def validate_p(p: int, instance, alcoves=()) -> dict:
    """Report whether p satisfies the congruence and size conditions.

    (a) p+1 divisible by every sigma_tilde denominator;
    (b) (p+1)*lambda integral for every registered lambda;
    (c) (p+1)*c(x; lambda) integral for all fixed points;
    (d) h-blocks are separated by their residues mod p at each registered
        lambda;
    (e) each supplied alcove's p-alcove holds a lattice point (p_lattice_point:
        the rounded vertex average, else the lexicographically first one).
        Its "stable_above" is the prime bound above which the facets'
        right-hand sides keep their large-p order (arith.threshold of the
        differences of neighbours); it does not say that (e) holds there.
    """
    walls = instance.walls
    report = {"p": p}

    den = lcm(*(w.offsets[0] for w in walls))
    report["a_denominators"] = {"lcm": den, "ok": (p + 1) % den == 0}

    lam_checks = []
    for lam in instance.lambdas:
        ok = is_lattice(vscale(p + 1, lam))
        lam_checks.append({"lambda": [rat_str(c) for c in lam], "ok": ok})
    report["b_lambdas"] = {"checks": lam_checks,
                           "ok": all(c["ok"] for c in lam_checks)}

    def residues(lam):
        """c_bar at lam, or None where some (p+1)*c is not integral."""
        try:
            return c_bar(instance, lam, p)
        except ValueError:
            return None

    lam_residues = [residues(lam) for lam in instance.lambdas]
    if instance.lambdas:
        c_ok = None not in lam_residues
    else:
        # a reduced c times p + 1 is integral exactly when its denominator
        # divides p + 1
        c_ok = all((p + 1) % instance.c_const[x].denominator == 0
                   and all((p + 1) % c.denominator == 0
                           for c in instance.c_linear[x])
                   for x in instance.points)
    report["c_scalars"] = {"ok": c_ok}

    block_checks = []
    for lam, res in zip(instance.lambdas, lam_residues):
        ok = res is not None
        if ok:
            # an h-block is a class of c values mod 1; each block's residues
            # must fill an interval that no other block's residues enter
            blocks = defaultdict(list)
            for x in instance.points:
                blocks[instance.c_value(x, lam) % 1].append(res[x])
            ranges = sorted((min(v), max(v)) for v in blocks.values())
            ok = all(lo[1] < hi[0] for lo, hi in zip(ranges, ranges[1:]))
        block_checks.append({"lambda": [rat_str(c) for c in lam], "ok": ok})
    report["d_block_order"] = {"checks": block_checks,
                               "ok": all(c["ok"] for c in block_checks)}

    alcove_checks = []
    for A in alcoves:
        entry = {"alcove": A.to_json()}
        try:
            pa = p_alcove_of(A, walls)
            pt = p_lattice_point(pa, p, walls)
            entry["ok"] = pt is not None
            if pt is not None:
                entry["witness"] = [rat_str(c) for c in pt]
            # above this bound the facets' right-hand sides keep their
            # large-p order; a lattice point is not promised there
            entry["stable_above"] = AffineInP.max_crossing_threshold(
                rhs for _, _, rhs in pa.inequalities)
        except ValueError as exc:
            entry["ok"] = False
            entry["error"] = str(exc)
        alcove_checks.append(entry)
    report["e_nonempty"] = {"checks": alcove_checks,
                            "ok": all(c["ok"] for c in alcove_checks)}

    report["passed"] = all(report[k]["ok"] for k in
                           ("a_denominators", "b_lambdas", "c_scalars",
                            "d_block_order", "e_nonempty"))
    return report
