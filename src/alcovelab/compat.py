"""Parameters compatible with an (alcove, face) pair.

A compatible pair packages lambda and a face-interior direction mu so that
the family ^p(lambda) = lambda + p*mu sits inside the p-alcove with margins
constant in p on the face walls and growing linearly in p on the others.
Each facet <c, x> > rhs(p) of the p-alcove (PAlcove.facets) gives the
margin <c, lambda + p*mu> - rhs(p).
"""

from __future__ import annotations

from fractions import Fraction

from .arith import (AffineInP, Value, is_lattice, pairing, vadd, vscale,
                    vsub)
from .alcoves import Face, RealAlcove, opposite_alcove, p_alcove_of
from .polyhedra import first_lattice_point


class CompatiblePair(Value):
    lam: tuple
    mu: tuple
    alcove: RealAlcove
    face: Face

    def p_point(self, p) -> tuple:
        """lambda + p*mu for a concrete prime p."""
        return vadd(self.lam, vscale(p, self.mu))

    def p_point_affine(self) -> tuple:
        """Per-coordinate affine-in-p description of the family."""
        return tuple(AffineInP(a, b) for a, b in zip(self.lam, self.mu))


def _face_facets(A: RealAlcove, face: Face, walls):
    """(c, rhs) of the facets of the p-alcove of A that hold the face."""
    return [(c, rhs) for _, c, rhs, on_face
            in p_alcove_of(A, walls).facets(walls, face) if on_face]


_cache: dict = {}


def _cache_key(A: RealAlcove, face: Face, walls):
    """The cache key: the face witness and A's interior point, both moved so
    the witness lands in [0,1)^d, with the wall data.  An interior point
    fixes its alcove and a relative-interior point its face, so equal keys
    mean the same translated (alcove, face)."""
    shift = tuple(-(c.numerator // c.denominator) for c in face.witness)
    wall_key = tuple(sorted(walls, key=lambda w: w.id))
    return (wall_key, vadd(face.witness, shift),
            vadd(A.interior_point(), shift))


def find_compatible(A: RealAlcove, face: Face, walls) -> CompatiblePair:
    """Construct a parameter compatible with (A, face).

    mu is the face's rational interior witness; lambda is the
    lexicographically smallest element of mu + Z^d inside a search box with
    <c, lambda> > rhs.const on every facet of the p-alcove through the face.
    The first lambda found for a lattice class is cached and returned, with
    the translate's own witness as mu, for every later translate: a hit
    gives the first caller's lambda (ROADMAP item 1 (a)).
    """
    d = A.rank
    key = _cache_key(A, face, walls)
    lam = _cache.get(key)
    if lam is not None:
        return CompatiblePair(lam, face.witness, A, face)

    mu = face.witness
    # lambda = mu + v with v integral: <c, v> > rhs.const - <c, mu>
    rows = [(c, rhs.const - pairing(c, mu), True)
            for c, rhs in _face_facets(A, face, walls)]
    needed = max((rhs for _, rhs, _ in rows), default=Fraction(0))
    radii = []
    r = max(2, int(needed) + 2)
    while r <= 32:
        radii.append(r)
        r *= 2
    for radius in radii:
        box = [(tuple(sign if i == j else 0 for i in range(d)), -radius, False)
               for j in range(d) for sign in (1, -1)]
        v = first_lattice_point(rows + box, d)
        if v is not None:
            lam = vadd(mu, v)
            _cache[key] = lam
            return CompatiblePair(lam, mu, A, face)
    raise ValueError(
        f"compatible-lambda search box exhausted (radius {radii[-1]})")


def verify_compatible(pair: CompatiblePair, walls, p_samples=()) -> dict:
    """Symbolic and sampled checks of the compatibility conditions.

    Face walls must have p-margin of slope 0 and positive constant, the
    remaining alcove walls positive slope; each sample prime additionally
    checks integrality of (p+1)*lambda and of lambda + p*mu, and that every
    margin is positive at p (the family point is in the p-alcove).
    """
    report = {
        "lattice_diff": is_lattice(vsub(pair.lam, pair.mu)),
        "face_walls": [],
        "other_walls": [],
        "samples": {},
        "localization_conditions": "not verified",
    }
    margins = []
    pa = p_alcove_of(pair.alcove, walls)
    for wid, c, rhs, on_face in pa.facets(walls, pair.face):
        margin = AffineInP(pairing(c, pair.lam), pairing(c, pair.mu)) - rhs
        margins.append(margin)
        ok = (margin.slope == 0 and margin.const > 0 if on_face
              else margin.slope > 0)
        report["face_walls" if on_face else "other_walls"].append(
            {"wall": wid, "margin": margin.to_json(), "ok": ok})
    for p in p_samples:
        entry = {
            "p_lambda_integral": is_lattice(vscale(p + 1, pair.lam)),
            "p_point_integral": is_lattice(pair.p_point(p)),
            "in_p_alcove": all(m.eval_at(p) > 0 for m in margins),
        }
        entry["ok"] = all(entry.values())
        report["samples"][p] = entry
    report["passed"] = (
        report["lattice_diff"]
        and all(e["ok"] for e in report["face_walls"])
        and all(e["ok"] for e in report["other_walls"])
        and all(e["ok"] for e in report["samples"].values()))
    return report


def opposite_pair(A: RealAlcove, face: Face, pair: CompatiblePair, walls):
    """A parameter compatible with (A_minus, face), differing from pair.lam
    by a lattice vector; returns (pair_minus, chi) with chi = lam_minus - lam.

    The reflected candidate 2*mu - lambda is preferred; when it violates the
    opposite margins the lexicographic box search runs on the other side.

    face must be a face of A, as for find_compatible.  A_minus holds it
    too, with the same vertices, witness mu and codim; its active rows are
    its own on the face's hyperplanes.  chi is integral whenever
    lambda - mu is, as for every pair find_compatible returns (on a cache
    hit too, since the cached lambda and the translate's witness differ by
    a lattice vector): the candidate differs from lambda by
    2 * (mu - lambda), and the search's answer from mu by a lattice vector.
    """
    B = opposite_alcove(A, face, walls)
    # near the witness A is a cell of the central arrangement through the
    # face, and B that cell negated: the same face, each row's sense flipped
    on_face = {(wid, m) for wid, m, _ in face.active}
    face_b = face.replace(parent=B, active=tuple(
        row for row in B.inequalities if row[:2] in on_face))
    mu = pair.mu
    candidate = vsub(vscale(2, mu), pair.lam)
    if all(pairing(c, candidate) > rhs.const
           for c, rhs in _face_facets(B, face_b, walls)):
        pair_minus = CompatiblePair(candidate, mu, B, face_b)
    else:
        pair_minus = find_compatible(B, face_b, walls)
    return pair_minus, vsub(pair_minus.lam, pair.lam)
