"""Parameters compatible with an (alcove, face) pair.

A compatible pair packages lambda and a face-interior direction mu so that
the family ^p(lambda) = lambda + p*mu sits inside the p-alcove with margins
constant in p on the face walls and growing linearly in p on the others.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import AffineInP, is_lattice, pairing, vadd, vscale, vsub
from .alcoves import (Face, PAlcove, RealAlcove, faces_of, opposite_alcove,
                      oriented_facet, p_alcove_of, translate_inequalities)
from .polyhedra import first_lattice_point


@dataclass(frozen=True)
class CompatiblePair:
    lam: tuple
    mu: tuple
    alcove: RealAlcove
    face: Face

    def p_point(self, p) -> tuple:
        """lambda + p*mu for a concrete prime p."""
        return vadd(self.lam, vscale(p, self.mu))

    def p_point_affine(self) -> tuple:
        """Per-coordinate affine-in-p description of the family."""
        return tuple(AffineInP(const=a, slope=b)
                     for a, b in zip(self.lam, self.mu))

    def p_alcove(self, walls) -> PAlcove:
        return p_alcove_of(self.alcove, walls)


def _split_facets(A: RealAlcove, face: Face, walls):
    """Facet inequalities of A split into those containing the face (the
    face walls Gamma_i) and the rest (Gamma'_j), both oriented into A."""
    wm = {w.id: w for w in walls}
    face_set = set(face.active)
    through, others = [], []
    for wid, m, sense in A.inequalities:
        orient, alpha_or, m_or, sigma = oriented_facet(wm[wid], m, sense)
        entry = (wid, alpha_or, m_or, sigma)
        if (wid, m, sense) in face_set:
            through.append(entry)
        else:
            others.append(entry)
    return through, others


_cache: dict = {}


def _normalize_mod_lattice(A: RealAlcove, face: Face, walls):
    """Translate (A, face) so the face witness lands in [0,1)^d; returns
    the shift and the translated key (which pins the wall data too).  The
    witness moves with every lattice translate of (A, face), so the key
    depends only on the lattice class."""
    shift = tuple(-(c.numerator // c.denominator) for c in face.witness)
    wall_key = tuple(sorted(walls, key=lambda w: w.id))
    return shift, (wall_key,
                   translate_inequalities(A.inequalities, shift, walls),
                   translate_inequalities(face.active, shift, walls))


def find_compatible(A: RealAlcove, face: Face, walls) -> CompatiblePair:
    """Construct a parameter compatible with (A, face).

    mu is the face's rational interior witness; lambda is the
    lexicographically smallest element of mu + Z^d inside a search box with
    <alpha, lambda> strictly above the sigma_tilde maximum on every face
    wall.  Results are cached modulo lattice translation.
    """
    d = A.rank
    shift, key = _normalize_mod_lattice(A, face, walls)
    hit = _cache.get(key)
    if hit is not None:
        lam, mu_norm = hit
        back = tuple(-s for s in shift)
        return CompatiblePair(lam, vadd(mu_norm, back), A, face)

    mu = face.witness
    through, _ = _split_facets(A, face, walls)
    # lambda = mu + v with v integral: <alpha, v> > sigma - <alpha, mu>
    rows = [(alpha_or, sigma - pairing(alpha_or, mu), True)
            for _, alpha_or, _, sigma in through]
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
            # the same lambda serves every lattice translate of (A, face)
            _cache[key] = (lam, vadd(mu, shift))
            return CompatiblePair(lam, mu, A, face)
    raise ValueError(
        f"compatible-lambda search box exhausted (radius {radii[-1]})")


def verify_compatible(pair: CompatiblePair, walls, p_samples=()) -> dict:
    """Symbolic and sampled checks of the compatibility conditions.

    Face walls must have p-margin of slope 0 and positive constant, the
    remaining alcove walls positive slope; each sample prime additionally
    checks integrality of (p+1)*lambda and of lambda + p*mu, and membership
    of the family point in the p-alcove.
    """
    through, others = _split_facets(pair.alcove, pair.face, walls)
    report = {
        "lattice_diff": is_lattice(vsub(pair.lam, pair.mu)),
        "face_walls": [],
        "other_walls": [],
        "samples": {},
        "localization_conditions": "not verified",
    }
    for key, facets, ok in (("face_walls", through,
                             lambda m: m.slope == 0 and m.const > 0),
                            ("other_walls", others, lambda m: m.slope > 0)):
        for wid, alpha_or, m_or, sigma in facets:
            margin = AffineInP(
                const=pairing(alpha_or, pair.lam) - sigma,
                slope=pairing(alpha_or, pair.mu) - m_or)
            report[key].append({"wall": wid, "margin": margin.to_json(),
                                "ok": ok(margin)})
    pa = pair.p_alcove(walls)
    for p in p_samples:
        pt = pair.p_point(p)
        entry = {
            "p_lambda_integral": is_lattice(vscale(p + 1, pair.lam)),
            "p_point_integral": is_lattice(pt),
            "in_p_alcove": pa.contains(pt, p, walls),
        }
        entry["ok"] = all(entry.values())
        report["samples"][p] = entry
    report["passed"] = (
        report["lattice_diff"]
        and all(e["ok"] for e in report["face_walls"])
        and all(e["ok"] for e in report["other_walls"])
        and all(e["ok"] for e in report["samples"].values()))
    return report


def matching_face(B: RealAlcove, face: Face, walls) -> Face:
    for g in faces_of(B, walls):
        if g.vertex_set == face.vertex_set:
            return g
    raise ValueError("alcove does not share the given face")


def opposite_pair(A: RealAlcove, face: Face, pair: CompatiblePair, walls):
    """A parameter compatible with (A_minus, face), differing from pair.lam
    by a lattice vector; returns (pair_minus, chi) with chi = lam_minus - lam.

    The reflected candidate 2*mu - lambda is preferred; when it violates the
    opposite margins the lexicographic box search runs on the other side.
    """
    B = opposite_alcove(A, face, walls)
    face_b = matching_face(B, face, walls)
    mu = pair.mu
    if face_b.witness != mu:
        # same geometric face, same vertex average
        raise AssertionError("face witness mismatch between opposite alcoves")
    candidate = vsub(vscale(2, mu), pair.lam)
    through, _ = _split_facets(B, face_b, walls)
    if all(pairing(alpha_or, candidate) > sigma
           for _, alpha_or, m_or, sigma in through):
        pair_minus = CompatiblePair(candidate, mu, B, face_b)
    else:
        pair_minus = find_compatible(B, face_b, walls)
    chi = vsub(pair_minus.lam, pair.lam)
    if not is_lattice(chi):
        raise AssertionError("wall-crossing element chi is not integral")
    return pair_minus, chi
