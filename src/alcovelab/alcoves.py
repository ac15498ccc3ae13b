"""Real alcoves, p-alcoves, faces, chambers and lattice paths.

The hyperplane arrangement <alpha_Gamma, .> = m (m running over the classes
of sigma_tilde mod Z) has infinitely many members; every operation here works
locally around a query point, which Z-periodicity of the arrangement makes
complete.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

from .arith import (AffineInP, Wall, is_lattice, pairing, rat, rat_str, vadd,
                    vec, vsub)
from .polyhedra import (feasible, find_point, interior_point, irredundant,
                        matrix_rank, vertices)

GE, LE = ">=", "<="


class SingularPointError(ValueError):
    """Query point lies on a hyperplane of the arrangement."""

    def __init__(self, wall_id, offset):
        self.wall_id, self.offset = wall_id, offset
        super().__init__(
            f"singular point: on wall {wall_id} at offset {rat_str(offset)}")


class OnPWallError(ValueError):
    """Lattice point lies on a p-hyperplane."""

    def __init__(self, wall_id, sigma, m):
        self.wall_id, self.sigma, self.m = wall_id, sigma, m
        super().__init__(
            f"on p-wall: wall {wall_id}, sigma={rat_str(sigma)}, m={m}")


class NonRegularError(ValueError):
    """Parameter pairs into sigma_tilde on some wall."""


def _wall_map(walls):
    return {w.id: w for w in walls}


def _floor_in_coset(t: Fraction, rep: Fraction):
    """Largest element of rep + Z that is < t; raises if t is in the coset
    boundary (t == element)."""
    d = t - rep
    k = d.numerator // d.denominator
    if d.denominator == 1:
        return None  # t itself is in the coset
    return rep + k


@dataclass(frozen=True)
class RealAlcove:
    """Closure of a connected component of the hyperplane complement, as a
    canonical irredundant list of (wall_id, offset, sense) constraints."""

    rank: int
    inequalities: tuple  # ((wall_id, offset: Fraction, sense), ...)

    def constraints(self, walls):
        """As (coeffs, rhs, strict=False) triples oriented to >=."""
        wm = _wall_map(walls)
        out = []
        for wid, m, sense in self.inequalities:
            alpha = wm[wid].alpha
            if sense == GE:
                out.append((alpha, m, False))
            else:
                out.append((tuple(-a for a in alpha), -m, False))
        return out

    def contains(self, x, walls, strict=False) -> bool:
        for coeffs, rhs, _ in self.constraints(walls):
            v = pairing(coeffs, x)
            if v < rhs or (strict and v == rhs):
                return False
        return True

    def vertices(self, walls):
        return vertices(self.constraints(walls), self.rank)

    def interior_point(self, walls):
        return interior_point(self.constraints(walls), self.rank)

    def translate(self, v, walls):
        """The alcove A + v for a lattice vector v (Z-periodicity)."""
        wm = _wall_map(walls)
        ineqs = tuple((wid, m + pairing(wm[wid].alpha, v), sense)
                      for wid, m, sense in self.inequalities)
        return RealAlcove(self.rank, _canonical(ineqs))

    def to_json(self):
        return {"rank": self.rank,
                "inequalities": [[wid, rat_str(m), sense]
                                 for wid, m, sense in self.inequalities]}

    @classmethod
    def from_json(cls, data):
        return cls(int(data["rank"]),
                   tuple((int(w), rat(m), s) for w, m, s in data["inequalities"]))


def _canonical(ineqs):
    return tuple(sorted(ineqs, key=lambda t: (t[0], t[2], t[1])))


def real_alcove_of(x, walls) -> RealAlcove:
    """The unique alcove whose interior contains x.

    For each wall the offsets in Sigma_Gamma + Z directly below and above
    <alpha, x> bound the alcove; redundant bounds are pruned by exact LP
    feasibility.
    """
    x = vec(x)
    d = len(x)
    ineqs = []
    for w in walls:
        t = pairing(w.alpha, x)
        for rep in sorted(w.classes):
            lo = _floor_in_coset(t, rep)
            if lo is None:
                raise SingularPointError(w.id, t)
            ineqs.append((w.id, lo, GE))
            ineqs.append((w.id, lo + 1, LE))
    return _alcove_from_bounds(ineqs, d, walls)


def _alcove_from_bounds(ineqs, d, walls) -> RealAlcove:
    """The alcove cut out by candidate (wall_id, offset, sense) bounds, with
    the bounds implied by the others pruned by exact LP feasibility."""
    ineqs = _canonical(ineqs)
    kept = irredundant(RealAlcove(d, ineqs).constraints(walls), d)
    return RealAlcove(d, tuple(ineqs[i] for i in kept))


@dataclass(frozen=True)
class Face:
    """A face of a real alcove: constraints of the parent turned into
    equalities, with a rational point in its relative interior."""

    parent: RealAlcove
    active: tuple       # subset of parent.inequalities, canonical order
    codim: int
    witness: tuple
    vertex_set: tuple

    def hyperplanes(self):
        """(wall_id, offset) pairs of the active equalities."""
        return tuple((wid, m) for wid, m, _ in self.active)


def faces_of(A: RealAlcove, walls):
    """All faces of all codimensions, duplicates (same vertex set) merged.

    Requires a bounded alcove, i.e. the wall covectors span the space.
    """
    wm = _wall_map(walls)
    alphas = [wm[wid].alpha for wid, _, _ in A.inequalities]
    if matrix_rank(alphas) < A.rank:
        raise ValueError("unbounded alcove: wall covectors do not span")
    cons = A.constraints(walls)
    verts = vertices(cons, A.rank)
    if not verts:
        raise ValueError("empty alcove")
    n = len(A.inequalities)

    def tight_set(vset):
        out = []
        for i, (coeffs, rhs, _) in enumerate(cons):
            if all(pairing(coeffs, v) == rhs for v in vset):
                out.append(i)
        return tuple(out)

    seen = {}
    for r in range(n + 1):
        for subset in combinations(range(n), r):
            vset = tuple(v for v in verts
                         if all(pairing(cons[i][0], v) == cons[i][1]
                                for i in subset))
            if not vset:
                continue
            key = vset
            if key in seen:
                continue
            active_idx = tight_set(vset)
            base = vset[0]
            dim = matrix_rank([vsub(v, base) for v in vset[1:]]) if len(vset) > 1 else 0
            witness = tuple(sum(v[j] for v in vset) / len(vset)
                            for j in range(A.rank))
            seen[key] = Face(
                parent=A,
                active=_canonical([A.inequalities[i] for i in active_idx]),
                codim=A.rank - dim,
                witness=witness,
                vertex_set=vset,
            )
    return sorted(seen.values(), key=lambda f: (f.codim, f.active))


@dataclass(frozen=True)
class PAlcove:
    """The p-alcove of a real alcove: strict inequalities
    <orient * alpha, x> > rhs(p) with rhs affine in the symbolic prime."""

    source: RealAlcove
    inequalities: tuple  # ((wall_id, orient, rhs: AffineInP), ...)

    def contains(self, x, p, walls) -> bool:
        wm = _wall_map(walls)
        for wid, orient, rhs in self.inequalities:
            alpha = wm[wid].alpha
            if not orient * pairing(alpha, x) > rhs.eval_at(p):
                return False
        return True

    def to_json(self):
        return {"source": self.source.to_json(),
                "inequalities": [[wid, orient, rhs.to_json()]
                                 for wid, orient, rhs in self.inequalities]}


def oriented_facet(wall: Wall, m, sense):
    """Orient an alcove inequality into the alcove.

    Returns (orient, alpha_or, m_or, sigma_star): the inequality reads
    <alpha_or, .> >= m_or, and sigma_star is the largest element of the
    oriented sigma_tilde in the class of m_or (maximal representatives;
    negated walls carry the negated shift set).
    """
    part = wall.class_part(m)
    if not part:
        raise ValueError(f"inconsistent wall data: wall {wall.id} has no "
                         f"sigma_tilde element in the class of {rat_str(m)}")
    if sense == GE:
        return 1, wall.alpha, rat(m), part[-1]
    return -1, tuple(-a for a in wall.alpha), -rat(m), -part[0]


def p_alcove_of(A: RealAlcove, walls) -> PAlcove:
    """The unique p-alcove corresponding to A.

    Each codimension-1 inequality <alpha, .> >= m of A becomes
    <alpha, .> > p*m + m~ where m~ is the largest element of
    sigma_tilde in the class of m (for the inequality oriented into the
    alcove; upper bounds use the negated wall data).
    """
    wm = _wall_map(walls)
    out = []
    for wid, m, sense in A.inequalities:
        orient, _, m_or, sigma = oriented_facet(wm[wid], m, sense)
        out.append((wid, orient, AffineInP(const=sigma, slope=m_or)))
    return PAlcove(A, tuple(sorted(out, key=lambda t: (t[0], t[1]))))


def p_hyperplane_window(wall: Wall, t: Fraction, p: int):
    """For one wall: the p-hyperplane values directly below/above t.

    Values have the form (p+1)*sigma + p*k.  Returns ((lo, m_lo), (hi, m_hi))
    where m = sigma + k is the real offset the bounding hyperplane rescales
    to; raises OnPWallError if t hits a hyperplane exactly.
    """
    lo = hi = None
    lo_m = hi_m = None
    for sigma in sorted(wall.sigma_tilde):
        base = (p + 1) * sigma
        k = (t - base) / p
        k_floor = k.numerator // k.denominator
        v = base + p * k_floor
        if v == t:
            raise OnPWallError(wall.id, sigma, k_floor)
        v_hi = v + p
        if lo is None or v > lo:
            lo, lo_m = v, sigma + k_floor
        if hi is None or v_hi < hi:
            hi, hi_m = v_hi, sigma + k_floor + 1
    return (lo, lo_m), (hi, hi_m)


def p_membership(x, p: int, walls) -> PAlcove:
    """The p-alcove containing the lattice point x at the concrete prime p.

    Builds the real alcove whose bounding hyperplanes rescale to the
    p-hyperplanes around x, then returns its p-alcove (whose inequalities x
    is checked against).
    """
    x = vec(x)
    if not is_lattice(x):
        raise ValueError("p_membership expects a lattice point")
    d = len(x)
    ineqs = []
    for w in walls:
        t = pairing(w.alpha, x)
        (lo, lo_m), (hi, hi_m) = p_hyperplane_window(w, t, p)
        ineqs.append((w.id, lo_m, GE))
        ineqs.append((w.id, hi_m, LE))
    pa = p_alcove_of(_alcove_from_bounds(ineqs, d, walls), walls)
    if not pa.contains(x, p, walls):
        raise AssertionError("p-alcove construction does not contain x; "
                             "p is too small for the real/p-alcove bijection")
    return pa


@dataclass(frozen=True)
class Chamber:
    """A full-dimensional cone cut out by integral walls: homogeneous
    inequalities <alpha, .> >= 0 with alpha oriented into the cone."""

    rank: int
    covectors: tuple  # oriented covectors

    def constraints(self, strict=False):
        return [(a, Fraction(0), strict) for a in self.covectors]

    def contains(self, x, strict=False) -> bool:
        return all(pairing(a, x) > 0 or (not strict and pairing(a, x) == 0)
                   for a in self.covectors)

    def interior_direction(self):
        cons = [(a, Fraction(1), False) for a in self.covectors]
        pt = find_point(cons, self.rank)
        if pt is None:
            raise ValueError("chamber has empty interior")
        return pt

    def to_json(self):
        return {"rank": self.rank, "covectors": [list(a) for a in self.covectors]}


def integral_chambers(int_walls, rank) -> list:
    """All full-dimensional sign chambers of a finite central arrangement."""
    if not int_walls:
        return [Chamber(rank, ())]
    out = []
    for signs in product((1, -1), repeat=len(int_walls)):
        covs = tuple(tuple(s * a for a in w.alpha)
                     for s, w in zip(signs, int_walls))
        if feasible([(a, Fraction(1), False) for a in covs], rank):
            out.append(Chamber(rank, covs))
    return out


def integral_walls_and_positive_chamber(lam, walls):
    """Integral walls of a regular parameter and its positive chamber.

    The positive chamber is the unique integral chamber every lattice
    translate within which keeps all pairings outside sigma_tilde: on each
    integral wall the escape direction is forced by which side of the finite
    saturated set the pairing sits on.
    """
    lam = vec(lam)
    d = len(lam)
    int_walls, covs = [], []
    for w in walls:
        t = pairing(w.alpha, lam)
        if t in w.sigma_tilde:
            raise NonRegularError(
                f"non-regular parameter: <alpha_{w.id}, lambda> = {rat_str(t)} "
                f"lies in sigma_tilde")
        part = w.class_part(t)
        if not part:
            continue
        int_walls.append(w)
        # by saturation t is strictly above or strictly below the class part
        sign = 1 if t > part[-1] else -1
        covs.append(tuple(sign * a for a in w.alpha))
    chamber = Chamber(d, tuple(covs))
    if covs and not feasible([(a, Fraction(1), False) for a in covs], d):
        raise ValueError("no positive chamber: forced escape signs are infeasible")
    return int_walls, chamber


@dataclass(frozen=True)
class QuantumChamber:
    """Quantum chamber shifted from an integral chamber: inequalities
    <orient * alpha, .> >= m~ on lambda + lattice."""

    lam: tuple
    inequalities: tuple  # ((wall_id, orient_covector, m~), ...)

    def contains(self, x) -> bool:
        return all(pairing(a, x) >= m for _, a, m in self.inequalities)

    def to_json(self):
        return {"lambda": [rat_str(c) for c in self.lam],
                "inequalities": [[wid, list(a), rat_str(m)]
                                 for wid, a, m in self.inequalities]}


def quantum_chamber(lam, chamber: Chamber, walls) -> QuantumChamber:
    """The quantum chamber shifted from an integral chamber for lambda.

    For each integral wall, with alpha oriented nonnegative on the chamber,
    m~ is the smallest element of <alpha, lambda> + Z strictly above
    max(sigma_tilde in that class); the minimality assertion m~ - 1 in
    sigma_tilde holds by saturation.
    """
    lam = vec(lam)
    d = len(lam)
    interior = chamber.interior_direction() if chamber.covectors else None
    out = []
    for w in walls:
        t = pairing(w.alpha, lam)
        if t in w.sigma_tilde:
            raise NonRegularError(f"non-regular parameter on wall {w.id}")
        if not w.class_part(t):
            continue
        if interior is None:
            orient = 1
        else:
            v = pairing(w.alpha, interior)
            if v == 0:
                raise ValueError(f"chamber is not transverse to integral wall {w.id}")
            orient = 1 if v > 0 else -1
        alpha = tuple(orient * a for a in w.alpha)
        part = sorted(orient * s for s in w.sigma_tilde
                      if (t - s).denominator == 1)
        m_tilde = part[-1] + 1
        assert m_tilde - 1 in {orient * s for s in w.sigma_tilde}
        out.append((w.id, alpha, m_tilde))
    out.sort(key=lambda q: (q[0], q[1]))
    kept = irredundant([(a, m, False) for _, a, m in out], d)
    return QuantumChamber(lam, tuple(out[i] for i in kept))


def translation_path(lam1, lam2, P: PAlcove, p: int, generators, walls,
                     max_nodes=200_000):
    """A lattice path lam1 -> lam2 through the p-alcove by +-generator steps.

    Breadth-first search over the p-alcove's lattice points; every partial
    sum stays inside P.  Returns the list of steps (each a +-generator).
    """
    lam1, lam2 = vec(lam1), vec(lam2)
    if not (P.contains(lam1, p, walls) and P.contains(lam2, p, walls)):
        raise ValueError("endpoints must lie in the p-alcove at p")
    if lam1 == lam2:
        return []
    steps = []
    for g in generators:
        g = vec(g)
        steps.append(g)
        steps.append(tuple(-c for c in g))
    prev = {lam1: None}
    queue = deque([lam1])
    while queue:
        cur = queue.popleft()
        for s in steps:
            nxt = vadd(cur, s)
            if nxt in prev or not P.contains(nxt, p, walls):
                continue
            prev[nxt] = (cur, s)
            if nxt == lam2:
                path = []
                node = nxt
                while prev[node] is not None:
                    node, step = prev[node]
                    path.append(step)
                return path[::-1]
            queue.append(nxt)
            if len(prev) > max_nodes:
                raise RuntimeError("translation_path: search space exceeded")
    raise ValueError(
        "no path: lattice points of the p-alcove reached from lam1 "
        f"({len(prev)} of them) do not include lam2")
