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
from math import lcm

from .arith import (AffineInP, Wall, is_lattice, pairing, rat, rat_str, vec,
                    vsub)
from .polyhedra import (feasible, interior_point, irredundant, matrix_rank,
                        vertices)

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
        return RealAlcove(self.rank,
                          translate_inequalities(self.inequalities, v, walls))

    def to_json(self):
        return {"rank": self.rank,
                "inequalities": [[wid, rat_str(m), sense]
                                 for wid, m, sense in self.inequalities]}


def _canonical(ineqs):
    return tuple(sorted(ineqs, key=lambda t: (t[0], t[2], t[1])))


def translate_inequalities(ineqs, v, walls):
    """The inequalities (wall_id, offset, sense) moved by a lattice vector
    v, each offset m to m + <alpha, v>, in canonical order."""
    wm = _wall_map(walls)
    return _canonical([(wid, m + pairing(wm[wid].alpha, v), sense)
                       for wid, m, sense in ineqs])


def real_alcove_of(x, walls) -> RealAlcove:
    """The unique alcove whose interior contains x.

    On each wall only the nearest hyperplane below and the nearest above
    <alpha, x> (offsets in Sigma_Gamma + Z) are candidate bounds; bounds
    implied by the others are then pruned by exact LP feasibility.
    """
    return _alcove_around(x, walls)


def _bracket(wall: Wall, t: Fraction, p=None, slope=0):
    """Real offsets (lo, hi) of the wall's hyperplanes directly below and
    above the value t + eps*slope, for every small eps > 0.

    The offsets m run over sigma + Z for sigma in sigma_tilde.  The real
    family puts a hyperplane at the value m; at a prime p the p-family puts
    one at p*m + sigma.  A hyperplane at t bounds from below for slope > 0
    and from above for slope < 0; for slope 0 it raises SingularPointError
    (real family) or OnPWallError with the integer m - sigma (p-family).

    The search runs on integer numerators over d, the lcm of t's and the
    offsets' denominators: with T = t*d and S = sigma*d, the hyperplane of
    sigma nearest below t is m = sigma + k with k one floor division, and
    its value scale*m + shift is compared with T, in integers.  Offsets are
    tried in ascending order (Wall.offsets), the first one wins a tie, and
    Fractions are made only for the two offsets returned.
    """
    den, offsets = wall.offsets
    d = lcm(den, t.denominator)
    f = d // den
    big_t = t.numerator * (d // t.denominator)
    scale = 1 if p is None else p
    step = scale * d  # gap between two hyperplanes of one offset, times d
    lo = hi = lo_v = hi_v = None
    for sigma, s in offsets:
        s *= f
        shift = 0 if p is None else s
        k = (big_t - shift - scale * s) // step
        m = s + k * d
        v = scale * m + shift
        if v == big_t:
            if slope == 0:
                if p is None:
                    raise SingularPointError(wall.id, t)
                raise OnPWallError(wall.id, sigma, k)
            if slope < 0:
                m, v = m - d, v - step
        if lo_v is None or v > lo_v:
            lo, lo_v = m, v
        if hi_v is None or v + step < hi_v:
            hi, hi_v = m + d, v + step
    return Fraction(lo, d), Fraction(hi, d)


def _alcove_around(x, walls, p=None, direction=None) -> RealAlcove:
    """The real alcove bounded, on each wall, by the offsets that _bracket
    finds around <alpha, x> (moved by eps*direction when given), with the
    bounds implied by the others pruned by exact LP feasibility."""
    x = vec(x)
    d = len(x)
    ineqs = []
    for w in walls:
        slope = 0 if direction is None else pairing(w.alpha, direction)
        lo, hi = _bracket(w, pairing(w.alpha, x), p, slope)
        ineqs += [(w.id, lo, GE), (w.id, hi, LE)]
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


def faces_of(A: RealAlcove, walls):
    """All faces of all codimensions, duplicates (same vertex set) merged.

    The vertex-facet incidence is computed once, in integers: with A's
    vertices as integer numerators N_v over one common denominator D, the
    inequality <alpha, .> >= m (or <=) is tight at v when
    <alpha, N_v> * den(m) = num(m) * D.  A subset of the inequalities picks
    the vertices whose tight sets contain it, and the face is keyed by the
    tuple of their indices.  Its active inequalities, the intersection of
    those tight sets, are the rows tight on the whole face, and they cut
    out its affine hull (Schrijver, "Theory of Linear and Integer
    Programming", 1986, ch. 8), so its codimension is the rank of their
    covectors.  That rank is read off without an elimination where it is
    known: a face of one vertex is a point (codim d) and one of two
    vertices an edge (codim d - 1), since the alcove is bounded, and no or
    one active inequality has rank 0 or 1; only the other faces run
    matrix_rank.  Its witness, the average of its vertices, is the integer
    column sums of their N_v over D times their number.
    Requires a bounded alcove, i.e. the wall covectors span the space.
    """
    wm = _wall_map(walls)
    alphas = [wm[wid].alpha for wid, _, _ in A.inequalities]
    if matrix_rank(alphas) < A.rank:
        raise ValueError("unbounded alcove: wall covectors do not span")
    verts = vertices(A.constraints(walls), A.rank)
    if not verts:
        raise ValueError("empty alcove")
    den = lcm(*(x.denominator for v in verts for x in v))
    nums = [tuple(x.numerator * (den // x.denominator) for x in v)
            for v in verts]
    offsets = [rat(m) for _, m, _ in A.inequalities]
    tight = [frozenset(i for i, (alpha, m) in enumerate(zip(alphas, offsets))
                       if sum(a * x for a, x in zip(alpha, nv)) * m.denominator
                       == m.numerator * den) for nv in nums]

    n = len(A.inequalities)
    seen = {}
    for r in range(n + 1):
        for subset in combinations(range(n), r):
            on = tuple(j for j, t in enumerate(tight) if t.issuperset(subset))
            if not on or on in seen:
                continue
            active_idx = frozenset.intersection(*(tight[j] for j in on))
            if len(on) == 1:  # a vertex
                codim = A.rank
            elif len(on) == 2:  # an edge
                codim = A.rank - 1
            elif len(active_idx) <= 1:
                codim = len(active_idx)
            else:
                codim = matrix_rank([alphas[i] for i in active_idx])
            size = den * len(on)
            seen[on] = Face(
                parent=A,
                active=_canonical([A.inequalities[i] for i in active_idx]),
                codim=codim,
                witness=tuple(Fraction(sum(nums[j][k] for j in on), size)
                              for k in range(A.rank)),
                vertex_set=tuple(verts[j] for j in on),
            )
    return sorted(seen.values(), key=lambda f: (f.codim, f.active))


def opposite_alcove(A: RealAlcove, face: Face, walls) -> RealAlcove:
    """The alcove opposite to A across a face of codimension >= 1: the one
    entered by an infinitesimal step from the face witness f away from A's
    interior point a, which pairs nonzero with every hyperplane through f."""
    if face.codim == 0:
        raise ValueError("codimension-0 face has no opposite alcove")
    f = face.witness
    return _alcove_around(f, walls, direction=vsub(f, A.interior_point(walls)))


@dataclass(frozen=True)
class PAlcove:
    """The p-alcove of a real alcove: strict inequalities
    <orient * alpha, x> > rhs(p) with rhs affine in the symbolic prime."""

    source: RealAlcove
    inequalities: tuple  # ((wall_id, orient, rhs: AffineInP), ...)

    def rows(self, p, walls):
        """The inequalities <c, x> > r at the prime p, as pairs
        (c, r) = (orient * alpha, rhs(p))."""
        wm = _wall_map(walls)
        return [(tuple(orient * a for a in wm[wid].alpha), rhs.eval_at(p))
                for wid, orient, rhs in self.inequalities]

    def contains(self, x, p, walls) -> bool:
        return all(pairing(c, x) > r for c, r in self.rows(p, walls))

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


def p_membership(x, p: int, walls) -> PAlcove:
    """The p-alcove containing the lattice point x at the concrete prime p.

    Builds the real alcove whose bounding hyperplanes rescale to the
    p-hyperplanes around x, then returns its p-alcove (whose inequalities x
    is checked against).
    """
    x = vec(x)
    if not is_lattice(x):
        raise ValueError("p_membership expects a lattice point")
    pa = p_alcove_of(_alcove_around(x, walls, p), walls)
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

    def contains(self, x, strict=False) -> bool:
        return all(pairing(a, x) > 0 or (not strict and pairing(a, x) == 0)
                   for a in self.covectors)

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

    On each integral wall the chamber's covectors give the side (alpha or
    -alpha, else ValueError) and m~ = sigma* + 1, sigma* the largest element
    of the oriented sigma_tilde in the class of <alpha, lambda>; the
    minimality assertion m~ - 1 in sigma_tilde holds by construction.
    """
    lam = vec(lam)
    d = len(lam)
    out = []
    for w in walls:
        t = pairing(w.alpha, lam)
        if t in w.sigma_tilde:
            raise NonRegularError(f"non-regular parameter on wall {w.id}")
        if not w.class_part(t):
            continue
        if w.alpha in chamber.covectors:
            sense = GE
        elif tuple(-a for a in w.alpha) in chamber.covectors:
            sense = LE
        else:
            raise ValueError(f"chamber is not transverse to integral wall {w.id}")
        orient, alpha, _, sigma_star = oriented_facet(w, t, sense)
        m_tilde = sigma_star + 1
        assert m_tilde - 1 in {orient * s for s in w.sigma_tilde}
        out.append((w.id, alpha, m_tilde))
    out.sort(key=lambda q: (q[0], q[1]))
    kept = irredundant([(a, m, False) for _, a, m in out], d)
    return QuantumChamber(lam, tuple(out[i] for i in kept))


MAX_PATH_NODES = 200_000  # lattice points translation_path may visit


def translation_path(lam1, lam2, P: PAlcove, p: int, generators, walls):
    """A lattice path lam1 -> lam2 through the p-alcove by +-generator steps.

    Breadth-first search over the p-alcove's lattice points; every partial
    sum stays inside P.  Returns the list of steps (each a +-generator,
    in the order of `generators`, + before -).  The endpoints and the
    generators must be lattice vectors (else ValueError).  The search runs
    on integers: P's inequalities become oriented integer covectors c with
    thresholds floor(rhs(p)), since an integer <c, x> exceeds rhs(p)
    exactly when it exceeds its floor, and each node carries its pairings
    with the covectors, moved by the precomputed pairings of each step.
    """
    lam1, lam2 = vec(lam1), vec(lam2)
    gens = [vec(g) for g in generators]
    if not all(is_lattice(v) for v in (lam1, lam2, *gens)):
        raise ValueError("translation_path: endpoints and generators must "
                         "be lattice vectors")
    rows = P.rows(p, walls)
    covectors = [c for c, _ in rows]
    floors = [r.__floor__() for _, r in rows]

    def lattice(v):
        return tuple(int(c) for c in v)

    def pairings(v):
        return tuple(sum(a * b for a, b in zip(c, v)) for c in covectors)

    def inside(values):
        return all(v > t for v, t in zip(values, floors))

    start, goal = lattice(lam1), lattice(lam2)
    if not (inside(pairings(start)) and inside(pairings(goal))):
        raise ValueError("endpoints must lie in the p-alcove at p")
    if start == goal:
        return []
    steps = [s for g in gens for s in (g, tuple(-c for c in g))]
    moves = [(i, v, pairings(v)) for i, v in enumerate(map(lattice, steps))]
    prev = {start: None}
    queue = deque([(start, pairings(start))])
    while queue:
        cur, values = queue.popleft()
        for i, step, delta in moves:
            nxt = tuple(a + b for a, b in zip(cur, step))
            if nxt in prev:
                continue
            nxt_values = tuple(a + b for a, b in zip(values, delta))
            if not inside(nxt_values):
                continue
            prev[nxt] = (cur, i)
            if nxt == goal:
                path = []
                node = nxt
                while prev[node] is not None:
                    node, i = prev[node]
                    path.append(steps[i])
                return path[::-1]
            queue.append((nxt, nxt_values))
            if len(prev) > MAX_PATH_NODES:
                raise ValueError("translation_path: search space exceeded "
                                 f"({MAX_PATH_NODES} lattice points)")
    raise ValueError(
        "no path: lattice points of the p-alcove reached from lam1 "
        f"({len(prev)} of them) do not include lam2")
