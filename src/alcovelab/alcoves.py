"""Real alcoves, p-alcoves, faces, chambers and lattice paths.

The hyperplane arrangement <alpha_Gamma, .> = m (m running over the classes
of sigma_tilde mod Z) has infinitely many members; every operation here works
locally around a query point, which Z-periodicity of the arrangement makes
complete.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from functools import reduce
from math import lcm
from operator import add, attrgetter, mul

from .arith import (AffineInP, Value, Wall, is_lattice, pairing, rat, rat_str,
                    vec, vsub)
from .polyhedra import (VertexIncidence, facets_and_vertices, feasible,
                        integer_row, matrix_rank, solve_linear,
                        vertex_average)

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


class PTooSmallError(ValueError):
    """The p-alcove built around a lattice point misses it: p is too small
    for the real/p-alcove bijection."""

    def __init__(self, p, x):
        self.p, self.x = p, x
        super().__init__(
            f"p={p} is too small: the p-alcove built around the point "
            f"({', '.join(rat_str(c) for c in x)}) does not contain it")


class NonRegularError(ValueError):
    """Parameter pairs into sigma_tilde on some wall."""


def _wall_map(walls):
    return {w.id: w for w in walls}


class RealAlcove(Value):
    """Closure of a connected component of the hyperplane complement, as an
    irredundant list of (wall_id, offset, sense) constraints in the one
    order that _alcove_around makes, translate keeps and faces_of and
    p_alcove_of index: walls by id, the upper bound (<=) before the lower.

    Every alcove is built by the one double-description pass
    (_alcove_around, through real_alcove_of, opposite_alcove and
    p_membership) or moved from one by translate, and carries the pass's
    vertices and their tight inequalities (VertexIncidence), which
    vertices, interior_point and faces_of read.  The incidence is compared
    and hashed, but it is a function of rank and inequalities, so it
    changes no equality between built alcoves; JSON leaves it out."""

    rank: int
    inequalities: tuple  # ((wall_id, offset: Fraction, sense), ...)
    incidence: VertexIncidence

    def constraints(self, walls):
        """The inequalities as constraints_of gives them."""
        return constraints_of(self.inequalities, walls)

    def vertices(self):
        return self.incidence.points()

    def interior_point(self):
        """The average of the vertices, or None when there are none."""
        inc = self.incidence
        return vertex_average(inc.nums, inc.den) if inc.nums else None

    def translate(self, v, walls):
        """The alcove A + v for a lattice vector v (Z-periodicity): each
        offset m moved to m + <alpha, v>, rows in their order, and den * v
        added to its vertices' numerators; any other v is a ValueError."""
        if not is_lattice(v):
            raise ValueError("translate: (" + ", ".join(map(rat_str, v))
                             + ") is not a lattice vector")
        wm, inc = _wall_map(walls), self.incidence
        shift = [inc.den * int(c) for c in v]
        return RealAlcove(
            self.rank, tuple([(wid, m + pairing(wm[wid].alpha, v), sense)
                              for wid, m, sense in self.inequalities]),
            VertexIncidence(inc.den, tuple([tuple(map(add, u, shift))
                                            for u in inc.nums]), inc.masks))

    def to_json(self):
        return {"rank": self.rank,
                "inequalities": inequalities_to_json(self.inequalities)}


def constraints_of(ineqs, walls):
    """The inequalities (wall_id, offset, sense) as polyhedra constraints
    (covector, offset, strict=False) oriented to >=: an upper bound
    <alpha, .> <= m becomes <-alpha, .> >= -m."""
    wm = _wall_map(walls)
    out = []
    for wid, m, sense in ineqs:
        alpha = wm[wid].alpha
        if sense == GE:
            out.append((alpha, m, False))
        else:
            out.append((tuple(-a for a in alpha), -m, False))
    return out


def inequalities_to_json(ineqs):
    """The JSON form of (wall_id, offset, sense) inequalities: a list of
    [wall_id, "num/den", sense]."""
    return [[wid, rat_str(m), sense] for wid, m, sense in ineqs]


def real_alcove_of(x, walls) -> RealAlcove:
    """The unique alcove whose interior contains x.

    On each wall only the nearest hyperplane below and the nearest above
    <alpha, x> (offsets in Sigma_Gamma + Z) are candidate bounds; the facets
    among them and the vertices come from one double-description pass
    (polyhedra.facets_and_vertices), all in integers (_alcove_around).
    """
    return _alcove_around(x, walls)


def _bracket_nums(wall: Wall, t_num: int, t_den: int, p=None, slope=0):
    """Real offsets lo/d and hi/d of the wall's hyperplanes directly below
    and above the value t + eps*slope, for every small eps > 0, where t =
    t_num/t_den (reduced or not): (d, lo, hi, T) with t = T/d, where d is
    the lcm of t_den and the offsets' denominator.

    The offsets m run over sigma + Z for sigma in sigma_tilde.  The real
    family puts a hyperplane at the value m; at a prime p the p-family puts
    one at p*m + sigma.  A hyperplane at t bounds from below for slope > 0
    and from above for slope < 0; for slope 0 it raises SingularPointError
    (real family) or OnPWallError with the integer m - sigma (p-family).

    With S = sigma*d, the hyperplane of sigma nearest below t is m = sigma
    + k with k one floor division, and its value scale*m + shift is compared
    with T.  Scaling t_num and t_den by a common factor scales every term
    of that division and comparison alike, so k, the offsets and the sign
    of every slack do not depend on whether t_num/t_den is reduced.
    Offsets are tried in ascending order (Wall.offsets) and the first one
    wins a tie.  The SingularPointError's offset is the only Fraction made.
    """
    den, offsets = wall.offsets
    d = lcm(den, t_den)
    f = d // den
    big_t = t_num * (d // t_den)
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
                    raise SingularPointError(wall.id, Fraction(t_num, t_den))
                raise OnPWallError(wall.id, sigma, k)
            if slope < 0:
                m, v = m - d, v - step
        if lo_v is None or v > lo_v:
            lo, lo_v = m, v
        if hi_v is None or v + step < hi_v:
            hi, hi_v = m + d, v + step
    return d, lo, hi, big_t


def _numerators(v):
    """(nums, den): the rational vector v as integer numerators over one
    denominator, the lcm of its coordinates' denominators."""
    den = lcm(*(c.denominator for c in v))
    return tuple(c.numerator * (den // c.denominator) for c in v), den


def _alcove_around(x, walls, p=None, direction=None) -> RealAlcove:
    """The real alcove bounded, on each wall, by the offsets that
    _bracket_nums finds around <alpha, x> (moved by eps*direction when
    given): the bounds that polyhedra.facets_and_vertices keeps, carrying
    its VertexIncidence.
    A point whose length is not the walls' rank is a ValueError.

    Bounds with no interior between them arise only in the p-family, at a
    p too small for the real/p-alcove bijection, and then every bound is
    kept.  p_membership's containment check reads them all: a superset of
    the rows that an elimination would keep, they can only exclude more,
    and on every such build the tests scan the check ends in
    PTooSmallError.

    Everything before the kept bounds is integer.  x is brought to integer
    numerators X over one denominator D, so each wall's pairing is the
    integer <alpha, X> over D (_bracket_nums), and a direction to integer
    numerators too, whose pairings have the signs the slopes need.  Each
    wall, by id, gives the rows (-d*alpha, -hi) for its upper bound hi/d
    and (d*alpha, lo) for its lower bound lo/d, built once in RealAlcove's
    inequality order, which the pass keeps; only the kept bounds become
    Fractions.

    The pass takes the bounds nearest the query point (x/p in the
    p-family) first, so the facets go in before the bounds they make
    redundant: a bound's slack over its wall's d, brought to the lcm of
    every d, is compared in integers."""
    x = vec(x)
    rank = len(x)
    big_x, den_x = _numerators(x)
    if direction is not None:
        big_u, _ = _numerators(direction)
    scale = 1 if p is None else p
    rows, bounds, big_d = [], [], 1
    for w in sorted(walls, key=attrgetter("id")):  # RealAlcove's order
        alpha = w.alpha
        if len(alpha) != rank:
            raise ValueError(f"point has {rank} coordinates but the walls "
                             f"have rank {len(alpha)}")
        slope = 0 if direction is None else sum(map(mul, alpha, big_u))
        den, lo, hi, big_t = _bracket_nums(w, sum(map(mul, alpha, big_x)),
                                           den_x, p, slope)
        c = tuple([den * a for a in alpha])
        rows += [(tuple([-a for a in c]), -hi, False), (c, lo, False)]
        bounds += [(w.id, hi, den, LE, scale * hi - big_t),
                   (w.id, lo, den, GE, big_t - scale * lo)]
        big_d = lcm(big_d, den)
    keys = [slack * (big_d // den) for _, _, den, _, slack in bounds]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    kept, inc = facets_and_vertices(rows, rank, order)
    return RealAlcove(rank, tuple([
        (wid, Fraction(m, den), sense)
        for wid, m, den, sense, _ in map(bounds.__getitem__, kept)]), inc)


class Face(Value):
    """A face of a real alcove: constraints of the parent turned into
    equalities, with a rational point in its relative interior."""

    parent: RealAlcove
    active: tuple       # subset of parent.inequalities, in their order
    codim: int
    witness: tuple
    vertex_set: tuple


def faces_of(A: RealAlcove, walls):
    """All faces of all codimensions, duplicates (same vertex set) merged.

    The vertex-facet incidence is A's VertexIncidence: each vertex's mask
    holds the inequalities tight on it.  A subset of the inequalities, as a
    bitmask, picks the vertices whose masks contain it: those of the subset
    less its lowest bit that are tight on that bit's inequality, one AND,
    and the face is keyed by the bitmask of its vertices.  A vertex set is
    walked up to from itself less its highest vertex, memoized by bitmask,
    and carries its vertices' integer column sums, its active mask (the AND
    of their masks) and its vertex tuple: a vertex more costs one vector
    add and one AND.  The active inequalities, in A's order (see
    RealAlcove), are the rows tight on the whole face; they cut out its
    affine hull (Schrijver, "Theory of Linear and Integer Programming",
    1986, ch. 8), so its codim is the rank of their covectors.  The rows
    tight at a simple vertex, one on exactly d rows, are independent, so a
    face holding one has its active count as codim, with no elimination
    (every vertex of a simplex is simple; Ziegler, "Lectures on Polytopes",
    1995, ch. 3); any other face, such as every face of a cross-polytope,
    runs matrix_rank.  The witness is the vertex
    average, the sums over den times the vertex count; a vertex is its own.
    Requires an irredundant bounded alcove (the wall covectors span).
    """
    wm = _wall_map(walls)
    ineqs = A.inequalities
    alphas = [wm[wid].alpha for wid, _, _ in ineqs]
    inc = A.incidence
    if not inc.nums:  # a vertex needs rank many independent covectors
        raise ValueError("unbounded alcove: wall covectors do not span"
                         if matrix_rank(alphas) < A.rank else "empty alcove")
    verts, masks, n = inc.points(), inc.masks, len(ineqs)
    if reduce(int.__or__, masks) != (1 << n) - 1:  # a row on no vertex
        raise ValueError("redundant inequalities: not an alcove's facets")
    # the bitmask of the simple vertices
    simple = sum(1 << j for j, mask in enumerate(masks)
                 if mask.bit_count() == A.rank)
    # per inequality, the bitmask of the vertices it is tight on
    tight_on = [sum(1 << j for j, mask in enumerate(masks) if mask >> i & 1)
                for i in range(n)]
    # per vertex bitmask: (column sums, active mask, vertex tuple)
    walked = {0: ((0,) * A.rank, (1 << n) - 1, ())}
    on_sets = [(1 << len(verts)) - 1]  # the empty subset holds every vertex
    seen = {}
    for subset in range(1 << n):
        if subset:  # the vertices of the subset less its lowest bit, on it
            low = subset & -subset
            on_sets.append(on_sets[subset ^ low]
                           & tight_on[low.bit_length() - 1])
        on_set = on_sets[subset]
        if not on_set or on_set in seen:
            continue
        # down to a walked set by the highest vertices, then back up
        top, added = on_set, []
        while top not in walked:
            added.append(top.bit_length() - 1)
            top ^= 1 << added[-1]
        sums, active, vset = walked[top]
        for j in reversed(added):
            top |= 1 << j
            sums, active, vset = walked[top] = (
                tuple(map(add, sums, inc.nums[j])), active & masks[j],
                vset + (verts[j],))
        idx = [i for i in range(n) if active >> i & 1]
        codim = (len(idx) if on_set & simple
                 else matrix_rank([alphas[i] for i in idx]))
        size = inc.den * len(vset)
        witness = (vset[0] if len(vset) == 1
                   else tuple([Fraction(s, size) for s in sums]))
        seen[on_set] = Face(A, tuple([ineqs[i] for i in idx]), codim,
                            witness, vset)
    return sorted(seen.values(), key=lambda f: (f.codim, f.active))


def opposite_alcove(A: RealAlcove, face: Face, walls) -> RealAlcove:
    """The alcove opposite to A across a face of codimension >= 1: the one
    entered by an infinitesimal step from the face witness f away from A's
    interior point a, which pairs nonzero with every hyperplane through f."""
    if face.codim == 0:
        raise ValueError("codimension-0 face has no opposite alcove")
    f = face.witness
    return _alcove_around(f, walls, direction=vsub(f, A.interior_point()))


class PAlcove(Value):
    """The p-alcove of a real alcove: strict inequalities
    <orient * alpha, x> > rhs(p) with rhs affine in the symbolic prime; the
    one oriented form of an alcove's facets, which compat reads too.
    Inequality i is the source's inequality i (RealAlcove's order)."""

    source: RealAlcove
    inequalities: tuple  # ((wall_id, orient, rhs: AffineInP), ...)

    def facets(self, walls, face=None):
        """(wall_id, c = orient * alpha, rhs, on_face) per inequality, with
        on_face true when the face's active set holds its wall and side
        (a >= inequality is side +1, as in p_alcove_of)."""
        wm = _wall_map(walls)
        sides = {(wid, 1 if sense == GE else -1)
                 for wid, _, sense in (face.active if face else ())}
        return [(wid, tuple(orient * a for a in wm[wid].alpha), rhs,
                 (wid, orient) in sides)
                for wid, orient, rhs in self.inequalities]

    def rows(self, p, walls):
        """The inequalities <c, x> > r at the prime p, as pairs
        (c, r) = (orient * alpha, rhs(p))."""
        return [(c, rhs.eval_at(p)) for _, c, rhs, _ in self.facets(walls)]

    def contains(self, x, p, walls) -> bool:
        return all(sum(a * b for a, b in zip(c, x, strict=True)) > r
                   for c, r in self.rows(p, walls))

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
    alcove; upper bounds use the negated wall data), in A's order.
    """
    wm = _wall_map(walls)
    out = []
    for wid, m, sense in A.inequalities:
        orient, _, m_or, sigma = oriented_facet(wm[wid], m, sense)
        out.append((wid, orient, AffineInP(sigma, m_or)))
    return PAlcove(A, tuple(out))


def p_membership(x, p: int, walls) -> PAlcove:
    """The p-alcove containing the lattice point x at the concrete prime p.

    Builds the real alcove whose bounding hyperplanes rescale to the
    p-hyperplanes around x, then returns its p-alcove (whose inequalities x
    is checked against, on x's integer coordinates).
    """
    x = vec(x)
    if not is_lattice(x):
        raise ValueError("p_membership expects a lattice point")
    pa = p_alcove_of(_alcove_around(x, walls, p), walls)
    if not pa.contains(tuple(c.numerator for c in x), p, walls):
        raise PTooSmallError(p, x)
    return pa


class Chamber(Value):
    """A full-dimensional cone cut out by integral walls: homogeneous
    inequalities <alpha, .> >= 0 with alpha oriented into the cone."""

    rank: int
    covectors: tuple  # oriented covectors

    def to_json(self):
        return {"rank": self.rank, "covectors": [list(a) for a in self.covectors]}


def _integral_walls(lam, walls):
    """(wall, <alpha, lam>, class part) for every wall on which lam is
    integral, i.e. whose sigma_tilde meets the class of the pairing mod Z,
    in wall order; NonRegularError when a pairing lies in sigma_tilde."""
    for w in walls:
        t = pairing(w.alpha, lam)
        if t in w.sigma_tilde:
            raise NonRegularError(
                f"non-regular parameter: <alpha_{w.id}, lambda> = {rat_str(t)} "
                f"lies in sigma_tilde")
        part = w.class_part(t)
        if part:
            yield w, t, part


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
    for w, t, part in _integral_walls(lam, walls):
        int_walls.append(w)
        # by saturation t is strictly above or strictly below the class part
        sign = 1 if t > part[-1] else -1
        covs.append(tuple(sign * a for a in w.alpha))
    chamber = Chamber(d, tuple(covs))
    if covs and not feasible([(a, Fraction(1), False) for a in covs], d):
        raise ValueError("no positive chamber: forced escape signs are infeasible")
    return int_walls, chamber


class QuantumChamber(Value):
    """Quantum chamber shifted from an integral chamber: inequalities
    <orient * alpha, .> >= m~ on lambda + lattice."""

    lam: tuple
    inequalities: tuple  # ((wall_id, orient_covector, m~), ...)

    def to_json(self):
        return {"lambda": [rat_str(c) for c in self.lam],
                "inequalities": [[wid, list(a), rat_str(m)]
                                 for wid, a, m in self.inequalities]}


def quantum_chamber(lam, chamber: Chamber, walls) -> QuantumChamber:
    """The quantum chamber shifted from an integral chamber for lambda.

    On each integral wall the chamber's covectors give the side (alpha or
    -alpha, else ValueError) and m~ = sigma* + 1, sigma* the largest element
    of the oriented sigma_tilde in the class of <alpha, lambda>.  The
    inequalities kept are polyhedra.facets_and_vertices' facets of the
    shifted cone, which has an interior whenever the chamber has one.
    """
    lam = vec(lam)
    d = len(lam)
    out = []
    for w, t, _ in _integral_walls(lam, walls):
        if w.alpha in chamber.covectors:
            sense = GE
        elif tuple(-a for a in w.alpha) in chamber.covectors:
            sense = LE
        else:
            raise ValueError(f"chamber is not transverse to integral wall {w.id}")
        _, alpha, _, sigma_star = oriented_facet(w, t, sense)
        out.append((w.id, alpha, sigma_star + 1))
    out.sort(key=lambda q: (q[0], q[1]))
    kept, _ = facets_and_vertices(
        [integer_row((a, m, False)) for _, a, m in out], d)
    return QuantumChamber(lam, tuple(out[i] for i in kept))


MAX_PATH_NODES = 200_000  # lattice points translation_path may visit


def translation_path(lam1, lam2, P: PAlcove, p: int, generators, walls):
    """A shortest lattice path lam1 -> lam2 through the p-alcove by
    +-generator steps.

    Returns the list of steps, each a +-generator; every partial sum stays
    inside P.  The endpoints and the generators must be lattice vectors
    (else ValueError).  The moves are ordered as the generators, + before
    -, and of all shortest paths the one returned is the first when paths
    are compared move by move in that order (the tie rule): it is the path
    a breadth-first search that takes the moves in that order finds first.

    Two stages find it.  When the generators are linearly independent and
    lam2 - lam1 has integer coordinates in them, every step moves one
    coordinate by one, so a path that only steps toward lam2 is shortest,
    and all shortest paths are such paths when one exists.  The first
    stage is a depth-first search over those steps, taken in move order,
    remembering dead ends by their remaining coordinates, so its first path
    is the one the tie rule picks.  Otherwise, or when no such path stays
    inside P, the second stage is the breadth-first search itself.

    MAX_PATH_NODES caps the lattice points each stage visits, the start
    included: past it the first stage hands over to the second, and the
    second raises ValueError.  So a path is returned when the first stage
    finds it within the cap, even where the breadth-first search alone
    would pass the cap.

    Both stages run on integers: P's inequalities become oriented integer
    covectors c with thresholds floor(rhs(p)), since an integer <c, x>
    exceeds rhs(p) exactly when it exceeds its floor, and each node carries
    its pairings with the covectors, moved by the precomputed pairings of
    each step.
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
    path = _monotone_path(start, goal, moves, pairings(start), inside)
    if path is None:
        path = _bfs_path(start, goal, moves, pairings(start), inside)
    return [steps[i] for i in path]


def _monotone_path(start, goal, moves, values, inside):
    """translation_path's first stage: the move indices of the first path
    in move order that only steps toward the goal, or None when the
    generators (the + moves) give the goal no integer coordinates, no such
    path stays inside, or the search visits more than MAX_PATH_NODES
    lattice points.  A node is its tuple of remaining step counts, one per
    generator that moves toward the goal."""
    gens = [step for _, step, _ in moves[::2]]
    coords = (solve_linear(list(zip(*gens)), vsub(goal, start))
              if gens else None)
    if coords is None or any(a.denominator != 1 for a in coords):
        return None
    toward = [moves[2 * j + (a < 0)] for j, a in enumerate(coords) if a]
    node = tuple(abs(int(a)) for a in coords if a)
    stack = [(node, values, 0)]  # (node, pairings, next move to try)
    path, dead = [], set()
    while stack:
        node, values, k = stack[-1]
        for k in range(k, len(toward)):
            if node[k]:
                nxt = node[:k] + (node[k] - 1,) + node[k + 1:]
                if nxt not in dead:
                    nxt_values = tuple(map(add, values, toward[k][2]))
                    if inside(nxt_values):
                        break
        else:
            dead.add(node)
            stack.pop()
            if path:
                path.pop()
            continue
        stack[-1] = (node, values, k + 1)
        path.append(toward[k][0])
        if not any(nxt):
            return path
        stack.append((nxt, nxt_values, 0))
        if len(dead) + len(stack) > MAX_PATH_NODES:
            return None
    return None


def _bfs_path(start, goal, moves, values, inside):
    """translation_path's second stage: the move indices of the path a
    breadth-first search over the p-alcove's lattice points finds first,
    taking the moves (index, step, pairings of the step) in order."""
    prev = {start: None}
    queue = deque([(start, values)])
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
                    path.append(i)
                return path[::-1]
            queue.append((nxt, nxt_values))
            if len(prev) > MAX_PATH_NODES:
                raise ValueError("translation_path: search space exceeded "
                                 f"({MAX_PATH_NODES} lattice points)")
    raise ValueError(
        "no path: lattice points of the p-alcove reached from lam1 "
        f"({len(prev)} of them) do not include lam2")
