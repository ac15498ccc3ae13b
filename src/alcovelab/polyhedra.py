"""Exact rational polyhedra in low dimension.

A linear constraint is a triple (coeffs, rhs, strict) meaning
coeffs . x >= rhs, with strict=True for >.  The coefficients are ints (an
integer covector) and the right-hand side an int or a `Fraction`.  Every
kernel here works on integer rows and makes `Fraction`s only at its API
boundary: `integer_row` is the one scaling rule, which multiplies a row by
the denominator of its right-hand side to the integer row (c, b, strict)
meaning c . x >= b (or >), with the same solutions, and rejects a
coefficient that is not an int.  The double-description pass,
`facets_and_vertices`, takes integer rows as its contract and checks none
of them: the alcove build hands in the integer rows it makes from integer
pairings (`alcoves._alcove_around`), and `alcoves.quantum_chamber` scales
its rows by `integer_row`.  Every other public kernel scales its rows at
the boundary.

One Fourier-Motzkin elimination loop serves `feasible` (its verdict),
`find_point` and `first_lattice_point`.  It eliminates x_k by integer
cross-multiplication.  After each elimination level the derived rows keep
only the tightest row per direction (Imbert, "Fourier's elimination: which
to choose?", 1993), keyed on their primitive integer coefficients c/gcd(c):
a dropped row is a parallel, looser copy of a kept one, so every level
describes the same region, while parallel copies no longer multiply from
level to level.  Every row of every level, the input rows included, is
reduced: divided by gcd(c, b), which keeps the integers small.  Level k is
the system over x_0..x_k, kept as those integer rows: once x_0..x_{k-1}
satisfy level k-1, it bounds x_k to a nonempty slab.  `_slab` reads each
bound off a row as the `Fraction` (b - sum_j c_j x_j) / c_k, the only
`Fraction` the elimination makes, so `feasible` makes none.  `find_point`
takes the midpoint of each slab; `first_lattice_point` steps x_k upward
through the integers of its slab, depth first, and backtracks when a slab
holds none, which gives the lexicographically first integer point.  The
redundancy checks are feasibility questions: `is_redundant` asks `feasible`
of the other rows and the negated row under test, and `irredundant` asks it
of each row in turn against the rows kept so far.  No library path runs
them: they are the reference the tests check the facet rule below against.

One fraction-free Gauss-Jordan elimination (Bareiss, "Sylvester's identity
and multistep integer-preserving Gaussian elimination", 1968) serves
`solve_linear` and `matrix_rank`: every division in it is exact, so a
solution comes out as integer numerators over one common denominator.

One double-description pass (Motzkin, Raiffa, Thompson and Thrall, "The
double description method", 1953; Fukuda and Prodon, "Double description
method revisited", 1996) serves `vertices`, `interior_point` and
`facets_and_vertices`, the alcove build: it adds t >= 0 and then the rows,
one at a time, to the cone {(x, t) : c.x >= b*t}, keeping its extreme rays
as primitive integer vectors with the bitmask of the rows tight on each; two
rays are adjacent when no third ray is tight on every row tight on both.
The order in which the rows go in steers only the work, not the answer: it
sets how many rays the pass holds on the way (Fukuda and Prodon), while bit
i stays row i and the final rays and their tight rows are the same in every
order.  The alcove build hands in its nearest bounds first, so the facets
go in first and each redundant bound after them costs one scan of the rays.
The rays with t > 0 are the vertices, read off as one `VertexIncidence`.
The same rays, taken modulo the lineality space, give the facets of every
system with an interior, bounded or not, which is every alcove and every
quantum chamber: a row is a facet when its set of tight rays holds a ray
with t > 0 and lies in no other row's set; of two rows with the same set
the later is kept, as `irredundant` keeps it.  A system with no interior
(empty or lower-dimensional) keeps every row, so the pass is the alcove
build's one engine and no elimination runs in it.

One vertex average, `vertex_average`, serves every interior point and the
face witnesses of `alcoves.faces_of`: it sums each coordinate of the
vertices' numerators over their common denominator and divides once.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .arith import Value, set_field


def integer_row(con):
    """The constraint (c, rhs, strict), c an integer covector and rhs an
    int or a `Fraction`, as the integer row (c, b, strict) meaning
    c . x >= b (or >): the row times the denominator of rhs.  A
    coefficient that is not an int is a TypeError."""
    coeffs, rhs, strict = con
    if not all(type(c) is int for c in coeffs):
        raise TypeError("a constraint's coefficients must be ints, not "
                        f"{coeffs!r}")
    if type(rhs) is int:
        return tuple(coeffs), rhs, bool(strict)
    den = rhs.denominator
    return tuple(c * den for c in coeffs), rhs.numerator, bool(strict)


def _tightest_per_direction(rows):
    """One integer row per direction: of the rows whose coefficients c have
    the same primitive part c/gcd(c), the one with the highest b/gcd(c) is
    kept (the strict one on a tie), at the position of the first of them,
    divided by gcd(c, b)."""
    best = {}
    for row in rows:
        c, b, strict = row
        g = gcd(*c) or 1
        key = tuple(a // g for a in c) if g != 1 else c
        kept = best.get(key)
        if kept is not None:
            kept_b, kept_g = kept[0][1], kept[1]
            # compare b/g with kept_b/kept_g across the positive denominators
            if b * kept_g < kept_b * g or (b * kept_g == kept_b * g
                                           and not strict):
                continue
        best[key] = (row, g)
    return [_reduced(row) for row, _ in best.values()]


def _reduced(row):
    """The integer row (c, b, strict) divided by gcd(c, b)."""
    c, b, strict = row
    g = gcd(*c, b)
    return (tuple(a // g for a in c), b // g, strict) if g > 1 else row


def _eliminate(constraints, dim):
    """Fourier-Motzkin elimination of x_{dim-1}, ..., x_0 in turn, on the
    constraints made reduced integer rows.

    Returns (levels, ok): levels[k] is the system over x_0..x_k (before x_k
    is eliminated) as reduced integer rows, and ok tells whether the
    variable-free rows left at the end all hold, i.e. whether the system is
    feasible.
    """
    rows = [_reduced(integer_row(c)) for c in constraints]
    levels = []
    for k in range(dim - 1, -1, -1):
        levels.append(rows)
        lower, upper, new = [], [], []
        for c, b, strict in rows:
            a = c[k]
            if a > 0:
                # x_k >= (b - rest)/a
                lower.append((c, b, strict, a))
            elif a < 0:
                upper.append((c, b, strict, -a))
            else:
                new.append((c[:k], b, strict))
        for lc, lb, ls, la in lower:
            for uc, ub, us, ua in upper:
                # la > 0 bounds x_k below, ua = |a| > 0 above; the sum of
                # ua times the lower row and la times the upper row is free
                # of x_k
                new.append((tuple(lc[j] * ua + uc[j] * la for j in range(k)),
                            lb * ua + ub * la, ls or us))
        rows = _tightest_per_direction(new)
    # all variables eliminated: each row reads 0 >= b (or >)
    ok = not any(b > 0 or (strict and b == 0) for _, b, strict in rows)
    return levels[::-1], ok


def feasible(constraints, dim) -> bool:
    """Whether {x in R^dim : coeffs.x >= rhs (or >)} is nonempty."""
    return _eliminate(constraints, dim)[1]


def _slab(level_cons, k, prefix):
    """Bounds (lo, lo_strict, hi, hi_strict) on x_k from the rows (c, b,
    strict) of one elimination level, with x_0..x_{k-1} fixed to prefix;
    lo or hi is None where no row bounds that side.  The rows are integer,
    as every level holds them, and a row bounds x_k by the Fraction
    (b - sum_j c_j prefix_j) / c_k."""
    lo = hi = None
    lo_strict = hi_strict = False
    for c, b, strict in level_cons:
        a = c[k]
        if a == 0:
            continue
        bound = Fraction(b - sum(c[j] * prefix[j] for j in range(k)), a)
        if a > 0:
            if lo is None or bound > lo or (bound == lo and strict):
                lo, lo_strict = bound, strict
        else:
            if hi is None or bound < hi or (bound == hi and strict):
                hi, hi_strict = bound, strict
    return lo, lo_strict, hi, hi_strict


def find_point(constraints, dim):
    """An exact rational point satisfying the constraints, or None.

    Back-substitution over the elimination levels, choosing midpoints of the
    surviving slabs.
    """
    levels, ok = _eliminate(constraints, dim)
    if not ok:
        return None
    point = []
    for k, level_cons in enumerate(levels):
        lo, lo_strict, hi, hi_strict = _slab(level_cons, k, point)
        if lo is None and hi is None:
            x = Fraction(0)
        elif lo is None:
            x = hi - 1 if hi_strict else hi
        elif hi is None:
            x = lo + 1 if lo_strict else lo
        else:
            x = (lo + hi) / 2
        point.append(x)
    return tuple(point)


def first_lattice_point(constraints, dim):
    """The lexicographically first integer point of a bounded polyhedron,
    or None if it holds none."""
    levels, ok = _eliminate(constraints, dim)

    def search(prefix):
        k = len(prefix)
        if k == dim:
            return tuple(prefix)
        lo, lo_strict, hi, hi_strict = _slab(levels[k], k, prefix)
        if lo is None or hi is None:
            raise ValueError("first_lattice_point: unbounded polyhedron")
        for x in range(lo.__floor__() + 1 if lo_strict else lo.__ceil__(),
                       hi.__ceil__() if hi_strict else hi.__floor__() + 1):
            found = search(prefix + [x])
            if found is not None:
                return found
        return None

    return search([]) if ok else None



def _bareiss(m, n_cols):
    """Fraction-free Gauss-Jordan elimination of the integer rows of m, in
    place, on their first n_cols columns (later columns ride along).

    Returns the pivot columns.  Each step cross-multiplies every other row
    with the pivot row and divides by the previous pivot, which is exact
    (every entry stays a minor of the input, by Sylvester's identity).
    Afterwards row i < len(pivots) is zero on the pivot columns except at
    pivots[i], where each of them holds the last pivot, and the rows below
    are zero on the first n_cols columns.
    """
    pivots = []
    prev = 1
    for col in range(n_cols):
        r = len(pivots)
        if r == len(m):
            break
        piv = next((i for i in range(r, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pivot_row = m[r]
        d = pivot_row[col]
        for i, row in enumerate(m):
            if i != r:
                f = row[col]
                m[i] = [(d * x - f * y) // prev
                        for x, y in zip(row, pivot_row)]
        prev = d
        pivots.append(col)
    return pivots


def solve_linear(rows, rhs):
    """Solve a square (or overdetermined, consistent) exact linear system.

    Returns the unique solution tuple, or None if singular/inconsistent.
    """
    m = [[*c, b] for c, b, _ in (integer_row((row, b, False))
                                 for row, b in zip(rows, rhs, strict=True))]
    n = len(rows[0])
    if len(_bareiss(m, n)) < n or any(row[-1] for row in m[n:]):
        return None
    # each solved row holds the last pivot on the diagonal
    return tuple(Fraction(row[-1], m[0][0]) for row in m[:n])


def matrix_rank(rows) -> int:
    m = [list(integer_row((row, 0, False))[0]) for row in rows]
    return len(_bareiss(m, len(m[0]))) if m else 0


def vertices(constraints, dim):
    """All vertices of {x : coeffs.x >= rhs}, every row read as non-strict,
    sorted: the rays with t > 0 of the double-description pass, none for a
    polyhedron with a lineality space."""
    rows = [integer_row(c) for c in constraints]
    return _incidence(*_extreme_rays(rows, dim), dim).points()


class VertexIncidence(Value):
    """The vertices of a polyhedron as integer numerators over one common
    denominator den, the lcm of the vertex rays' t, sorted, each with the
    bitmask of the kept rows tight on it (bit j for the j-th kept row)."""

    den: int
    nums: tuple   # one tuple of integer numerators per vertex
    masks: tuple  # one bitmask per vertex

    def __init__(self, den, nums, masks):
        set_field(self, "den", den)
        set_field(self, "nums", nums)
        set_field(self, "masks", masks)

    def points(self):
        """The vertices as Fraction tuples."""
        return [tuple(Fraction(x, self.den) for x in v) for v in self.nums]


def _incidence(lineality, rays, dim, kept=()):
    """The VertexIncidence of _extreme_rays' rays, masks over the kept rows."""
    verts = [] if lineality else [(r, mask) for r, mask in rays if r[dim]]
    den = lcm(*(r[dim] for r, _ in verts))
    pairs = sorted((tuple(x * (den // r[dim]) for x in r[:dim]),
                    sum(1 << j for j, i in enumerate(kept) if mask >> i & 1))
                   for r, mask in verts)
    return VertexIncidence(den, tuple(v for v, _ in pairs),
                           tuple(m for _, m in pairs))


def _combine(a, u, b, v):
    """a*u + b*v for integer vectors u, v, divided by its gcd."""
    w = [a * x + b * y for x, y in zip(u, v)]
    g = gcd(*w)
    return tuple([x // g for x in w] if g > 1 else w)


def facets_and_vertices(rows, dim, order=None):
    """(kept indices, VertexIncidence) of {x : c.x >= b} for integer rows
    (c, b, strict), every row read as non-strict: its facets, where it has
    an interior, and the vertices with their tight kept rows, from one
    pass.  The rows are taken as they are: a caller scales its rows by
    integer_row first.

    The pass builds the extreme rays, modulo the lineality space, of the
    cone {(x, t) : c.x >= b*t, t >= 0} over the integer rows (c, b), adding
    t >= 0 and then the rows in `order` (row indices, by default
    ascending), each ray with the bitmask of the rows tight on it.  The
    order steers only the work: the answer is the same in every order.

    The system has an interior when some ray has t > 0 (it is nonempty)
    and no row is tight on every ray (none is an implicit equality), be it
    bounded, unbounded or with a lineality space.  Then its facets are read
    off the rays (Fukuda and Prodon): a row whose tight rays all have
    t = 0 bounds only at infinity, and of the others a row is kept when
    its set of tight rays lies in no other row's set, the later index
    winning a tie: the indices irredundant keeps.  A system with no
    interior, empty or lower-dimensional, keeps every row: a superset of
    irredundant's rows with the same solutions, found without an
    elimination.  The rays with t > 0 are the vertices, none where there
    is a lineality space, and their masks come from the rays in both
    cases.
    """
    lineality, rays = _extreme_rays(rows, dim, order)
    # per row, the bitmask of the rays tight on it, from each ray's set bits
    n = len(rows)
    tight = [0] * n
    for j, (_, mask) in enumerate(rays):
        mask &= (1 << n) - 1  # bit n is t >= 0
        while mask:
            low = mask & -mask
            tight[low.bit_length() - 1] |= 1 << j
            mask ^= low
    finite = sum(1 << j for j, (r, _) in enumerate(rays) if r[dim])
    if not finite or (1 << len(rays)) - 1 in tight:
        kept = list(range(n))
    else:
        last = {t: i for i, t in enumerate(tight) if t & finite}
        facets = []
        for t in sorted(last, key=int.bit_count, reverse=True):
            if not any(t & f == t for f in facets):
                facets.append(t)
        kept = sorted(last[t] for t in facets)
    return kept, _incidence(lineality, rays, dim, kept)


def _extreme_rays(rows, dim, order=None):
    """The cone {(x, t) : c.x >= b*t, t >= 0} of integer rows (c, b,
    strict), strict read as non-strict, by double description
    (Motzkin, Raiffa, Thompson and Thrall, 1953; Fukuda and Prodon, "Double
    description method revisited", 1996), the rows added in `order` (row
    indices, by default ascending).

    Returns (lineality, rays): a basis of its lineality space and its
    extreme rays modulo that space, each ray as (primitive integer vector,
    bitmask of the rows tight on it: bit i for row i, bit len(rows) for
    t >= 0).  The cone starts as the half-space t >= 0: the ray e_t, with
    the unit vectors of x as lineality.  A row nonzero on a lineality
    vector l (oriented to be positive on it) moves every other lineality
    vector and every ray into its hyperplane along l, and l becomes a ray:
    this is an incremental echelon.  A row zero on the lineality space
    keeps the rays on its side and adds the positive combination in its
    hyperplane of each adjacent pair on opposite sides; two rays are
    adjacent when no third ray is tight on every row tight on both (the
    combinatorial test).  A pointed cone's extreme rays, as primitive
    vectors, and the rows tight on each do not depend on the order, which
    only sets how many rays the pass holds on the way.
    """
    unit = [tuple(int(i == j) for j in range(dim + 1)) for i in range(dim + 1)]
    lineality, rays = unit[:dim], [(unit[dim], 0)]
    done = 1 << len(rows)  # the rows added so far: t >= 0
    for i in range(len(rows)) if order is None else order:
        c, b, _ = rows[i]
        h, bit = (*c, -b), 1 << i
        for k, l in enumerate(lineality):
            s = sum(map(mul, h, l))
            if s:
                if s < 0:
                    l, s = tuple(-x for x in l), -s
                del lineality[k]
                lineality = [_along(h, s, l, u) for u in lineality]
                rays = [(_along(h, s, l, r), mask | bit) for r, mask in rays]
                rays.append((l, done))
                break
        else:
            pos, neg, kept = [], [], []
            for r, mask in rays:
                s = sum(map(mul, h, r))
                if s > 0:
                    pos.append((r, mask, s))
                    kept.append((r, mask))
                elif s < 0:
                    neg.append((r, mask, s))
                else:
                    kept.append((r, mask | bit))
            # the rows tight on a 2-face have rank dim - 1 - len(lineality)
            need = dim - 1 - len(lineality)
            masks = [mask for _, mask in rays]
            for r, rmask, rs in pos:
                for q, qmask, qs in neg:
                    common = rmask & qmask
                    if common.bit_count() < need or sum(
                            common & m == common for m in masks) > 2:
                        continue
                    kept.append((_combine(rs, q, -qs, r), common | bit))
            rays = kept
        done |= bit
    return lineality, rays


def _along(h, s, l, u):
    """The integer vector u moved along l into the hyperplane h.u = 0,
    where h.l = s > 0, divided by its gcd; u itself when h.u = 0."""
    a = sum(map(mul, h, u))
    return _combine(s, u, -a, l) if a else u


def vertex_average(nums, den):
    """The average of points given as integer numerators over the common
    denominator den: each coordinate is summed over the points, then
    divided once, by den times their number."""
    size = den * len(nums)
    return tuple(Fraction(sum(col), size) for col in zip(*nums))


def interior_point(constraints, dim):
    """A rational point strictly inside a full-dimensional polytope, as the
    average of its vertices' numerators."""
    rows = [integer_row(c) for c in constraints]
    inc = _incidence(*_extreme_rays(rows, dim), dim)
    return vertex_average(inc.nums, inc.den) if inc.nums else None


def is_redundant(constraints, idx, dim) -> bool:
    """Whether dropping constraint idx leaves the region unchanged: the rest
    together with the negation of idx must be infeasible."""
    c, b, strict = integer_row(constraints[idx])
    # c.x < b, or c.x <= b when idx itself is strict
    negated = (tuple(-a for a in c), -b, not strict)
    return not feasible([*constraints[:idx], *constraints[idx + 1:], negated],
                        dim)


def irredundant(constraints, dim):
    """Indices, ascending, of the constraints kept after pruning those
    implied by the others, tried in order: each check is is_redundant on
    the rows kept so far."""
    keep = list(range(len(constraints)))
    i = 0
    while i < len(keep):
        if is_redundant([constraints[j] for j in keep], i, dim):
            keep.pop(i)
        else:
            i += 1
    return keep
