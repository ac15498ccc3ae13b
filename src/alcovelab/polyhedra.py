"""Exact rational polyhedra in low dimension.

A linear constraint is a triple (coeffs, rhs, strict) meaning
coeffs . x >= rhs, with strict=True for >.  Every kernel here works on
integer rows and makes `Fraction`s only at its API boundary: each input row
is scaled once, by the positive lcm of all its denominators (right-hand
side included), to an integer row (c, b, strict) meaning c . x >= b (or >),
which has the same solutions.  A row of int coefficients with a `Fraction`
right-hand side, the form every alcove row takes, is scaled without making
a `Fraction`.

One Fourier-Motzkin elimination loop serves `feasible` (its verdict),
`find_point`, `first_lattice_point` and the redundancy checks.  It
eliminates x_k by integer cross-multiplication.  After each elimination
level the derived rows keep only the tightest row per direction (Imbert,
"Fourier's elimination: which to choose?", 1993), keyed on their primitive
integer coefficients c/gcd(c): a dropped row is a parallel, looser copy of
a kept one, so every level describes the same region, while parallel
copies no longer multiply from level to level.  Every row of every level,
the input rows included, is reduced: divided by gcd(c, b), which keeps the
integers small.  Level k is
the system over x_0..x_k, kept as those integer rows: once x_0..x_{k-1}
satisfy level k-1, it bounds x_k to a nonempty slab.  `_slab` reads each
bound off a row as the `Fraction` (b - sum_j c_j x_j) / c_k, the only
`Fraction` the elimination makes, so `feasible` makes none.  `find_point`
takes the midpoint of each slab; `first_lattice_point` steps x_k upward
through the integers of its slab, depth first, and backtracks when a slab
holds none, which gives the lexicographically first integer point.
`irredundant` makes its rows reduced integer rows once, and each of its
checks runs one verdict on them: the loop on the other rows and the
negated row under test, with no row converted again.  `is_redundant`
converts its rows once and runs the same verdict.

One fraction-free Gauss-Jordan elimination (Bareiss, "Sylvester's identity
and multistep integer-preserving Gaussian elimination", 1968) serves
`solve_linear`, `matrix_rank` and `vertices`: every division in it is
exact, so a solution comes out as integer numerators over one common
denominator.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from .arith import rat


def _normalize(con):
    coeffs, rhs, strict = con
    return tuple(rat(c) for c in coeffs), rat(rhs), bool(strict)


def _integer_row(con):
    """The constraint as an integer row (c, b, strict) meaning c . x >= b
    (or >): the row times the lcm of all its denominators.  A row whose
    entries are already ints is returned as it is, and one of int
    coefficients over a `Fraction` right-hand side is scaled by that
    denominator alone."""
    coeffs, rhs, strict = con
    if all(type(c) is int for c in coeffs):
        if type(rhs) is int:
            return tuple(coeffs), rhs, bool(strict)
        if type(rhs) is Fraction:
            den = rhs.denominator
            return (tuple(c * den for c in coeffs), rhs.numerator,
                    bool(strict))
    coeffs, rhs, strict = _normalize(con)
    den = lcm(rhs.denominator, *(c.denominator for c in coeffs))
    return (tuple(c.numerator * (den // c.denominator) for c in coeffs),
            rhs.numerator * (den // rhs.denominator), strict)


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


def _reduced_rows(constraints):
    """The constraints as reduced integer rows."""
    return [_reduced(_integer_row(c)) for c in constraints]


def _eliminate(constraints, dim):
    """Fourier-Motzkin elimination of x_{dim-1}, ..., x_0 in turn: the
    constraints made reduced integer rows, then _eliminate_rows."""
    return _eliminate_rows(_reduced_rows(constraints), dim)


def _eliminate_rows(rows, dim):
    """Fourier-Motzkin elimination of x_{dim-1}, ..., x_0 in turn, on
    reduced integer rows, which it takes as they are.

    Returns (levels, ok): levels[k] is the system over x_0..x_k (before x_k
    is eliminated) as reduced integer rows, and ok tells whether the
    variable-free rows left at the end all hold, i.e. whether the system is
    feasible.
    """
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
    lo or hi is None where no row bounds that side.  A row bounds x_k by
    the Fraction (b - sum_j c_j prefix_j) / c_k, whether its entries are
    ints or Fractions."""
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


def _solve(m, n_cols):
    """The unique solution of the integer augmented rows m (each row n_cols
    coefficients and a right-hand side; m is overwritten) as integer
    numerators over one positive denominator, (nums, den), or None if the
    system is singular or inconsistent."""
    pivots = _bareiss(m, n_cols)
    if len(pivots) < n_cols or any(row[-1] for row in m[n_cols:]):
        return None
    den = m[0][0]
    if den < 0:
        return tuple(-row[-1] for row in m[:n_cols]), -den
    return tuple(row[-1] for row in m[:n_cols]), den


def solve_linear(rows, rhs):
    """Solve a square (or overdetermined, consistent) exact linear system.

    Returns the unique solution tuple, or None if singular/inconsistent.
    """
    m = [[*c, b] for c, b, _ in (_integer_row((row, b, False))
                                 for row, b in zip(rows, rhs, strict=True))]
    sol = _solve(m, len(rows[0]))
    if sol is None:
        return None
    nums, den = sol
    return tuple(Fraction(x, den) for x in nums)


def matrix_rank(rows) -> int:
    m = [list(_integer_row((row, 0, False))[0]) for row in rows]
    return len(_bareiss(m, len(m[0]))) if m else 0


def vertices(constraints, dim):
    """All vertices of {x : coeffs.x >= rhs}, from d-subsets of the
    (non-strict) constraint list.  The polyhedron must be pointed for the
    result to describe it fully.  A candidate nums/den is tested against
    every integer row (c, b) as c.nums >= b*den."""
    rows = [_integer_row(c) for c in constraints]
    verts = set()
    for subset in combinations(rows, dim):
        sol = _solve([[*c, b] for c, b, _ in subset], dim)
        if sol is None:
            continue
        nums, den = sol
        if all(sum(a * x for a, x in zip(c, nums)) >= b * den
               for c, b, _ in rows):
            verts.add(tuple(Fraction(x, den) for x in nums))
    return sorted(verts)


def interior_point(constraints, dim):
    """A rational point strictly inside a full-dimensional polytope, as the
    average of its vertices."""
    verts = vertices(constraints, dim)
    if not verts:
        return None
    return tuple(sum(coords) / len(verts) for coords in zip(*verts))


def _redundant(rows, idx, dim) -> bool:
    """The verdict of is_redundant on reduced integer rows: the rest
    together with the negation of row idx must be infeasible.  The negation
    of a reduced row is reduced, so no row is converted."""
    c, b, strict = rows[idx]
    # c.x < b, or c.x <= b when idx itself is strict
    negated = (tuple(-a for a in c), -b, not strict)
    return not _eliminate_rows(rows[:idx] + rows[idx + 1:] + [negated],
                               dim)[1]


def is_redundant(constraints, idx, dim) -> bool:
    """Whether dropping constraint idx leaves the region unchanged: the rest
    together with the negation of idx must be infeasible.  The rows are
    made reduced integer rows once, then judged by the same verdict as
    irredundant's."""
    return _redundant(_reduced_rows(constraints), idx, dim)


def irredundant(constraints, dim):
    """Indices, ascending, of the constraints kept after pruning those
    implied by the others (tried in order).  The rows are made reduced
    integer rows once, and every check runs the one verdict on them, so no
    check converts a row again."""
    rows = _reduced_rows(constraints)
    keep = list(range(len(rows)))
    i = 0
    while i < len(keep):
        if _redundant([rows[j] for j in keep], i, dim):
            keep.pop(i)
        else:
            i += 1
    return keep
