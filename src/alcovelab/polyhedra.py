"""Exact rational polyhedra in low dimension.

A linear constraint is a triple (coeffs, rhs, strict) meaning
coeffs . x >= rhs, with strict=True for >.  One Fourier-Motzkin elimination
routine serves `feasible` (its verdict), `find_point` and
`first_lattice_point`.  It works on integer rows: each input row is scaled
once, by a positive factor, to integer coefficients with gcd 1, and x_k is
eliminated by integer cross-multiplication, so only the right-hand sides
stay `Fraction`.  A row times a positive factor bounds every variable by the
same value on the same side, so the scaling moves no slab bound below.
After each elimination level the derived rows keep only the tightest row
per direction (Imbert, "Fourier's elimination: which to choose?", 1993),
keyed on their primitive integer coefficients: a dropped row is a parallel,
looser copy of a kept one, so every level describes the same region, while
parallel copies no longer multiply from level to level.  Level k is the
system over x_0..x_k: once x_0..x_{k-1} satisfy level k-1, it bounds x_k to
a nonempty slab.  `find_point` takes the midpoint of each slab;
`first_lattice_point` steps x_k upward through the integers of its slab,
depth first, and backtracks when a slab holds none, which gives the
lexicographically first integer point.  One row reduction serves
`solve_linear` and `matrix_rank`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from .arith import pairing, rat, vec


def _normalize(con):
    coeffs, rhs, strict = con
    return tuple(rat(c) for c in coeffs), rat(rhs), bool(strict)


def _primitive(coeffs, rhs):
    """The row coeffs . x >= rhs times the positive factor that turns coeffs
    into integers with gcd 1; all-zero coeffs are returned as they are."""
    den = lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (den // c.denominator) for c in coeffs]
    g = gcd(*ints) or 1
    if g != 1:
        ints = [c // g for c in ints]
    return tuple(ints), (rhs if den == g else rhs * den / g)


def _tightest_per_direction(rows):
    """One row per direction: each row is scaled to its primitive integer
    coefficients, and of the rows with equal scaled coefficients the one
    with the highest rhs is kept (the strict one on a tie), at the position
    of the first of them."""
    best = {}
    for coeffs, rhs, strict in rows:
        coeffs, rhs = _primitive(coeffs, rhs)
        kept = best.get(coeffs)
        if kept is None or rhs > kept[0] or (rhs == kept[0] and strict):
            best[coeffs] = (rhs, strict)
    return [(coeffs, rhs, strict) for coeffs, (rhs, strict) in best.items()]


def _eliminate(constraints, dim):
    """Fourier-Motzkin elimination of x_{dim-1}, ..., x_0 in turn, on rows
    with primitive integer coefficients.

    Returns (levels, ok): levels[k] is the system over x_0..x_k (before x_k
    is eliminated), and ok tells whether the variable-free rows left at the
    end all hold, i.e. whether the system is feasible.
    """
    cons = []
    for c in constraints:
        coeffs, rhs, strict = _normalize(c)
        cons.append((*_primitive(coeffs, rhs), strict))
    levels = []
    for k in range(dim - 1, -1, -1):
        levels.append(cons)
        lower, upper, rest = [], [], []
        for coeffs, rhs, strict in cons:
            a = coeffs[k]
            if a > 0:
                # x_k >= (rhs - rest)/a
                lower.append((coeffs, rhs, strict, a))
            elif a < 0:
                upper.append((coeffs, rhs, strict, -a))
            else:
                rest.append((coeffs[:k], rhs, strict))
        new = rest
        for lc, lr, ls, la in lower:
            for uc, ur, us, ua in upper:
                # la > 0 bounds x_k below, ua = |a| > 0 above; the sum of
                # ua times the lower row and la times the upper row is free
                # of x_k
                coeffs = tuple(lc[j] * ua + uc[j] * la for j in range(k))
                new.append((coeffs, lr * ua + ur * la, ls or us))
        cons = _tightest_per_direction(new)
    # all variables eliminated: each row reads 0 >= rhs (or >)
    ok = not any(rhs > 0 or (strict and rhs == 0) for _, rhs, strict in cons)
    return levels[::-1], ok


def feasible(constraints, dim) -> bool:
    """Whether {x in R^dim : coeffs.x >= rhs (or >)} is nonempty."""
    return _eliminate(constraints, dim)[1]


def _slab(level_cons, k, prefix):
    """Bounds (lo, lo_strict, hi, hi_strict) on x_k from the rows of one
    elimination level, with x_0..x_{k-1} fixed to prefix; lo or hi is None
    where no row bounds that side."""
    lo = hi = None
    lo_strict = hi_strict = False
    for coeffs, rhs, strict in level_cons:
        a = coeffs[k]
        if a == 0:
            continue
        bound = (rhs - sum(coeffs[j] * prefix[j] for j in range(k))) / a
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


def _row_reduce(m, n_cols):
    """Bring the rows of m, in place, to reduced echelon form on their first
    n_cols columns (later columns ride along); returns the pivot columns."""
    pivots = []
    for c in range(n_cols):
        r = len(pivots)
        if r == len(m):
            break
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return pivots


def solve_linear(rows, rhs):
    """Solve a square (or overdetermined, consistent) exact linear system.

    Returns the unique solution tuple, or None if singular/inconsistent.
    """
    m = [list(map(rat, row)) + [rat(b)] for row, b in zip(rows, rhs, strict=True)]
    n_cols = len(rows[0])
    pivots = _row_reduce(m, n_cols)
    if len(pivots) < n_cols or any(row[-1] != 0 for row in m[n_cols:]):
        return None
    return tuple(row[-1] for row in m[:n_cols])


def matrix_rank(rows) -> int:
    m = [list(map(rat, row)) for row in rows]
    return len(_row_reduce(m, len(m[0]))) if m else 0


def vertices(constraints, dim):
    """All vertices of {x : coeffs.x >= rhs}, from d-subsets of the
    (non-strict) constraint list.  The polyhedron must be pointed for the
    result to describe it fully."""
    cons = [_normalize(c) for c in constraints]
    verts = set()
    for subset in combinations(cons, dim):
        sol = solve_linear([c for c, _, _ in subset], [r for _, r, _ in subset])
        if sol is None:
            continue
        if all(pairing(c, sol) >= r for c, r, _ in cons):
            verts.add(vec(sol))
    return sorted(verts)


def interior_point(constraints, dim):
    """A rational point strictly inside a full-dimensional polytope, as the
    average of its vertices."""
    verts = vertices(constraints, dim)
    if not verts:
        return None
    n = len(verts)
    return tuple(sum(v[j] for v in verts) / n for j in range(dim))


def is_redundant(constraints, idx, dim) -> bool:
    """Whether dropping constraint idx leaves the region unchanged: the rest
    together with the negation of idx must be infeasible."""
    cons = [_normalize(c) for c in constraints]
    coeffs, rhs, strict = cons[idx]
    rest = [c for i, c in enumerate(cons) if i != idx]
    # coeffs.x < rhs, or coeffs.x <= rhs when idx itself is strict
    negated = (tuple(-a for a in coeffs), -rhs, not strict)
    return not feasible(rest + [negated], dim)


def irredundant(constraints, dim):
    """Indices, ascending, of the constraints kept after pruning those
    implied by the others (tried in order)."""
    cons = [_normalize(c) for c in constraints]
    keep = list(range(len(cons)))
    i = 0
    while i < len(keep):
        trial = [cons[j] for j in keep]
        if is_redundant(trial, i, dim):
            keep.pop(i)
        else:
            i += 1
    return keep
