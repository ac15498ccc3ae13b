"""Exact rational polyhedra in low dimension.

A linear constraint is a triple (coeffs, rhs, strict) meaning
coeffs . x >= rhs, with strict=True for >.  One Fourier-Motzkin elimination
routine, exact over Fraction, serves both `feasible` (its verdict) and
`find_point` (back-substitution over its levels).  Derived rows are not
pruned, so their number can grow doubly exponentially with the number of
eliminated variables; that is the cost cliff of every alcove computation
(ROADMAP open item 2).  One row reduction serves `solve_linear` and
`matrix_rank`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .arith import pairing, rat, vec


def _normalize(con):
    coeffs, rhs, strict = con
    return tuple(rat(c) for c in coeffs), rat(rhs), bool(strict)


def _eliminate(constraints, dim):
    """Fourier-Motzkin elimination of x_{dim-1}, ..., x_0 in turn.

    Returns (levels, ok): levels[k] is the system over x_0..x_k (before x_k
    is eliminated), and ok tells whether the variable-free rows left at the
    end all hold, i.e. whether the system is feasible.
    """
    cons = [_normalize(c) for c in constraints]
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
                upper.append((coeffs, rhs, strict, a))
            else:
                rest.append((coeffs[:k], rhs, strict))
        new = rest
        for lc, lr, ls, la in lower:
            for uc, ur, us, ua in upper:
                # la > 0: lower bound; ua < 0: upper bound. Combine to
                # eliminate x_k: (1/la)(lr - l_rest) <= x_k <= (1/ua)(ur - u_rest)
                coeffs = tuple(lc[j] / la - uc[j] / ua for j in range(k))
                new.append((coeffs, lr / la - ur / ua, ls or us))
        cons = new
    # all variables eliminated: each row reads 0 >= rhs (or >)
    ok = not any(rhs > 0 or (strict and rhs == 0) for _, rhs, strict in cons)
    return levels[::-1], ok


def feasible(constraints, dim) -> bool:
    """Whether {x in R^dim : coeffs.x >= rhs (or >)} is nonempty."""
    return _eliminate(constraints, dim)[1]


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
        lo = hi = None
        lo_strict = hi_strict = False
        for coeffs, rhs, strict in level_cons:
            a = coeffs[k]
            if a == 0:
                continue
            bound = (rhs - sum(coeffs[j] * point[j] for j in range(k))) / a
            if a > 0:
                if lo is None or bound > lo or (bound == lo and strict):
                    lo, lo_strict = bound, strict
            else:
                if hi is None or bound < hi or (bound == hi and strict):
                    hi, hi_strict = bound, strict
        if lo is None and hi is None:
            x = Fraction(0)
        elif lo is None:
            x = hi - 1 if hi_strict else hi
        elif hi is None:
            x = lo + 1 if lo_strict else lo
        elif lo == hi:
            if lo_strict or hi_strict:
                return None
            x = lo
        else:
            x = (lo + hi) / 2
        point.append(x)
    return tuple(point)


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
