from fractions import Fraction as F
from itertools import combinations, product
from math import gcd, lcm
from unittest import mock

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from alcovelab import polyhedra
from alcovelab.polyhedra import (_tightest_per_direction, facets_and_vertices,
                                 feasible, find_point, first_lattice_point,
                                 interior_point, irredundant, is_redundant,
                                 matrix_rank, solve_linear, vertices)

TRIANGLE = [((1, 0), F(0), False), ((0, 1), F(0), False),
            ((-1, -1), F(-1), False)]


def test_feasible_basic():
    assert feasible(TRIANGLE, 2)
    assert not feasible([((1,), F(1), False), ((-1,), F(0), False)], 1)
    # x > 0 and x < 0
    assert not feasible([((1,), F(0), True), ((-1,), F(0), True)], 1)
    # x >= 0 and x <= 0 meets at a point
    assert feasible([((1,), F(0), False), ((-1,), F(0), False)], 1)


def test_vertices_triangle():
    assert vertices(TRIANGLE, 2) == [
        (F(0), F(0)), (F(0), F(1)), (F(1), F(0))]


def test_interior_point_inside():
    pt = interior_point(TRIANGLE, 2)
    assert all(c > 0 for c in pt) and sum(pt) < 1


def test_find_point_satisfies_constraints():
    cons = [((1, 2), F(3), False), ((-1, 1), F(-4), True), ((0, -1), F(-10), False)]
    pt = find_point(cons, 2)
    assert pt is not None
    for coeffs, rhs, strict in cons:
        val = sum(F(c) * x for c, x in zip(coeffs, pt))
        assert val > rhs if strict else val >= rhs
    assert find_point([((1,), F(1), False), ((-1,), F(0), False)], 1) is None


def test_redundancy():
    cons = TRIANGLE + [((1, 1), F(-5), False)]  # implied by the first three
    assert is_redundant(cons, 3, 2)
    assert irredundant(cons, 2) == [0, 1, 2]


def test_a_fraction_covector_is_a_type_error_at_every_entry():
    # integer_row scans the coefficients before any kernel runs: without
    # it, _bareiss would floor-divide Fractions
    cons = [((F(1, 2), 0), F(0), False)] + TRIANGLE
    covectors = [c for c, _, _ in cons]
    for call in (lambda: feasible(cons, 2), lambda: find_point(cons, 2),
                 lambda: first_lattice_point(cons, 2),
                 lambda: solve_linear(covectors[:2], (1, 2)),
                 lambda: matrix_rank(covectors), lambda: vertices(cons, 2),
                 lambda: interior_point(cons, 2)):
        with pytest.raises(TypeError, match="must be ints"):
            call()
    # the same system as integer rows
    assert vertices(integer_rows(cons), 2) == vertices(TRIANGLE, 2)


def test_solve_linear_and_rank():
    assert solve_linear([(2, 0), (0, 4)], (1, 2)) == (F(1, 2), F(1, 2))
    assert solve_linear([(1, 1), (2, 2)], (1, 2)) is None  # singular
    assert matrix_rank([(1, 2), (2, 4)]) == 1
    assert matrix_rank([(1, 0), (0, 1), (1, 1)]) == 2
    assert matrix_rank([]) == 0


coefficient = st.integers(-3, 3)


@st.composite
def systems(draw):
    """A small random system: (constraints, dim)."""
    dim = draw(st.integers(1, 3))
    row = st.tuples(st.tuples(*[coefficient] * dim), coefficient.map(F),
                    st.booleans())
    return draw(st.lists(row, max_size=6)), dim


def satisfies(point, con):
    coeffs, rhs, strict = con
    val = sum(F(c) * x for c, x in zip(coeffs, point))
    return val > rhs if strict else val >= rhs


@settings(max_examples=200)
@given(systems())
def test_find_point_agrees_with_feasible(system):
    cons, dim = system
    pt = find_point(cons, dim)
    assert (pt is None) == (not feasible(cons, dim))
    if pt is not None:
        assert len(pt) == dim
        assert all(satisfies(pt, c) for c in cons)


@settings(max_examples=200)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.lists(st.tuples(*[coefficient] * n), min_size=n, max_size=n),
    st.lists(coefficient, min_size=n, max_size=n))))
def test_solve_linear_square_systems(system):
    rows, rhs = system
    n = len(rows)
    sol = solve_linear(rows, rhs)
    assert (sol is None) == (matrix_rank(rows) < n)
    if sol is not None:
        assert all(sum(F(a) * x for a, x in zip(row, sol)) == b
                   for row, b in zip(rows, rhs))


@settings(max_examples=200)
@given(systems())
def test_irredundant_keeps_indices_implying_the_dropped_rows(system):
    cons, dim = system
    kept = irredundant(cons, dim)
    assert kept == sorted(set(kept))
    assert all(0 <= i < len(cons) for i in kept)
    kept_rows = [cons[i] for i in kept]
    for j in set(range(len(cons))) - set(kept):
        assert is_redundant(kept_rows + [cons[j]], len(kept_rows), dim)


def fraction_row(con):
    """The row (coeffs, rhs, strict) with every entry, an int, a Fraction
    or a "num/den" string, made a Fraction."""
    coeffs, rhs, strict = con
    return tuple(F(c) for c in coeffs), F(rhs), bool(strict)


def unpruned_eliminate(constraints, dim):
    """polyhedra._eliminate without pruning: every derived row is kept."""
    cons = [fraction_row(c) for c in constraints]
    levels = []
    for k in range(dim - 1, -1, -1):
        levels.append(cons)
        lower, upper, rest = [], [], []
        for coeffs, rhs, strict in cons:
            a = coeffs[k]
            if a > 0:
                lower.append((coeffs, rhs, strict, a))
            elif a < 0:
                upper.append((coeffs, rhs, strict, a))
            else:
                rest.append((coeffs[:k], rhs, strict))
        new = rest
        for lc, lr, ls, la in lower:
            for uc, ur, us, ua in upper:
                coeffs = tuple(lc[j] / la - uc[j] / ua for j in range(k))
                new.append((coeffs, lr / la - ur / ua, ls or us))
        cons = new
    ok = not any(rhs > 0 or (strict and rhs == 0) for _, rhs, strict in cons)
    return levels[::-1], ok


def test_tightest_per_direction_keeps_the_tightest_parallel_row():
    # integer rows (c, b, strict) meaning c.x >= b: (2, 4) >= 6 and
    # (1, 2) > 3 tie at x_0 + 2 x_1 >= 3 and the strict one wins; a kept
    # row is divided by gcd(c, b), so (4, 6) >= 3 stays as it is
    rows = [((2, 4), 6, False), ((1, 2), 3, True), ((1, 2), 2, False),
            ((0, -3), 3, False), ((4, 6), 3, False), ((2, 3), 1, True),
            ((), -1, False), ((), 0, False)]
    assert _tightest_per_direction(rows) == [
        ((1, 2), 3, True), ((0, -1), 1, False), ((4, 6), 3, False),
        ((), 0, False)]


@st.composite
def systems_with_parallel_rows(draw):
    """(constraints, dim): dimension 1-4, up to 8 rows, where some rows are
    duplicates, positive multiples or strict/non-strict twins of others, so
    that parallel rows meet at every elimination level."""
    dim = draw(st.integers(1, 4))
    small = st.integers(-2, 2)
    row = st.tuples(st.tuples(*[small] * dim), small.map(F), st.booleans())
    cons = draw(st.lists(row, min_size=1, max_size=5))
    while len(cons) < 8 and draw(st.booleans()):
        coeffs, rhs, strict = draw(st.sampled_from(cons))
        scale = draw(st.sampled_from([1, 2, 3]))
        cons.append((tuple(scale * c for c in coeffs),
                     scale * rhs - draw(st.integers(0, 1)),
                     draw(st.booleans())))
    return cons, dim


@settings(max_examples=300, deadline=None)
@given(systems_with_parallel_rows())
def test_pruned_elimination_matches_unpruned_oracle(system):
    cons, dim = system
    pruned = (feasible(cons, dim), find_point(cons, dim))
    with mock.patch.object(polyhedra, "_eliminate", unpruned_eliminate):
        oracle = (feasible(cons, dim), find_point(cons, dim))
    assert pruned == oracle


def box_rows(dim, radius):
    """-radius <= x_j <= radius for every coordinate j."""
    return [(tuple(sign if i == j else 0 for i in range(dim)), -radius, False)
            for j in range(dim) for sign in (1, -1)]


def lex_scan(cons, dim, radius):
    """Test-only oracle for first_lattice_point: the first integer point of
    the box, in lex order, that satisfies every row."""
    return next((x for x in product(range(-radius, radius + 1), repeat=dim)
                 if all(satisfies(x, c) for c in cons)), None)


@st.composite
def boxed_systems(draw):
    """(constraints, dim, radius): dimension 1-4, up to 6 rows with
    coefficients in [-3, 3], rational right-hand sides and mixed
    strictness, inside a box of radius 0-3."""
    dim = draw(st.integers(1, 4))
    rhs = st.builds(F, st.integers(-9, 9), st.integers(1, 3))
    row = st.tuples(st.tuples(*[coefficient] * dim), rhs, st.booleans())
    return (draw(st.lists(row, max_size=6)), dim,
            draw(st.integers(0, 3)))


@settings(max_examples=300, deadline=None)
@given(boxed_systems())
def test_first_lattice_point_matches_lex_scan(system):
    cons, dim, radius = system
    assert first_lattice_point(cons + box_rows(dim, radius), dim) == \
        lex_scan(cons, dim, radius)


def test_first_lattice_point_backtracks_and_respects_strictness():
    # x_0 = 0 leaves 1/3 <= x_1 <= 2/3 (no integer), so x_0 steps to 1
    cons = [((1, 0), F(0), False), ((-1, 0), F(-1), False),
            ((-1, 3), F(1), False), ((1, -3), F(-2), False)]
    assert first_lattice_point(cons, 2) == (1, 1)
    assert first_lattice_point([((1,), F(2), True), ((-1,), F(-3), False)],
                               1) == (3,)
    assert first_lattice_point([((1,), F(2), True), ((-1,), F(-3), True)],
                               1) is None
    with pytest.raises(ValueError, match="unbounded"):
        first_lattice_point([((1, 0), F(0), False)], 2)


# a coefficient as an int, a Fraction with denominator 2-4, or a "num/den"
# string, so that the integer scaling of the input rows meets denominators
rational_coefficient = st.one_of(
    coefficient,
    st.builds(F, st.integers(-6, 6), st.integers(2, 4)),
    st.builds("{}/{}".format, st.integers(-6, 6), st.integers(2, 4)))


@st.composite
def rational_systems(draw):
    """(constraints, dim, radius): dimension 1-3, up to 6 rows with
    rational coefficients, rational right-hand sides and mixed strictness,
    and a box radius of 0-3."""
    dim = draw(st.integers(1, 3))
    rhs = st.builds(F, st.integers(-9, 9), st.integers(1, 3))
    row = st.tuples(st.tuples(*[rational_coefficient] * dim), rhs,
                    st.booleans())
    return (draw(st.lists(row, max_size=6)), dim,
            draw(st.integers(0, 3)))


@settings(max_examples=300, deadline=None)
@given(rational_systems())
def test_integer_rows_of_rational_systems_match_the_oracles(system):
    # the kernels take integer covectors: a rational system goes in as its
    # integer rows, and the answers are those of the rational rows
    cons, dim, radius = system
    rows = integer_rows(cons)
    got = (feasible(rows, dim), find_point(rows, dim))
    with mock.patch.object(polyhedra, "_eliminate", unpruned_eliminate):
        assert got == (feasible(cons, dim), find_point(cons, dim))
    assert first_lattice_point(rows + box_rows(dim, radius), dim) == \
        lex_scan(cons, dim, radius)
    levels, _ = polyhedra._eliminate(rows, dim)
    for level in levels:
        for coeffs, rhs, _ in level:
            assert all(type(c) is int for c in (*coeffs, rhs))
            assert gcd(*coeffs, rhs) in (0, 1)


def integer_rows(constraints):
    """The rows, of any rational entries, as the kernels take them: each
    made an integer row (c, b, strict) by lcm_integer_row."""
    return [lcm_integer_row(c) for c in constraints]


def lcm_integer_row(con):
    """Test-only oracle: the row made Fractions and scaled by the lcm of
    all its denominators, as polyhedra scaled a row before its covectors
    had to be integer."""
    coeffs, rhs, strict = fraction_row(con)
    den = lcm(rhs.denominator, *(c.denominator for c in coeffs))
    return (tuple(c.numerator * (den // c.denominator) for c in coeffs),
            rhs.numerator * (den // rhs.denominator), strict)


@settings(max_examples=300)
@given(st.lists(st.integers(-30, 30), max_size=5),
       st.one_of(st.integers(-30, 30),
                 st.builds(F, st.integers(-30, 30), st.integers(1, 12))),
       st.booleans())
def test_integer_row_of_int_coefficients_matches_the_lcm_oracle(coeffs, rhs,
                                                                 strict):
    con = (coeffs, rhs, strict)
    row = polyhedra.integer_row(con)
    assert row == lcm_integer_row(con)
    assert all(type(x) is int for x in (*row[0], row[1]))


def fraction_row_reduce(m, n_cols):
    """Test-only oracle: Gauss-Jordan elimination on Fractions, as
    polyhedra._row_reduce was written before the integer kernel.  Brings the
    rows of m, in place, to reduced echelon form on their first n_cols
    columns; returns the pivot columns."""
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


def fraction_solve_linear(rows, rhs):
    m = [[F(a) for a in row] + [F(b)]
         for row, b in zip(rows, rhs, strict=True)]
    n_cols = len(rows[0])
    pivots = fraction_row_reduce(m, n_cols)
    if len(pivots) < n_cols or any(row[-1] != 0 for row in m[n_cols:]):
        return None
    return tuple(row[-1] for row in m[:n_cols])


def fraction_matrix_rank(rows):
    m = [[F(a) for a in row] for row in rows]
    return len(fraction_row_reduce(m, len(m[0]))) if m else 0


def fraction_vertices(constraints, dim):
    cons = [fraction_row(c) for c in constraints]
    verts = set()
    for subset in combinations(cons, dim):
        sol = fraction_solve_linear([c for c, _, _ in subset],
                                    [r for _, r, _ in subset])
        if sol is None:
            continue
        if all(sum(a * x for a, x in zip(c, sol)) >= r for c, r, _ in cons):
            verts.add(sol)
    return sorted(verts)


small_rational = st.builds(F, st.integers(-5, 5),
                           st.sampled_from([1, 1, 2, 3, 4]))


@st.composite
def linear_systems(draw):
    """(rows, rhs): dimension 1-5 with n-1 to n+2 rows of rational
    entries.  Some draws copy a row as a multiple of another (singular) and
    some give the copy another right-hand side (inconsistent)."""
    n = draw(st.integers(1, 5))
    n_rows = draw(st.integers(max(1, n - 1), n + 2))
    entries = st.one_of(small_rational, st.just(F(0)))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                         min_size=n_rows, max_size=n_rows))
    rhs = draw(st.lists(small_rational, min_size=n_rows, max_size=n_rows))
    if n_rows > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n_rows)))[:2]
        k = draw(st.sampled_from([F(1), F(-2), F(1, 3)]))
        rows[j] = [k * a for a in rows[i]]
        rhs[j] = k * rhs[i] + draw(st.sampled_from([0, 0, 1]))
    return rows, rhs


@settings(max_examples=400, deadline=None)
@given(linear_systems())
def test_bareiss_kernels_match_the_fraction_oracles(system):
    # each rational equation scaled to an integer one, with the same
    # solutions and, row by row, the same span
    rows, rhs = system
    scaled = integer_rows([(row, b, False) for row, b in zip(rows, rhs)])
    int_rows, int_rhs = [c for c, _, _ in scaled], [b for _, b, _ in scaled]
    assert matrix_rank(int_rows) == fraction_matrix_rank(rows)
    got = solve_linear(int_rows, int_rhs)
    assert got == fraction_solve_linear(rows, rhs)
    assert got is None or all(type(x) is F for x in got)


@st.composite
def vertex_systems(draw):
    """(constraints, dim): dimension 1-4, a box of radius 1-3 and up to 4
    more rational rows, so that the region is a polytope, possibly empty,
    with degenerate vertices where more than dim rows meet."""
    dim = draw(st.integers(1, 4))
    radius = draw(st.integers(1, 3))
    row = st.tuples(st.lists(small_rational, min_size=dim, max_size=dim),
                    small_rational, st.booleans())
    extra = draw(st.lists(row, max_size=4 if dim < 4 else 2))
    return box_rows(dim, radius) + extra, dim


@settings(max_examples=200, deadline=None)
@given(vertex_systems())
def test_vertices_match_the_fraction_oracle(system):
    cons, dim = system
    rows = integer_rows(cons)
    got = vertices(rows, dim)
    assert got == fraction_vertices(cons, dim) == subset_vertices(cons, dim)
    assert all(type(x) is F for v in got for x in v)
    if got:
        n = len(got)
        assert interior_point(rows, dim) == tuple(
            sum(v[j] for v in got) / n for j in range(dim))
    else:
        assert interior_point(rows, dim) is None


def feasible_is_redundant(constraints, idx, dim):
    """Test-only oracle: is_redundant as it was written before the shared
    verdict, every row made integer again and the rest with row idx negated
    handed to feasible."""
    rows = integer_rows(constraints)
    c, b, strict = rows[idx]
    negated = (tuple(-a for a in c), -b, not strict)
    return not feasible(rows[:idx] + rows[idx + 1:] + [negated], dim)


def shrinking_list_irredundant(constraints, dim):
    """Test-only oracle: irredundant as the loop of feasible_is_redundant
    over the shrinking list of kept rows."""
    keep = list(range(len(constraints)))
    i = 0
    while i < len(keep):
        if feasible_is_redundant([constraints[j] for j in keep], i, dim):
            keep.pop(i)
        else:
            i += 1
    return keep


@st.composite
def degenerate_systems(draw):
    """(constraints, dim): a system with parallel rows and the negation of
    one or two of its rows added, moved by 0, which squeezes the region
    into a hyperplane (lower-dimensional), or by 1, which empties it."""
    cons, dim = draw(systems_with_parallel_rows())
    for coeffs, rhs, _ in draw(st.lists(st.sampled_from(cons), min_size=1,
                                        max_size=2)):
        cons.append((tuple(-c for c in coeffs),
                     -rhs + draw(st.integers(0, 1)), draw(st.booleans())))
    return cons, dim


@settings(max_examples=300, deadline=None)
@given(st.one_of(systems(), systems_with_parallel_rows(),
                 degenerate_systems()))
def test_redundancy_checks_match_the_feasible_oracle(system):
    cons, dim = system
    assert irredundant(cons, dim) == shrinking_list_irredundant(cons, dim)
    for i in range(len(cons)):
        assert is_redundant(cons, i, dim) == \
            feasible_is_redundant(cons, i, dim)


@pytest.mark.parametrize("cons, dim, kept", [
    # x >= 0 and -x >= 0: the point x = 0, both rows needed
    ([((1,), F(0), False), ((-1,), F(0), False)], 1, [0, 1]),
    # x >= 1, x <= 0, x >= 5: row 0 goes, for the other two are already
    # empty; then neither of them is implied by the other alone
    ([((1,), F(1), False), ((-1,), F(0), False), ((1,), F(5), False)], 1,
     [1, 2]),
    # a duplicate goes and the first copy stays; the strict twin x > 0
    # implies x >= 0 and stays, tried after them
    ([((1, 0), F(0), False), ((2, 0), F(0), False), ((1, 0), F(0), True),
      ((0, 1), F(0), False), ((-1, -1), F(-1), False)], 2, [2, 3, 4]),
    # the segment x_0 + x_1 = 1 in the square [0, 1]^2, lower-dimensional:
    # on it x_0 >= 0 is x_1 <= 1 and x_0 <= 1 is x_1 >= 0, so the bounds on
    # x_0, tried first, go
    ([((1, 1), F(1), False), ((-1, -1), F(-1), False),
      ((1, 0), F(0), False), ((-1, 0), F(-1), False),
      ((0, 1), F(0), False), ((0, -1), F(-1), False)], 2, [0, 1, 4, 5]),
])
def test_irredundant_tries_rows_in_order_on_degenerate_systems(cons, dim,
                                                                kept):
    assert irredundant(cons, dim) == kept
    assert shrinking_list_irredundant(cons, dim) == kept


def subset_vertices(constraints, dim):
    """Test-only oracle: vertices as found before the double description,
    by a Bareiss solve of every d-subset of the integer rows, keeping each
    solution nums/den that satisfies every row (c, b) as c.nums >= b*den."""
    rows = integer_rows(constraints)
    verts = set()
    for subset in combinations(rows, dim):
        m = [[*c, b] for c, b, _ in subset]
        if len(polyhedra._bareiss(m, dim)) < dim:
            continue
        nums, den = [row[-1] for row in m], m[0][0]
        if den < 0:
            nums, den = [-x for x in nums], -den
        if all(sum(a * x for a, x in zip(c, nums)) >= b * den
               for c, b, _ in rows):
            verts.add(tuple(F(x, den) for x in nums))
    return sorted(verts)


def irredundant_and_vertices(constraints, dim):
    """Test-only oracle for facets_and_vertices: irredundant on the rows
    made non-strict, and subset_vertices."""
    closed = [(coeffs, rhs, False) for coeffs, rhs, _ in constraints]
    return irredundant(closed, dim), subset_vertices(constraints, dim)


def tight_kept_masks(constraints, kept, verts):
    """Test-only oracle for the masks of facets_and_vertices: per vertex,
    bit j when the row kept[j] holds with equality there."""
    return tuple(sum(1 << j for j, i in enumerate(kept)
                     if sum(a * x for a, x in zip(constraints[i][0], v))
                     == constraints[i][1]) for v in verts)


@st.composite
def bounded_systems(draw):
    """(constraints, dim): a box of radius 1-3 together with the rows of
    systems_with_parallel_rows or degenerate_systems (dimension 1-4), or
    with up to 3 random rows (dimension 5), in a drawn order: a polytope,
    possibly empty or lower-dimensional, often with duplicate, scaled or
    loosened copies of a row."""
    kind = draw(st.sampled_from(["parallel", "degenerate", "five"]))
    if kind == "five":
        dim = 5
        row = st.tuples(st.tuples(*[coefficient] * dim), coefficient.map(F),
                        st.booleans())
        cons = draw(st.lists(row, max_size=3))
    else:
        cons, dim = draw(systems_with_parallel_rows() if kind == "parallel"
                         else degenerate_systems())
    return draw(st.permutations(
        box_rows(dim, draw(st.integers(1, 3))) + cons)), dim


@st.composite
def simplices(draw):
    """(constraints, dim): dimension 1-5, the simplex M x >= lo, with
    sum(M x) <= c above sum(lo), for an invertible integer M, with up to 3
    scaled (a tie) or loosened copies of its rows, in a drawn order."""
    dim = draw(st.integers(1, 5))
    small = st.integers(-2, 2)
    m = draw(st.lists(st.tuples(*[small] * dim), min_size=dim,
                      max_size=dim).filter(lambda m: matrix_rank(m) == dim))
    lo = draw(st.lists(small, min_size=dim, max_size=dim))
    top = sum(lo) + draw(st.integers(1, 4))
    cons = [(row, F(b), False) for row, b in zip(m, lo)]
    cons.append((tuple(-sum(col) for col in zip(*m)), F(-top), False))
    for coeffs, rhs, _ in draw(st.lists(st.sampled_from(cons), max_size=3)):
        scale = draw(st.integers(1, 3))
        cons.append((tuple(scale * c for c in coeffs),
                     scale * rhs - draw(st.integers(0, 1)), False))
    return draw(st.permutations(cons)), dim


@settings(max_examples=500, deadline=None)
@given(st.one_of(bounded_systems(), systems(), systems_with_parallel_rows(),
                 degenerate_systems(), simplices()))
def test_facets_and_vertices_match_irredundant_and_vertices(system):
    # bounded, unbounded, conic, with a lineality space, empty and
    # lower-dimensional systems; one with no interior, where the rows made
    # strict have no solution, keeps every row
    cons, dim = system
    ran = AssertionError("a Fourier-Motzkin function ran")
    with mock.patch.object(polyhedra, "irredundant", side_effect=ran), \
            mock.patch.object(polyhedra, "is_redundant", side_effect=ran), \
            mock.patch.object(polyhedra, "feasible", side_effect=ran):
        kept, inc = facets_and_vertices(integer_rows(cons), dim)
    expected_kept, expected_points = irredundant_and_vertices(cons, dim)
    if not feasible([(c, b, True) for c, b, _ in cons], dim):
        expected_kept = list(range(len(cons)))
    assert (kept, inc.points()) == (expected_kept, expected_points)
    assert inc.masks == tight_kept_masks(cons, kept, inc.points())


@settings(max_examples=200, deadline=None)
@given(simplices())
def test_facets_and_vertices_of_simplices_need_no_elimination(system):
    cons, dim = system
    expected = irredundant_and_vertices(cons, dim)
    assert len(expected[0]) == dim + 1 and len(expected[1]) == dim + 1
    # a polytope with interior is read off the rays alone
    with mock.patch.object(polyhedra, "irredundant",
                           side_effect=AssertionError("irredundant called")):
        kept, inc = facets_and_vertices(integer_rows(cons), dim)
    assert (kept, inc.points()) == expected
    # every vertex of a simplex lies on dim of its dim + 1 facets
    assert inc.masks == tight_kept_masks(cons, kept, inc.points())
    assert all(mask.bit_count() == dim for mask in inc.masks)


# unbounded systems with an interior: the quantum chambers of weyl_a(4) at
# lambda = (2, -1, 3), a pointed cone on all six walls, and at (1, 2, 7/2),
# a cone on three walls with a lineality space, each as the rows
# <a, x> >= 1 of its covectors a; and the strip 0 < x_0 < 7 of the plane
# with a looser copy of a bound
UNBOUNDED_WITH_INTERIOR = [
    ([(a, F(1), False) for a in [(1, 0, 0), (1, 1, 0), (1, 1, 1),
                                 (0, -1, 0), (0, 1, 1), (0, 0, 1)]],
     3, [1, 3, 4]),
    ([(a, F(1), False) for a in [(1, 0, 0), (1, 1, 0), (0, 1, 0)]],
     3, [0, 2]),
    ([((1, 0), F(0), True), ((-1, 0), F(-7), True),
      ((2, 0), F(-1), False)], 2, [0, 1]),
]


@pytest.mark.parametrize("cons, dim, kept", UNBOUNDED_WITH_INTERIOR)
def test_facets_of_unbounded_systems_with_interior_need_no_elimination(
        cons, dim, kept):
    expected = irredundant_and_vertices(cons, dim)
    assert expected[0] == kept
    with mock.patch.object(polyhedra, "irredundant",
                           side_effect=AssertionError("irredundant called")):
        got_kept, inc = facets_and_vertices(integer_rows(cons), dim)
    assert (got_kept, inc.points()) == expected


def test_facets_and_vertices_keep_the_later_of_duplicate_rows():
    # TRIANGLE with x_0 >= 0 written three times, once scaled: the last
    # copy is kept, as irredundant keeps it
    cons = [((1, 0), F(0), False), ((0, 1), F(0), False),
            ((2, 0), F(0), False), ((-1, -1), F(-1), False),
            ((1, 0), F(0), False)]
    assert irredundant(cons, 2) == [1, 3, 4]
    kept, inc = facets_and_vertices(integer_rows(cons), 2)
    assert (kept, inc.points()) == ([1, 3, 4], vertices(TRIANGLE, 2))
    # (0, 0) on rows 1 and 4, (0, 1) on 3 and 4, (1, 0) on 1 and 3
    assert inc.masks == (0b101, 0b110, 0b011)


def test_facets_and_vertices_of_a_system_with_a_lineality_space():
    # the strip 0 <= x_0 <= 1 of the plane, and a looser copy of a bound:
    # no vertex, and irredundant's rows
    cons = [((1, 0), F(0), False), ((-1, 0), F(-1), False),
            ((2, 0), F(-1), False)]
    kept, inc = facets_and_vertices(integer_rows(cons), 2)
    assert (kept, inc.points()) == ([0, 1], []) == \
        irredundant_and_vertices(cons, 2)
    assert inc == polyhedra.VertexIncidence(1, (), ())


@settings(max_examples=300, deadline=None)
@given(st.one_of(bounded_systems(), simplices(), systems(),
                 systems_with_parallel_rows(), degenerate_systems())
       .flatmap(lambda system: st.tuples(
           st.just(system), st.permutations(range(len(system[0]))))))
def test_facets_and_vertices_do_not_depend_on_the_insertion_order(drawn):
    # bounded (with duplicate, scaled and loosened rows), unbounded, with a
    # lineality space, empty and lower-dimensional systems
    (cons, dim), order = drawn
    kept, inc = facets_and_vertices(integer_rows(cons), dim)
    got_kept, got = facets_and_vertices(integer_rows(cons), dim, order)
    assert (got_kept, got.den, got.nums, got.masks) == (
        kept, inc.den, inc.nums, inc.masks)



@st.composite
def simplices_with_redundant_rows(draw):
    """(simplex, extra, dim, order): the integer rows of a simplex M x >= lo,
    sum(M x) <= top, for an invertible integer M, and after them redundant
    rows, none tight on a vertex: looser scaled copies of its rows and far
    bounds below every vertex.  The order takes the simplex's rows first,
    each part in a drawn order."""
    dim = draw(st.integers(1, 4))
    small = st.integers(-2, 2)
    m = draw(st.lists(st.tuples(*[small] * dim), min_size=dim,
                      max_size=dim).filter(lambda m: matrix_rank(m) == dim))
    lo = draw(st.lists(small, min_size=dim, max_size=dim))
    top = sum(lo) + draw(st.integers(1, 4))
    simplex = [(row, b, False) for row, b in zip(m, lo)]
    simplex.append((tuple(-sum(col) for col in zip(*m)), -top, False))
    points = vertices(simplex, dim)
    extra = []
    for c, b, _ in draw(st.lists(st.sampled_from(simplex), min_size=1,
                                 max_size=4)):
        scale = draw(st.integers(1, 3))
        extra.append((tuple(scale * a for a in c),
                      scale * b - draw(st.integers(1, 5)), False))
    for c in draw(st.lists(st.tuples(*[small] * dim).filter(any),
                           max_size=3)):
        low = min(sum(a * x for a, x in zip(c, v)) for v in points)
        extra.append((c, low.__floor__() - draw(st.integers(1, 100)), False))
    n = len(simplex)
    order = (draw(st.permutations(range(n)))
             + draw(st.permutations(range(n, n + len(extra)))))
    return simplex, extra, dim, order


@settings(max_examples=200, deadline=None)
@given(simplices_with_redundant_rows())
def test_a_redundant_bound_costs_one_scan_of_the_rays(drawn):
    # redundant rows added after a simplex's facets leave its facets and
    # vertices as they are and combine no rays: each only marks the rays
    simplex, extra, dim, order = drawn
    combine, calls = polyhedra._combine, []

    def spy(*args):
        calls.append(args)
        return combine(*args)

    with mock.patch.object(polyhedra, "_combine", spy):
        kept, inc = facets_and_vertices(simplex, dim, order[:len(simplex)])
        alone = len(calls)
        got = facets_and_vertices(simplex + extra, dim, order)
    assert got == (kept, inc)
    assert kept == list(range(dim + 1)) and len(inc.nums) == dim + 1
    # the simplex's rows combine the same rays again, and no appended row
    # combines any
    assert calls[alone:] == calls[:alone]
