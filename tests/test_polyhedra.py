from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from alcovelab.polyhedra import (feasible, find_point, interior_point,
                                 irredundant, is_redundant, matrix_rank,
                                 solve_linear, vertices)

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
