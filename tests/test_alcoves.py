import hashlib
import io
import json
from collections import Counter, deque
from contextlib import ExitStack, redirect_stdout
from fractions import Fraction as F
from itertools import combinations, product
from math import lcm
from time import perf_counter
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from alcovelab.arith import (AffineInP, Wall, pairing, rat_str, saturate, vadd,
                             vec, vsub)
from alcovelab import alcoves, polyhedra
from alcovelab.alcoves import (GE, LE, Face, OnPWallError, NonRegularError,
                               PTooSmallError, QuantumChamber, RealAlcove,
                               SingularPointError, _alcove_around,
                               _bracket_nums, constraints_of, faces_of,
                               integral_walls_and_positive_chamber,
                               opposite_alcove, p_alcove_of, p_membership,
                               quantum_chamber, real_alcove_of,
                               translation_path)
from alcovelab.cli import dispatch
from alcovelab.instances import (hilb_instance, hilb_sigma_tilde,
                                  weyl_a_instance)
from alcovelab.polyhedra import (facets_and_vertices, feasible, find_point,
                                 interior_point, irredundant, matrix_rank,
                                 vertices)
from alcovelab.validate import p_lattice_point, validate_p
from strategies import (CROSS_WALLS, HILB, OCTAHEDRAL_WALLS, TWIN_WALLS, WEYL,
                        arrangements, far_alcove, points, regular_alcove)
from test_polyhedra import (fraction_matrix_rank, integer_rows,
                            irredundant_and_vertices)

A2 = weyl_a_instance(3)
HILB2 = hilb_instance(2, 0)
HILB3 = hilb_instance(3, 0)

HALF_WALL = Wall(id=0, alpha=(1,), sigma_tilde=frozenset([F(-1, 2)]))
INT_WALL = Wall(id=0, alpha=(1,), sigma_tilde=frozenset([F(0)]))


def test_real_alcove_1d_half_integers():
    A = real_alcove_of((1,), [HALF_WALL])
    assert set(A.inequalities) == {(0, F(1, 2), GE), (0, F(3, 2), LE)}


def test_real_alcove_a2_fundamental():
    A = real_alcove_of((F(1, 3), F(1, 3)), A2.walls)
    # <alpha_1,.> >= 0, <alpha_2,.> >= 0, <theta,.> <= 1 after pruning
    assert set(A.inequalities) == {
        (0, F(0), GE), (2, F(0), GE), (1, F(1), LE)}


def test_real_alcove_singular_point():
    with pytest.raises(SingularPointError, match="singular point") as exc:
        real_alcove_of((F(1, 2),), [HALF_WALL])
    assert (exc.value.wall_id, exc.value.offset) == (0, F(1, 2))
    with pytest.raises(SingularPointError) as exc:
        real_alcove_of((F(1, 3), F(2, 3)), A2.walls)
    assert (exc.value.wall_id, exc.value.offset) == (1, F(1))


def _canonical(ineqs):
    """Test-only oracle: (wall_id, offset, sense) rows by wall id, the
    upper bound (<=) before the lower, the order the alcove build makes."""
    return tuple(sorted(ineqs, key=lambda t: (t[0], t[2], t[1])))


def alcove_contains(A, x, walls, strict=False):
    """Test-only oracle: whether x satisfies every inequality of the alcove
    A (strictly, when strict is set)."""
    for coeffs, rhs, _ in A.constraints(walls):
        v = pairing(coeffs, x)
        if v < rhs or (strict and v == rhs):
            return False
    return True


def reference_real_alcove(x, walls):
    """real_alcove_of's inequalities as first found: both bounds around x
    for every class of sigma_tilde mod Z on every wall, then irredundant.
    None for a point on a hyperplane."""
    x = vec(x)
    ineqs = []
    for w in walls:
        t = pairing(w.alpha, x)
        # the classes of sigma_tilde in Q/Z, as representatives in [0, 1)
        for rep in sorted({s - s.__floor__() for s in w.sigma_tilde}):
            if (t - rep).denominator == 1:
                return None
            lo = rep + (t - rep).__floor__()
            ineqs += [(w.id, lo, GE), (w.id, lo + 1, LE)]
    ineqs = sorted(ineqs, key=lambda b: (b[0], b[2], b[1]))
    kept = irredundant(constraints_of(ineqs, walls), len(x))
    return tuple(ineqs[i] for i in kept)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_real_alcove_matches_all_class_reference(data):
    # small denominators, so that a point may lie on a hyperplane
    rank, walls = data.draw(arrangements())
    x = data.draw(st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=13),
        min_size=rank, max_size=rank))
    expected = reference_real_alcove(x, walls)
    if expected is None:
        with pytest.raises(SingularPointError):
            real_alcove_of(x, walls)
    else:
        assert real_alcove_of(x, walls).inequalities == expected


def test_the_draws_reach_every_table_and_mostly_regular_points():
    """arrangements draws every table, rank 2 and up at least a third of
    the time, and regular_alcove's point draw lands on a hyperplane of
    those in at most a quarter of its draws."""
    drawn = Counter()

    @settings(derandomize=True, database=None, max_examples=300,
              deadline=None)
    @given(arrangements(CROSS_WALLS, TWIN_WALLS), st.data())
    def draw(arrangement, data):
        rank, walls = arrangement
        x = data.draw(points(rank))
        drawn[walls] += 1
        drawn["draws"] += 1
        if rank >= 2:
            drawn["rank >= 2"] += 1
            try:
                real_alcove_of(x, walls)
            except SingularPointError:
                drawn["singular"] += 1

    draw()
    for table in (HILB, WEYL, [(3, OCTAHEDRAL_WALLS)], [(4, CROSS_WALLS)],
                  [(3, TWIN_WALLS)]):
        assert any(drawn[walls] for _, walls in table)
    assert 3 * drawn["rank >= 2"] >= drawn["draws"]
    assert 4 * drawn["singular"] <= drawn["rank >= 2"]


def test_same_alcove_same_inequalities():
    A = real_alcove_of((F(9, 10),), [HALF_WALL])
    B = real_alcove_of((F(11, 10),), [HALF_WALL])
    assert A == B


@given(st.fractions(min_value=-6, max_value=6, max_denominator=7),
       st.integers(-3, 3))
def test_z_periodicity_1d(x, v):
    try:
        A = real_alcove_of((x,), [HALF_WALL])
    except SingularPointError:
        return
    B = real_alcove_of((x + v,), [HALF_WALL])
    assert A.translate((v,), [HALF_WALL]) == B


@settings(max_examples=40)
@given(st.fractions(min_value=-3, max_value=3, max_denominator=9),
       st.fractions(min_value=-3, max_value=3, max_denominator=9),
       st.integers(-2, 2), st.integers(-2, 2))
def test_z_periodicity_a2(x1, x2, v1, v2):
    try:
        A = real_alcove_of((x1, x2), A2.walls)
    except SingularPointError:
        return
    B = real_alcove_of((x1 + v1, x2 + v2), A2.walls)
    assert A.translate((v1, v2), A2.walls) == B


def test_faces_interval():
    A = real_alcove_of((1,), [HALF_WALL])
    faces = faces_of(A, [HALF_WALL])
    assert [f.codim for f in faces] == [0, 1, 1]
    assert {f.witness for f in faces if f.codim == 1} == \
        {(F(1, 2),), (F(3, 2),)}


def test_faces_triangle_counts_and_origin_vertex():
    A = real_alcove_of((F(1, 3), F(1, 3)), A2.walls)
    faces = faces_of(A, A2.walls)
    by_codim = {}
    for f in faces:
        by_codim[f.codim] = by_codim.get(f.codim, 0) + 1
    assert by_codim == {0: 1, 1: 3, 2: 3}
    assert any(f.codim == 2 and f.witness == (F(0), F(0)) for f in faces)


def test_faces_form_intersection_lattice():
    A = real_alcove_of((F(1, 3), F(1, 3)), A2.walls)
    faces = faces_of(A, A2.walls)
    vertex_sets = {f.vertex_set for f in faces}
    for f in faces:
        for g in faces:
            meet = tuple(v for v in f.vertex_set if v in g.vertex_set)
            if meet:
                assert meet in vertex_sets
    # codim-1 faces biject with the irredundant inequalities
    codim1 = [f for f in faces if f.codim == 1]
    assert len(codim1) == len(A.inequalities)
    actives = {f.active[0] for f in codim1 if len(f.active) == 1}
    assert actives == set(A.inequalities)


def reference_faces(A, walls):
    """faces_of as first written: for every subset of the inequalities, the
    vertices tight on all of them, and the active set recomputed from
    pairings."""
    cons = A.constraints(walls)
    verts = vertices(cons, A.rank)
    # per inequality, the vertices tight on it, by pairing
    tight = [frozenset(j for j, v in enumerate(verts) if pairing(c, v) == b)
             for c, b, _ in cons]
    every = frozenset(range(len(verts)))
    seen = {}
    for r in range(len(cons) + 1):
        for subset in combinations(range(len(cons)), r):
            vset = tuple(verts[j] for j in sorted(
                every.intersection(*[tight[i] for i in subset])))
            if not vset or vset in seen:
                continue
            active = [A.inequalities[i] for i, (coeffs, rhs, _) in
                      enumerate(cons)
                      if all(pairing(coeffs, v) == rhs for v in vset)]
            dim = fraction_matrix_rank(
                [tuple(a - b for a, b in zip(v, vset[0])) for v in vset[1:]])
            seen[vset] = Face(
                parent=A,
                active=tuple(sorted(active, key=lambda t: (t[0], t[2], t[1]))),
                codim=A.rank - dim,
                witness=tuple(sum(v[j] for v in vset) / len(vset)
                              for j in range(A.rank)),
                vertex_set=vset)
    return sorted(seen.values(), key=lambda f: (f.codim, f.active))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_faces_match_per_subset_reference(data):
    rank, walls = data.draw(arrangements(CROSS_WALLS))
    _, A = regular_alcove(data, walls, rank)
    v = tuple(data.draw(st.lists(st.integers(-3, 3), min_size=rank,
                                 max_size=rank)))
    alpha = {w.id: w.alpha for w in walls}
    for B in (A, A.translate(v, walls)):
        # no face of a simplex needs a rank; the faces of an octahedron or
        # a cross-polytope run it
        simplex = len(B.incidence.nums) == rank + 1
        with (mock.patch.object(alcoves, "matrix_rank", must_not_run)
              if simplex else ExitStack()):
            faces = faces_of(B, walls)
        assert faces == reference_faces(B, walls)
        # each witness is the Fraction sum of the face's vertices over their
        # count, and a vertex's witness is the vertex itself
        assert [f.witness for f in faces] == [
            tuple(sum(coords) / len(f.vertex_set)
                  for coords in zip(*f.vertex_set)) for f in faces]
        assert all(f.witness == f.vertex_set[0] for f in faces
                   if len(f.vertex_set) == 1)
        # faces_of reads a simplex's codims off the active count: each must
        # still be the rank of the face's active covectors
        assert [f.codim for f in faces] == [
            matrix_rank([alpha[wid] for wid, _, _ in f.active])
            for f in faces]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_face_active_rows_keep_the_canonical_order(data):
    """faces_of keeps each face's active rows in the alcove's order, which
    is canonical for a built alcove and for its lattice translates; a
    translate keeps each row's wall and sense at its position."""
    rank, walls = data.draw(arrangements())
    _, A = regular_alcove(data, walls, rank)
    v = tuple(data.draw(st.lists(st.integers(-3, 3), min_size=rank,
                                 max_size=rank)))
    T = A.translate(v, walls)
    assert [(wid, sense) for wid, _, sense in T.inequalities] == [
        (wid, sense) for wid, _, sense in A.inequalities]
    for B in (A, T):
        assert B.inequalities == _canonical(B.inequalities)
        for f in faces_of(B, walls):
            assert f.active == _canonical(f.active)


def bracket(wall, t, p=None, slope=0):
    """The offsets (lo, hi) that _bracket_nums finds around the Fraction t,
    as two Fractions."""
    d, lo, hi, _ = _bracket_nums(wall, t.numerator, t.denominator, p, slope)
    return F(lo, d), F(hi, d)


def bracket_rows(x, walls, p=None, direction=None):
    """Test-only oracle: the inequalities _alcove_around starts from, in
    canonical order, from Fraction pairings: the offsets that
    _bracket_nums finds around <alpha, x> on every wall, with
    <alpha, direction> as the slope when a direction is given."""
    ineqs = []
    for w in walls:
        slope = 0 if direction is None else pairing(w.alpha, vec(direction))
        lo, hi = bracket(w, pairing(w.alpha, vec(x)), p, slope)
        ineqs += [(w.id, lo, GE), (w.id, hi, LE)]
    return _canonical(ineqs)


def fraction_alcove(x, walls, p=None, direction=None):
    """Test-only oracle: _alcove_around on the Fraction rows of
    bracket_rows, as the alcove build read them before its integer rows,
    with one pass over them in their own order."""
    rows = bracket_rows(x, walls, p, direction)
    kept, inc = facets_and_vertices(
        integer_rows(constraints_of(rows, walls)), len(x))
    return RealAlcove(len(x), tuple(rows[i] for i in kept), inc)


def build_outcome(build, *args):
    """The alcove build returns, with its incidence, or the type and fields
    of its error."""
    got = bracket_outcome(build, *args)
    return (got, got.incidence) if isinstance(got, RealAlcove) else got


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_alcove_facets_and_vertices_match_irredundant_and_vertices(data):
    rank, walls = data.draw(arrangements())
    x, A = regular_alcove(data, walls, rank)
    rows = bracket_rows(x, walls)
    cons = constraints_of(rows, walls)
    kept, inc = facets_and_vertices(integer_rows(cons), rank)
    assert (kept, inc.points()) == irredundant_and_vertices(cons, rank)
    assert A.inequalities == tuple(rows[i] for i in kept)
    assert inc.points() == A.vertices()
    assert inc == A.incidence


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_p_alcove_facet_i_is_the_alcove_inequality_i(data):
    """p_alcove_of keeps A's order: facet i of the p-alcove has the wall of
    A's inequality i, oriented +1 for >= and -1 for <=, on drawn builtin,
    octahedral and cross-polytope alcoves, their lattice translates and
    p-family builds."""
    rank, walls = data.draw(arrangements(CROSS_WALLS))
    v = tuple(data.draw(st.lists(st.integers(-40, 40), min_size=rank,
                                 max_size=rank)))
    p = data.draw(st.sampled_from([2, 3, 5, 7, 11, 13, 101]))
    _, A = regular_alcove(data, walls, rank)
    built = [A, A.translate(v, walls)]
    try:
        built.append(_alcove_around(v, walls, p))
    except OnPWallError:
        pass
    for B in built:
        assert B.inequalities == _canonical(B.inequalities)
        assert [(wid, orient) for wid, orient, _
                in p_alcove_of(B, walls).inequalities] == [
            (wid, 1 if sense == GE else -1) for wid, _, sense
            in B.inequalities]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_p_family_build_matches_the_fraction_rows(data):
    rank, walls = data.draw(arrangements())
    x = tuple(data.draw(st.lists(st.integers(-40, 40), min_size=rank,
                                 max_size=rank)))
    p = data.draw(st.sampled_from([2, 3, 5, 7, 11, 13, 101]))
    assert build_outcome(_alcove_around, x, walls, p) == \
        build_outcome(fraction_alcove, x, walls, p)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_build_matches_the_fraction_rows_far_out(data):
    # denominators up to 10**6, lattice translates up to 10**15
    rank, walls = data.draw(arrangements())
    x = tuple(data.draw(st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=10**6),
        min_size=rank, max_size=rank)))
    v = tuple(data.draw(st.lists(st.integers(-10**15, 10**15),
                                 min_size=rank, max_size=rank)))
    for y in (x, vadd(x, v)):
        assert build_outcome(_alcove_around, y, walls) == \
            build_outcome(fraction_alcove, y, walls)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_direction_build_matches_the_bracket_slopes(data):
    # from a face witness, on the face's walls, as opposite_alcove steps
    # from it, and along a drawn direction, which may lie in a wall
    rank, walls = data.draw(arrangements())
    _, A = regular_alcove(data, walls, rank)
    f = data.draw(st.sampled_from(faces_of(A, walls)[1:])).witness
    drawn = tuple(data.draw(st.lists(
        st.fractions(min_value=-2, max_value=2, max_denominator=7),
        min_size=rank, max_size=rank)))
    for u in (vsub(f, A.interior_point()), drawn):
        assert build_outcome(_alcove_around, f, walls, None, u) == \
            build_outcome(fraction_alcove, f, walls, None, u)


def matching_face(B, face, walls):
    """Test-only oracle: the face of B with face's vertex set, found by a
    search over faces_of(B), as opposite_pair first found it."""
    return next(g for g in faces_of(B, walls)
                if g.vertex_set == face.vertex_set)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_the_opposite_alcove_holds_the_crossed_face(data):
    """Near its witness a face's alcove is a cell of the central
    arrangement through the face, and the opposite alcove that cell
    negated (Bjorner et al., "Oriented Matroids", 1993, 4.1): it holds the
    same face, with its own rows on the face's hyperplanes, each of the
    opposite sense, as opposite_pair reads it."""
    rank, walls = data.draw(arrangements(CROSS_WALLS, TWIN_WALLS))
    _, A = regular_alcove(data, walls, rank)
    flip = {GE: LE, LE: GE}
    for face in faces_of(A, walls)[1:]:
        B = opposite_alcove(A, face, walls)
        on_face = {(wid, m) for wid, m, _ in face.active}
        crossed = face.replace(parent=B, active=tuple(
            row for row in B.inequalities if row[:2] in on_face))
        assert matching_face(B, face, walls) == crossed
        assert sorted(crossed.active) == sorted(
            (wid, m, flip[sense]) for wid, m, sense in face.active)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_carried_vertices_are_compared_and_left_out_of_json(data):
    rank, walls = data.draw(arrangements())
    x, A = regular_alcove(data, walls, rank)
    # the carried record is the one a pass over the kept rows gives
    cons = constraints_of(A.inequalities, walls)
    kept, inc = facets_and_vertices(integer_rows(cons), rank)
    assert kept == list(range(len(cons))) and inc == A.incidence
    other = A.replace(incidence=polyhedra.VertexIncidence(1, (), ()))
    assert A != other and A.to_json() == other.to_json()
    assert A.vertices() == vertices(cons, rank)
    assert A.interior_point() == interior_point(cons, rank)
    v = tuple(data.draw(st.lists(st.integers(-3, 3), min_size=rank,
                                 max_size=rank)))
    B = A.translate(v, walls)
    assert B == real_alcove_of(vadd(x, v), walls)
    assert B.incidence == facets_and_vertices(
        integer_rows(B.constraints(walls)), rank)[1]
    assert B.vertices() == vertices(B.constraints(walls), rank)
    assert B.interior_point() == interior_point(B.constraints(walls), rank)


def pairing_incidence(A, walls):
    """Test-only oracle for the VertexIncidence an alcove carries: the
    tightness faces_of once computed itself, in integers.  With A's vertices
    as integer numerators N_v over one common denominator D, the inequality
    <alpha, .> >= m (or <=) is tight at v when
    <alpha, N_v> * den(m) = num(m) * D; bit i stands for inequality i."""
    verts = vertices(A.constraints(walls), A.rank)
    den = lcm(*(x.denominator for v in verts for x in v))
    nums = tuple(tuple(x.numerator * (den // x.denominator) for x in v)
                 for v in verts)
    alpha = {w.id: w.alpha for w in walls}
    masks = tuple(sum(1 << i for i, (wid, m, _) in enumerate(A.inequalities)
                      if sum(a * x for a, x in zip(alpha[wid], nv))
                      * m.denominator == m.numerator * den) for nv in nums)
    return polyhedra.VertexIncidence(den, nums, masks)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_carried_incidence_matches_pairing_tightness(data):
    rank, walls = data.draw(arrangements())
    x, A = regular_alcove(data, walls, rank)
    assert A.incidence == pairing_incidence(A, walls)
    v = tuple(data.draw(st.lists(st.integers(-10**15, 10**15),
                                 min_size=rank, max_size=rank)))
    B = A.translate(v, walls)
    assert B.incidence == pairing_incidence(B, walls) == \
        real_alcove_of(vadd(x, v), walls).incidence


def test_translate_by_a_non_lattice_vector_is_a_value_error():
    # A + (1/2,) would be [5/6, 1], but the alcove at 11/12 is [2/3, 4/3]
    A = real_alcove_of((F(5, 12),), HILB3.walls)
    assert A.vertices() == [(F(1, 3),), (F(1, 2),)]
    with pytest.raises(ValueError, match=r"^translate: \(1/2\) is not a "
                                         r"lattice vector$"):
        A.translate((F(1, 2),), HILB3.walls)
    assert A.translate((F(2),), HILB3.walls) == A.translate((2,), HILB3.walls)


def test_faces_and_opposite_alcoves_solve_no_vertices_again():
    counts = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    cases = [((F(1, 3), F(1, 5)), A2.walls), ((F(1, 10),), HILB3.walls),
             ((F(1, 7), F(1, 5), F(-1, 3)), OCTAHEDRAL_WALLS),
             ((F(1, 9), F(1, 5), F(2, 7)), weyl_a_instance(4).walls)]
    one_pass = Counter(facets_and_vertices=1)
    with ExitStack() as stack:
        for module in (polyhedra, alcoves):
            for name in ("vertices", "irredundant", "facets_and_vertices"):
                if not hasattr(module, name):  # alcoves has no vertices
                    continue
                stack.enter_context(mock.patch.object(
                    module, name, counting(name, getattr(module, name))))
        for x, walls in cases:
            A = real_alcove_of(x, walls)
            assert counts == one_pass
            counts.clear()
            faces = faces_of(A, walls)
            A.interior_point()
            faces_of(A.translate((3,) * A.rank, walls), walls)
            assert counts == Counter()
            for face in faces[1:]:
                opposite_alcove(A, face, walls)
                assert counts == one_pass
                counts.clear()


def test_the_pass_reads_the_integer_rows_it_is_handed():
    # facets_and_vertices takes integer rows as its contract: the alcove
    # build makes them, a quantum chamber scales its rows by integer_row
    # before the pass, and the pass re-checks none
    ran = AssertionError("polyhedra.integer_row ran")
    cases = [((F(1, 3), F(1, 5)), A2.walls), ((F(1, 10),), HILB3.walls),
             ((F(1, 7), F(1, 5), F(-1, 3)), OCTAHEDRAL_WALLS)]
    for x, walls in cases:
        A = real_alcove_of(x, walls)
        expected = vertices(A.constraints(walls), A.rank)
        with mock.patch.object(polyhedra, "integer_row", side_effect=ran):
            assert real_alcove_of(x, walls).vertices() == expected
    lam = (F(2), F(-1), F(3))
    walls = weyl_a_instance(4).walls
    _, chamber = integral_walls_and_positive_chamber(lam, walls)
    with mock.patch.object(polyhedra, "integer_row", side_effect=ran):
        got = quantum_chamber(lam, chamber, walls)
    assert got == quantum_chamber(lam, chamber, walls)
    assert len(got.inequalities) == 3


def test_walls_that_do_not_span_keep_irredundant_bounds():
    # one wall in the plane: the alcove is a strip, with no vertex
    walls = [Wall(id=0, alpha=(1, 0), sigma_tilde=frozenset([F(0)]))]
    A = real_alcove_of((F(1, 3), F(5)), walls)
    assert A.inequalities == ((0, F(1), LE), (0, F(0), GE))
    assert A.incidence.nums == () and A.interior_point() is None
    with pytest.raises(ValueError, match="^unbounded alcove: wall covectors "
                                         "do not span$"):
        faces_of(A, walls)


def test_faces_of_a_build_with_a_row_on_no_vertex_is_a_value_error():
    # a p-family build with no interior keeps every bound, and its masks
    # leave out the rows tight on no vertex: Hilb(3, ell 1)'s shifts on
    # three walls of the plane at p = 7 around (-14, -12), whose one vertex
    # (-2, -5/3) lies on neither of wall 0's bounds, so faces_of would
    # misname the active rows; it is p_membership's source alcove before
    # PTooSmallError
    walls = [Wall(id=i, alpha=a, sigma_tilde=hilb_sigma_tilde(3, 1))
             for i, a in enumerate([(1, 0), (0, 1), (1, 1)])]
    A = _alcove_around((-14, -12), walls, 7)
    assert A.vertices() == [(F(-2), F(-5, 3))]
    assert A.incidence.masks == (0b111100,)
    with pytest.raises(ValueError, match="^redundant inequalities: not an "
                                         "alcove's facets$"):
        faces_of(A, walls)


@pytest.mark.parametrize("n, ell, p, x, bounds, verts", [
    # the p-hyperplanes around x rescale to one point, -39/2
    (2, 1, 2, -39, ((0, F(-39, 2), LE), (0, F(-39, 2), GE)),
     [(F(-39, 2),)]),
    # ... or to an empty interval, [-8/3, -11/4]
    (4, 1, 13, -35, ((0, F(-11, 4), LE), (0, F(-8, 3), GE)), []),
])
def test_small_p_alcoves_without_interior_keep_irredundant_bounds(
        n, ell, p, x, bounds, verts):
    # in rank 1 both bounds are irredundant, and the build keeps every bound
    walls = hilb_instance(n, ell).walls
    assert bracket_rows((x,), walls, p) == bounds
    assert irredundant(constraints_of(bounds, walls), 1) == [0, 1]
    A = _alcove_around((x,), walls, p)
    assert (A.inequalities, A.vertices()) == (bounds, verts)
    with pytest.raises(PTooSmallError):
        p_membership((x,), p, walls)


def test_small_p_alcove_without_interior_in_rank_2_keeps_every_bound():
    # Hilb(3, ell 1)'s shifts on three walls of the plane: at p = 7 the
    # bounds around (-14, -12) meet in the one point (-2, -5/3), where the
    # lines of walls 1 and 2 cross inside wall 0's slab; an elimination
    # would drop wall 0's bounds, and the pass keeps them
    walls = [Wall(id=i, alpha=a, sigma_tilde=hilb_sigma_tilde(3, 1))
             for i, a in enumerate([(1, 0), (0, 1), (1, 1)])]
    x, p = (-14, -12), 7
    bounds = bracket_rows(x, walls, p)
    assert bounds == ((0, F(-5, 3), LE), (0, F(-7, 3), GE),
                      (1, F(-5, 3), LE), (1, F(-5, 3), GE),
                      (2, F(-11, 3), LE), (2, F(-11, 3), GE))
    assert irredundant(constraints_of(bounds, walls), 2) == \
        [2, 3, 4, 5]
    with mock.patch.object(polyhedra, "irredundant", must_not_run):
        A = _alcove_around(x, walls, p)
        assert A.inequalities == bounds
        assert A.vertices() == [(F(-2), F(-5, 3))]
        with pytest.raises(PTooSmallError):
            p_membership(x, p, walls)


def test_small_p_builds_with_at_most_rank_vertices_end_in_p_too_small():
    # the scan an early PTooSmallError rests on: every p-family build
    # whose pass finds at most rank vertices (empty, a point or, in rank
    # 2 and up, too few for an interior) is one p_membership rejects, and
    # no build runs an elimination
    scans = [(hilb_instance(n, ell), (2, 3, 5, 7, 11, 13),
              [(x,) for x in range(-40, 41)])
             for n in range(2, 13) for ell in range(3)]
    scans += [(inst, (2, 3, 5, 7),
               list(product(range(-6, 7), repeat=inst.rank)))
              for inst in (weyl_a_instance(3), weyl_a_instance(4))]
    builds = few = 0
    with ExitStack() as stack:
        for name in ("irredundant", "is_redundant", "feasible"):
            stack.enter_context(mock.patch.object(polyhedra, name,
                                                  must_not_run))
        for inst, primes, points in scans:
            for p in primes:
                for x in points:
                    try:
                        A = _alcove_around(x, inst.walls, p)
                    except OnPWallError:
                        continue
                    builds += 1
                    if len(A.incidence.nums) <= inst.rank:
                        few += 1
                        with pytest.raises(PTooSmallError):
                            p_membership(x, p, inst.walls)
    assert (builds, few) == (4301, 323)


def must_not_run(*args, **kwargs):
    raise AssertionError("called")


def test_faces_of_the_cross_polytope_still_run_the_rank():
    # no vertex of the cross-polytope is simple, so each of its 81 faces
    # runs the rank once, on its active rows
    A = real_alcove_of((0, 0, 0, 0), CROSS_WALLS)
    calls = []

    def counted(rows):
        calls.append(len(rows))
        return matrix_rank(rows)

    with mock.patch.object(alcoves, "matrix_rank", counted):
        faces = faces_of(A, CROSS_WALLS)
    assert sorted(calls) == sorted(len(f.active) for f in faces)
    assert Counter(f.codim for f in faces) == {0: 1, 1: 16, 2: 32, 3: 24,
                                               4: 8}
    alpha = {w.id: w.alpha for w in CROSS_WALLS}
    cons = dict(zip(A.inequalities, A.constraints(CROSS_WALLS)))
    for f in faces:
        assert f.codim == (matrix_rank([alpha[wid] for wid, _, _ in f.active])
                           if f.active else 0)
        # the active rows are those tight on every vertex of the face
        assert set(f.active) == {
            ineq for ineq, (c, b, _) in cons.items()
            if all(pairing(c, v) == b for v in f.vertex_set)}


def test_faces_of_the_octahedron_at_the_origin():
    A = real_alcove_of((0, 0, 0), OCTAHEDRAL_WALLS)
    assert len(A.inequalities) == 8
    faces = faces_of(A, OCTAHEDRAL_WALLS)
    assert faces == reference_faces(A, OCTAHEDRAL_WALLS)
    assert [f.codim for f in faces] == [0] + [1] * 8 + [2] * 12 + [3] * 6
    vertex_faces = faces[-6:]
    assert {f.vertex_set for f in vertex_faces} == {
        (tuple(F(s, 2) if j == i else F(0) for j in range(3)),)
        for i in range(3) for s in (1, -1)}
    assert all(len(f.active) == 4 for f in vertex_faces)


# <alpha, x> = 1/2 + k for the sixteen covectors (1, +-1, +-1, +-1, +-1):
# the alcove at RANK5_POINT is the 5-cross-polytope |x_1| + ... + |x_5| <=
# 1/2, with 32 facets and 10 vertices, each on 16 facets; its first 9 and
# 11 walls bound alcoves of 18 and 22 facets
RANK5_WALLS = tuple(
    Wall(id=i, alpha=(1,) + signs, sigma_tilde=frozenset([F(1, 2)]))
    for i, signs in enumerate(product((1, -1), repeat=4)))
RANK5_POINT = (F(1, 97), F(1, 89), F(1, 83), F(1, 79), F(1, 73))


def test_faces_of_the_5_cross_polytope_are_its_f_vector():
    A = real_alcove_of(RANK5_POINT, RANK5_WALLS)
    assert len(A.inequalities) == 32
    faces = faces_of(A, RANK5_WALLS)
    assert len(faces) == 243
    assert Counter(f.codim for f in faces) == {0: 1, 1: 32, 2: 80, 3: 80,
                                               4: 40, 5: 10}


def test_faces_of_takes_time_by_faces_not_by_subsets_of_facets():
    """faces_of walks the face lattice: at 22 facets (279 faces) it takes
    about its time at 18 (243 faces), not the 16 times that 2^22 / 2^18
    subsets would."""
    best = []
    for k, n_facets in [(9, 18), (11, 22)]:
        walls = RANK5_WALLS[:k]
        A = real_alcove_of(RANK5_POINT, walls)
        assert len(A.inequalities) == n_facets
        times = []
        for _ in range(3):
            start = perf_counter()
            faces_of(A, walls)
            times.append(perf_counter() - start)
        best.append(min(times))
    assert best[1] <= 4 * best[0]


def test_faces_weyl_a6_simplex():
    inst = weyl_a_instance(6)
    A = real_alcove_of(tuple(F(1, 11) for _ in range(inst.rank)), inst.walls)
    assert len(A.inequalities) == 6
    with mock.patch.object(alcoves, "matrix_rank", must_not_run):
        faces = faces_of(A, inst.walls)
    assert len(faces) == 63
    assert [f.codim for f in faces].count(inst.rank) == 6


def faces_digest(faces):
    """sha256 of every face's codim, active set, witness and vertices."""
    data = [[f.codim, [[w, rat_str(m), s] for w, m, s in f.active],
             [rat_str(c) for c in f.witness],
             [[rat_str(c) for c in v] for v in f.vertex_set]] for f in faces]
    return hashlib.sha256(
        json.dumps(data, separators=(",", ":")).encode()).hexdigest()


# (n, point, inequalities of real_alcove_of, number of faces, faces_digest)
# for the first three regular points of weyl_a(n) drawn by random.Random(n)
# with coordinates randint(-40, 40) / randint(5, 23), as computed by the
# Fraction kernels that preceded the integer ones
GOLDEN_WEYL_ALCOVES = [
    (6, ['33/7', '22/13', '-36/5', '-22/23', '5/4'],
     [[0, '5', '<='], [2, '-1', '>='], [8, '-5', '<='], [10, '-8', '<='],
      [11, '-7', '>='], [12, '-1', '>=']],
     63, '75639c91bc4c0d10952d89ac441651ff0804c9178ede4923bf276f1cce26c75f'),
    (6, ['-16/21', '11/7', '-37/16', '-1/2', '-1/8'],
     [[0, '-1', '>='], [3, '-2', '<='], [6, '-1', '>='], [9, '-2', '<='],
      [11, '-3', '>='], [14, '0', '<=']],
     63, '728eb1fbe1cc13b2c981692734fcc1e79feb04162d029ebe2c8948694661fadd'),
    (6, ['2/5', '-4/3', '36/11', '26/5', '-8/5'],
     [[1, '-1', '>='], [4, '6', '<='], [6, '2', '<='], [7, '7', '>='],
      [9, '3', '>='], [14, '-2', '>=']],
     63, 'ae0f272b744b41f4d787e4e744036fad114e3fa6d711f78807649a67c6ad8207'),
    (7, ['1/9', '5/3', '-31/22', '-7/4', '17/3', '24/11'],
     [[0, '0', '>='], [1, '2', '<='], [9, '4', '>='], [12, '-3', '<='],
      [16, '4', '<='], [17, '6', '>='], [19, '8', '<=']],
     127, '05da63d9344c3b0626d2e437a2ed52a065cc299b4a1c0cfdfccca2523ebbd100'),
    (7, ['7/8', '30/7', '16/3', '39/11', '23/22', '14/15'],
     [[0, '1', '<='], [5, '16', '>='], [7, '10', '<='], [11, '5', '>='],
      [13, '10', '<='], [18, '1', '>='], [19, '2', '<=']],
     127, '94faf604adc23d0d183f2158b9def0a1cf82523ecb395d9adce212f20a7e3b40'),
    (7, ['19/23', '9/8', '-1/6', '-17/12', '-30/23', '-2/21'],
     [[4, '-1', '>='], [5, '-1', '<='], [6, '1', '>='], [7, '1', '<='],
      [14, '-3', '>='], [15, '-1', '<='], [18, '-1', '<=']],
     127, '195521e0cd4abdad57c570f214c0bfa855462bd5b761c7b7b2952de1ec9e9491'),
]


@pytest.mark.parametrize("n, point, inequalities, n_faces, digest",
                         GOLDEN_WEYL_ALCOVES)
def test_weyl_a_alcoves_and_faces_match_the_golden_table(n, point,
                                                         inequalities,
                                                         n_faces, digest):
    walls = weyl_a_instance(n).walls
    A = real_alcove_of(point, walls)
    assert A.to_json() == {"rank": n - 1, "inequalities": inequalities}
    faces = faces_of(A, walls)
    assert (len(faces), faces_digest(faces)) == (n_faces, digest)


def test_p_alcove_type_a_fundamental_symbolic():
    A = real_alcove_of((F(1, 3), F(1, 3)), A2.walls)
    pa = p_alcove_of(A, A2.walls)
    ineqs = set(pa.inequalities)
    # <alpha_i, lambda> > 0  (i.e. >= 1)  and  <theta, lambda> < p (>= 1-p)
    assert (0, 1, AffineInP(0, 0)) in ineqs
    assert (2, 1, AffineInP(0, 0)) in ineqs
    assert (1, -1, AffineInP(0, -1)) in ineqs


def test_p_alcove_1d_unit_interval():
    A = real_alcove_of((F(1, 2),), [INT_WALL])
    pa = p_alcove_of(A, [INT_WALL])
    assert set(pa.inequalities) == {
        (0, 1, AffineInP(0, 0)), (0, -1, AffineInP(0, -1))}
    # 0 < lambda < p at p = 7
    assert pa.contains((1,), 7, [INT_WALL])
    assert pa.contains((6,), 7, [INT_WALL])
    assert not pa.contains((0,), 7, [INT_WALL])
    assert not pa.contains((7,), 7, [INT_WALL])


def test_p_alcove_hilb_window_intervals():
    # inside (0,1) the p-alcove of (a'/b', a/b) is
    # [(p+1)a'/b' + ell + 1, (p+1)a/b - ell - 1]  (acceptance criterion 3)
    p = 23
    for ell in (0, 1):
        inst = hilb_instance(3, ell)
        for lo, hi in [(F(1, 3), F(1, 2)), (F(1, 2), F(2, 3))]:
            A = real_alcove_of(((lo + hi) / 2,), inst.walls)
            pa = p_alcove_of(A, inst.walls)
            bounds = {}
            for wid, orient, rhs in pa.inequalities:
                v = rhs.eval_at(p)
                bounds["lo" if orient == 1 else "hi"] = \
                    v + 1 if orient == 1 else -v - 1
            assert bounds["lo"] == (p + 1) * lo + ell + 1
            assert bounds["hi"] == (p + 1) * hi - ell - 1


def test_p_alcove_rescaling_limit():
    # dividing each inequality by p recovers the defining real offset:
    # the affine rhs has slope equal to the oriented facet offset
    for inst, pt in [(HILB3, (F(5, 12),)), (A2, (F(1, 3), F(1, 3)))]:
        A = real_alcove_of(pt, inst.walls)
        pa = p_alcove_of(A, inst.walls)
        wm = {w.id: w for w in inst.walls}
        offsets = set()
        for wid, m, sense in A.inequalities:
            offsets.add((wid, m if sense == GE else -m))
        assert {(wid, rhs.slope) for wid, orient, rhs in pa.inequalities} == offsets


def test_p_membership_hilb_examples():
    # c = 5 at p = 5 sits in the p-alcove of the real alcove (1/2, 3/2);
    # the excluded points are (p+1)/2 + p Z = {3, 8, ...}, so the lattice
    # window is [4, 7] and both 3 and 8 are on walls
    pa = p_membership((5,), 5, HILB2.walls)
    assert pa.source == real_alcove_of((1,), HILB2.walls)
    assert all(pa.contains((c,), 5, HILB2.walls) for c in (4, 5, 6, 7))
    for c, k in [(3, 0), (8, 1)]:
        with pytest.raises(OnPWallError) as exc:
            p_membership((c,), 5, HILB2.walls)
        assert (exc.value.wall_id, exc.value.sigma, exc.value.m) == \
            (0, F(1, 2), k)


def test_p_membership_a2_rho():
    pa = p_membership((1, 1), 7, A2.walls)
    assert pa.source == real_alcove_of((F(1, 3), F(1, 3)), A2.walls)


def test_integral_walls_no_class():
    # all pairings in classes missing from sigma: no integral walls
    iw, chamber = integral_walls_and_positive_chamber((F(1, 5), F(1, 7)),
                                                      A2.walls)
    assert iw == [] and chamber.covectors == ()


def test_integral_walls_type_a_integral():
    iw, chamber = integral_walls_and_positive_chamber((1, 2), A2.walls)
    assert [w.id for w in iw] == [0, 1, 2]
    assert chamber.covectors == ((1, 0), (1, 1), (0, 1))
    assert all(pairing(a, (3, 5)) >= 0 for a in chamber.covectors)


def sign_chambers(int_walls, rank):
    """Test-only oracle: every full-dimensional sign chamber of a finite
    central arrangement, one feasibility test for each of the 2^k sign
    vectors of its k walls."""
    if not int_walls:
        return [alcoves.Chamber(rank, ())]
    out = []
    for signs in product((1, -1), repeat=len(int_walls)):
        covs = tuple(tuple(s * a for a in w.alpha)
                     for s, w in zip(signs, int_walls))
        if feasible([(a, F(1), False) for a in covs], rank):
            out.append(alcoves.Chamber(rank, covs))
    return out


def test_integral_walls_hilb_two_chambers():
    c0 = F(-1, 2) + 3
    iw, chamber = integral_walls_and_positive_chamber((c0,), HILB2.walls)
    assert [w.id for w in iw] == [0]
    chambers = sign_chambers(iw, 1)
    assert {c.covectors for c in chambers} == {((1,),), ((-1,),)}
    assert chamber.covectors == ((1,),)  # 5/2 is above sigma~ = {1/2}


def test_non_regular_parameter_rejected():
    with pytest.raises(NonRegularError, match="non-regular"):
        integral_walls_and_positive_chamber((F(1, 2),), HILB2.walls)
    # quantum_chamber scans the walls the same way and raises the same error
    message = "non-regular parameter: <alpha_0, lambda> = 1/2 lies in " \
              "sigma_tilde"
    for scan in (integral_walls_and_positive_chamber,
                 lambda lam, walls: quantum_chamber(
                     lam, alcoves.Chamber(1, ((1,),)), walls)):
        with pytest.raises(NonRegularError) as info:
            scan((F(1, 2),), HILB2.walls)
        assert str(info.value) == message


def test_quantum_chamber_sl3():
    walls = [Wall(1, (1, 0), frozenset([F(0)])),
             Wall(2, (0, 1), frozenset([F(0)])),
             Wall(3, (1, 1), frozenset(map(F, [-2, -1, 0, 1, 2])))]
    iw, C = integral_walls_and_positive_chamber((1, 2), walls)
    q = quantum_chamber((1, 2), C, walls)
    assert [(a, m) for _, a, m in q.inequalities] == [
        ((1, 0), F(1)), ((0, 1), F(1)), ((1, 1), F(3))]

    def in_q(x):
        return all(pairing(a, x) >= m for _, a, m in q.inequalities)

    assert in_q((1, 2))
    assert not in_q((0, 2))
    assert not in_q((1, 1))


def test_quantum_chamber_type_a_general():
    iw, C = integral_walls_and_positive_chamber((1, 2), A2.walls)
    q = quantum_chamber((1, 2), C, A2.walls)
    assert [(a, m) for _, a, m in q.inequalities] == [
        ((1, 0), F(1)), ((0, 1), F(1))]


def test_quantum_chamber_hilb_structural():
    # chamber on the positive side starts one above the sigma~ maximum of
    # the class; minimality (start - 1 in sigma~) asserted in the library
    inst = hilb_instance(3, 1)
    c0 = F(2, 3) + 4
    iw, C = integral_walls_and_positive_chamber((c0,), inst.walls)
    q = quantum_chamber((c0,), C, inst.walls)
    (wid, alpha, m), = q.inequalities
    sigma_max = max(s for s in inst.walls[0].sigma_tilde
                    if (c0 - s).denominator == 1)
    assert m == sigma_max + 1


def test_validate_p_hilb_congruence():
    inst = hilb_instance(3, 0)
    assert validate_p(23, inst)["passed"]          # 24 divisible by 6
    rep = validate_p(13, inst)                     # 14 is not
    assert not rep["passed"] and not rep["a_denominators"]["ok"]


def test_validate_p_trivial_denominators():
    inst = weyl_a_instance(3).replace(lambdas=(vec((1, 1)),))
    for p in (3, 5, 7, 11):
        rep = validate_p(p, inst)
        assert rep["a_denominators"]["ok"] and rep["b_lambdas"]["ok"]


def test_validate_p_block_order_separation():
    # lambda = 7/2 at p=23: h-block {(3),(1,1,1)} has residues {22, 21}
    # while {(2,1)} sits at 22: interleaved, so (d) fails; at 5/2 the
    # ranges [1,19] and [22,22] are separated
    inst = hilb_instance(3, 0)
    bad = validate_p(23, inst.replace(lambdas=((F(7, 2),),)))
    assert not bad["d_block_order"]["ok"]
    good = validate_p(23, inst.replace(lambdas=((F(5, 2),),)))
    assert good["d_block_order"]["ok"]


def pairwise_block_checks(p, inst, lam):
    """Test-only oracle for validate_p (c) and (d) at one lambda: residues
    point by point and h-blocks by a pairwise scan of c differences."""
    values = {}
    for x in inst.points:
        v = (p + 1) * inst.c_value(x, lam)
        if v.denominator != 1:
            return False, False
        values[x] = v.numerator % p
    blocks = []
    for x in inst.points:
        for blk in blocks:
            if (inst.c_value(x, lam) - inst.c_value(blk[0], lam)).denominator == 1:
                blk.append(x)
                break
        else:
            blocks.append([x])
    ranges = sorted((min(values[x] for x in blk), max(values[x] for x in blk))
                    for blk in blocks)
    return True, all(ranges[i][1] < ranges[i + 1][0]
                     for i in range(len(ranges) - 1))


BLOCK_INSTANCES = ([hilb_instance(n, 0) for n in range(2, 9)]
                   + [weyl_a_instance(n) for n in (3, 4)])


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_validate_p_blocks_match_pairwise_oracle(data):
    inst = data.draw(st.sampled_from(BLOCK_INSTANCES))
    p = data.draw(st.sampled_from((5, 7, 11, 13, 23, 29, 47)))
    # denominators dividing p + 1 keep (p+1)*c integral; 5 and 2(p+1)
    # mostly break (c)
    lams = [tuple(F(data.draw(st.integers(-60, 60)),
                    data.draw(st.sampled_from((1, 2, 3, 4, 6, 5, p + 1,
                                               2 * (p + 1)))))
                  for _ in range(inst.rank))
            for _ in range(data.draw(st.integers(1, 2)))]
    rep = validate_p(p, inst.replace(lambdas=tuple(vec(l) for l in lams)))
    expected = [pairwise_block_checks(p, inst, lam) for lam in lams]
    assert rep["c_scalars"]["ok"] == all(c for c, _ in expected)
    assert [c["ok"] for c in rep["d_block_order"]["checks"]] == \
        [d for _, d in expected]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_validate_p_c_scalars_match_the_fraction_form(data):
    # with no registered lambda, (c) asks that every (p+1)*c be integral
    inst = data.draw(st.sampled_from((hilb_instance(3, 0),
                                      weyl_a_instance(3))))
    p = data.draw(st.sampled_from((5, 7, 11, 13, 23)))
    rational = st.builds(F, st.integers(-40, 40),
                         st.sampled_from((1, 2, 3, 4, 6, 8, 12, p + 1)))
    c_const = {x: data.draw(rational) for x in inst.points}
    c_linear = {x: tuple(data.draw(rational) for _ in range(inst.rank))
                for x in inst.points}
    rep = validate_p(p, inst.replace(c_const=c_const, c_linear=c_linear))
    assert rep["c_scalars"]["ok"] == all(
        ((p + 1) * c).denominator == 1 for x in inst.points
        for c in (c_const[x], *c_linear[x]))


def test_validate_p_small_p_empty_alcove():
    # at p=5 with n=4 data the alcove (1/4, 1/3) has window
    # [6/4*... ] -> (p+1)/4 + 1 = 2.5 territory: lattice gap
    inst = hilb_instance(4, 1)
    A = real_alcove_of((F(7, 24),), inst.walls)
    rep = validate_p(5, inst, alcoves=[A])
    assert not rep["e_nonempty"]["ok"]
    assert not rep["passed"]
    big = validate_p(47, inst, alcoves=[A])
    assert big["e_nonempty"]["ok"]


def capped_scan_lattice_point(pa, p, walls, limit=100_000):
    """Test-only oracle for p_lattice_point: the rounded center of the
    evaluated polytope, then a lex scan of its vertices' integer bounding
    box when that holds at most limit points.  Returns (point, whether the
    center hit)."""
    wm = {w.id: w for w in walls}
    cons = [(tuple(orient * a for a in wm[wid].alpha), rhs.eval_at(p), False)
            for wid, orient, rhs in pa.inequalities]
    d = pa.source.rank
    verts = vertices(cons, d)
    if not verts:
        return None, False
    center = tuple(sum(v[j] for v in verts) / len(verts) for j in range(d))
    cand = tuple((c + F(1, 2)).__floor__() for c in center)
    if pa.contains(cand, p, walls):
        return cand, True
    lo = [min(v[j] for v in verts).__ceil__() for j in range(d)]
    hi = [max(v[j] for v in verts).__floor__() for j in range(d)]
    size = 1
    for a, b in zip(lo, hi):
        size *= max(0, b - a + 1)
    assert size <= limit, "oracle box above its cap"
    return next((x for x in product(*(range(a, b + 1)
                                      for a, b in zip(lo, hi)))
                 if pa.contains(x, p, walls)), None), False


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_p_lattice_point_matches_capped_scan(data):
    inst = data.draw(st.sampled_from(BLOCK_INSTANCES))
    A = far_alcove(data.draw, inst.walls, inst.rank)
    p = data.draw(st.sampled_from((2, 3, 5, 7, 11, 13)))
    pa = p_alcove_of(A, inst.walls)
    assert p_lattice_point(pa, p, inst.walls) == \
        capped_scan_lattice_point(pa, p, inst.walls)[0]


@pytest.mark.parametrize("point, witness", [
    ((F(-9, 8), F(3, 4), F(4, 3)), (-8, 4, 7)),
    ((F(20, 9), F(11, 6), F(-29, 9)), (12, 9, -18)),
    ((F(3, 2), F(13, 7), F(37, 6)), (7, 9, 32)),
])
def test_p_lattice_point_after_a_center_miss(point, witness):
    # weyl_a(4) at p = 5: the rounded center lies outside the p-alcove,
    # which still holds lattice points
    walls = weyl_a_instance(4).walls
    pa = p_alcove_of(real_alcove_of(point, walls), walls)
    assert capped_scan_lattice_point(pa, 5, walls) == (witness, False)
    assert p_lattice_point(pa, 5, walls) == witness


def test_p_membership_against_bruteforce_oracle():
    # rank 1 oracle: enumerate the excluded values (p+1)*sigma + p*k
    # directly and compare the lattice window
    for inst, p in [(hilb_instance(2, 0), 5), (hilb_instance(3, 0), 23),
                    (hilb_instance(3, 1), 23)]:
        wall = inst.walls[0]
        excluded = set()
        for sigma in wall.sigma_tilde:
            for k in range(-6, 7):
                v = (p + 1) * sigma + p * k
                if v.denominator == 1:
                    excluded.add(v.numerator)
        for c in range(-2 * p, 2 * p):
            if c in excluded:
                with pytest.raises(OnPWallError):
                    p_membership((c,), p, inst.walls)
            else:
                pa = p_membership((c,), p, inst.walls)
                lo = max(v for v in excluded if v < c)
                hi = min(v for v in excluded if v > c)
                window = set(range(lo + 1, hi))
                got = {z for z in range(lo - 1, hi + 2)
                       if pa.contains((z,), p, inst.walls)}
                assert got == window


def test_the_alcove_build_makes_no_pairing_and_no_dropped_fraction():
    # the build pairs in integers, and makes a Fraction for each kept
    # bound only
    made = []

    def counted_fraction(*args):
        made.append(args)
        return F(*args)

    cases = [(A2.walls, (F(1, 3), F(1, 5)), (4, 7), 5),
             (HILB3.walls, (F(5, 12),), (6,), 5),
             (hilb_instance(4, 1).walls, (F(-7, 9),), (-35,), 13),
             (weyl_a_instance(5).walls, (F(1, 9), F(1, 5), F(2, 7), F(-3, 4)),
              (2, 2, -3, 4), 11)]
    expected = [(real_alcove_of(x, walls), p_outcome(y, p, walls))
                for walls, x, y, p in cases]
    with mock.patch.object(alcoves, "pairing", must_not_run), \
            mock.patch.object(alcoves, "Fraction", counted_fraction):
        for (walls, x, y, p), (A, pa) in zip(cases, expected):
            made.clear()
            got = real_alcove_of(x, walls)
            assert (got, got.incidence) == (A, A.incidence)
            assert len(made) == len(A.inequalities)
            assert p_outcome(y, p, walls) == pa
    # p_membership ends in a p-alcove, and once in PTooSmallError
    assert [pa is PTooSmallError for _, pa in expected] == [False, False,
                                                            True, False]


def p_outcome(x, p, walls):
    """p_membership's p-alcove, or PTooSmallError's type."""
    try:
        return p_membership(x, p, walls)
    except PTooSmallError:
        return PTooSmallError


def test_a_point_of_the_wrong_length_is_a_value_error(tmp_path):
    a4 = weyl_a_instance(4)
    A = real_alcove_of((F(1, 9), F(1, 5), F(2, 7)), a4.walls)
    face = faces_of(A, a4.walls)[1]
    for x, lattice in [((F(1, 3), F(1, 5), F(1, 7)), (1, 2, 3)),
                       ((1,), (1,))]:
        message = (rf"^point has {len(x)} coordinates but the walls have "
                   r"rank 2$")
        with pytest.raises(ValueError, match=message):
            real_alcove_of(x, A2.walls)
        with pytest.raises(ValueError, match=message):
            p_membership(lattice, 5, A2.walls)
    with pytest.raises(ValueError, match=r"^point has 3 coordinates but the "
                                         r"walls have rank 2$"):
        opposite_alcove(A, face, A2.walls)
    config = tmp_path / "a2.json"
    config.write_text(json.dumps({"builtin": "weyl_a", "n": 3}))
    for cmd, point in [("alcove", "1/3,1/5,1/7"), ("membership", "1")]:
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = dispatch([cmd, "--config", str(config), "--point", point]
                            + (["--p", "5"] if cmd == "membership" else []))
        n = len(point.split(","))
        assert (code, buf.getvalue()) == (1, json.dumps({
            "error": f"--point has {n} coordinates but the instance has "
                     f"rank 2"}) + "\n")


def test_exactness_with_large_denominators():
    # arbitrary-precision rationals flow through the whole pipeline
    big = F(10**12 + 1, 10**9 + 7)
    inst = hilb_instance(3, 0)
    A = real_alcove_of((big,), inst.walls)
    assert alcove_contains(A, (big,), inst.walls, strict=True)
    assert A == real_alcove_of((big + 10**15,), inst.walls).translate(
        (-10**15,), inst.walls)


def test_translation_path_interval():
    inst = hilb_instance(2, 0)
    pa = p_membership((4,), 5, inst.walls)
    steps = translation_path((4,), (7,), pa, 5, inst.generators, inst.walls)
    assert steps == [(1,), (1,), (1,)]
    assert translation_path((5,), (5,), pa, 5, inst.generators,
                            inst.walls) == []


def test_translation_path_search_cap_is_a_value_error():
    inst = hilb_instance(2, 0)
    pa = p_membership((4,), 5, inst.walls)
    with mock.patch.object(alcoves, "MAX_PATH_NODES", 2):
        with pytest.raises(ValueError, match="search space exceeded"):
            translation_path((4,), (7,), pa, 5, inst.generators, inst.walls)
        # the CLI prints it as one error line
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = dispatch(["path", "--builtin", "hilb", "--n", "2",
                             "--from", "4", "--to", "7", "--p", "5"])
    assert code == 1
    assert json.loads(buf.getvalue()) == {
        "error": "translation_path: search space exceeded (2 lattice points)"}


def test_translation_path_2d_replayed_through_membership():
    p = 7
    pa = p_membership((1, 1), p, A2.walls)
    src, dst = (1, 1), (2, 3)
    assert pa.contains(dst, p, A2.walls)
    steps = translation_path(src, dst, pa, p, A2.generators, A2.walls)
    cur = src
    for s in steps:
        cur = tuple(a + b for a, b in zip(cur, s))
        assert p_membership(cur, p, A2.walls).source == pa.source
    assert cur == dst


def fraction_bfs_path(lam1, lam2, P, p, generators, walls):
    """Test-only oracle for translation_path: the breadth-first search over
    Fraction points, each tested with PAlcove.contains."""
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
            nxt = tuple(a + b for a, b in zip(cur, s))
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
            if len(prev) > alcoves.MAX_PATH_NODES:
                raise ValueError("search space exceeded")
    raise ValueError("no path")


PATH_INSTANCES = [weyl_a_instance(n) for n in (3, 4, 5)] + \
    [hilb_instance(n, 0) for n in (2, 3, 4)]
PRIMES_5_113 = [q for q in range(5, 114)
                if all(q % d for d in range(2, int(q ** 0.5) + 1))]


def path_outcome(search, *args):
    """The steps search returns, or the type of the exception it raises."""
    try:
        return search(*args)
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_translation_path_matches_fraction_bfs_oracle(data):
    inst = data.draw(st.sampled_from(PATH_INSTANCES))
    p = data.draw(st.sampled_from(PRIMES_5_113))
    src = tuple(data.draw(st.integers(-2 * p, 2 * p))
                for _ in range(inst.rank))
    try:
        pa = p_membership(src, p, inst.walls)
    except OnPWallError:
        assume(False)
    moves = [tuple(sign * c for c in g)
             for g in inst.generators for sign in (1, -1)]
    kind = data.draw(st.sampled_from(("walk", "near", "far")))
    if kind == "walk":
        # a short walk inside P: reachable
        dst = src
        for _ in range(data.draw(st.integers(0, 4))):
            nxt = tuple(a + b for a, b in
                        zip(dst, data.draw(st.sampled_from(moves))))
            if pa.contains(nxt, p, inst.walls):
                dst = nxt
    elif kind == "near":
        # inside P, outside it, or inside but cut off
        dst = tuple(c + data.draw(st.integers(-3, 3)) for c in src)
    else:
        dst = tuple(c + data.draw(st.sampled_from((-1, 1))) * 3 * p
                    for c in src)
    args = (src, dst, pa, p, inst.generators, inst.walls)
    with mock.patch.object(alcoves, "MAX_PATH_NODES", 1000):
        got = path_outcome(translation_path, *args)
        expected = path_outcome(fraction_bfs_path, *args)
    if isinstance(got, list) and expected is ValueError:
        # a monotone path found within the cap, where the oracle passed its
        # cap: uncapped (20 000 holds the rank-4 L1 ball of radius 12), the
        # oracle must find the same path
        with mock.patch.object(alcoves, "MAX_PATH_NODES", 20_000):
            expected = path_outcome(fraction_bfs_path, *args)
    assert got == expected
    if kind == "walk":
        assert isinstance(got, list) or got is ValueError


def path_digest(path):
    """sha256 of a path's steps as rational strings."""
    return hashlib.sha256(json.dumps(
        [[rat_str(c) for c in s] for s in path]).encode()).hexdigest()


@pytest.mark.parametrize("p, dst, length, digest", [
    # the breadth-first path, which took 2.3 s at p = 101
    (101, (54, 27, 18), 96,
     "8d121013cd8fadeadae16558ae5f4a427cb7a31ddce69a1841cf21d9a1929985"),
    # past the breadth-first search's cap of 200 000 lattice points
    (211, (114, 57, 38), 206,
     "a30cce673f54e88e46678255e4057edefb21e6aaf4bb53d0549b52a186f1c052"),
])
def test_far_weyl_a4_paths_take_time_in_proportion_to_their_length(
        p, dst, length, digest):
    inst = weyl_a_instance(4)
    src = (1, 1, 1)
    pa = p_membership(src, p, inst.walls)
    args = (src, dst, pa, p, inst.generators, inst.walls)
    times = []
    for _ in range(3):
        start = perf_counter()
        path = translation_path(*args)
        times.append(perf_counter() - start)
    assert min(times) < 0.05
    # shortest: the generators are the unit vectors, so the L1 distance
    assert len(path) == length == sum(abs(b - a) for a, b in zip(src, dst))
    assert path_digest(path) == digest
    cur = src
    for step in path:
        cur = tuple(a + b for a, b in zip(cur, step))
        assert pa.contains(cur, p, inst.walls)
    assert cur == dst


def test_translation_path_without_monotone_coordinates_searches_breadth_first():
    inst = hilb_instance(2, 0)
    pa = p_membership((4,), 5, inst.walls)
    with mock.patch.object(alcoves, "_bfs_path",
                           wraps=alcoves._bfs_path) as spy:
        # 3 = 3/2 * 2: no integer coordinate, and 7 is out of reach
        with pytest.raises(ValueError, match="^no path: "):
            translation_path((4,), (7,), pa, 5, [(2,)], inst.walls)
        # dependent generators
        assert translation_path((4,), (7,), pa, 5, [(1,), (2,)],
                                inst.walls) == [(1,), (2,)]
        assert spy.call_count == 2
        # the unit generator gives 7 - 4 the coordinate 3
        assert translation_path((4,), (7,), pa, 5, inst.generators,
                                inst.walls) == [(1,)] * 3
        assert spy.call_count == 2


def test_translation_path_goes_round_a_cut():
    # both one-step moves toward the goal leave P, so the breadth-first
    # search answers, with a detour of two steps
    inst = weyl_a_instance(4)
    src, dst = (-3, -3, -2), (-4, -2, -2)
    pa = p_membership(src, 7, inst.walls)
    for step in ((-1, 0, 0), (0, 1, 0)):
        assert not pa.contains(vadd(src, step), 7, inst.walls)
    args = (src, dst, pa, 7, inst.generators, inst.walls)
    with mock.patch.object(alcoves, "_bfs_path",
                           wraps=alcoves._bfs_path) as spy:
        got = translation_path(*args)
    assert spy.call_count == 1
    assert len(got) == 4
    assert got == fraction_bfs_path(*args)


def test_translation_path_rejects_non_lattice_inputs():
    inst = hilb_instance(2, 0)
    pa = p_membership((4,), 5, inst.walls)
    for src, dst, gens in [((4,), (F(5, 2),), inst.generators),
                           ((F(9, 2),), (4,), inst.generators),
                           ((4,), (7,), [(F(1, 2),)]),
                           ((4,), (4,), [(1,), (F(1, 2),)])]:
        with pytest.raises(ValueError, match="must be lattice vectors"):
            translation_path(src, dst, pa, 5, gens, inst.walls)
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = dispatch(["path", "--builtin", "hilb", "--n", "2",
                         "--from", "4", "--to", "5/2", "--p", "5"])
    assert code == 1
    assert buf.getvalue() == json.dumps({
        "error": "translation_path: endpoints and generators must be "
                 "lattice vectors"}) + "\n"


@pytest.mark.parametrize("wall, t, p, below, above", [
    # real family of HALF_WALL: hyperplanes at -1/2 + Z
    (HALF_WALL, F(1, 2), None, (F(-1, 2), F(1, 2)), (F(1, 2), F(3, 2))),
    # p-family of INT_WALL at p = 5: hyperplanes at 5*Z
    (INT_WALL, F(10), 5, (1, 2), (2, 3)),
    # p-family of HALF_WALL at p = 5: 5*m - 1/2 for m in -1/2 + Z
    (HALF_WALL, F(2), 5, (F(-1, 2), F(1, 2)), (F(1, 2), F(3, 2))),
])
def test_bracket_reads_the_side_of_a_tie_from_the_slope(wall, t, p, below,
                                                        above):
    assert bracket(wall, t, p, slope=-1) == below
    assert bracket(wall, t, p, slope=1) == above
    assert bracket(wall, t + F(1, 7), p, slope=-1) == above
    error = SingularPointError if p is None else OnPWallError
    with pytest.raises(error):
        bracket(wall, t, p)
    with pytest.raises(error):
        bracket(wall, t, p, slope=0)


def fraction_bracket(wall, t, p=None, slope=0):
    """Test-only oracle: the bracket search as written before its integer
    kernel, one Fraction floor per offset of the sorted sigma_tilde."""
    lo = hi = lo_v = hi_v = None
    for sigma in sorted(wall.sigma_tilde):
        scale, shift = (1, 0) if p is None else (p, sigma)
        k = ((t - shift) / scale - sigma).__floor__()
        v = scale * (sigma + k) + shift
        if v == t:
            if slope == 0:
                if p is None:
                    raise SingularPointError(wall.id, t)
                raise OnPWallError(wall.id, sigma, k)
            if slope < 0:
                k, v = k - 1, v - scale
        if lo_v is None or v > lo_v:
            lo, lo_v = sigma + k, v
        if hi_v is None or v + scale < hi_v:
            hi, hi_v = sigma + k + 1, v + scale
    return lo, hi


def bracket_outcome(bracket, *args):
    """The offsets bracket returns, or the type and fields of its error."""
    try:
        return bracket(*args)
    except SingularPointError as e:
        return SingularPointError, e.wall_id, e.offset, str(e)
    except OnPWallError as e:
        return OnPWallError, e.wall_id, e.sigma, e.m, type(e.m), str(e)


HILB_WALLS = [hilb_instance(n, ell).walls[0]
              for n in range(2, 15) for ell in range(3)]
BRACKET_PRIMES = [p for p in range(2, 114)
                  if all(p % q for q in range(2, p))]


@st.composite
def saturated_walls(draw):
    """A wall of rank 1 whose sigma_tilde is the saturation of 1-4 integer
    runs of classes r/den (den 1-12)."""
    sigma = set()
    for _ in range(draw(st.integers(1, 4))):
        den = draw(st.integers(1, 12))
        base = F(draw(st.integers(0, den - 1)), den)
        lo = draw(st.integers(-3, 3))
        sigma.update(base + k for k in range(lo, lo + draw(st.integers(1, 4))))
    return Wall(id=draw(st.integers(0, 5)), alpha=(1,),
                sigma_tilde=saturate(sigma))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_bracket_matches_the_fraction_oracle(data):
    wall = data.draw(st.one_of(st.sampled_from(HILB_WALLS), saturated_walls()))
    p = data.draw(st.one_of(st.none(), st.sampled_from(BRACKET_PRIMES)))
    slope = data.draw(st.sampled_from([-1, 0, 1]))
    sigma = data.draw(st.sampled_from(sorted(wall.sigma_tilde)))
    k = data.draw(st.integers(-4, 4))
    on_wall = sigma + k if p is None else p * (sigma + k) + sigma
    t = data.draw(st.one_of(
        st.just(on_wall),
        st.fractions(min_value=-30, max_value=30, max_denominator=30),
        st.builds(lambda a, b: on_wall + F(a, b), st.integers(-2, 2),
                  st.integers(1, 1000))))
    got = bracket_outcome(bracket, wall, t, p, slope)
    assert got == bracket_outcome(fraction_bracket, wall, t, p, slope)
    if t == on_wall and slope == 0:
        assert got[0] is (SingularPointError if p is None else OnPWallError)


def test_alcove_around_a_wall_point_follows_the_direction():
    origin = (F(0), F(0))
    for side in (1, -1):
        got = _alcove_around(origin, A2.walls, direction=(side, side))
        assert got == real_alcove_of((F(side, 3), F(side, 3)), A2.walls)
    with pytest.raises(SingularPointError):
        _alcove_around(origin, A2.walls)


def lp_quantum_chamber(lam, chamber, walls):
    """quantum_chamber as first written: the side of each integral wall is
    the sign of its pairing with an interior direction of the chamber,
    found by Fourier-Motzkin."""
    lam = vec(lam)
    d = len(lam)
    interior = None
    if chamber.covectors:
        interior = find_point([(a, F(1), False) for a in chamber.covectors],
                              chamber.rank)
        if interior is None:
            raise ValueError("chamber has empty interior")
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
                raise ValueError(
                    f"chamber is not transverse to integral wall {w.id}")
            orient = 1 if v > 0 else -1
        alpha = tuple(orient * a for a in w.alpha)
        part = sorted(orient * s for s in w.sigma_tilde
                      if (t - s).denominator == 1)
        out.append((w.id, alpha, part[-1] + 1))
    out.sort(key=lambda q: (q[0], q[1]))
    kept = irredundant([(a, m, False) for _, a, m in out], d)
    return QuantumChamber(lam, tuple(out[i] for i in kept))


QUANTUM_INSTANCES = ([weyl_a_instance(n) for n in (3, 4, 5)]
                     + [hilb_instance(n, ell) for n in range(2, 7)
                        for ell in (0, 1)])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_quantum_chamber_matches_lp_oracle(data):
    inst = data.draw(st.sampled_from(QUANTUM_INSTANCES))
    # small denominators make several walls integral at once
    lam = data.draw(st.lists(
        st.fractions(min_value=-4, max_value=4, max_denominator=3),
        min_size=inst.rank, max_size=inst.rank))
    try:
        iw, positive = integral_walls_and_positive_chamber(lam, inst.walls)
    except NonRegularError:
        assume(False)
    for chamber in [positive] + sign_chambers(iw, inst.rank):
        assert quantum_chamber(lam, chamber, inst.walls) == \
            lp_quantum_chamber(lam, chamber, inst.walls)


def test_quantum_chamber_needs_a_side_on_every_integral_wall():
    iw, C = integral_walls_and_positive_chamber((1, 2), A2.walls)
    lacking = alcoves.Chamber(C.rank, C.covectors[1:])
    with pytest.raises(ValueError, match="not transverse to integral wall"):
        quantum_chamber((1, 2), lacking, A2.walls)
