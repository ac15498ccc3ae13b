import hashlib
import io
import json
from collections import deque
from contextlib import redirect_stdout
from fractions import Fraction as F
from itertools import combinations, product
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from alcovelab.arith import AffineInP, Wall, pairing, rat_str, saturate, vec
from alcovelab import alcoves
from alcovelab.alcoves import (GE, LE, Face, OnPWallError, NonRegularError,
                               QuantumChamber, RealAlcove, SingularPointError,
                               _alcove_around, _bracket, faces_of,
                               integral_chambers,
                               integral_walls_and_positive_chamber,
                               p_alcove_of, p_membership, quantum_chamber,
                               real_alcove_of, translation_path)
from alcovelab.cli import dispatch
from alcovelab.instances import hilb_instance, weyl_a_instance
from alcovelab.polyhedra import (find_point, irredundant, matrix_rank,
                                vertices)
from alcovelab.validate import p_lattice_point, validate_p

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


def reference_real_alcove(x, walls):
    """real_alcove_of as first written: both bounds around x for every
    class of sigma_tilde mod Z on every wall, then irredundant.  None for a
    point on a hyperplane."""
    x = vec(x)
    ineqs = []
    for w in walls:
        t = pairing(w.alpha, x)
        for rep in sorted(w.classes):
            if (t - rep).denominator == 1:
                return None
            lo = rep + (t - rep).__floor__()
            ineqs += [(w.id, lo, GE), (w.id, lo + 1, LE)]
    ineqs = sorted(ineqs, key=lambda b: (b[0], b[2], b[1]))
    kept = irredundant(RealAlcove(len(x), tuple(ineqs)).constraints(walls),
                       len(x))
    return RealAlcove(len(x), tuple(ineqs[i] for i in kept))


DIFF_INSTANCES = ([hilb_instance(n, ell) for n in range(2, 9)
                   for ell in (0, 1)]
                  + [weyl_a_instance(3), weyl_a_instance(4)])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_real_alcove_matches_all_class_reference(data):
    inst = data.draw(st.sampled_from(DIFF_INSTANCES))
    x = data.draw(st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=13),
        min_size=inst.rank, max_size=inst.rank))
    expected = reference_real_alcove(x, inst.walls)
    if expected is None:
        with pytest.raises(SingularPointError):
            real_alcove_of(x, inst.walls)
    else:
        assert real_alcove_of(x, inst.walls) == expected


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
    seen = {}
    for r in range(len(cons) + 1):
        for subset in combinations(range(len(cons)), r):
            vset = tuple(v for v in verts
                         if all(pairing(cons[i][0], v) == cons[i][1]
                                for i in subset))
            if not vset or vset in seen:
                continue
            active = [A.inequalities[i] for i, (coeffs, rhs, _) in
                      enumerate(cons)
                      if all(pairing(coeffs, v) == rhs for v in vset)]
            dim = matrix_rank([tuple(a - b for a, b in zip(v, vset[0]))
                               for v in vset[1:]]) if len(vset) > 1 else 0
            seen[vset] = Face(
                parent=A,
                active=tuple(sorted(active, key=lambda t: (t[0], t[2], t[1]))),
                codim=A.rank - dim,
                witness=tuple(sum(v[j] for v in vset) / len(vset)
                              for j in range(A.rank)),
                vertex_set=vset)
    return sorted(seen.values(), key=lambda f: (f.codim, f.active))


# (rank, walls): every builtin alcove is a simplex, where each vertex lies
# on exactly rank facets
FACE_ARRANGEMENTS = [(inst.rank, inst.walls) for inst in
                     [hilb_instance(n) for n in range(2, 9)]
                     + [weyl_a_instance(n) for n in range(3, 6)]]
# <alpha, x> = 1/2 + k for the four covectors (1, +-1, +-1): its alcoves
# are octahedra, whose vertices lie on four facets each, and tetrahedra
OCTAHEDRAL_WALLS = tuple(
    Wall(id=i, alpha=alpha, sigma_tilde=frozenset([F(1, 2)]))
    for i, alpha in enumerate([(1, 1, 1), (1, 1, -1), (1, -1, 1),
                               (1, -1, -1)]))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_faces_match_per_subset_reference(data):
    rank, walls = data.draw(st.one_of(st.sampled_from(FACE_ARRANGEMENTS),
                                      st.just((3, OCTAHEDRAL_WALLS))))
    x = data.draw(st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=13),
        min_size=rank, max_size=rank))
    try:
        A = real_alcove_of(x, walls)
    except SingularPointError:
        return
    faces = faces_of(A, walls)
    assert faces == reference_faces(A, walls)
    # faces_of reads most codims off the vertex count: each must still be
    # the rank of the face's active covectors
    alpha = {w.id: w.alpha for w in walls}
    assert [f.codim for f in faces] == [
        matrix_rank([alpha[wid] for wid, _, _ in f.active]) for f in faces]


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


def test_faces_weyl_a6_simplex():
    inst = weyl_a_instance(6)
    A = real_alcove_of(tuple(F(1, 11) for _ in range(inst.rank)), inst.walls)
    assert len(A.inequalities) == 6
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
    assert chamber.contains((3, 5))


def test_integral_walls_hilb_two_chambers():
    c0 = F(-1, 2) + 3
    iw, chamber = integral_walls_and_positive_chamber((c0,), HILB2.walls)
    assert [w.id for w in iw] == [0]
    chambers = integral_chambers(iw, 1)
    assert {c.covectors for c in chambers} == {((1,),), ((-1,),)}
    assert chamber.covectors == ((1,),)  # 5/2 is above sigma~ = {1/2}


def test_non_regular_parameter_rejected():
    with pytest.raises(NonRegularError, match="non-regular"):
        integral_walls_and_positive_chamber((F(1, 2),), HILB2.walls)


def test_quantum_chamber_sl3():
    walls = [Wall(1, (1, 0), frozenset([F(0)])),
             Wall(2, (0, 1), frozenset([F(0)])),
             Wall(3, (1, 1), frozenset(map(F, [-2, -1, 0, 1, 2])))]
    iw, C = integral_walls_and_positive_chamber((1, 2), walls)
    q = quantum_chamber((1, 2), C, walls)
    assert [(a, m) for _, a, m in q.inequalities] == [
        ((1, 0), F(1)), ((0, 1), F(1)), ((1, 1), F(3))]


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
    inst = weyl_a_instance(3).with_lambdas([(1, 1)])
    for p in (3, 5, 7, 11):
        rep = validate_p(p, inst)
        assert rep["a_denominators"]["ok"] and rep["b_lambdas"]["ok"]


def test_validate_p_block_order_separation():
    # lambda = 7/2 at p=23: h-block {(3),(1,1,1)} has residues {22, 21}
    # while {(2,1)} sits at 22: interleaved, so (d) fails; at 5/2 the
    # ranges [1,19] and [22,22] are separated
    inst = hilb_instance(3, 0)
    bad = validate_p(23, inst.with_lambdas([(F(7, 2),)]))
    assert not bad["d_block_order"]["ok"]
    good = validate_p(23, inst.with_lambdas([(F(5, 2),)]))
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
    rep = validate_p(p, inst.with_lambdas(lams))
    expected = [pairwise_block_checks(p, inst, lam) for lam in lams]
    assert rep["c_scalars"]["ok"] == all(c for c, _ in expected)
    assert [c["ok"] for c in rep["d_block_order"]["checks"]] == \
        [d for _, d in expected]


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
    point = tuple(F(data.draw(st.integers(-90, 90)),
                    data.draw(st.integers(7, 31))) for _ in range(inst.rank))
    try:
        A = real_alcove_of(point, inst.walls)
    except SingularPointError:
        assume(False)
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


def test_exactness_with_large_denominators():
    # arbitrary-precision rationals flow through the whole pipeline
    big = F(10**12 + 1, 10**9 + 7)
    inst = hilb_instance(3, 0)
    A = real_alcove_of((big,), inst.walls)
    assert A.contains((big,), inst.walls, strict=True)
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
        assert got == path_outcome(fraction_bfs_path, *args)
    if kind == "walk":
        assert isinstance(got, list) or got is ValueError


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
    assert _bracket(wall, t, p, slope=-1) == below
    assert _bracket(wall, t, p, slope=1) == above
    assert _bracket(wall, t + F(1, 7), p, slope=-1) == above
    error = SingularPointError if p is None else OnPWallError
    with pytest.raises(error):
        _bracket(wall, t, p)
    with pytest.raises(error):
        _bracket(wall, t, p, slope=0)


def fraction_bracket(wall, t, p=None, slope=0):
    """Test-only oracle: alcoves._bracket as written before its integer
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
    got = bracket_outcome(_bracket, wall, t, p, slope)
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
    for chamber in [positive] + integral_chambers(iw, inst.rank):
        assert quantum_chamber(lam, chamber, inst.walls) == \
            lp_quantum_chamber(lam, chamber, inst.walls)


def test_quantum_chamber_needs_a_side_on_every_integral_wall():
    iw, C = integral_walls_and_positive_chamber((1, 2), A2.walls)
    lacking = alcoves.Chamber(C.rank, C.covectors[1:])
    with pytest.raises(ValueError, match="not transverse to integral wall"):
        quantum_chamber((1, 2), lacking, A2.walls)
