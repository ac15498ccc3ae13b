from fractions import Fraction as F
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alcovelab import compat
from alcovelab.alcoves import faces_of, p_membership, real_alcove_of
from alcovelab.arith import (AffineInP, is_lattice, pairing, vadd, vscale,
                             vsub)
from alcovelab.compat import (CompatiblePair, find_compatible,
                              opposite_alcove, opposite_pair,
                              verify_compatible)
from alcovelab.instances import hilb_instance, weyl_a_instance
from strategies import (HILB, OCTAHEDRAL_WALLS, WEYL, arrangements,
                        far_alcove, regular_alcove)
from test_alcoves import alcove_contains, matching_face

HILB2 = hilb_instance(2, 0)
A2 = weyl_a_instance(3)


def hilb_pair(inst=HILB2, interior=F(1)):
    A = real_alcove_of((interior,), inst.walls)
    faces = faces_of(A, inst.walls)
    lo = min(f.witness[0] for f in faces if f.codim == 1)
    theta = next(f for f in faces if f.codim == 1 and f.witness == (lo,))
    return A, theta, find_compatible(A, theta, inst.walls)


def test_find_compatible_hilb_lower_face():
    A, theta, pair = hilb_pair()
    assert pair.mu == (F(1, 2),)
    # c-value a/b + m with m > ell: smallest is 1/2 + 1
    assert pair.lam == (F(3, 2),)
    assert verify_compatible(pair, HILB2.walls, p_samples=(5, 23))["passed"]


def test_find_compatible_hilb_margin_exceeds_ell():
    inst = hilb_instance(3, 1)
    A = real_alcove_of((F(5, 12),), inst.walls)  # alcove (1/3, 1/2)
    faces = faces_of(A, inst.walls)
    theta = next(f for f in faces if f.witness == (F(1, 3),))
    pair = find_compatible(A, theta, inst.walls)
    m = pair.lam[0] - F(1, 3)
    assert m.denominator == 1 and m > 1  # m > ell
    assert verify_compatible(pair, inst.walls, p_samples=(23,))["passed"]


def test_codim0_face_vacuous():
    A = real_alcove_of((F(1),), HILB2.walls)
    top = next(f for f in faces_of(A, HILB2.walls) if f.codim == 0)
    pair = find_compatible(A, top, HILB2.walls)
    rep = verify_compatible(pair, HILB2.walls)
    assert rep["face_walls"] == [] and rep["passed"]


def test_verify_detects_wrong_face():
    A, theta, pair = hilb_pair()
    faces = faces_of(A, HILB2.walls)
    other = next(f for f in faces
                 if f.codim == 1 and f.witness != theta.witness)
    bad = CompatiblePair(pair.lam, pair.mu, A, other)
    rep = verify_compatible(bad, HILB2.walls)
    assert not rep["passed"]
    assert any(not e["ok"] for e in rep["face_walls"] + rep["other_walls"])


def test_verify_detects_non_lattice_difference():
    A, theta, pair = hilb_pair()
    bad = CompatiblePair((pair.lam[0] + F(1, 3),), pair.mu, A, theta)
    rep = verify_compatible(bad, HILB2.walls, p_samples=(23, 47))
    assert not rep["lattice_diff"]
    assert not rep["passed"]


def test_verify_symbolic_margins():
    A, theta, pair = hilb_pair()
    rep = verify_compatible(pair, HILB2.walls)
    for entry in rep["face_walls"]:
        assert entry["margin"]["slope"] == "0"
    for entry in rep["other_walls"]:
        assert F(entry["margin"]["slope"]) > 0


def test_p_point_lands_in_p_alcove():
    A, theta, pair = hilb_pair()
    for p in (5, 23, 47):
        pt = pair.p_point(p)
        assert all(c.denominator == 1 for c in pt)
        assert p_membership(pt, p, HILB2.walls).source == A


def test_opposite_pair_hilb_reflection():
    # spec example: lam = a/b + m across theta = {a/b} gives a/b - m, chi = -2m
    A, theta, pair = hilb_pair()
    pm, chi = opposite_pair(A, theta, pair, HILB2.walls)
    assert pm.lam == (-F(1, 2),)
    assert chi == (F(-2),)
    assert verify_compatible(pm, HILB2.walls, p_samples=(23,))["passed"]


def test_opposite_pair_codim0_errors():
    A = real_alcove_of((F(1),), HILB2.walls)
    top = next(f for f in faces_of(A, HILB2.walls) if f.codim == 0)
    pair = find_compatible(A, top, HILB2.walls)
    with pytest.raises(ValueError, match="codimension-0"):
        opposite_pair(A, top, pair, HILB2.walls)


def test_opposite_pair_a2_edge():
    A = real_alcove_of((F(1, 3), F(1, 3)), A2.walls)
    faces = faces_of(A, A2.walls)
    edge = next(f for f in faces if f.codim == 1
                and f.active == ((1, F(1), "<="),))
    pair = find_compatible(A, edge, A2.walls)
    pm, chi = opposite_pair(A, edge, pair, A2.walls)
    assert pm.alcove != A
    # lam changes only transversally to the edge: <theta, chi> != 0
    assert pairing((1, 1), chi) != 0
    # margins here have slope 1/2 and constant -7/2: positive only for p > 7,
    # so the sample prime must sit above that threshold
    assert verify_compatible(pm, A2.walls, p_samples=(23,))["passed"]


def test_opposite_alcove_flips_face_walls():
    A = real_alcove_of((F(1, 3), F(1, 3)), A2.walls)
    faces = faces_of(A, A2.walls)
    vert = next(f for f in faces if f.codim == 2
                and f.witness == (F(0), F(0)))
    B = opposite_alcove(A, vert, A2.walls)
    assert alcove_contains(B, (-F(1, 3), -F(1, 3)), A2.walls)


@settings(max_examples=30)
@given(st.integers(0, 4))
def test_translation_stability(k):
    # chi with <alpha_i, chi> >= 0 on the face walls keeps compatibility
    A, theta, pair = hilb_pair()
    chi = (k,)  # face wall is oriented upward at the lower endpoint
    shifted = CompatiblePair(vadd(pair.lam, chi), pair.mu, A, theta)
    assert verify_compatible(shifted, HILB2.walls, p_samples=(23,))["passed"]


def test_compatible_cache_translation():
    inst = HILB2
    A = real_alcove_of((F(1),), inst.walls)
    faces = faces_of(A, inst.walls)
    theta = next(f for f in faces if f.witness == (F(1, 2),))
    base = find_compatible(A, theta, inst.walls)
    B = A.translate((3,), inst.walls)
    theta_b = next(f for f in faces_of(B, inst.walls)
                   if f.witness == (F(7, 2),))
    moved = find_compatible(B, theta_b, inst.walls)
    # same lambda works for the translated pair, mu moves with the face
    assert moved.lam == base.lam
    assert moved.mu == (F(7, 2),)
    assert verify_compatible(moved, inst.walls, p_samples=(23,))["passed"]


def split_facets(A, face, walls):
    """Test-only oracle for the facets of the p-alcove: A's inequalities
    oriented into A here, without PAlcove, as (wid, alpha_or, m_or, sigma*)
    with sigma* the largest element of the oriented sigma_tilde in the
    class of m_or, split into those in the face's active set and the
    rest."""
    wm = {w.id: w for w in walls}
    through, others = [], []
    for wid, m, sense in A.inequalities:
        alpha, part = wm[wid].alpha, wm[wid].class_part(m)
        if sense == ">=":
            entry = (wid, alpha, m, part[-1])
        else:
            entry = (wid, tuple(-a for a in alpha), -m, -part[0])
        (through if (wid, m, sense) in face.active else others).append(entry)
    return through, others


def split_facets_report(pair, walls, p_samples):
    """Test-only oracle for verify_compatible: each margin built from the
    hand-oriented facets of split_facets, and each sample tested against
    those facets at p."""
    through, others = split_facets(pair.alcove, pair.face, walls)
    report = {"lattice_diff": is_lattice(vsub(pair.lam, pair.mu)),
              "face_walls": [], "other_walls": [], "samples": {},
              "localization_conditions": "not verified"}
    for key, facets, ok in (("face_walls", through,
                             lambda m: m.slope == 0 and m.const > 0),
                            ("other_walls", others, lambda m: m.slope > 0)):
        for wid, alpha_or, m_or, sigma in facets:
            margin = AffineInP(const=pairing(alpha_or, pair.lam) - sigma,
                               slope=pairing(alpha_or, pair.mu) - m_or)
            report[key].append({"wall": wid, "margin": margin.to_json(),
                                "ok": ok(margin)})
    for p in p_samples:
        pt = vadd(pair.lam, vscale(p, pair.mu))
        entry = {"p_lambda_integral": is_lattice(vscale(p + 1, pair.lam)),
                 "p_point_integral": is_lattice(pt),
                 "in_p_alcove": all(pairing(alpha_or, pt) > p * m_or + sigma
                                    for _, alpha_or, m_or, sigma
                                    in through + others)}
        entry["ok"] = all(entry.values())
        report["samples"][p] = entry
    report["passed"] = (
        report["lattice_diff"]
        and all(e["ok"] for e in report["face_walls"] + report["other_walls"])
        and all(e["ok"] for e in report["samples"].values()))
    return report


def sorted_scan_lambda(A, face, walls):
    """Test-only oracle for find_compatible on a fresh cache: the radius
    schedule with each box sorted before its first test."""
    mu = face.witness
    through, _ = split_facets(A, face, walls)
    constraints = [(alpha_or, pairing(alpha_or, mu), sigma)
                   for _, alpha_or, _, sigma in through]
    needed = max((sigma - base for _, base, sigma in constraints),
                 default=F(0))
    radius = max(2, int(needed) + 2)
    while radius <= 32:
        for v in sorted(product(range(-radius, radius + 1), repeat=A.rank)):
            if all(base + pairing(alpha_or, v) > sigma
                   for alpha_or, base, sigma in constraints):
                return vadd(mu, v)
        radius *= 2
    return None


SCAN_INSTANCES = ([hilb_instance(n, 0) for n in range(2, 7)]
                  + [weyl_a_instance(n) for n in (3, 4)])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_find_compatible_matches_sorted_scan(data):
    inst = data.draw(st.sampled_from(SCAN_INSTANCES))
    A = far_alcove(data.draw, inst.walls, inst.rank)
    faces = faces_of(A, inst.walls)
    face = faces[data.draw(st.integers(0, len(faces) - 1))]
    with mock.patch.dict(compat._cache, clear=True):
        pair = find_compatible(A, face, inst.walls)
    assert pair.mu == face.witness
    assert pair.lam == sorted_scan_lambda(A, face, inst.walls)


@pytest.mark.parametrize("n, n_faces", [(5, 31), (6, 63)])
def test_find_compatible_every_face_of_the_fundamental_alcove(n, n_faces):
    # a cold search on every face: the lex box scan needed about a minute
    # for weyl_a(6), the lattice-point search well under a second
    inst = weyl_a_instance(n)
    A = real_alcove_of(tuple(F(1, 2 * n) for _ in range(inst.rank)),
                       inst.walls)
    faces = faces_of(A, inst.walls)
    assert len(faces) == n_faces
    with mock.patch.dict(compat._cache, clear=True):
        for face in faces:
            pair = find_compatible(A, face, inst.walls)
            assert pair.mu == face.witness
            assert verify_compatible(pair, inst.walls)["passed"]


def probing_opposite_alcove(A, face, walls):
    """opposite_alcove as first written: step from the face witness away
    from A's interior by halving steps until the alcove there differs from
    A and shares the face."""
    a = A.interior_point()
    f = face.witness
    step = vsub(f, a)
    t = F(1, 2)
    for _ in range(64):
        x = vadd(f, vscale(t, step))
        try:
            B = real_alcove_of(x, walls)
        except ValueError:
            t /= 2
            continue
        if B != A and any(g.vertex_set == face.vertex_set
                          for g in faces_of(B, walls)):
            return B
        t /= 2
    raise ValueError("could not locate the opposite alcove")


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_opposite_alcove_matches_probing_oracle(data):
    rank, walls = data.draw(arrangements())
    _, A = regular_alcove(data, walls, rank)
    for face in faces_of(A, walls):
        if face.codim == 0:
            with pytest.raises(ValueError, match="codimension-0"):
                opposite_alcove(A, face, walls)
        else:
            assert opposite_alcove(A, face, walls) == \
                probing_opposite_alcove(A, face, walls)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_margin_report_matches_the_hand_oriented_facets(data):
    # not arrangements(): as crossed_faces, keep far_alcove's far octahedra
    rank, walls = data.draw(st.one_of(st.sampled_from(HILB + WEYL),
                                      st.just((3, OCTAHEDRAL_WALLS))))
    A = far_alcove(data.draw, walls, rank)
    faces = faces_of(A, walls)
    face = faces[data.draw(st.integers(0, len(faces) - 1))]
    mu = face.witness
    # lambda: the search's answer, mu plus a small lattice vector (often
    # not compatible), or a point off mu + Z^d
    v = tuple(data.draw(st.lists(st.integers(-6, 6), min_size=rank,
                                 max_size=rank)))
    kind = data.draw(st.sampled_from(("found", "lattice", "off")))
    with mock.patch.dict(compat._cache, clear=True):
        found = find_compatible(A, face, walls)
        lam = {"found": found.lam, "lattice": vadd(mu, v),
               "off": vadd(mu, vadd(v, (F(1, 3),) * rank))}[kind]
        pair = CompatiblePair(lam, mu, A, face)
        primes = data.draw(st.lists(st.sampled_from(
            (2, 3, 5, 7, 11, 13, 23, 47, 101)), max_size=4, unique=True))
        assert verify_compatible(pair, walls, primes) == \
            split_facets_report(pair, walls, primes)
        if face.codim == 0 or kind == "off":
            return
        # opposite_pair keeps the reflected candidate exactly when the
        # hand-oriented face facets of the opposite alcove hold it
        B = opposite_alcove(A, face, walls)
        face_b = matching_face(B, face, walls)
        candidate = vsub(vscale(2, mu), lam)
        through, _ = split_facets(B, face_b, walls)
        reflected = all(pairing(alpha_or, candidate) > sigma
                        for _, alpha_or, _, sigma in through)
        pm, chi = opposite_pair(A, face, pair, walls)
    assert pm.alcove == B
    assert (pm.lam == candidate) is reflected
    if not reflected:
        with mock.patch.dict(compat._cache, clear=True):
            assert pm.lam == find_compatible(B, face_b, walls).lam


@st.composite
def crossed_faces(draw):
    """(walls, A, face, pair): a face of codim >= 1 of a drawn alcove and
    find_compatible's pair for it, fresh or, after a first call on a drawn
    lattice translate of (A, face), a cache hit; run with an empty cache."""
    rank, walls = draw(st.one_of(st.sampled_from(HILB + WEYL),
                                 st.just((3, OCTAHEDRAL_WALLS))))
    A = far_alcove(draw, walls, rank)
    face = draw(st.sampled_from([f for f in faces_of(A, walls) if f.codim]))
    if draw(st.booleans()):
        shift = tuple(draw(st.lists(st.integers(-3, 3), min_size=rank,
                                    max_size=rank)))
        moved = A.translate(shift, walls)
        witness = vadd(face.witness, shift)
        find_compatible(moved, next(f for f in faces_of(moved, walls)
                                    if f.witness == witness), walls)
    return walls, A, face, find_compatible(A, face, walls)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_opposite_faces_have_the_same_witness(data):
    # the face of B = opposite_alcove has A's face's vertex set, so the
    # same vertex average: the witness opposite_pair keeps as mu
    with mock.patch.dict(compat._cache, clear=True):
        walls, A, face, pair = data.draw(crossed_faces())
        face_b = matching_face(opposite_alcove(A, face, walls), face, walls)
        pair_b, _ = opposite_pair(A, face, pair, walls)
    assert face_b.witness == face.witness == pair.mu == pair_b.mu
    assert pair_b.face == face_b


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_wall_crossing_element_is_integral(data):
    # lambda - mu is integral for find_compatible's pair, fresh or cached,
    # so chi = lambda_minus - lambda is a lattice vector
    with mock.patch.dict(compat._cache, clear=True):
        walls, A, face, pair = data.draw(crossed_faces())
        pair_b, chi = opposite_pair(A, face, pair, walls)
    assert is_lattice(vsub(pair.lam, pair.mu))
    assert chi == vsub(pair_b.lam, pair.lam)
    assert is_lattice(chi)
