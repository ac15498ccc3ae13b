import hashlib
import io
import json
import tracemalloc
from collections import defaultdict
from contextlib import redirect_stdout
from fractions import Fraction as F
from time import perf_counter
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from alcovelab import orders
from alcovelab.alcoves import SingularPointError, faces_of, real_alcove_of
from alcovelab.cli import dispatch
from alcovelab.compat import find_compatible
from alcovelab.instances import (FixedPointInstance, hilb_instance,
                                 weyl_a_instance, wt_chi)
from alcovelab.arith import AffineInP, affine, rat_str, vadd
from alcovelab.compat import CompatiblePair
from alcovelab.orders import (Label, PreOrder, c_bar,
                              crossing_threshold_bound, equivalence_classes,
                              export_poset, hw_order, interval_image,
                              order_compat_check, phw_axiom_check,
                              ss_preorder)
from alcovelab.partitions import cont

HILB2 = hilb_instance(2, 0)
HILB3 = hilb_instance(3, 0)
A2 = weyl_a_instance(3)


def residue_oracle(inst, lam, p, x):
    v = (p + 1) * inst.c_value(x, lam)
    assert v.denominator == 1
    return v.numerator % p


def test_c_bar_against_oracle():
    lam = (5,)
    res = c_bar(HILB2, lam, 5)
    assert res == {(2,): 0, (1, 1): 4}
    for x in HILB2.points:
        assert res[x] == residue_oracle(HILB2, lam, 5, x)


def less(poset, a, b):
    """Test-only oracle: a < b in poset by its definition, a and b in one
    block and a.kappa < b.kappa."""
    return (a in poset.blocks and poset.blocks[a] == poset.blocks.get(b)
            and a.kappa < b.kappa)


def shift(label, z, p):
    """Test-only oracle helper: the free Z-action z.(x, kappa) =
    (x, kappa + z*p) on a label of a concrete-prime poset."""
    return Label(label.point, label.kappa + z * p)


def above(poset, a):
    """Test-only oracle: the labels b > a by ascending kappa, in label
    order within a level, read off the poset's levels."""
    for level in poset._levels[poset.blocks[a]]:
        if level[0].kappa > a.kappa:
            yield from level


def test_hw_order_comparability_derived():
    poset = hw_order(HILB2, (5,), 5, (0, 15))
    # blocks: (2): -kappa mod 5; (1,1): (4-kappa) mod 5
    a, b = Label((1, 1), 0), Label((2,), 1)
    assert poset.blocks[a] == poset.blocks[b] == 4
    assert less(poset, a, b) and not less(poset, b, a)
    # different residues are incomparable
    c, d = Label((2,), 4), Label((1, 1), 1)
    assert poset.blocks[c] != poset.blocks[d]
    assert not less(poset, c, d) and not less(poset, d, c)


def test_hw_order_same_point_period():
    poset = hw_order(HILB2, (5,), 5, (0, 15))
    for x in HILB2.points:
        assert less(poset, Label(x, 2), Label(x, 7))


def test_hw_order_empty_window():
    with pytest.raises(ValueError, match="empty window"):
        hw_order(HILB2, (5,), 5, (3, 3))


def test_hw_order_closure_matches_direct_definition():
    # oracle: the relation is literally "same residue of c_bar(x) - kappa
    # and kappa < kappa'"; the cover construction must close to exactly it
    for inst, lam, p in [(HILB2, (5,), 5), (HILB3, (7,), 23)]:
        poset = hw_order(inst, lam, p, (0, 2 * p))
        res = c_bar(inst, lam, p)
        for a in poset.labels:
            for b in poset.labels:
                direct = ((res[a.point] - a.kappa) % p ==
                          (res[b.point] - b.kappa) % p and a.kappa < b.kappa)
                assert less(poset, a, b) == direct


def test_hw_order_strict_partial_order():
    poset = hw_order(HILB3, (7,), 23, (0, 46))
    closure = poset.closure
    for a in poset.labels:
        assert a not in closure.get(a, ())
        for b in closure.get(a, ()):
            for c in closure.get(b, ()):
                assert c in closure[a]


def test_hw_order_closure_is_computed_once():
    poset = hw_order(HILB2, (5,), 5, (0, 20))
    assert poset.closure is poset.closure


def cover_loop(labels, blocks):
    """Test-only oracle: the covers as hw_order first built them, the pairs
    of consecutive kappa levels inside each block."""
    by_block = defaultdict(lambda: defaultdict(list))
    for l in labels:
        by_block[blocks[l]][l.kappa].append(l)
    covers = []
    for levels in by_block.values():
        ks = sorted(levels)
        for lo, hi in zip(ks, ks[1:]):
            covers.extend((a, b) for a in levels[lo] for b in levels[hi])
    return tuple(covers)


def successors(covers):
    succ = defaultdict(list)
    for a, b in covers:
        succ[a].append(b)
    return succ


def recursive_closure(labels, covers):
    """Test-only oracle: the transitive closure by memoized depth-first
    recursion over the covers, as LabeledPoset.closure first computed it."""
    succ, desc = successors(covers), {}

    def visit(v):
        if v in desc:
            return desc[v]
        acc = set()
        for w in succ[v]:
            acc.add(w)
            acc |= visit(w)
        desc[v] = acc
        return acc

    for v in labels:
        visit(v)
    return desc


def sorted_chain_length(labels, covers):
    """Test-only oracle: the longest chain by one pass over the labels
    sorted by descending kappa, as LabeledPoset first computed it."""
    succ, depth = successors(covers), {}
    for v in sorted(labels, key=lambda l: -l.kappa):
        depth[v] = 1 + max((depth[w] for w in succ[v]), default=0)
    return max(depth.values(), default=0)


def closure_phw_check(poset, d_bound):
    """Test-only oracle: phw_axiom_check as it first read the closure of the
    covers, with axiom 4 over every pair and each label's successors taken
    by ascending kappa, in label order within a level.  It decides axioms 2
    and 3 and cofinality on any blocks, where phw_axiom_check takes them as
    given by hw_order's."""
    p, z1 = poset.p, poset.window[0]
    labels = set(poset.labels)
    covers = cover_loop(poset.labels, poset.blocks)
    closure = recursive_closure(poset.labels, covers)
    rank = {l: i for i, l in enumerate(poset.labels)}

    def less(a, b):
        return b in closure.get(a, ())

    pairs = [(a, b) for a in poset.labels
             for b in sorted(closure[a], key=lambda l: (l.kappa, rank[l]))]
    period = [l for l in poset.labels if z1 <= l.kappa < z1 + p]
    free = all(shift(l, 1, p) != l for l in period)
    witness = next(
        ((a, b) for a, b in pairs
         for sa, sb in ((shift(a, z, p), shift(b, z, p)) for z in (1, -1))
         if sa in labels and sb in labels and not less(sa, sb)), None)
    cofinal, max_n = True, 0
    for a, b in pairs:
        n = (b.kappa - a.kappa) // p + 1
        max_n = max(max_n, n)
        target = shift(a, n, p)
        if target in labels:
            ok = less(b, target)
        else:
            ok = (poset.blocks[a] == poset.blocks[b]
                  and b.kappa < a.kappa + n * p)
        cofinal = cofinal and ok and n <= d_bound
    longest = sorted_chain_length(poset.labels, covers)
    report = {
        "axiom1_shift": {"orbits": len(period), "free": free,
                         "ok": free and len(period) > 0},
        "axiom2_invariance": {"ok": witness is None, "witness": witness},
        "axiom3_L_below_SL": {"ok": all(
            less(l, shift(l, 1, p))
            for l in poset.labels if shift(l, 1, p) in labels)},
        "axiom4_cofinality": {"ok": cofinal, "max_n": max_n},
        "axiom5_chains": {"observed_max": longest, "ok": longest <= d_bound},
        "d_bound": d_bound,
    }
    report["passed"] = all(v["ok"] for v in report.values()
                           if isinstance(v, dict))
    return report


def moved(poset, label, block):
    """poset with label moved into block."""
    return poset.replace(blocks={**poset.blocks, label: block})


ORDER_INSTANCES = tuple(hilb_instance(n, 0) for n in range(1, 9)) + (A2,)
PRIMES_TO_31 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_walk_matches_the_recursive_closure_and_sorted_chain(data):
    """Every view of the blocks (covers, closure and the levels) matches
    the cover-loop oracles, on hw_order posets and on posets with one label
    moved to another block; on hw_order posets the whole phw_axiom_check
    report matches the closure oracle too."""
    inst = data.draw(st.sampled_from(ORDER_INSTANCES))
    p = data.draw(st.sampled_from(PRIMES_TO_31))
    # a lambda' with denominator p + 1 keeps (p + 1) * c integral
    den = data.draw(st.sampled_from((1, p + 1)))
    lam = tuple(F(data.draw(st.integers(-40, 40)), den)
                for _ in range(inst.rank))
    z1 = data.draw(st.integers(-3 * p, 3 * p))
    width = data.draw(st.integers(2 * p, 3 * p))
    poset = hw_order(inst, lam, p, (z1, z1 + width))
    is_moved = data.draw(st.booleans())
    if is_moved:
        poset = moved(poset, data.draw(st.sampled_from(poset.labels)),
                      data.draw(st.integers(0, p - 1)))
    covers = cover_loop(poset.labels, poset.blocks)
    assert poset.covers == covers
    closure = recursive_closure(poset.labels, covers)
    assert poset.closure == closure == recursive_closure(poset.labels,
                                                         poset.covers)
    # the longest chain climbs every level of its block
    assert max(map(len, poset._levels.values())) == sorted_chain_length(
        poset.labels, covers)
    assert all(less(poset, a, b) for a in closure for b in closure[a])
    rank = {l: i for i, l in enumerate(poset.labels)}
    assert all(list(above(poset, a)) == sorted(
        closure[a], key=lambda l: (l.kappa, rank[l])) for a in poset.labels)
    outside = [Label(x, k) for x in inst.points for k in (z1 - 1, z1 + width)]
    sample = data.draw(st.lists(st.sampled_from(poset.labels + tuple(outside)),
                                max_size=30))
    for a in sample:
        for b in sample:
            assert less(poset, a, b) == (b in closure.get(a, ()))
    if not is_moved:
        d_bound = data.draw(st.sampled_from((1, 2, 3,
                                             2 * len(inst.points) * p)))
        assert phw_axiom_check(poset, d_bound) == closure_phw_check(poset,
                                                                    d_bound)


def test_phw_axioms_pass():
    poset = hw_order(HILB2, (5,), 5, (0, 15))
    rep = phw_axiom_check(poset, d_bound=2 * 2 * 5)
    assert rep["passed"]
    assert rep["axiom1_shift"]["orbits"] == 2 * 5
    assert rep["axiom5_chains"]["observed_max"] == 6  # 2 per block per period


PHW_INSTANCES = tuple(hilb_instance(n, 0) for n in range(2, 7)) + (A2,)


def draw_hw_order(data, instances, p):
    """An hw_order poset of a drawn instance at p, with a lambda' of
    denominator 1 or p + 1 (either keeps (p + 1) * c integral), over a
    window of 2-4 periods at a drawn start."""
    inst = data.draw(st.sampled_from(instances))
    den = data.draw(st.sampled_from((1, p + 1)))
    lam = tuple(F(data.draw(st.integers(-40, 40)), den)
                for _ in range(inst.rank))
    z1 = data.draw(st.integers(-2 * p, 2 * p))
    return hw_order(inst, lam, p,
                    (z1, z1 + data.draw(st.integers(2 * p, 4 * p))))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_hw_order_blocks_are_kept_by_the_shift(data):
    """The premise of phw_axiom_check, on hw_order posets of hilb(1..8) and
    weyl_a(3) at p <= 31: each label's in-window shifts by +-1 lie in its
    own block, the shift keeps every in-window pair a < b, and the closure
    oracle finds axioms 2 and 3 hold with no witness, and cofinality
    exactly when max_n <= d_bound."""
    p = data.draw(st.sampled_from(PRIMES_TO_31))
    poset = draw_hw_order(data, ORDER_INSTANCES, p)
    blocks, labels = poset.blocks, set(poset.labels)
    for a in poset.labels:
        for z in (1, -1):
            sa = shift(a, z, p)
            # the shift moves kappa by z * p, so no check here is vacuous
            assert sa == Label(a.point, a.kappa + z * p)
            assert blocks.get(sa, blocks[a]) == blocks[a]
            for b in poset.closure.get(a, ()):
                sb = shift(b, z, p)
                if sa in labels and sb in labels:
                    assert less(poset, sa, sb)
    # a window of at most 4 periods has max_n at most 4
    d_bound = data.draw(st.integers(0, 5))
    rep = closure_phw_check(poset, d_bound)
    assert rep["axiom2_invariance"] == {"ok": True, "witness": None}
    assert rep["axiom3_L_below_SL"] == {"ok": True}
    cofinality = rep["axiom4_cofinality"]
    assert cofinality["ok"] == (cofinality["max_n"] <= d_bound)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_phw_axiom_check_matches_the_closure_oracle(data):
    """Whole reports against the closure oracle, with d_bound on both sides
    of max_n, on hw_order posets of hilb(2..6) and weyl_a(3) at p in
    {5, 7, 11} over windows of 2-4 periods."""
    p = data.draw(st.sampled_from((5, 7, 11)))
    poset = draw_hw_order(data, PHW_INSTANCES, p)
    max_n = closure_phw_check(poset, 0)["axiom4_cofinality"]["max_n"]
    d_bound = max(0, max_n + data.draw(st.integers(-1, 1)))
    assert phw_axiom_check(poset, d_bound) == closure_phw_check(poset,
                                                                d_bound)


def test_phw_single_orbit_line():
    inst = hilb_instance(1)
    poset = hw_order(inst, (4,), 5, (0, 15))
    rep = phw_axiom_check(poset, d_bound=10)
    assert rep["passed"]
    assert rep["axiom5_chains"]["observed_max"] == 3  # one label per period


def test_block_of_derived_and_shift_invariant():
    # the block of a label is the residue of c_bar(x) - kappa mod p
    blocks = hw_order(HILB2, (5,), 5, (-10, 30)).blocks
    assert blocks[Label((2,), 0)] == 0
    assert blocks[Label((2,), 5)] == 0
    assert blocks[Label((1, 1), 1)] == 3
    l = Label((1, 1), 2)
    for z in (-2, -1, 1, 5):
        assert blocks[shift(l, z, 5)] == blocks[l]


def hilb_face_pair(inst, endpoint):
    A = real_alcove_of((endpoint + F(1, 100),), inst.walls)
    faces = faces_of(A, inst.walls)
    theta = next(f for f in faces if f.witness == (endpoint,))
    return find_compatible(A, theta, inst.walls)


def test_ss_preorder_hilb_classes_cont_mod_b():
    # face at 1/2 (b = 2): classes group by cont mod 2
    pair = hilb_face_pair(HILB3, F(1, 2))
    pre = ss_preorder(HILB3, pair, (-2, 2))
    for cls in pre.classes:
        conts = {cont(l.point) % 2 for l in cls}
        assert len(conts) == 1
    # (3) and (1,1,1) share classes (cont 3 and -3), (2,1) never joins them
    mixed = [cls for cls in pre.classes
             if {l.point for l in cls} == {(3,), (1, 1, 1)}]
    assert mixed
    assert all({l.point for l in cls} != {(3,), (2, 1)} for cls in pre.classes)


def test_ss_preorder_hilb_classes_b3():
    # face at 1/3 (b = 3): all three partitions of 3 have cont divisible by 3
    pair = hilb_face_pair(HILB3, F(1, 3))
    pre = ss_preorder(HILB3, pair, (-3, 3))
    assert any(len({l.point for l in cls}) == 3 for cls in pre.classes)


def test_ss_preorder_within_class_cont_reversed():
    for inst, endpoint in [(HILB3, F(1, 2)), (HILB3, F(1, 3)),
                           (hilb_instance(4, 0), F(1, 2))]:
        pair = hilb_face_pair(inst, endpoint)
        pre = ss_preorder(inst, pair, (-2, 2))
        for cls in pre.classes:
            ordered = pre.within_class_order(cls)
            conts = [cont(l.point) for l in ordered]
            assert conts == sorted(conts, reverse=True)


def test_ss_preorder_class_members_one_per_point():
    pair = hilb_face_pair(HILB3, F(1, 2))
    pre = ss_preorder(HILB3, pair, (-2, 2))
    for cls in pre.classes:
        pts = [l.point for l in cls]
        assert len(pts) == len(set(pts))


def test_equivalence_classes_two_paths_agree():
    for inst, endpoint in [(HILB2, F(1, 2)), (HILB3, F(1, 2)),
                           (HILB3, F(1, 3))]:
        pair = hilb_face_pair(inst, endpoint)
        pre = ss_preorder(inst, pair, (-2, 2))
        assert equivalence_classes(pre) == pre.classes


def test_equivalence_classes_weyl_h_blocks():
    # edge face: lambda-bar = (-5/2, -5/2); h-blocks split as
    # {id, w0} and the four middle elements
    A = real_alcove_of((F(1, 3), F(1, 3)), A2.walls)
    edge = next(f for f in faces_of(A, A2.walls)
                if f.codim == 1 and f.active == ((1, F(1), "<="),))
    pair = find_compatible(A, edge, A2.walls)
    pre = ss_preorder(A2, pair, (-1, 1))
    equivalence_classes(pre)
    families = {}
    for cls in pre.classes:
        for l in cls:
            c = A2.c_value(l.point, pair.lam)
            families.setdefault(frozenset({p for p in
                                           (x.point for x in cls)}), set()).add(c)
    for cls in pre.classes:
        cvals = [A2.c_value(l.point, pair.lam) for l in cls]
        assert all((a - b).denominator == 1 for a in cvals for b in cvals)


def pairwise_direct_classes(pre):
    """Test-only oracle for the direct formula: each label is compared with
    the first member of every class found so far."""
    inst, lam_bar = pre.instance, pre.lam_bar

    def direct_equiv(a, b):
        ca = inst.c_value(a.point, lam_bar)
        cb = inst.c_value(b.point, lam_bar)
        if (ca - cb).denominator != 1:
            return False
        return (affine(ca) - a.kappa) == (affine(cb) - b.kappa)

    direct = []
    for l in pre.labels:
        for cls in direct:
            if direct_equiv(cls[0], l):
                cls.append(l)
                break
        else:
            direct.append([l])
    return {frozenset(cls) for cls in direct}


def nudged(pre, label, delta):
    """pre with one label's kappa moved by the constant delta, in the labels
    and in its class alike; the slope, hence the class, stays."""
    moved = Label(label.point, label.kappa + delta)

    def swap(labels):
        return tuple(moved if l == label else l for l in labels)

    return pre.replace(labels=swap(pre.labels),
                       classes=tuple(swap(cls) for cls in pre.classes))


HILB_2_TO_8 = tuple(hilb_instance(n, 0) for n in range(2, 9))


def draw_pair(data):
    """A hilb(2..8) instance and the compatible pair of a drawn face."""
    inst = data.draw(st.sampled_from(HILB_2_TO_8))
    x = data.draw(st.fractions(min_value=-2, max_value=3, max_denominator=24))
    try:
        A = real_alcove_of((x,), inst.walls)
    except SingularPointError:
        assume(False)
    face = data.draw(st.sampled_from(faces_of(A, inst.walls)))
    return inst, find_compatible(A, face, inst.walls)


def label_loop_preorder(instance, pair, window):
    """Test-only oracle: ss_preorder as first written, one AffineInP sum per
    label and each class sorted by (str(point), kappa.const) on its own."""
    m_lo, m_hi = window
    labels = []
    for x in instance.points:
        gamma = instance.c_affine(x, pair.lam, pair.mu)
        for m in range(m_lo, m_hi + 1):
            labels.append(Label(x, gamma + AffineInP(0, m)))
    by_slope = defaultdict(list)
    for l in labels:
        by_slope[l.kappa.slope].append(l)
    classes = tuple(tuple(sorted(by_slope[s], key=lambda l:
                                 (str(l.point), l.kappa.const)))
                    for s in sorted(by_slope))
    return PreOrder(instance, pair.lam, pair.mu, tuple(labels), classes)


def one(values):
    """The one distinct value among values; any other count fails."""
    value, = set(values)
    return value


def label_loop_json(pre):
    """Test-only oracle: PreOrder.to_json as first written, each label named
    and its kappa printed at every use, and each class's slope the one
    slope that all its labels share."""
    name = pre.instance.point_str
    return {
        "lambda_bar": [rat_str(c) for c in pre.lam_bar],
        "mu": [rat_str(c) for c in pre.mu],
        "labels": [[name(l.point), str(l.kappa)] for l in pre.labels],
        "blocks": {f"{name(l.point)}|{l.kappa}": 0 for l in pre.labels},
        "covers": [[i, i + 1] for i in range(len(pre.classes) - 1)],
        "classes": [{
            "slope": rat_str(one(l.kappa.slope for l in cls)),
            "labels": [[name(l.point), str(l.kappa)] for l in
                       pre.within_class_order(cls)],
        } for cls in pre.classes],
    }


def name_loop_preorder_dot(pre):
    """Test-only oracle: export_poset's DOT of a PreOrder as first written,
    a name function applied to every label and edge end."""
    name = pre.instance.point_str
    ranked = [pre.within_class_order(cls) for cls in pre.classes]
    return orders.to_dot(
        [((name(l.point), l.kappa), orders.PALETTE[ci % len(orders.PALETTE)])
         for ci, cls in enumerate(pre.classes) for l in cls],
        [((name(lo[-1].point), lo[-1].kappa), (name(hi[0].point), hi[0].kappa))
         for lo, hi in zip(ranked, ranked[1:])],
        " [style=dashed]")


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_ss_preorder_matches_the_label_loop(data):
    inst, pair = draw_pair(data)
    m = data.draw(st.integers(0, 4))
    pre = ss_preorder(inst, pair, (-m, m))
    ref = label_loop_preorder(inst, pair, (-m, m))
    # labels and classes alike
    assert pre == ref
    assert equivalence_classes(pre) == equivalence_classes(ref) == ref.classes
    assert pre.to_json() == label_loop_json(ref)
    assert json.dumps(pre.to_json(), sort_keys=True, indent=2) == \
        json.dumps(label_loop_json(ref), sort_keys=True, indent=2)
    assert export_poset(pre) == name_loop_preorder_dot(ref)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_equivalence_classes_matches_pairwise_oracle(data):
    inst, pair = draw_pair(data)
    m = data.draw(st.integers(0, 4))
    pre = ss_preorder(inst, pair, (-m, m))
    if data.draw(st.booleans()):
        pre = nudged(pre, data.draw(st.sampled_from(pre.labels)),
                     data.draw(st.sampled_from((F(1, 2), F(1), F(-3)))))
    if pairwise_direct_classes(pre) == {frozenset(c) for c in pre.classes}:
        assert equivalence_classes(pre) == pre.classes
    else:
        with pytest.raises(AssertionError, match="mismatch"):
            equivalence_classes(pre)
    assert pre.to_json() == label_loop_json(pre)


def test_equivalence_classes_rejects_a_nudged_kappa():
    pair = hilb_face_pair(HILB3, F(1, 2))
    pre = ss_preorder(HILB3, pair, (-2, 2))
    label = next(cls[0] for cls in pre.classes if len(cls) > 1)
    with pytest.raises(AssertionError, match="mismatch"):
        equivalence_classes(nudged(pre, label, F(1, 2)))


def test_equivalence_classes_rejects_one_slope_across_h_blocks():
    # equal slope and equal c - kappa, but c(b) - c(a) = 1/2 is no integer
    inst = FixedPointInstance("split", 1, ("a", "b"),
                              {"a": F(0), "b": F(1, 2)},
                              {"a": (F(0),), "b": (F(0),)}, (), (), (), {})
    labels = (Label("a", AffineInP(0, 1)), Label("b", AffineInP(F(1, 2), 1)))
    pre = PreOrder(inst, (F(0),), (F(0),), labels, (labels,))
    with pytest.raises(AssertionError, match="mismatch"):
        equivalence_classes(pre)


def test_order_compat_chain():
    pair = hilb_face_pair(HILB2, F(1, 2))
    pre = ss_preorder(HILB2, pair, (-2, 2))
    p = 23
    lam_p = pair.p_point(p)
    poset = hw_order(HILB2, lam_p, p, (-3 * p, 3 * p))
    rep = order_compat_check(poset, pre, p)
    assert rep["passed"] and rep["pairs_checked"] > 0


def test_order_compat_negative_control():
    # a pre-order built from a mismatched parameter scatters its labels
    # across equivariant blocks of the true poset: the first implication
    # breaks on cross-point pairs
    pair = hilb_face_pair(HILB2, F(1, 2))
    skewed = SimpleNamespace(lam=(pair.lam[0] + 1,), mu=pair.mu)
    pre_bad = ss_preorder(HILB2, skewed, (-2, 2))
    p = 23
    poset = hw_order(HILB2, pair.p_point(p), p, (-3 * p, 3 * p))
    rep = order_compat_check(poset, pre_bad, p)
    assert not rep["strict_pre_implies_hw"]["ok"]
    assert not rep["passed"]


def pair_walk_compat_check(poset, pre, p):
    """Test-only oracle: order_compat_check as first written, a double loop
    over the in-window labels in which each failing pair overwrites its
    implication's witness."""
    window_labels = set(poset.labels)
    in_window = {}
    for l in pre.labels:
        v = l.kappa.eval_at(p)
        if v.denominator != 1:
            raise ValueError(f"kappa not integral at p={p}")
        cl = Label(l.point, v.numerator)
        if cl in window_labels:
            in_window[l] = cl
    first = second = below = True
    w1 = w2 = None
    items = list(in_window.items())
    for a, ca in items:
        for b, cb in items:
            if a is b:
                continue
            # a <= b in the pre-order iff slope(b) >= slope(a)
            if a.kappa.slope < b.kappa.slope and not less(poset, ca, cb):
                first, w1 = False, (a, b)
            if less(poset, ca, cb) and b.kappa.slope < a.kappa.slope:
                second, w2 = False, (a, b)
    for l in pre.labels:   # the shift by 1 adds 1 to a symbolic slope
        if not l.kappa.slope < l.kappa.slope + 1:
            below = False
    report = {
        "strict_pre_implies_hw": {"ok": first, "witness": w1},
        "hw_implies_pre": {"ok": second, "witness": w2},
        "L_strictly_below_shift": {"ok": below},
        "pairs_checked": len(items) * (len(items) - 1),
        "crossing_threshold": crossing_threshold_bound(pre),
    }
    report["p_above_threshold"] = p > report["crossing_threshold"]
    report["passed"] = first and second and below
    return report


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_order_compat_check_matches_the_pair_walk(data):
    """Whole reports, witnesses included, against the pair walk: on hw_order
    posets and posets with one label moved to another block, for pre-orders
    of the compatible pair, of a skewed parameter, or with one label's kappa
    nudged, at primes below and above the crossing threshold."""
    inst, pair = draw_pair(data)
    p = data.draw(st.sampled_from(PRIMES_TO_31))
    m = data.draw(st.integers(0, 3))
    pre_pair = pair
    if data.draw(st.booleans()):
        pre_pair = SimpleNamespace(
            lam=vadd(pair.lam, (data.draw(st.integers(-2, 2)),)), mu=pair.mu)
    pre = ss_preorder(inst, pre_pair, (-m, m))
    if data.draw(st.booleans()):
        pre = nudged(pre, data.draw(st.sampled_from(pre.labels)),
                     data.draw(st.sampled_from((F(1, 2), F(1), F(-3)))))
    try:
        lam_p = pair.p_point(p)
        c_bar(inst, lam_p, p)
    except ValueError:
        assume(False)
    # a window about the labels' span, cut or widened by up to a period
    kappas = sorted(l.kappa.eval_at(p) for l in pre.labels)
    z1 = int(kappas[0]) - data.draw(st.integers(-p, p))
    width = max(1, int(kappas[-1]) - z1 + data.draw(st.integers(-p, p)))
    poset = hw_order(inst, lam_p, p, (z1, z1 + width))
    if data.draw(st.booleans()):
        poset = moved(poset, data.draw(st.sampled_from(poset.labels)),
                      data.draw(st.integers(0, p - 1)))
    try:
        expected = pair_walk_compat_check(poset, pre, p)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            order_compat_check(poset, pre, p)
        return
    assert order_compat_check(poset, pre, p) == expected


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_order_compat_check_matches_the_pair_walk_on_any_blocks(data):
    """The same on small hand-drawn posets and pre-orders: any block for
    each label and any integer kappas, so that labels of one block meet at
    one kappa, or with one slope, in every arrangement, and a pre-order
    label may repeat."""
    p = data.draw(st.sampled_from((2, 3, 5)))
    points = ("a", "b", "c")
    labels = tuple(Label(x, k) for x in points for k in range(-6, 6))
    blocks = dict(zip(labels, data.draw(st.lists(
        st.integers(0, 2), min_size=len(labels), max_size=len(labels)))))
    poset = orders.LabeledPoset(labels, blocks, p, (-6, 6))
    pre_labels = data.draw(st.lists(st.builds(
        Label, st.sampled_from(points),
        st.builds(AffineInP, st.integers(-8, 8), st.integers(-2, 2))),
        max_size=12))
    pre = PreOrder(None, (), (), tuple(pre_labels), ())
    assert order_compat_check(poset, pre, p) == \
        pair_walk_compat_check(poset, pre, p)


def test_order_compat_witnesses_are_the_last_failing_pairs():
    # below the crossing threshold both implications fail, and each witness
    # is the last failing pair of the pair walk
    pair = hilb_face_pair(hilb_instance(4, 0), F(1, 4))
    pre = ss_preorder(hilb_instance(4, 0), pair, (-2, 2))
    p = 3
    poset = hw_order(hilb_instance(4, 0), pair.p_point(p), p, (-6 * p, 6 * p))
    rep = order_compat_check(poset, pre, p)
    assert rep == pair_walk_compat_check(poset, pre, p)
    assert rep["strict_pre_implies_hw"]["witness"] is not None
    assert rep["hw_implies_pre"]["witness"] is not None


def label_translate(instance, label, chi):
    """Test-only oracle for interval_image, one label at a time: (x, kappa)
    -> (x, kappa + wt_chi(x)), a ValueError for a non-integral weight."""
    w = wt_chi(instance, label.point, chi)
    if w.denominator != 1:
        raise ValueError(
            f"non-integral weight wt_chi = {rat_str(w)}; the character must "
            "be integral")
    # an int adds to the constant term of either kind of kappa
    return Label(label.point, label.kappa + w.numerator)


def test_label_translate_examples():
    for mu in HILB3.points:
        l = Label(mu, 7)
        assert label_translate(HILB3, l, (1,)) == Label(mu, 7 + cont(mu))
        assert label_translate(HILB3, l, (0,)) == l
    l = Label((2, 1), 7)
    assert label_translate(
        HILB3, label_translate(HILB3, l, (2,)), (-2,)) == l
    # on a pre-order's symbolic kappa the weight moves the constant term
    pre = ss_preorder(HILB3, hilb_face_pair(HILB3, F(1, 3)), (-2, 2))
    for l in pre.labels:
        for chi in ((1,), (-2,)):
            w = wt_chi(HILB3, l.point, chi)
            assert label_translate(HILB3, l, chi) == \
                Label(l.point, l.kappa + AffineInP(w, 0))


def test_label_translate_non_integral_weight():
    inst = weyl_a_instance(2)  # rho_vee has half-integral pairings
    l = Label((1, 2), 0)
    with pytest.raises(ValueError, match="integral"):
        label_translate(inst, l, (1,))


def test_interval_image_properties():
    pair = hilb_face_pair(HILB2, F(1, 2))
    pre = ss_preorder(HILB2, pair, (-2, 2))
    interval = [pre.classes[1], pre.classes[2]]
    image = interval_image(pre, interval, (1,))
    assert len(image) == 2
    assert [len(c) for c in image] == [len(c) for c in interval]
    # order between image classes is preserved (ascending slopes)
    assert image[0][0].kappa.slope < image[1][0].kappa.slope
    # chi = 0 is the identity
    same = interval_image(pre, interval, (0,))
    assert [set(c) for c in same] == [set(c) for c in interval]
    # translate back: round trip on label sets
    back = [tuple(label_translate(HILB2, l, (-1,)) for l in cls)
            for cls in image]
    assert [set(c) for c in back] == [set(c) for c in interval]


def test_interval_image_of_an_empty_interval():
    pre = ss_preorder(HILB2, hilb_face_pair(HILB2, F(1, 2)), (-2, 2))
    # idxs[0] of no class used to escape as an IndexError
    assert interval_image(pre, [], (1,)) == ()
    # whatever the interval, a non-integral weight is the ValueError
    with pytest.raises(ValueError, match="^non-integral weight"):
        interval_image(pre, [], (F(1, 2),))


def test_interval_image_requires_contiguity():
    pair = hilb_face_pair(HILB2, F(1, 2))
    pre = ss_preorder(HILB2, pair, (-2, 2))
    with pytest.raises(ValueError, match="interval"):
        interval_image(pre, [pre.classes[0], pre.classes[2]], (1,))
    # a class that is not one of the pre-order's is no interval either
    with pytest.raises(ValueError, match="^not an interval: a class is not "
                                         "one of the pre-order's$"):
        interval_image(pre, [(Label((2,), AffineInP(0, 7)),)], (1,))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_interval_image_matches_the_label_oracle(data):
    # hilb's weights are integers; weyl_a's are half-integers for some
    # characters, on points with weights of more than one value
    if data.draw(st.booleans()):
        inst, pair = draw_pair(data)
    else:
        inst = data.draw(st.sampled_from((A2, weyl_a_instance(4))))
        mu = data.draw(st.lists(st.integers(-1, 1), min_size=inst.rank,
                                max_size=inst.rank))
        pair = SimpleNamespace(lam=(F(1, 3),) * inst.rank, mu=tuple(mu))
    m = data.draw(st.integers(0, 3))
    pre = ss_preorder(inst, pair, (-m, m))
    i = data.draw(st.integers(0, len(pre.classes) - 1))
    j = data.draw(st.integers(i, len(pre.classes) - 1))
    chi = tuple(data.draw(st.lists(st.integers(-3, 3), min_size=inst.rank,
                                   max_size=inst.rank)))
    # every class is translated, so the first non-integral weight in class
    # order is the error's, whatever the interval
    try:
        translated = tuple(tuple(label_translate(inst, l, chi) for l in cls)
                           for cls in pre.classes)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{exc}$"):
            interval_image(pre, pre.classes[i:j + 1], chi)
    else:
        assert interval_image(pre, pre.classes[i:j + 1], chi) == \
            translated[i:j + 1]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_translated_classes_are_the_preorder_at_the_translate(data):
    """The identity that lets interval_image check no lemma: translating
    the pre-order at (lambda, mu) by chi gives, class for class and label
    for label, the pre-order at (lambda + chi, mu), since kappa' = kappa +
    wt_chi(x).  weyl_a's chi is doubled, so that every weight is integral."""
    if data.draw(st.booleans()):
        inst, pair = draw_pair(data)
        scale = 1
    else:
        inst = data.draw(st.sampled_from((A2, weyl_a_instance(4))))
        mu = data.draw(st.lists(st.integers(-1, 1), min_size=inst.rank,
                                max_size=inst.rank))
        pair = SimpleNamespace(lam=(F(1, 3),) * inst.rank, mu=tuple(mu))
        scale = 2
    chi = tuple(scale * c for c in data.draw(st.lists(
        st.integers(-3, 3), min_size=inst.rank, max_size=inst.rank)))
    m = data.draw(st.integers(0, 3))
    pre = ss_preorder(inst, pair, (-m, m))
    moved = ss_preorder(inst, SimpleNamespace(lam=vadd(pair.lam, chi),
                                              mu=pair.mu), (-m, m))
    i = data.draw(st.integers(0, len(pre.classes) - 1))
    j = data.draw(st.integers(i, len(pre.classes) - 1))
    assert interval_image(pre, pre.classes[i:j + 1], chi) == \
        moved.classes[i:j + 1]


def preorder_independence_check(instance, pre_a, pre_b):
    """Test-only oracle: whether two pre-orders from distinct compatible
    parameters for the same face agree structurally.

    Labels are matched by (point, shift index); classes and their order must
    coincide.  For a point face this is expected to hold whatever the
    compatible parameter (Remark-level content); a False return means the
    pre-order genuinely depends on the parameter, not only the face.
    """
    def skeleton(pre):
        base = {x: instance.c_affine(x, pre.lam_bar, pre.mu).slope
                for x in instance.points}
        return [frozenset((l.point, l.kappa.slope - base[l.point])
                          for l in cls) for cls in pre.classes]

    return skeleton(pre_a) == skeleton(pre_b)


def test_preorder_independence_for_point_face():
    # for a point face, the pre-order does not depend on which compatible
    # parameter is chosen (only on the face)
    pair = hilb_face_pair(HILB3, F(1, 3))
    shifted = CompatiblePair(vadd(pair.lam, (2,)), pair.mu,
                             pair.alcove, pair.face)
    pre1 = ss_preorder(HILB3, pair, (-3, 3))
    pre2 = ss_preorder(HILB3, shifted, (-3, 3))
    assert preorder_independence_check(HILB3, pre1, pre2)


def test_crossing_threshold_bound():
    pair = hilb_face_pair(hilb_instance(4, 0), F(1, 4))
    pre = ss_preorder(hilb_instance(4, 0), pair, (-2, 2))
    t = crossing_threshold_bound(pre)
    assert t >= 0
    # above the bound, symbolic comparison matches evaluation for all pairs
    p = t + 1
    for a in pre.labels:
        for b in pre.labels:
            sym = ((a.kappa._key() > b.kappa._key())
                   - (a.kappa._key() < b.kappa._key()))
            conc = ((a.kappa.eval_at(p) > b.kappa.eval_at(p))
                    - (a.kappa.eval_at(p) < b.kappa.eval_at(p)))
            assert sym == conc


def name_loop_dot(poset, instance):
    """export_poset's DOT of a LabeledPoset as first written: a name
    function applied to every label and cover end."""
    name = instance.point_str
    return orders.to_dot(
        [((name(l.point), l.kappa),
          orders.PALETTE[poset.blocks[l] % len(orders.PALETTE)])
         for l in poset.labels],
        [((name(a.point), a.kappa), (name(b.point), b.kappa))
         for a, b in poset.covers])


def test_export_formats():
    poset = hw_order(HILB2, (5,), 5, (0, 10))
    dot = export_poset(poset, HILB2)
    assert dot.startswith("digraph") and "->" in dot
    # partition names, and str names under a meta without a points kind
    for inst in (HILB2, HILB2.replace(meta={})):
        assert export_poset(poset, inst) == name_loop_dot(poset, inst)
    js = json.dumps(poset.to_json(HILB2), sort_keys=True, indent=2)
    assert '"covers"' in js
    pair = hilb_face_pair(HILB2, F(1, 2))
    pre = ss_preorder(HILB2, pair, (-1, 1))
    assert export_poset(pre).startswith("digraph")


def test_label_budget_is_a_value_error_before_any_label_is_built():
    pair = hilb_face_pair(HILB3, F(1, 2))
    no_label = mock.Mock(side_effect=AssertionError("a label was built"))
    with mock.patch.object(orders, "MAX_LABELS", 8), \
            mock.patch.object(orders, "Label", no_label):
        # 3 points times a window of 3 characters, or of 2*1 + 1 shifts
        with pytest.raises(ValueError, match="asks for 9 labels, above the "
                                             "bound of 8"):
            hw_order(HILB3, (5,), 5, (0, 3))
        with pytest.raises(ValueError, match="asks for 9 labels, above the "
                                             "bound of 8"):
            ss_preorder(HILB3, pair, (-1, 1))
    with mock.patch.object(orders, "MAX_LABELS", 9):
        assert len(hw_order(HILB3, (5,), 5, (0, 3)).labels) == 9
        assert len(ss_preorder(HILB3, pair, (-1, 1)).labels) == 9


@pytest.mark.parametrize("argv, error", [
    (["order", "--lambda-prime", "5", "--p", "5", "--window", "0:3"],
     "--window 0:3: the window asks for 9 labels, above the bound of 8"),
    (["preorder", "--point", "5/12", "--face", "1", "--window=-1:1"],
     "--window -1:1: the window asks for 9 labels, above the bound of 8"),
    (["check-compat", "--point", "5/12", "--face", "1", "--p", "5",
      "--window=-5:5", "--m-window=-1:1"],
     "--m-window -1:1: the window asks for 9 labels, above the bound of 8"),
    (["check-compat", "--point", "5/12", "--face", "1", "--p", "5",
      "--window=-5:5", "--m-window=0:0"],
     "--window -5:5: the window asks for 30 labels, above the bound of 8"),
])
def test_cli_label_budget_names_the_window_flag(argv, error):
    buf = io.StringIO()
    with mock.patch.object(orders, "MAX_LABELS", 8), redirect_stdout(buf):
        code = dispatch([argv[0], "--builtin", "hilb", "--n", "3", *argv[1:]])
    assert code == 1
    assert json.loads(buf.getvalue()) == {"error": error}


@pytest.mark.parametrize("argv, digest, bound", [
    # 6885 labels in 17 blocks: about 7 s as a walk over each block's pairs
    (["check-phw", "--builtin", "hilb", "--n", "14", "--lambda-prime", "3/18",
      "--p", "17", "--window", "0:51"],
     "661c3acca34878a4dba96b2566111bd5867e8d50569cfb57a1de5963cf37dcd1", 1.0),
    # 4000 labels in the window, 15,996,000 pairs: 57 s as a pair walk
    (["check-compat", "--builtin", "hilb", "--n", "2", "--point", "1",
      "--face", "1", "--p", "29", "--window=-29000:29000",
      "--m-window=-1000:1000"],
     "0ea0f3c9c51d77741b17cf9244852801a3a8f74f743b99b8e111f6bead68cdb2", 2.0),
])
def test_order_checks_on_wide_windows_take_time_linear_in_the_labels(
        argv, digest, bound):
    """Each report is pinned by the sha256 of its stdout as the pair walks
    printed it.  The bounds are loose: the walks took about 7 s and 57 s,
    and these calls 0.1 s and 0.05-0.1 s, on a shared 2-core x86 VM."""
    buf = io.StringIO()
    start = perf_counter()
    with redirect_stdout(buf):
        code = dispatch(argv)
    elapsed = perf_counter() - start
    assert code == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest
    assert elapsed < bound


def listed_compat_check(pre, lam, p, window):
    """Test-only oracle: check-compat's path as first written, hw_order's
    checks and the highest-weight order listed over the whole window, then
    the pre-order's labels evaluated at p for the "holds no label" check."""
    z1, z2 = window
    if z1 >= z2:
        raise ValueError(f"empty window: [{z1}, {z2})")
    orders._check_label_count(len(pre.instance.points) * (z2 - z1))
    res = c_bar(pre.instance, lam, p)
    labels = tuple(Label(x, k) for x in pre.instance.points
                   for k in range(z1, z2))
    poset = orders.LabeledPoset(
        labels, {l: (res[l.point] - l.kappa) % p for l in labels}, p, window)
    report = order_compat_check(poset, pre, p)
    if not any(z1 <= l.kappa.eval_at(p) < z2 for l in pre.labels):
        return None
    return report


PRIMES_11_TO_61 = (11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)


def draw_window(data, kappas, points):
    """A window that cuts the labels' span, holds all of it, holds none of
    it, is empty, or asks for more than MAX_LABELS labels."""
    lo, hi = kappas[0].__floor__(), kappas[-1].__floor__() + 1
    kind = data.draw(st.sampled_from(("cut", "all", "none", "empty",
                                      "budget")))
    if kind == "empty":
        z1 = data.draw(st.integers(lo - 5, hi + 5))
        return z1, z1 - data.draw(st.integers(0, 3))
    if kind == "budget":
        z1 = data.draw(st.integers(lo - 5, hi + 5))
        return z1, z1 + orders.MAX_LABELS // points + 1
    if kind == "none":
        width = data.draw(st.integers(1, 40))
        return data.draw(st.sampled_from(((lo - width - 1, lo - 1),
                                          (hi + 1, hi + 1 + width))))
    if kind == "all":
        return lo - data.draw(st.integers(0, 20)), hi + data.draw(
            st.integers(0, 20))
    z1 = data.draw(st.integers(lo - 10, hi))
    return z1, data.draw(st.integers(z1 + 1, hi + 10))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_check_compat_prints_what_the_listed_window_prints(data):
    """check-compat without listing its window prints what the listing
    path printed, byte for byte, error text included: on hilb(2..5), at
    primes 11-61, for windows that cut the pre-order, hold all or none of
    its labels, are empty or ask for more labels than the budget."""
    n = data.draw(st.integers(2, 5))
    inst = hilb_instance(n, 0)
    x = data.draw(st.fractions(min_value=-2, max_value=3, max_denominator=24))
    try:
        A = real_alcove_of((x,), inst.walls)
    except SingularPointError:
        assume(False)
    faces = faces_of(A, inst.walls)
    face = data.draw(st.integers(0, len(faces) - 1))
    m = data.draw(st.integers(0, 3))
    pair = find_compatible(A, faces[face], inst.walls)
    # half the draws at a prime where (p+1)c is integral, if there is one
    integral = [p for p in PRIMES_11_TO_61
                if all(((p + 1) * inst.c_value(y, pair.p_point(p)))
                       .denominator == 1 for y in inst.points)]
    p = data.draw(st.sampled_from(integral if integral and data.draw(
        st.booleans()) else PRIMES_11_TO_61))
    kappas = sorted(l.kappa.eval_at(p)
                    for l in ss_preorder(inst, pair, (-m, m)).labels)
    z1, z2 = draw_window(data, kappas, len(inst.points))
    argv = ["check-compat", "--builtin", "hilb", "--n", str(n),
            f"--point={rat_str(x)}", "--face", str(face), "--p", str(p),
            f"--window={z1}:{z2}", f"--m-window=-{m}:{m}"]
    printed = []
    for path in (orders.window_compat_check, listed_compat_check):
        buf = io.StringIO()
        with mock.patch("alcovelab.cli.window_compat_check", path), \
                redirect_stdout(buf):
            code = dispatch(argv)
        printed.append((code, buf.getvalue()))
    assert printed[0] == printed[1]


def test_check_compat_does_not_list_its_window():
    """999,998 labels in the window of hilb(2), just under MAX_LABELS: the
    command's memory follows the pre-order's 10 labels, not the window."""
    argv = ["check-compat", "--builtin", "hilb", "--n", "2", "--point", "1",
            "--face", "1", "--p", "29", "--window=-249999:250000"]
    buf = io.StringIO()
    tracemalloc.start()
    try:
        with redirect_stdout(buf):
            code = dispatch(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and json.loads(buf.getvalue())["checks"]["passed"]
    assert peak < 2 * 2**20
