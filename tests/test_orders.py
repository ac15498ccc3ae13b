import io
import json
import re
from collections import defaultdict
from contextlib import redirect_stdout
from dataclasses import replace
from fractions import Fraction as F
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
                                 weyl_a_instance)
from alcovelab.arith import AffineInP, affine, vadd
from alcovelab.compat import CompatiblePair
from alcovelab.orders import (Label, LabeledPoset, PreOrder, block_of, c_bar,
                              crossing_threshold_bound, equivalence_classes,
                              export_poset, hw_order, interval_image,
                              label_translate, order_compat_check,
                              phw_axiom_check, preorder_independence_check,
                              shift, ss_preorder)
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


def test_hw_order_comparability_derived():
    poset = hw_order(HILB2, (5,), 5, (0, 15))
    # blocks: (2): -kappa mod 5; (1,1): (4-kappa) mod 5
    a, b = Label((1, 1), 0), Label((2,), 1)
    assert poset.blocks[a] == poset.blocks[b] == 4
    assert poset.less(a, b) and not poset.less(b, a)
    # different residues are incomparable
    c, d = Label((2,), 4), Label((1, 1), 1)
    assert poset.blocks[c] != poset.blocks[d]
    assert not poset.comparable(c, d)


def test_hw_order_same_point_period():
    poset = hw_order(HILB2, (5,), 5, (0, 15))
    for x in HILB2.points:
        assert poset.less(Label(x, 2), Label(x, 7))


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
                assert poset.less(a, b) == direct


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


def successors(poset):
    succ = defaultdict(list)
    for a, b in poset.covers:
        succ[a].append(b)
    return succ


def recursive_closure(poset):
    """Test-only oracle: the transitive closure by memoized depth-first
    recursion over the covers, as LabeledPoset.closure first computed it."""
    succ, desc = successors(poset), {}

    def visit(v):
        if v in desc:
            return desc[v]
        acc = set()
        for w in succ[v]:
            acc.add(w)
            acc |= visit(w)
        desc[v] = acc
        return acc

    for v in poset.labels:
        visit(v)
    return desc


def sorted_chain_length(poset):
    """Test-only oracle: the longest chain by one pass over the labels
    sorted by descending kappa, as max_chain_length first computed it."""
    succ, depth = successors(poset), {}
    for v in sorted(poset.labels, key=lambda l: -l.kappa):
        depth[v] = 1 + max((depth[w] for w in succ[v]), default=0)
    return max(depth.values(), default=0)


def assert_walk_matches_oracles(poset):
    assert poset.closure == recursive_closure(poset)
    assert poset.max_chain_length() == sorted_chain_length(poset)


ORDER_INSTANCES = tuple(hilb_instance(n, 0) for n in range(1, 9)) + (A2,)
PRIMES_TO_31 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_walk_matches_the_recursive_closure_and_sorted_chain(data):
    inst = data.draw(st.sampled_from(ORDER_INSTANCES))
    p = data.draw(st.sampled_from(PRIMES_TO_31))
    # a lambda' with denominator p + 1 keeps (p + 1) * c integral
    den = data.draw(st.sampled_from((1, p + 1)))
    lam = tuple(F(data.draw(st.integers(-40, 40)), den)
                for _ in range(inst.rank))
    z1 = data.draw(st.integers(-3 * p, 3 * p))
    width = data.draw(st.integers(2 * p, 3 * p))
    assert_walk_matches_oracles(hw_order(inst, lam, p, (z1, z1 + width)))


@pytest.mark.parametrize("lam", range(5))
def test_walk_matches_the_oracles_with_any_one_cover_removed(lam):
    poset = hw_order(HILB2, (lam,), 5, (0, 15))
    assert_walk_matches_oracles(poset)
    for victim in poset.covers:
        assert_walk_matches_oracles(replace(poset, covers=tuple(
            c for c in poset.covers if c != victim)))


@pytest.mark.parametrize("bad", [
    (Label((2,), 3), Label((1, 1), 3)),
    (Label((2,), 7), Label((2,), 2)),
    (Label((2,), 12), Label((2,), 17)),
    (Label((2,), -3), Label((2,), 2)),
], ids=["keeps-kappa", "lowers-kappa", "leaves-window", "enters-window"])
def test_a_cover_that_does_not_raise_kappa_in_the_window_is_named(bad):
    poset = hw_order(HILB2, (5,), 5, (0, 15))
    named = re.escape(f"cover {bad[0]} -> {bad[1]}")
    for read in (lambda P: P.closure, lambda P: P.less(*bad),
                 lambda P: phw_axiom_check(P, d_bound=20)):
        with pytest.raises(ValueError, match=named):
            read(replace(poset, covers=poset.covers + (bad,)))


def test_shift_trivia():
    l = Label((2,), 4)
    assert shift(l, 1, 5) == Label((2,), 9)
    assert shift(l, 0, 5) == l
    assert shift(shift(l, 3, 5), -3, 5) == l


def test_shift_equivariance():
    poset = hw_order(HILB2, (5,), 5, (0, 20))
    labels = set(poset.labels)
    for a in poset.labels:
        for b in poset.closure.get(a, ()):
            sa, sb = shift(a, 1, 5), shift(b, 1, 5)
            if sa in labels and sb in labels:
                assert poset.less(sa, sb)


def test_phw_axioms_pass():
    poset = hw_order(HILB2, (5,), 5, (0, 15))
    rep = phw_axiom_check(poset, d_bound=2 * 2 * 5)
    assert rep["passed"]
    assert rep["axiom1_shift"]["orbits"] == 2 * 5
    assert rep["axiom5_chains"]["observed_max"] == 6  # 2 per block per period


def test_phw_negative_control_broken_invariance():
    poset = hw_order(HILB2, (5,), 5, (0, 15))
    labels = set(poset.labels)
    victim = next(
        (a, b) for a, b in poset.covers
        if shift(a, 1, 5) in labels and shift(b, 1, 5) in labels
        and (shift(a, 1, 5), shift(b, 1, 5)) in poset.covers)
    broken = LabeledPoset(
        labels=poset.labels,
        covers=tuple(c for c in poset.covers if c != victim),
        blocks=poset.blocks, p=poset.p, window=poset.window)
    rep = phw_axiom_check(broken, d_bound=2 * 2 * 5)
    assert not rep["axiom2_invariance"]["ok"]
    assert not rep["passed"]


def invariance_witness_oracle(poset):
    """Test-only oracle for axiom 2: the first pair a < b, in label then
    closure order, whose shift by 1 and then by -1 leaves the window order."""
    labels, p = set(poset.labels), poset.p
    for a in poset.labels:
        for b in poset.closure.get(a, ()):
            for z in (1, -1):
                sa, sb = shift(a, z, p), shift(b, z, p)
                if sa in labels and sb in labels and not poset.less(sa, sb):
                    return (a, b)
    return None


def test_phw_invariance_witness_matches_oracle():
    # every single cover removed in turn: the witness comes from the +1
    # shift for some removals and from the -1 shift for others
    poset = hw_order(HILB2, (5,), 5, (0, 15))
    for victim in poset.covers:
        broken = LabeledPoset(
            labels=poset.labels,
            covers=tuple(c for c in poset.covers if c != victim),
            blocks=poset.blocks, p=poset.p, window=poset.window)
        rep = phw_axiom_check(broken, d_bound=2 * 2 * 5)["axiom2_invariance"]
        witness = invariance_witness_oracle(broken)
        assert witness is not None
        assert rep == {"ok": False, "witness": witness}


def test_phw_single_orbit_line():
    inst = hilb_instance(1)
    poset = hw_order(inst, (4,), 5, (0, 15))
    rep = phw_axiom_check(poset, d_bound=10)
    assert rep["passed"]
    assert rep["axiom5_chains"]["observed_max"] == 3  # one label per period


def test_block_of_derived_and_shift_invariant():
    lam = (5,)
    assert block_of(HILB2, lam, Label((2,), 0), 5) == 0
    assert block_of(HILB2, lam, Label((2,), 5), 5) == 0
    assert block_of(HILB2, lam, Label((1, 1), 1), 5) == 3
    l = Label((1, 1), 2)
    for z in (-2, -1, 1, 5):
        assert block_of(HILB2, lam, shift(l, z, 5), 5) == \
            block_of(HILB2, lam, l, 5)


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

    return replace(pre, labels=swap(pre.labels),
                   classes=tuple(swap(cls) for cls in pre.classes))


HILB_2_TO_8 = tuple(hilb_instance(n, 0) for n in range(2, 9))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_equivalence_classes_matches_pairwise_oracle(data):
    inst = data.draw(st.sampled_from(HILB_2_TO_8))
    x = data.draw(st.fractions(min_value=-2, max_value=3, max_denominator=24))
    try:
        A = real_alcove_of((x,), inst.walls)
    except SingularPointError:
        assume(False)
    face = data.draw(st.sampled_from(faces_of(A, inst.walls)))
    m = data.draw(st.integers(0, 4))
    pre = ss_preorder(inst, find_compatible(A, face, inst.walls), (-m, m))
    if data.draw(st.booleans()):
        pre = nudged(pre, data.draw(st.sampled_from(pre.labels)),
                     data.draw(st.sampled_from((F(1, 2), F(1), F(-3)))))
    if pairwise_direct_classes(pre) == {frozenset(c) for c in pre.classes}:
        assert equivalence_classes(pre) == pre.classes
    else:
        with pytest.raises(AssertionError, match="mismatch"):
            equivalence_classes(pre)


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
                              {"a": (F(0),), "b": (F(0),)})
    labels = (Label("a", AffineInP(0, 1)), Label("b", AffineInP(F(1, 2), 1)))
    pre = PreOrder(inst, (F(0),), (F(0),), labels, (labels,), (F(1),))
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


def test_label_translate_examples():
    for mu in HILB3.points:
        l = Label(mu, 7)
        assert label_translate(HILB3, l, (1,)) == Label(mu, 7 + cont(mu))
        assert label_translate(HILB3, l, (0,)) == l
    l = Label((2, 1), 7)
    assert label_translate(
        HILB3, label_translate(HILB3, l, (2,)), (-2,)) == l


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


def test_interval_image_requires_contiguity():
    pair = hilb_face_pair(HILB2, F(1, 2))
    pre = ss_preorder(HILB2, pair, (-2, 2))
    with pytest.raises(ValueError, match="interval"):
        interval_image(pre, [pre.classes[0], pre.classes[2]], (1,))


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
            sym = (a.kappa > b.kappa) - (a.kappa < b.kappa)
            conc = ((a.kappa.eval_at(p) > b.kappa.eval_at(p))
                    - (a.kappa.eval_at(p) < b.kappa.eval_at(p)))
            assert sym == conc


def test_export_formats():
    poset = hw_order(HILB2, (5,), 5, (0, 10))
    dot = export_poset(poset, "dot", HILB2)
    assert dot.startswith("digraph") and "->" in dot
    js = export_poset(poset, "json", HILB2)
    assert '"covers"' in js
    pair = hilb_face_pair(HILB2, F(1, 2))
    pre = ss_preorder(HILB2, pair, (-1, 1))
    assert export_poset(pre, "dot").startswith("digraph")


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
