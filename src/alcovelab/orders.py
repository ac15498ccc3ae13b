"""Highest-weight orders, shift action, standardly stratified pre-orders.

Labels are pairs (fixed point, kappa).  In concrete-prime posets kappa is an
integer T-character; in the symbolic pre-order kappa is affine in p, with the
slope carrying the "mp" part.  The torus has rank one, so a character is a
single scalar; higher rank is not implemented.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .arith import AffineInP, rat_str
from .instances import FixedPointInstance, wt_chi


# labels hw_order or ss_preorder may build: over 300x the 3003 of the
# largest order any test, demo or benchmark workload builds
MAX_LABELS = 1_000_000


class LabelBudgetError(ValueError):
    """An order would build more than MAX_LABELS labels."""


def _check_label_count(count: int) -> None:
    if count > MAX_LABELS:
        raise LabelBudgetError(f"the window asks for {count} labels, above "
                               f"the bound of {MAX_LABELS}")


class Label(NamedTuple):
    point: object
    kappa: object  # int (concrete posets) or AffineInP (symbolic pre-orders)


def c_bar(instance: FixedPointInstance, lam, p: int) -> dict:
    """Residues (p+1)*c(x; lambda) mod p for every fixed point."""
    out = {}
    for x in instance.points:
        v = (p + 1) * instance.c_value(x, lam)
        if v.denominator != 1:
            raise ValueError(
                f"(p+1)*c is not integral at p={p}; see validate_p check (c)")
        out[x] = v.numerator % p
    return out


def shift(label: Label, z: int, p: int) -> Label:
    """The free Z-action z.(x, kappa) = (x, kappa + z*p)."""
    if isinstance(label.kappa, AffineInP):
        return Label(label.point, label.kappa + AffineInP(0, z))
    return Label(label.point, label.kappa + z * p)


def block_of(instance: FixedPointInstance, lam, label: Label, p: int) -> int:
    """Equivariant block: residue of c_bar(x) - kappa mod p."""
    res = c_bar(instance, lam, p)[label.point]
    return (res - label.kappa) % p


@dataclass(frozen=True)
class LabeledPoset:
    """Strict partial order on a finite label window, stored as its cover
    DAG (transitive reduction); closure is computed on demand."""

    labels: tuple
    covers: tuple
    blocks: dict
    p: int
    window: tuple

    @cached_property
    def _walk(self):
        """(descendants, longest chain) of each label, filled in by one pass
        in descending kappa.  Every cover must raise kappa inside the
        window, so a label's successors are done when the pass reaches it."""
        window = set(self.labels)
        succ = defaultdict(list)
        for a, b in self.covers:
            if a not in window or b not in window or not a.kappa < b.kappa:
                raise ValueError(f"cover {a} -> {b} does not raise kappa "
                                 "inside the window")
            succ[a].append(b)
        desc, depth = {}, {}
        for v in sorted(self.labels, key=lambda l: l.kappa, reverse=True):
            acc, longest = set(), 0
            for w in succ[v]:
                acc.add(w)
                acc |= desc[w]
                if depth[w] > longest:
                    longest = depth[w]
            desc[v], depth[v] = acc, longest + 1
        return desc, depth

    @cached_property
    def closure(self):
        """Strict successors of each label: the transitive closure of the
        covers."""
        return self._walk[0]

    def less(self, a: Label, b: Label) -> bool:
        return b in self.closure.get(a, ())

    def comparable(self, a, b) -> bool:
        return self.less(a, b) or self.less(b, a)

    def max_chain_length(self) -> int:
        """Number of labels in the longest chain of the window."""
        return max(self._walk[1].values(), default=0)

    def to_json(self, instance=None):
        name = (instance.point_str if instance is not None else str)
        return {
            "p": self.p,
            "window": list(self.window),
            "labels": [[name(l.point), l.kappa] for l in self.labels],
            "covers": [[[name(a.point), a.kappa], [name(b.point), b.kappa]]
                       for a, b in self.covers],
            "blocks": {f"{name(l.point)}|{l.kappa}": int(b)
                       for l, b in self.blocks.items()},
        }


def hw_order(instance: FixedPointInstance, lam, p: int, window) -> LabeledPoset:
    """The highest-weight order on labels (x, kappa), kappa in [z1, z2).

    (x, kappa) < (x', kappa') iff the labels lie in the same equivariant
    block (c_bar(x) - kappa congruent mod p) and kappa < kappa'.  The
    number of labels, |points| * (z2 - z1), is checked against MAX_LABELS
    before any label is built (LabelBudgetError).
    """
    z1, z2 = window
    if z1 >= z2:
        raise ValueError(f"empty window: [{z1}, {z2})")
    _check_label_count(len(instance.points) * (z2 - z1))
    res = c_bar(instance, lam, p)
    labels = tuple(Label(x, k) for x in instance.points for k in range(z1, z2))
    blocks = {l: (res[l.point] - l.kappa) % p for l in labels}
    by_block = defaultdict(lambda: defaultdict(list))
    for l in labels:
        by_block[blocks[l]][l.kappa].append(l)
    covers = []
    for levels in by_block.values():
        ks = sorted(levels)
        for lo, hi in zip(ks, ks[1:]):
            covers.extend((a, b) for a in levels[lo] for b in levels[hi])
    return LabeledPoset(labels=labels, covers=tuple(covers), blocks=blocks,
                        p=p, window=(z1, z2))


def phw_axiom_check(poset: LabeledPoset, d_bound: int) -> dict:
    """Verify the periodic-highest-weight axioms on the window.

    (1) the shift acts freely with finitely many orbits; (2) the order is
    shift-invariant; (3) L < S L; (4) cofinality: L < L' admits n <= d_bound
    with L' < S^n L; (5) chains are bounded by d_bound (observed maximum
    reported).
    """
    p = poset.p
    z1, z2 = poset.window
    if z2 - z1 < 2 * p:
        raise ValueError("window must contain at least two shift periods")
    labels = set(poset.labels)
    report = {}

    period = [l for l in poset.labels if z1 <= l.kappa < z1 + p]
    free = all(shift(l, 1, p) != l for l in period)
    report["axiom1_shift"] = {"orbits": len(period), "free": free,
                              "ok": free and len(period) > 0}

    # the first pair a < b whose shift by 1, then by -1, is not ordered
    witness = next(
        ((a, b) for a in poset.labels for b in poset.closure.get(a, ())
         for sa, sb in ((shift(a, z, p), shift(b, z, p)) for z in (1, -1))
         if sa in labels and sb in labels and not poset.less(sa, sb)), None)
    report["axiom2_invariance"] = {"ok": witness is None, "witness": witness}

    below_shift = all(
        poset.less(l, shift(l, 1, p))
        for l in poset.labels if shift(l, 1, p) in labels)
    report["axiom3_L_below_SL"] = {"ok": below_shift}

    cofinal = True
    max_n = 0
    for a in poset.labels:
        for b in poset.closure.get(a, ()):
            n = (b.kappa - a.kappa) // p + 1
            max_n = max(max_n, n)
            target = shift(a, n, p)
            if target in labels:
                ok = poset.less(b, target)
            else:
                ok = (poset.blocks[a] == poset.blocks[b]
                      and b.kappa < a.kappa + n * p)
            if not (ok and n <= d_bound):
                cofinal = False
                break
        if not cofinal:
            break
    report["axiom4_cofinality"] = {"ok": cofinal, "max_n": max_n}

    longest = poset.max_chain_length()
    report["axiom5_chains"] = {"observed_max": longest,
                               "ok": longest <= d_bound}

    report["d_bound"] = d_bound
    report["passed"] = all(report[k]["ok"] for k in
                           ("axiom1_shift", "axiom2_invariance",
                            "axiom3_L_below_SL", "axiom4_cofinality",
                            "axiom5_chains"))
    return report


@dataclass(frozen=True)
class PreOrder:
    """Standardly stratified pre-order on symbolic labels of the zero
    equivariant block: (x,kappa) <= (x',kappa') iff slope(kappa'-kappa) >= 0.

    Equivalence classes (finite) are the slope levels; inside a class the
    order is the reverse of the symbolic highest-weight comparison, which is
    the partial-Ringel-duality convention for the stratified side.
    """

    instance: FixedPointInstance
    lam_bar: tuple
    mu: tuple
    labels: tuple
    classes: tuple        # tuple of tuples of labels, ascending slope
    class_slopes: tuple

    def leq(self, a: Label, b: Label) -> bool:
        return b.kappa.slope >= a.kappa.slope

    def strictly_less(self, a: Label, b: Label) -> bool:
        return a.kappa.slope < b.kappa.slope

    def within_class_order(self, cls) -> list:
        """Class members sorted ascending for the stratified side: the
        symbolic hw comparison (by constant term) reversed."""
        return sorted(cls, key=lambda l: -l.kappa.const)

    def to_json(self):
        name = self.instance.point_str
        return {
            "lambda_bar": [rat_str(c) for c in self.lam_bar],
            "mu": [rat_str(c) for c in self.mu],
            "labels": [[name(l.point), str(l.kappa)] for l in self.labels],
            "blocks": {f"{name(l.point)}|{l.kappa}": 0 for l in self.labels},
            "covers": [[i, i + 1] for i in range(len(self.classes) - 1)],
            "classes": [{
                "slope": rat_str(s),
                "labels": [[name(l.point), str(l.kappa)] for l in
                           self.within_class_order(cls)],
            } for s, cls in zip(self.class_slopes, self.classes)],
        }


def ss_preorder(instance: FixedPointInstance, pair, window) -> PreOrder:
    """The pre-order determined by a compatible pair on the zero block.

    Admissible characters for x are kappa = c(x; lambda_bar + p*mu) + m*p;
    the slope of kappa' - kappa decides the pre-order.  The number of
    labels, |points| * (2m + 1), is checked against MAX_LABELS before any
    label is built (LabelBudgetError).
    """
    m_lo, m_hi = window
    if m_lo != -m_hi or m_hi < 0:
        raise ValueError("window must be symmetric in the shift: (-m, m)")
    _check_label_count(len(instance.points) * (m_hi - m_lo + 1))
    labels = []
    for x in instance.points:
        gamma = instance.c_affine(x, pair.lam, pair.mu)
        for m in range(m_lo, m_hi + 1):
            labels.append(Label(x, gamma + AffineInP(0, m)))
    by_slope = defaultdict(list)
    for l in labels:
        by_slope[l.kappa.slope].append(l)
    slopes = tuple(sorted(by_slope))
    classes = tuple(tuple(sorted(by_slope[s], key=lambda l:
                                 (str(l.point), l.kappa.const)))
                    for s in slopes)
    return PreOrder(instance=instance, lam_bar=pair.lam, mu=pair.mu,
                    labels=tuple(labels), classes=classes, class_slopes=slopes)


def equivalence_classes(pre: PreOrder) -> tuple:
    """Classes computed two ways: (a) slope levels of the pre-order and
    (b) the direct formula (same h-block and equal c - kappa as affine
    functions); a mismatch falsifies the combinatorial lemma and raises.

    Two labels are directly equivalent iff their c values differ by an
    integer and c - kappa agree as affine functions of p, that is iff they
    share the key (frac(c), c - kappa.const, kappa.slope); so (b) groups the
    labels by that key.
    """
    inst, lam_bar = pre.instance, pre.lam_bar
    direct = defaultdict(list)
    for l in pre.labels:
        c = inst.c_value(l.point, lam_bar)
        direct[(c % 1, c - l.kappa.const, l.kappa.slope)].append(l)
    path_a = {frozenset(cls) for cls in pre.classes}
    path_b = {frozenset(cls) for cls in direct.values()}
    if path_a != path_b:
        raise AssertionError(
            "equivalence-class mismatch between slope closure and the direct "
            "formula; this would falsify the char-p class lemma")
    return pre.classes


def preorder_independence_check(instance: FixedPointInstance, pre_a: PreOrder,
                                pre_b: PreOrder) -> bool:
    """Whether two pre-orders from distinct compatible parameters for the
    same face agree structurally.

    Labels are matched by (point, shift index); classes and their order must
    coincide.  For a point face this is expected to hold whatever the
    compatible parameter (Remark-level content); a False return means the
    pre-order genuinely depends on the parameter, not only the face.
    """
    def skeleton(pre):
        base = {x: instance.c_affine(x, pre.lam_bar, pre.mu).slope
                for x in instance.points}
        out = []
        for cls in pre.classes:
            out.append(frozenset((l.point, l.kappa.slope - base[l.point])
                                 for l in cls))
        return out

    return skeleton(pre_a) == skeleton(pre_b)


def crossing_threshold_bound(pre: PreOrder) -> int:
    """Smallest P with all symbolic character comparisons stable above P.

    For p > P every pairwise comparison of the pre-order's affine characters
    agrees with the concrete evaluation at p; concrete-prime checks below
    this bound can see spurious ties.
    """
    return AffineInP.max_crossing_threshold(l.kappa for l in pre.labels)


def order_compat_check(poset: LabeledPoset, pre: PreOrder, p: int) -> dict:
    """Verify strict-pre => hw-less => pre, and L strictly below its shift.

    Symbolic labels are evaluated at p and matched against the poset window;
    pairs outside the window are skipped.  The report carries the crossing
    threshold: at p below it the implications can legitimately fail.
    """
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
            if pre.strictly_less(a, b) and not poset.less(ca, cb):
                first, w1 = False, (a, b)
            if poset.less(ca, cb) and not pre.leq(a, b):
                second, w2 = False, (a, b)
    for l in pre.labels:
        s = shift(l, 1, p)
        if not pre.strictly_less(l, s):
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


def label_translate(instance: FixedPointInstance, label: Label, chi) -> Label:
    """Translation equivalence on labels: (x, kappa) -> (x, kappa + wt_chi(x))."""
    w = wt_chi(instance, label.point, chi)
    if w.denominator != 1:
        raise ValueError(
            f"non-integral weight wt_chi = {rat_str(w)}; the character must "
            "be integral")
    if isinstance(label.kappa, AffineInP):
        return Label(label.point, label.kappa + AffineInP(w, 0))
    return Label(label.point, label.kappa + w.numerator)


def interval_image(pre: PreOrder, interval, chi) -> tuple:
    """Image of an interval of classes under label translation by chi.

    Verifies on the way that the translate of each class is again a class
    (block and equivalence preservation); a failure raises.
    """
    idxs = sorted(pre.classes.index(tuple(cls)) for cls in interval)
    if idxs != list(range(idxs[0], idxs[-1] + 1)):
        raise ValueError("not an interval: classes are not contiguous")
    inst = pre.instance
    all_translated = [tuple(label_translate(inst, l, chi) for l in cls)
                      for cls in pre.classes]
    by_slope = defaultdict(set)
    for cls in all_translated:
        for l in cls:
            by_slope[l.kappa.slope].add(l)
    for cls in all_translated:
        slopes = {l.kappa.slope for l in cls}
        if len(slopes) != 1 or set(cls) != by_slope[next(iter(slopes))]:
            raise AssertionError(
                "translated class is not a class; this would falsify the "
                "equivalence-preservation lemma")
    image = tuple(all_translated[i] for i in idxs)
    slopes = [cls[0].kappa.slope for cls in image]
    if slopes != sorted(slopes):
        raise AssertionError("translation did not preserve the class order")
    return image


PALETTE = ("lightblue", "lightgreen", "lightyellow", "lightpink",
           "lightgray", "orange", "cyan", "violet")


def to_dot(nodes, edges, edge_style="") -> str:
    """DOT Hasse diagram.  Nodes are ((name, kappa), color) pairs, edges
    ((name, kappa), (name, kappa)) pairs as in a poset's JSON "covers";
    every label is drawn as "name|kappa"."""
    lines = ["digraph poset {", "  rankdir=BT;"]
    lines += [f'  "{x}|{k}" [style=filled, fillcolor={color}];'
              for (x, k), color in nodes]
    lines += [f'  "{x}|{k}" -> "{y}|{m}"{edge_style};'
              for (x, k), (y, m) in edges]
    lines.append("}")
    return "\n".join(lines)


def export_poset(obj, fmt: str, instance=None) -> str:
    """DOT Hasse diagram or canonical JSON for a poset or pre-order."""
    if fmt == "json":
        payload = obj.to_json(instance) if isinstance(obj, LabeledPoset) \
            else obj.to_json()
        return json.dumps(payload, sort_keys=True, indent=2)
    if fmt != "dot":
        raise ValueError(f"unknown format: {fmt}")
    if isinstance(obj, LabeledPoset):
        name = instance.point_str if instance is not None else str
        return to_dot(
            [((name(l.point), l.kappa), PALETTE[obj.blocks[l] % len(PALETTE)])
             for l in obj.labels],
            [((name(a.point), a.kappa), (name(b.point), b.kappa))
             for a, b in obj.covers])
    # one dashed edge from the top of each class to the bottom of the next
    name = obj.instance.point_str
    ranked = [obj.within_class_order(cls) for cls in obj.classes]
    return to_dot(
        [((name(l.point), l.kappa), PALETTE[ci % len(PALETTE)])
         for ci, cls in enumerate(obj.classes) for l in cls],
        [((name(lo[-1].point), lo[-1].kappa), (name(hi[0].point), hi[0].kappa))
         for lo, hi in zip(ranked, ranked[1:])],
        " [style=dashed]")
