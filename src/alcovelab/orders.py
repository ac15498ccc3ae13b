"""Highest-weight orders, shift action, standardly stratified pre-orders.

Labels are pairs (fixed point, kappa).  In concrete-prime posets kappa is an
integer T-character; in the symbolic pre-order kappa is affine in p, with the
slope carrying the "mp" part.  The torus has rank one, so a character is a
single scalar; higher rank is not implemented.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cached_property
from math import inf, lcm
from typing import NamedTuple

from .arith import AffineInP, LemmaError, Value, rat_str
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


class LabeledPoset(Value):
    """Strict partial order on a finite label window, stored as the block of
    each label: a < b iff a and b share a block and a.kappa < b.kappa.  The
    covers, the closure and the levels that phw_axiom_check reads are views
    derived from the blocks; that check takes the blocks to be hw_order's,
    which the shift keeps."""

    labels: tuple
    blocks: dict
    p: int
    window: tuple

    @cached_property
    def _levels(self):
        """Each block's labels as levels of ascending kappa, each level in
        label order; blocks in the order of their first label."""
        by_block = defaultdict(lambda: defaultdict(list))
        for l in self.labels:
            by_block[self.blocks[l]][l.kappa].append(l)
        return {b: [levels[k] for k in sorted(levels)]
                for b, levels in by_block.items()}

    @cached_property
    def covers(self):
        """The cover pairs: blocks in the order of their first label, levels
        ascending, each side in label order."""
        return tuple((a, b) for levels in self._levels.values()
                     for lo, hi in zip(levels, levels[1:])
                     for a in lo for b in hi)

    @cached_property
    def closure(self):
        """Strict successors of each label, one frozenset shared by a level;
        only perfbench reads it, for its closure_pairs count."""
        out = {}
        for levels in self._levels.values():
            above = frozenset()
            for level in reversed(levels):
                out.update(dict.fromkeys(level, above))
                above = above.union(level)
        return out

    def to_json(self, instance):
        name = instance.point_str
        names = {x: name(x) for x in {l.point for l in self.labels}}
        return {
            "p": self.p,
            "window": list(self.window),
            "labels": [[names[l.point], l.kappa] for l in self.labels],
            "covers": [[[names[a.point], a.kappa], [names[b.point], b.kappa]]
                       for a, b in self.covers],
            "blocks": {f"{names[l.point]}|{l.kappa}": int(b)
                       for l, b in self.blocks.items()},
        }


def window_blocks(instance: FixedPointInstance, lam, p: int, window):
    """The block of a label (x, kappa) in the highest-weight order on the
    window [z1, z2), as a function that lists no label: (c_bar(x) - kappa)
    mod p for z1 <= kappa < z2, else None.  The window must be nonempty,
    and its |points| * (z2 - z1) labels within MAX_LABELS
    (LabelBudgetError)."""
    z1, z2 = window
    if z1 >= z2:
        raise ValueError(f"empty window: [{z1}, {z2})")
    _check_label_count(len(instance.points) * (z2 - z1))
    res = c_bar(instance, lam, p)
    return lambda l: ((res[l.point] - l.kappa) % p if z1 <= l.kappa < z2
                      else None)


def hw_order(instance: FixedPointInstance, lam, p: int, window) -> LabeledPoset:
    """The highest-weight order on labels (x, kappa), kappa in [z1, z2).

    (x, kappa) < (x', kappa') iff the labels lie in the same equivariant
    block (c_bar(x) - kappa congruent mod p) and kappa < kappa'; only the
    blocks (window_blocks) are stored, and no label is built before its
    checks pass.
    """
    block = window_blocks(instance, lam, p, window)
    z1, z2 = window
    labels = tuple(Label(x, k) for x in instance.points for k in range(z1, z2))
    return LabeledPoset(labels, {l: block(l) for l in labels}, p, (z1, z2))


def phw_axiom_check(poset: LabeledPoset, d_bound: int) -> dict:
    """Verify the periodic-highest-weight axioms on the window of a poset
    that hw_order built.

    (1) the shift acts freely with finitely many orbits; (2) the order is
    shift-invariant; (3) L < S L; (4) cofinality: L < L' admits n <= d_bound
    with L' < S^n L; (5) chains are bounded by d_bound (observed maximum
    reported).  In an hw_order poset the block of (x, kappa) is
    (c_bar(x) - kappa) mod p, which the shift S: kappa -> kappa + p keeps,
    so each shift orbit lies in one block.  Hence axioms 2 and 3 hold, and
    for L < L' the label S^n L with n = (kappa' - kappa) // p + 1 lies in
    their block above L', so axiom 4 fails only when max_n, the largest
    such n, exceeds d_bound.  max_n and the longest chain, which climbs
    every level of its block, are read off each block's levels; a window
    of two periods gives every block two levels or more.
    """
    p = poset.p
    z1, z2 = poset.window
    if z2 - z1 < 2 * p:
        raise ValueError("window must contain at least two shift periods")
    # S moves kappa by p: free, one orbit per label of points x [z1, z1+p)
    orbits = len(poset.labels) // (z2 - z1) * p
    levels = poset._levels.values()
    max_n = max(((ls[-1][0].kappa - ls[0][0].kappa) // p + 1
                 for ls in levels), default=0)
    longest = max(map(len, levels), default=0)
    report = {
        "axiom1_shift": {"orbits": orbits, "free": True, "ok": orbits > 0},
        "axiom2_invariance": {"ok": True, "witness": None},
        "axiom3_L_below_SL": {"ok": True},
        "axiom4_cofinality": {"ok": max_n <= d_bound, "max_n": max_n},
        "axiom5_chains": {"observed_max": longest, "ok": longest <= d_bound},
        "d_bound": d_bound,
    }
    report["passed"] = all(v["ok"] for v in report.values()
                           if isinstance(v, dict))
    return report


class PreOrder(Value):
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

    def within_class_order(self, cls) -> list:
        """Class members sorted ascending for the stratified side: the
        symbolic hw comparison (by constant term) reversed."""
        return sorted(cls, key=lambda l: l.kappa.const, reverse=True)

    def texts(self) -> dict:
        """(point name, kappa text) of each label, each point named once."""
        name = self.instance.point_str
        names = {x: name(x) for x in {l.point for l in self.labels}}
        return {l: (names[l.point], str(l.kappa)) for l in self.labels}

    def to_json(self):
        text = self.texts()
        return {
            "lambda_bar": [rat_str(c) for c in self.lam_bar],
            "mu": [rat_str(c) for c in self.mu],
            "labels": [list(text[l]) for l in self.labels],
            "blocks": {f"{x}|{k}": 0 for x, k in text.values()},
            "covers": [[i, i + 1] for i in range(len(self.classes) - 1)],
            "classes": [{
                "slope": rat_str(cls[0].kappa.slope),
                "labels": [list(text[l]) for l in
                           self.within_class_order(cls)],
            } for cls in self.classes],
        }


def ss_preorder(instance: FixedPointInstance, pair, window) -> PreOrder:
    """The pre-order determined by a compatible pair on the zero block.

    Admissible characters for x are kappa = c(x; lambda_bar + p*mu) + m*p;
    the slope of kappa' - kappa decides the pre-order.  The number of
    labels, |points| * (2m + 1), is checked against MAX_LABELS before any
    label is built (LabelBudgetError).  Labels are listed point by point;
    each class lists its labels by (str(point), kappa.const), a key that is
    the same for all labels of a point, so the points are sorted by it once.
    Classes are keyed by a slope's numerator over the slopes' common
    denominator (m*p keeps a point's denominator).
    """
    m_lo, m_hi = window
    if m_lo != -m_hi or m_hi < 0:
        raise ValueError("window must be symmetric in the shift: (-m, m)")
    _check_label_count(len(instance.points) * (m_hi - m_lo + 1))
    rows = []
    for x in instance.points:
        gamma = instance.c_affine(x, pair.lam, pair.mu)
        rows.append(((str(x), gamma.const),
                     [Label(x, AffineInP(gamma.const, gamma.slope + m))
                      for m in range(m_lo, m_hi + 1)]))
    den = lcm(*(labels[0].kappa.slope.denominator for _, labels in rows))
    by_slope = defaultdict(list)
    for _, labels in sorted(rows, key=lambda row: row[0]):
        for l in labels:
            s = l.kappa.slope
            by_slope[s.numerator * (den // s.denominator)].append(l)
    return PreOrder(instance, pair.lam, pair.mu,
                    tuple(l for _, labels in rows for l in labels),
                    tuple(tuple(by_slope[k]) for k in sorted(by_slope)))


def equivalence_classes(pre: PreOrder) -> tuple:
    """Classes computed two ways: (a) slope levels of the pre-order and
    (b) the direct formula (same h-block and equal c - kappa as affine
    functions); a mismatch falsifies the combinatorial lemma and raises.

    Two labels are directly equivalent iff their c values differ by an
    integer and c - kappa agree as affine functions of p, that is iff they
    share the key (frac(c), c - kappa.const, kappa.slope); so (b) groups the
    labels by that key, computing its first two parts once for a run of
    labels with the same point and the same const object.
    """
    inst = pre.instance
    c = {x: inst.c_value(x, pre.lam_bar) for x in inst.points}
    heads, direct, x, const = {}, defaultdict(list), None, None
    for l in pre.labels:
        k = l.kappa
        if l.point is not x or k.const is not const:
            x, const = l.point, k.const
            cx = c[x]
            head = heads.setdefault((cx % 1, cx - const), len(heads))
        direct[head, k.slope.numerator, k.slope.denominator].append(l)
    path_a = {frozenset(cls) for cls in pre.classes}
    path_b = {frozenset(cls) for cls in direct.values()}
    if path_a != path_b:
        raise LemmaError(
            "equivalence-class mismatch between slope closure and the direct "
            "formula; this would falsify the char-p class lemma")
    return pre.classes


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
    threshold: at p below it the implications can legitimately fail.  Both
    implications are decided from the in-window labels sorted by slope, and
    by block and kappa, with the witnesses of a double loop over them: the
    last failing pair of each.  L strictly below its shift always holds:
    the shift by 1 adds 1 to the slope of a symbolic kappa (p at p), and
    the pre-order compares slopes, so that part of the report is fixed.
    """
    return _compat_check(pre, p, poset.blocks.get, vacuous=True)


def window_compat_check(pre: PreOrder, lam, p: int, window) -> dict | None:
    """order_compat_check(hw_order(pre.instance, lam, p, window), pre, p),
    with its errors in its order, but without listing the window; None
    when the window holds no label of the pre-order at p."""
    block = window_blocks(pre.instance, lam, p, window)
    return _compat_check(pre, p, block, vacuous=False)


def _compat_check(pre: PreOrder, p: int, block, vacuous: bool) -> dict | None:
    """order_compat_check with block(label) the block of a label at p, None
    outside the window; unless vacuous, None when no label is inside.  A
    kappa at p and a slope are read as integers: the numerators of const
    and slope, and a slope's numerator over the slopes' common denominator."""
    den = lcm(*(l.kappa.slope.denominator for l in pre.labels))
    in_window, by_slope, by_place = {}, defaultdict(list), defaultdict(list)
    for l in pre.labels:
        c, s = l.kappa.const, l.kappa.slope
        v, r = divmod(c.numerator * s.denominator
                      + s.numerator * p * c.denominator,
                      c.denominator * s.denominator)
        if r:
            raise ValueError(f"kappa not integral at p={p}")
        b = block(Label(l.point, v))
        if b is not None and l not in in_window:
            in_window[l] = row = (s.numerator * (den // s.denominator), b, v,
                                  len(in_window))
            by_slope[row[0]].append(row)
            by_place[row[1:3]].append(row)
    if not (in_window or vacuous):
        return None
    # a fails the first implication when a label of higher slope lies in
    # another block or not above a's kappa, and the second when a label of
    # a's block above a's kappa has lower slope
    fails1, fails2, blocks_above, k_min, s_min = set(), set(), set(), inf, {}
    for slope in sorted(by_slope, reverse=True):
        for _, b, k, i in by_slope[slope]:
            if k_min <= k or blocks_above - {b}:
                fails1.add(i)
        for _, b, k, i in by_slope[slope]:
            k_min = min(k_min, k)
            if len(blocks_above) < 2:
                blocks_above.add(b)
    for b, k in sorted(by_place, reverse=True):
        for slope, _, _, i in by_place[b, k]:
            if s_min.get(b, inf) < slope:
                fails2.add(i)
        for slope, _, _, i in by_place[b, k]:
            s_min[b] = min(s_min.get(b, inf), slope)
    labels, rows = list(in_window), list(in_window.values())
    w1 = w2 = None
    if fails1:
        si, bi, ki, i = rows[max(fails1)]
        for s, b, k, j in rows:
            if si < s and (bi != b or ki >= k):
                w1 = (labels[i], labels[j])
    if fails2:
        si, bi, ki, i = rows[max(fails2)]
        for s, b, k, j in rows:
            if bi == b and ki < k and s < si:
                w2 = (labels[i], labels[j])
    first, second = w1 is None, w2 is None
    report = {
        "strict_pre_implies_hw": {"ok": first, "witness": w1},
        "hw_implies_pre": {"ok": second, "witness": w2},
        "L_strictly_below_shift": {"ok": True},
        "pairs_checked": len(rows) * (len(rows) - 1),
        "crossing_threshold": crossing_threshold_bound(pre),
    }
    report["p_above_threshold"] = p > report["crossing_threshold"]
    report["passed"] = first and second
    return report


def interval_image(pre: PreOrder, interval, chi) -> tuple:
    """Image of an interval of classes under label translation by chi,
    (x, kappa) -> (x, kappa + wt_chi(x)); every point's weight must be
    integral, whatever the interval.  An empty interval's image is ().

    The translate of each class is again a class, in the same order: an
    integer weight moves a kappa's constant and keeps its slope.
    """
    place = {cls: i for i, cls in enumerate(pre.classes)}
    try:
        idxs = sorted(place[tuple(cls)] for cls in interval)
    except KeyError:
        raise ValueError("not an interval: a class is not one of the "
                         "pre-order's") from None
    if idxs and idxs != list(range(idxs[0], idxs[-1] + 1)):
        raise ValueError("not an interval: classes are not contiguous")
    inst, weight = pre.instance, {}
    for cls in pre.classes:
        for l in cls:
            if l.point not in weight:
                w = wt_chi(inst, l.point, chi)
                if w.denominator != 1:
                    raise ValueError(
                        f"non-integral weight wt_chi = {rat_str(w)}; the "
                        "character must be integral")
                weight[l.point] = w.numerator
    # an int adds to the constant term of either kind of kappa
    return tuple(tuple(Label(l.point, l.kappa + weight[l.point])
                       for l in pre.classes[i]) for i in idxs)


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


def export_poset(obj, instance=None) -> str:
    """DOT Hasse diagram of a poset or pre-order."""
    if isinstance(obj, LabeledPoset):
        # labels and covers named as in the poset's JSON
        payload = obj.to_json(instance)
        return to_dot(
            [(named, PALETTE[obj.blocks[l] % len(PALETTE)])
             for named, l in zip(payload["labels"], obj.labels)],
            payload["covers"])
    # one dashed edge from the top of each class to the bottom of the next
    text = obj.texts()
    ranked = [obj.within_class_order(cls) for cls in obj.classes]
    return to_dot(
        [(text[l], PALETTE[ci % len(PALETTE)])
         for ci, cls in enumerate(obj.classes) for l in cls],
        [(text[lo[-1]], text[hi[0]]) for lo, hi in zip(ranked, ranked[1:])],
        " [style=dashed]")
