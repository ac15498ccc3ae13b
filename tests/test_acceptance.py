"""Acceptance suite: one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import io
import random
from contextlib import redirect_stdout
from dataclasses import replace
from fractions import Fraction as F

from alcovelab.arith import AffineInP, Wall, vec
from alcovelab.alcoves import (faces_of, integral_walls_and_positive_chamber,
                               p_alcove_of, quantum_chamber, real_alcove_of)
from alcovelab.cli import dispatch
from alcovelab.compat import find_compatible, verify_compatible
from alcovelab.instances import hilb_instance, weyl_a_instance
from alcovelab.mullineux import mullineux, mullineux_oracle
from alcovelab.orders import (crossing_threshold_bound, equivalence_classes,
                              hw_order, interval_image,
                              label_translate, order_compat_check,
                              phw_axiom_check, ss_preorder)
from alcovelab.partitions import cont, e_regular_partitions, is_e_regular
from alcovelab.validate import p_lattice_point, validate_p


def report(num, name, ok, detail=""):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def admissible_rationals(n):
    return sorted({F(a, b) for b in range(2, n + 1) for a in range(1, b)})


def window_alcoves(instance, samples):
    alcoves = []
    for pt in samples:
        A = real_alcove_of(pt, instance.walls)
        if A not in alcoves:
            alcoves.append(A)
    return alcoves


def test_criterion_01_sl3_quantum_chamber():
    walls = [Wall(1, (1, 0), frozenset([F(0)])),
             Wall(2, (0, 1), frozenset([F(0)])),
             Wall(3, (1, 1), frozenset(map(F, [-2, -1, 0, 1, 2])))]
    lam = (1, 2)
    _, chamber = integral_walls_and_positive_chamber(lam, walls)
    q = quantum_chamber(lam, chamber, walls)
    got = [(a, m) for _, a, m in q.inequalities]
    want = [((1, 0), F(1)), ((0, 1), F(1)), ((1, 1), F(3))]
    report(1, "SL3 quantum chamber {x1>=1, x2>=1, x1+x2>=3}", got == want)


def test_criterion_02_fundamental_p_alcove_type_a():
    ok = True
    for n in range(2, 6):
        inst = weyl_a_instance(n)
        r = n - 1
        interior = tuple(F(1, n + 1) for _ in range(r))
        A = real_alcove_of(interior, inst.walls)
        pa = p_alcove_of(A, inst.walls)
        ineqs = set(pa.inequalities)
        theta_id = next(w.id for w in inst.walls
                        if w.alpha == tuple(1 for _ in range(r)))
        simple_ids = [w.id for w in inst.walls
                      if sum(w.alpha) == 1]
        # <alpha_i, lambda> > 0, i.e. >= 1, symbolically rhs = 0
        for wid in simple_ids:
            ok &= (wid, 1, AffineInP(0, 0)) in ineqs
        # <alpha_0, lambda> >= 1 - p, symbolically <-theta, lambda> > -p
        ok &= (theta_id, -1, AffineInP(0, -1)) in ineqs
        ok &= len(ineqs) == r + 1
    report(2, "type A fundamental p-alcove symbolic (n <= 5)", ok)


def test_criterion_03_hilb_p_alcove_intervals():
    primes = {2: (5, 11, 23), 3: (23, 29, 41), 4: (23, 47, 71),
              5: (239, 359)}
    checked = 0
    ok = True
    for n in range(2, 6):
        for ell in (0, 1):
            inst = hilb_instance(n, ell)
            adm = admissible_rationals(n)
            for lo, hi in zip(adm, adm[1:]):
                A = real_alcove_of(((lo + hi) / 2,), inst.walls)
                pa = p_alcove_of(A, inst.walls)
                for p in primes[n]:
                    bounds = {}
                    for wid, orient, rhs in pa.inequalities:
                        v = rhs.eval_at(p)
                        ok &= v.denominator == 1
                        bounds["lo" if orient == 1 else "hi"] = \
                            v + 1 if orient == 1 else -v - 1
                    ok &= bounds["lo"] == (p + 1) * lo + ell + 1
                    ok &= bounds["hi"] == (p + 1) * hi - ell - 1
                    checked += 1
    report(3, "Hilb p-alcove intervals [(p+1)a'/b'+l+1, (p+1)a/b-l-1]",
           ok and checked > 0,
           f"{checked} (pair, ell, p) cases; n=2 has no pair of admissible "
           "rationals inside the fundamental window")


def unit_cell_alcoves_weyl(n, grid=8):
    inst = weyl_a_instance(n)
    r = n - 1
    offsets = [F(1, 31), F(1, 37), F(1, 41)]
    samples = []
    for idx in range(grid ** r):
        coords = []
        k = idx
        for j in range(r):
            coords.append(F(k % grid, grid) + offsets[j])
            k //= grid
        samples.append(tuple(coords))
    alcoves = []
    for pt in samples:
        try:
            A = real_alcove_of(pt, inst.walls)
        except ValueError:
            continue
        if A not in alcoves:
            alcoves.append(A)
    return inst, alcoves


def test_criterion_04_compatible_element_suite():
    ok = True
    pairs_checked = 0
    hilb_margin_checked = 0
    for n in range(2, 6):
        inst = hilb_instance(n, 0)
        adm = admissible_rationals(n)
        cells = [(F(0) if i < 0 else adm[i],
                  adm[i + 1] if i + 1 < len(adm) else F(1) + adm[0])
                 for i in range(-1, len(adm))]
        mids = [((lo + hi) / 2,) for lo, hi in cells]
        for A in window_alcoves(inst, mids):
            for face in faces_of(A, inst.walls):
                pair = find_compatible(A, face, inst.walls)
                rep = verify_compatible(pair, inst.walls, p_samples=())
                ok &= rep["passed"]
                pairs_checked += 1
                if face.codim == 1 and F(0) < face.witness[0] < F(1):
                    # lower endpoint a/b: lambda = a/b + m with m > ell;
                    # upper endpoint a'/b': lambda = a'/b' - m, mirrored
                    m = pair.lam[0] - face.witness[0]
                    sense = face.active[0][2]
                    ok &= m.denominator == 1
                    ok &= m > 0 if sense == ">=" else m < 0
                    hilb_margin_checked += 1
    for n in (3, 4):  # A2 and A3 arrangements
        inst, alcoves = unit_cell_alcoves_weyl(n)
        expected = [None, None, None, 2, 6][n]
        ok &= len(alcoves) == expected
        for A in alcoves:
            for face in faces_of(A, inst.walls):
                pair = find_compatible(A, face, inst.walls)
                rep = verify_compatible(pair, inst.walls, p_samples=())
                ok &= rep["passed"]
                pairs_checked += 1
    report(4, "compatible pairs found and verified symbolically",
           ok and pairs_checked > 0,
           f"{pairs_checked} (alcove, face) pairs, "
           f"{hilb_margin_checked} Hilb margins m > ell")


def hilb_lambda_prime(inst, p):
    adm = admissible_rationals(inst.meta["n"])
    mid = (adm[0] + adm[1]) / 2 if len(adm) > 1 else adm[0] + F(1, 2)
    A = real_alcove_of((mid,), inst.walls)
    pt = p_lattice_point(p_alcove_of(A, inst.walls), p, inst.walls)
    assert pt is not None
    return tuple(F(c) for c in pt), A


def test_criterion_05_phw_axiom_suite():
    ok = True
    cases = []
    for n, primes in [(2, (5, 7, 11)), (3, (23, 29, 41)), (4, (23, 47, 71))]:
        inst = hilb_instance(n, 0)
        for p in primes:
            lam, A = hilb_lambda_prime(inst, p)
            assert validate_p(p, inst, alcoves=[A])["passed"]
            poset = hw_order(inst, lam, p, (0, 3 * p))
            rep = phw_axiom_check(poset, d_bound=2 * len(inst.points) * p)
            ok &= rep["passed"]
            cases.append(f"hilb({n})@{p}")
    a2 = replace(weyl_a_instance(3), lambdas=(vec((1, 1)),))
    for p in (5, 7, 11):
        assert validate_p(p, a2)["passed"]
        poset = hw_order(a2, (1, 1), p, (0, 3 * p))
        rep = phw_axiom_check(poset, d_bound=2 * len(a2.points) * p)
        ok &= rep["passed"]
        cases.append(f"weyl_a(3)@{p}")
    report(5, "PHW axioms on >= 3 shift periods", ok, ", ".join(cases))


def hilb_face_pairs(n, ell=0):
    inst = hilb_instance(n, ell)
    out = []
    for endpoint in admissible_rationals(n):
        A = real_alcove_of((endpoint + F(1, 1000),), inst.walls)
        theta = next(f for f in faces_of(A, inst.walls)
                     if f.witness == (endpoint,))
        out.append((inst, endpoint, find_compatible(A, theta, inst.walls)))
    return out


def slope_window(inst, pair):
    """Shift window wide enough for every h-block-equivalent point pair to
    meet in a class (slope gaps are bounded by the cont spread)."""
    slopes = [inst.c_affine(x, pair.lam, pair.mu).slope for x in inst.points]
    w = int(max(slopes) - min(slopes)) + 1
    return (-w, w)


def test_criterion_06_equivalence_class_lemma():
    ok = True
    checked = 0
    for n in (2, 3, 4):
        for inst, endpoint, pair in hilb_face_pairs(n):
            b = endpoint.denominator
            pre = ss_preorder(inst, pair, slope_window(inst, pair))
            classes = equivalence_classes(pre)  # raises on path mismatch
            by_point = {}
            for cls in classes:
                pts = {l.point for l in cls}
                for x in pts:
                    for y in pts:
                        ok &= (cont(x) - cont(y)) % b == 0
            # conversely, cont-congruent points meet in some class
            for x in inst.points:
                for y in inst.points:
                    if (cont(x) - cont(y)) % b == 0:
                        ok &= any({x, y} <= {l.point for l in cls}
                                  for cls in classes)
            for cls in classes:
                ordered = pre.within_class_order(cls)
                conts = [cont(l.point) for l in ordered]
                ok &= conts == sorted(conts, reverse=True)
            checked += 1
    report(6, "equivalence classes: slope closure == direct formula, "
              "cont mod b, cont-reversed inside", ok,
           f"{checked} (n, face) cases")


def first_valid_prime_above(n_factorial_divides, threshold):
    p = max(threshold, 2) + 1
    while True:
        if (p + 1) % n_factorial_divides == 0:
            for d in range(2, int(p ** 0.5) + 1):
                if p % d == 0:
                    break
            else:
                return p
        p += 1


def test_criterion_07_compatibility_chain():
    import math
    ok = True
    checked = 0
    for n in (2, 3, 4):
        for inst, endpoint, pair in hilb_face_pairs(n):
            pre = ss_preorder(inst, pair, (-2, 2))
            # concrete checks need p above every character crossing
            p = first_valid_prime_above(math.factorial(n),
                                        crossing_threshold_bound(pre))
            lam_p = pair.p_point(p)
            poset = hw_order(inst, lam_p, p, (-3 * p, 3 * p))
            rep = order_compat_check(poset, pre, p)
            ok &= rep["passed"] and rep["p_above_threshold"]
            checked += 1
    a2 = weyl_a_instance(3)
    A = real_alcove_of((F(1, 3), F(1, 3)), a2.walls)
    vert = next(f for f in faces_of(A, a2.walls)
                if f.codim == 2 and f.witness == (F(0), F(0)))
    pair = find_compatible(A, vert, a2.walls)
    pre = ss_preorder(a2, pair, (-2, 2))
    p = first_valid_prime_above(2, crossing_threshold_bound(pre))
    poset = hw_order(a2, pair.p_point(p), p, (-3 * p, 3 * p))
    rep = order_compat_check(poset, pre, p)
    ok &= rep["passed"]
    report(7, "chain strict-pre => hw => pre and L < SL", ok,
           f"{checked + 1} instances")


def test_criterion_08_interval_translation_random():
    rng = random.Random(20260810)
    cases = 0
    ok = True
    setups = []
    for n in (2, 3, 4):
        setups.extend(hilb_face_pairs(n))
    a2 = weyl_a_instance(3)
    A = real_alcove_of((F(1, 3), F(1, 3)), a2.walls)
    vert = next(f for f in faces_of(A, a2.walls)
                if f.codim == 2 and f.witness == (F(0), F(0)))
    setups.append((a2, None, find_compatible(A, vert, a2.walls)))
    pres = [(inst, ss_preorder(inst, pair, (-2, 2)))
            for inst, _, pair in setups]
    while cases < 200:
        inst, pre = pres[rng.randrange(len(pres))]
        chi = tuple(rng.randint(-3, 3) for _ in range(inst.rank))
        i = rng.randrange(len(pre.classes))
        j = rng.randrange(i, len(pre.classes))
        interval = list(pre.classes[i:j + 1])
        image = interval_image(pre, interval, chi)  # raises on lemma failure
        back = [tuple(label_translate(inst, l, tuple(-c for c in chi))
                      for l in cls) for cls in image]
        ok &= [set(c) for c in back] == [set(c) for c in interval]
        slopes = [cls[0].kappa.slope for cls in image]
        ok &= slopes == sorted(slopes)
        cases += 1
    report(8, "interval translation: classes map to classes, inverse by -chi",
           ok, f"{cases} random cases")


def test_criterion_09_mullineux_dual_oracle():
    ok = True
    pairs = 0
    for n in range(13):
        for e in (2, 3, 4, 5, 6):
            for mu in e_regular_partitions(n, e):
                img = mullineux(mu, e)
                ok &= img == mullineux_oracle(mu, e)
                ok &= sum(img) == n
                ok &= is_e_regular(img, e)
                ok &= mullineux(img, e) == mu
                pairs += 1
    report(9, "Mullineux rim-symbol == crystal oracle, involution, "
              "size and regularity preserved", ok,
           f"{pairs} (partition, e) cases, n <= 12")


def test_criterion_10_cli_determinism():
    def run(argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = dispatch(argv)
        return code, buf.getvalue()

    ok = True
    for argv in (
            ["validate-p", "--builtin", "hilb", "--n", "3", "--p", "23"],
            ["order", "--builtin", "hilb", "--n", "2", "--lambda-prime", "5",
             "--p", "5", "--window", "0:15"],
            ["compatible", "--builtin", "hilb", "--n", "3", "--point",
             "5/12", "--face", "1", "--p-samples", "23,29"],
            ["wallcross", "--n", "6", "--b", "3"]):
        c1, out1 = run(argv)
        c2, out2 = run(argv)
        ok &= (c1 == c2) and (out1 == out2) and out1 != ""
    report(10, "CLI reports byte-identical across repeated runs", ok)
