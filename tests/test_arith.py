import math
import re
from decimal import Decimal
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from alcovelab import arith
from alcovelab.arith import (AffineInP, Wall, is_lattice, is_saturated,
                             pairing, primitivize, rat, rat_str, saturate,
                             threshold, vec)
from alcovelab.config import parse_config

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=6)


def test_primitivize_examples():
    assert primitivize((2, 4)) == (1, 2)
    assert primitivize((1, 0)) == (1, 0)
    assert primitivize((-3, 6)) == (1, -2)


def test_primitivize_zero_is_degenerate():
    with pytest.raises(ValueError, match="degenerate wall"):
        primitivize((0, 0, 0))


@pytest.mark.parametrize("entry", [1.5, F(3, 2), "2", True],
                         ids=["float", "fraction", "str", "bool"])
def test_a_covector_entry_that_is_not_an_integer_is_a_type_error(entry):
    # int() used to truncate: (1.5, 2) was (1, 2), and so a Wall's alpha
    for v in ((entry, 2), (2, entry)):
        with pytest.raises(TypeError, match=re.escape(repr(entry))):
            primitivize(v)
    with pytest.raises(TypeError, match=re.escape(repr(entry))):
        Wall(0, (entry, 2), {0})
    assert primitivize((F(2), F(-4))) == (1, -2)


@given(st.lists(st.integers(-50, 50), min_size=1, max_size=5),
       st.integers(-7, 7).filter(lambda k: k != 0))
def test_primitivize_idempotent_and_scale_invariant(v, k):
    if all(c == 0 for c in v):
        return
    base = primitivize(v)
    assert primitivize(base) == base
    assert primitivize([k * c for c in v]) == base


def saturate_oracle(s):
    """Definition chased naively: add z+1 whenever z, z+n are present."""
    s = set(s)
    changed = True
    while changed:
        changed = False
        for a in list(s):
            for b in list(s):
                d = b - a
                if d.denominator == 1 and d > 1 and a + 1 not in s:
                    s.add(a + 1)
                    changed = True
    return frozenset(s)


def test_saturate_examples():
    assert saturate({F(0)}) == {F(0)}
    assert saturate({F(1, 2), F(5, 2)}) == {F(1, 2), F(3, 2), F(5, 2)}
    assert saturate({F(0), F(1), F(1, 3)}) == {F(0), F(1), F(1, 3)}


@given(st.sets(rationals, min_size=1, max_size=6))
def test_saturate_matches_oracle_and_is_saturated(s):
    out = saturate(s)
    assert out == saturate_oracle(s)
    assert is_saturated(out)
    assert saturate(out) == out
    assert s <= out


def pairwise_is_saturated(s):
    """is_saturated as first written: every integer gap between two
    elements of one class must be filled."""
    s = {F(x) for x in s}
    for z in s:
        for w in s:
            d = w - z
            if d.denominator == 1 and d > 1:
                if any(z + j not in s for j in range(1, d.numerator)):
                    return False
    return True


@given(st.sets(st.fractions(min_value=-4, max_value=4, max_denominator=3),
               min_size=0, max_size=7))
def test_is_saturated_matches_pairwise_oracle(s):
    assert is_saturated(s) == pairwise_is_saturated(s)


def test_is_saturated_builds_no_gap_value():
    # a gap of 10**9 is answered from the counts, not by listing it
    assert not is_saturated({0, 10**9})
    assert is_saturated({0, F(1, 2), 10**9 + F(1, 2)}) is False
    assert is_saturated({F(10**9, 3)})


@given(st.sets(rationals, min_size=1, max_size=4),
       st.sets(rationals, min_size=0, max_size=3))
def test_saturate_monotone(s, extra):
    assert saturate(s) <= saturate(s | extra)


def test_cmp_large_p_examples():
    # the large-p order of AffineInP (its _key): the sign of f - g for
    # every large p
    for f, g, c in [(AffineInP(3, 0), AffineInP(0, 1), -1),
                    (AffineInP(1, 2), AffineInP(5, 2), -1),
                    (AffineInP(0, 0), AffineInP(0, 0), 0)]:
        assert (f._key() > g._key()) - (f._key() < g._key()) == c


def crossing(f, g):
    """Test-only oracle: the p where the lines f and g cross, or None for
    parallel lines (the library's pairwise rule before arith.threshold)."""
    if f.slope == g.slope:
        return None
    return (g.const - f.const) / (f.slope - g.slope)


@given(rationals, rationals, rationals, rationals)
def test_cmp_agrees_with_eval_above_threshold(a1, b1, a2, b2):
    f, g = AffineInP(a1, b1), AffineInP(a2, b2)
    c = (f._key() > g._key()) - (f._key() < g._key())
    t = crossing(f, g)
    start = 1 if t is None else math.ceil(t) + 1
    for p in (start, start + 100):
        diff = f.eval_at(p) - g.eval_at(p)
        if c == 0:
            assert diff == 0
        elif c < 0:
            assert diff < 0
        else:
            assert diff > 0


def pairwise_max_crossing_threshold(fs):
    """Test-only oracle for AffineInP.max_crossing_threshold: the ceiling
    of every pairwise crossing, floored at 0."""
    fs = list(fs)
    best = 0
    for i, f in enumerate(fs):
        for g in fs[i + 1:]:
            t = crossing(f, g)
            if t is not None:
                best = max(best, t.__ceil__())
    return best


@given(st.lists(st.tuples(rationals, rationals), max_size=6))
def test_max_crossing_threshold_over_ordered_pairs(coeffs):
    fs = [AffineInP(a, b) for a, b in coeffs]
    expected = max([math.ceil(t) for f in fs for g in fs
                    if (t := crossing(f, g)) is not None] + [0])
    assert AffineInP.max_crossing_threshold(iter(fs)) == expected


# few distinct coefficients: parallel and equal lines, and crossings at
# integers, at non-integers and below 0, are all common
few = st.sampled_from([F(-3), F(-1), F(-1, 2), F(0), F(1, 3), F(1), F(2),
                       F(7)])
affine_lists = st.lists(st.builds(AffineInP, few, few)
                        | st.builds(AffineInP, rationals, rationals),
                        max_size=9)


@given(st.lists(st.builds(AffineInP, few, few), max_size=9))
def test_max_crossing_threshold_matches_the_pairwise_loop(fs):
    assert AffineInP.max_crossing_threshold(fs) == \
        pairwise_max_crossing_threshold(fs)


def test_max_crossing_threshold_compares_only_neighbours():
    fs = [AffineInP(c, s) for s in range(-4, 5) for c in range(-3, 4)]
    received = []

    def spy(diffs):
        received.extend(diffs)
        return threshold(received)

    with mock.patch.object(arith, "threshold", spy):
        got = AffineInP.max_crossing_threshold(fs)
    assert got == pairwise_max_crossing_threshold(fs) == 6
    assert 0 < len(received) <= len(fs) - 1


def eventually_nonpositive(f):
    """f(p) <= 0 for every large p, read off the sign of f at a p above
    every root the drawn coefficients allow."""
    return f.eval_at(10**6) <= 0


@given(affine_lists)
@example([AffineInP(-7, 2)])           # root 7/2: P = 4, f(4) = 1
@example([AffineInP(-6, 2)])           # root 3: P = 3, f(3) = 0
@example([AffineInP(3, -1), AffineInP(1, 1)])
@example([AffineInP(0, 0)])
def test_threshold_is_the_least_bound_above_which_every_f_is_positive(fs):
    P = threshold(fs)
    assert (P is None) == any(eventually_nonpositive(f) for f in fs)
    if P is None:
        return
    assert type(P) is int and P >= 0
    for p in [P + F(1, 2)] + list(range(P + 1, P + 201)):
        assert all(f.eval_at(p) > 0 for f in fs), p
    if P > 0:
        # least: some f is <= 0 at a real p > P - 1, one of the roots
        roots = [-f.const / f.slope for f in fs if f.slope]
        assert any(f.eval_at(t) <= 0 for f in fs for t in roots
                   if t > P - 1)


@given(affine_lists)
def test_max_crossing_threshold_is_threshold_of_the_ordered_differences(fs):
    # every pair f < g in the large-p order has g - f eventually positive
    expected = threshold(g - f for f in fs for g in fs
                         if f._key() < g._key())
    assert AffineInP.max_crossing_threshold(fs) == expected == \
        pairwise_max_crossing_threshold(fs)


@given(rationals, rationals, rationals, rationals)
def test_affine_arithmetic_exact(a1, b1, a2, b2):
    f, g = AffineInP(a1, b1), AffineInP(a2, b2)
    assert (f + g) - g == f
    assert f - f == AffineInP(0, 0)
    # an int adds to the constant term, from either side
    assert f + 3 == 3 + f == AffineInP(a1 + 3, b1)
    assert f - 3 == AffineInP(a1 - 3, b1)


def test_affine_ordering_operators():
    # the large-p order is the order of the keys; AffineInP defines no
    # comparison operator of its own
    assert AffineInP(5, 0)._key() < AffineInP(0, F(1, 3))._key()
    assert AffineInP(1, 1)._key() <= AffineInP(1, 1)._key()
    assert AffineInP(2, 1)._key() > AffineInP(100, 0)._key()
    with pytest.raises(TypeError):
        AffineInP(5, 0) < AffineInP(0, 1)


def fraction_kappa_text(f):
    """Test-only oracle: AffineInP.__str__ as first written, through
    rat_str, Fraction comparisons and abs."""
    if f.slope == 0:
        return rat_str(f.const)
    s = f"{rat_str(f.slope)}p" if f.slope != 1 else "p"
    if f.const == 0:
        return s
    sign = "+" if f.const > 0 else "-"
    return f"{s} {sign} {rat_str(abs(f.const))}"


@given(st.builds(AffineInP, rationals, st.one_of(
    rationals, st.sampled_from((F(0), F(1), F(-1))))))
@example(AffineInP(F(-7, 2), 0))
@example(AffineInP(F(5, 12), 1))
@example(AffineInP(-3, 1))
@example(AffineInP(0, 1))
@example(AffineInP(F(-1, 4), F(3, 2)))
def test_kappa_text_matches_the_fraction_oracle(f):
    """Slope 0 and 1, const 0 and negative consts among random pairs."""
    assert str(f) == fraction_kappa_text(f)
    # the hash, read off the integer numerators and denominators, agrees
    # with equality
    g = AffineInP(f.const, f.slope)
    assert g == f and hash(g) == hash(f)


def test_rat_str_roundtrip():
    for x in (F(3, 4), F(-2), F(0), F(7, 1)):
        assert rat(rat_str(x)) == x
    with pytest.raises(ValueError):
        rat("3.5")


def test_wall_normalizes_and_validates():
    w = Wall(id=1, alpha=(2, -4), sigma_tilde=frozenset([F(1, 2)]))
    assert w.alpha == (1, -2)
    assert w.offsets == (2, ((F(1, 2), 1),))
    with pytest.raises(ValueError, match="saturated"):
        Wall(id=2, alpha=(1,), sigma_tilde=frozenset([F(0), F(2)]))
    with pytest.raises(ValueError, match="nonempty"):
        Wall(id=3, alpha=(1,), sigma_tilde=frozenset())
    with pytest.raises(TypeError):  # sigma_tilde has no default
        Wall(id=3, alpha=(1,))


def wall_json(w):
    """Test-only writer: a wall as the config reader takes it."""
    return {"id": w.id, "alpha": list(w.alpha),
            "sigma_tilde": sorted(rat_str(x) for x in w.sigma_tilde)}


def test_wall_json_roundtrip():
    w = Wall(id=4, alpha=(1, -2), sigma_tilde=frozenset([F(-1, 2), F(1, 2)]))
    assert parse_config({"rank": 2, "walls": [wall_json(w)]})[0].walls == (w,)


def test_wall_class_part_sorted():
    w = Wall(id=0, alpha=(1,),
             sigma_tilde=frozenset([F(-1, 3), F(2, 3), F(1, 2)]))
    assert w.class_part(F(8, 3)) == [F(-1, 3), F(2, 3)]
    assert w.class_part(F(7, 2)) == [F(1, 2)]
    assert w.class_part(F(1, 5)) == []


@given(st.data())
def test_wall_class_part_matches_the_fraction_rule(data):
    shifts = data.draw(st.sets(st.fractions(min_value=-4, max_value=4,
                                            max_denominator=12),
                               min_size=1, max_size=5))
    w = Wall(id=0, alpha=(1,), sigma_tilde=saturate(frozenset(shifts)))
    # m in the class of a shift, or any rational
    m = data.draw(st.one_of(
        st.builds(lambda s, k: s + k, st.sampled_from(sorted(shifts)),
                  st.integers(-9, 9)),
        st.fractions(min_value=-20, max_value=20, max_denominator=36)))
    # the Fraction rule: sigma with m - sigma an integer, ascending
    assert w.class_part(m) == sorted(x for x in w.sigma_tilde
                                     if (m - x).denominator == 1)


# a pairing entry as an int or a Fraction
pairing_entry = st.one_of(
    st.integers(-20, 20),
    st.fractions(min_value=-20, max_value=20, max_denominator=12))


@given(st.integers(0, 5).flatmap(lambda n: st.tuples(
    st.lists(pairing_entry, min_size=n, max_size=n),
    st.lists(pairing_entry, min_size=n, max_size=n))))
def test_pairing_matches_the_fraction_sum(vectors):
    alpha, x = vectors
    got = pairing(alpha, x)
    assert type(got) is F
    assert got == sum((F(a) * F(b) for a, b in zip(alpha, x)), F(0))


@pytest.mark.parametrize("entry", [0.1, "1/3", True, Decimal("0.5")],
                         ids=["float", "str", "bool", "Decimal"])
def test_a_pairing_entry_that_is_not_an_int_or_a_fraction_is_a_type_error(
        entry):
    for alpha, x in (((1,), (entry,)), ((entry,), (1,)),
                     ((1, 2), (F(1, 2), entry))):
        with pytest.raises(TypeError, match=re.escape(repr(entry))):
            pairing(alpha, x)


@pytest.mark.parametrize("entry", [2.0, "4", True, Decimal(3)],
                         ids=["float", "str", "bool", "Decimal"])
def test_a_lattice_entry_that_is_not_an_int_or_a_fraction_is_a_type_error(
        entry):
    # Fraction(c) used to read each of these as an integer coordinate
    for v in ((entry,), (1, entry), (F(3), entry)):
        with pytest.raises(TypeError, match=re.escape(repr(entry))):
            is_lattice(v)
    assert is_lattice((2, F(4))) and not is_lattice((2, F(1, 2)))


def test_a_bool_is_not_a_rational():
    for call in (lambda: rat(True), lambda: rat(False),
                 lambda: vec((True, False)), lambda: vec((1, True))):
        with pytest.raises(TypeError, match="True|False"):
            call()
    assert rat(1) == 1 and type(rat(1)) is F


def test_pairing_length_mismatch_is_a_value_error():
    with pytest.raises(ValueError):
        pairing((1, 2), (F(1, 2),))
