import math
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from alcovelab.arith import (AffineInP, Wall, cmp_large_p, is_saturated,
                             pairing, primitivize, rat, rat_str, saturate)
from alcovelab.config import parse_config

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=6)


def test_primitivize_examples():
    assert primitivize((2, 4)) == (1, 2)
    assert primitivize((1, 0)) == (1, 0)
    assert primitivize((-3, 6)) == (1, -2)


def test_primitivize_zero_is_degenerate():
    with pytest.raises(ValueError, match="degenerate wall"):
        primitivize((0, 0, 0))


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
    assert cmp_large_p(AffineInP(3, 0), AffineInP(0, 1)) == -1
    assert cmp_large_p(AffineInP(1, 2), AffineInP(5, 2)) == -1
    assert cmp_large_p(AffineInP(0, 0), AffineInP(0, 0)) == 0


@given(rationals, rationals, rationals, rationals)
def test_cmp_agrees_with_eval_above_threshold(a1, b1, a2, b2):
    f, g = AffineInP(a1, b1), AffineInP(a2, b2)
    c = cmp_large_p(f, g)
    t = f.crossing_threshold(g)
    start = 1 if t is None else math.ceil(t) + 1
    for p in (start, start + 100):
        diff = f.eval_at(p) - g.eval_at(p)
        if c == 0:
            assert diff == 0
        elif c < 0:
            assert diff < 0 or (f.slope == g.slope and diff < 0)
            assert diff < 0
        else:
            assert diff > 0


@given(st.lists(st.tuples(rationals, rationals), max_size=6))
def test_max_crossing_threshold_over_ordered_pairs(coeffs):
    fs = [AffineInP(a, b) for a, b in coeffs]
    expected = max([math.ceil(t) for f in fs for g in fs
                    if (t := f.crossing_threshold(g)) is not None] + [0])
    assert AffineInP.max_crossing_threshold(iter(fs)) == expected


@given(rationals, rationals, rationals, rationals)
def test_affine_arithmetic_exact(a1, b1, a2, b2):
    f, g = AffineInP(a1, b1), AffineInP(a2, b2)
    assert (f + g) - g == f
    assert f - f == AffineInP(0, 0)
    assert (f * 3) - f - f - f == AffineInP(0, 0)


def test_affine_ordering_operators():
    assert AffineInP(5, 0) < AffineInP(0, F(1, 3))
    assert AffineInP(1, 1) <= AffineInP(1, 1)
    assert AffineInP(2, 1) > AffineInP(100, 0)


def test_rat_str_roundtrip():
    for x in (F(3, 4), F(-2), F(0), F(7, 1)):
        assert rat(rat_str(x)) == x
    with pytest.raises(ValueError):
        rat("3.5")


def test_wall_normalizes_and_validates():
    w = Wall(id=1, alpha=(2, -4), sigma_tilde=frozenset([F(1, 2)]))
    assert w.alpha == (1, -2)
    assert w.classes == {F(1, 2)}
    with pytest.raises(ValueError, match="saturated"):
        Wall(id=2, alpha=(1,), sigma_tilde=frozenset([F(0), F(2)]))
    with pytest.raises(ValueError, match="nonempty"):
        Wall(id=3, alpha=(1,), sigma_tilde=frozenset())


def test_wall_json_roundtrip():
    w = Wall(id=4, alpha=(1, -2), sigma_tilde=frozenset([F(-1, 2), F(1, 2)]))
    assert parse_config({"rank": 2, "walls": [w.to_json()]}).walls == (w,)


def test_wall_class_part_sorted():
    w = Wall(id=0, alpha=(1,),
             sigma_tilde=frozenset([F(-1, 3), F(2, 3), F(1, 2)]))
    assert w.class_part(F(8, 3)) == [F(-1, 3), F(2, 3)]
    assert w.class_part(F(7, 2)) == [F(1, 2)]
    assert w.class_part(F(1, 5)) == []


# a pairing entry as an int, a Fraction or a "num/den" string
pairing_entry = st.one_of(
    st.integers(-20, 20),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.builds("{}/{}".format, st.integers(-20, 20), st.integers(1, 12)))


@given(st.integers(0, 5).flatmap(lambda n: st.tuples(
    st.lists(pairing_entry, min_size=n, max_size=n),
    st.lists(pairing_entry, min_size=n, max_size=n))))
def test_pairing_matches_the_fraction_sum(vectors):
    alpha, x = vectors
    got = pairing(alpha, x)
    assert type(got) is F
    assert got == sum((F(a) * F(b) for a, b in zip(alpha, x)), F(0))


def test_pairing_length_mismatch_is_a_value_error():
    with pytest.raises(ValueError):
        pairing((1, 2), (F(1, 2),))
