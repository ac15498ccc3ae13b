from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from alcovelab.mullineux import (e_rim, mullineux, mullineux_oracle,
                                 mullineux_symbol, rim_path,
                                 wc_bijection_hilb)
from alcovelab.partitions import (e_regular_partitions, is_e_regular,
                                  partitions, transpose)


def test_fixed_points():
    for e in (2, 3, 5):
        assert mullineux((), e) == ()
        assert mullineux((1,), e) == (1,)
        assert mullineux_oracle((), e) == ()
        assert mullineux_oracle((1,), e) == (1,)


def test_rim_path_order():
    assert rim_path((3, 1)) == [(1, 3), (1, 2), (1, 1), (2, 1)]
    assert rim_path((2, 2)) == [(1, 2), (2, 2), (2, 1)]


def test_e_rim_segment_skip():
    # segments of e boxes; after a mid-row stop the walk resumes in the
    # next row
    assert e_rim((3, 1), 2) == [(1, 3), (1, 2), (2, 1)]
    assert e_rim((3, 1), 5) == [(1, 3), (1, 2), (1, 1), (2, 1)]


def test_symbol_known_values():
    assert mullineux_symbol((3,), 3) == ((3, 1),)
    assert mullineux_symbol((2, 1), 3) == ((3, 2),)
    assert mullineux((3,), 3) == (2, 1)
    assert mullineux((2, 1), 3) == (3,)


def test_e2_identity():
    for n in range(13):
        for mu in e_regular_partitions(n, 2):
            assert mullineux(mu, 2) == mu


def test_involution_and_preservation():
    for n in range(11):
        for e in (2, 3, 4, 5, 6):
            for mu in e_regular_partitions(n, e):
                img = mullineux(mu, e)
                assert sum(img) == n
                assert is_e_regular(img, e)
                assert mullineux(img, e) == mu


def test_oracle_agreement():
    for n in range(11):
        for e in (2, 3, 4, 5):
            for mu in e_regular_partitions(n, e):
                assert mullineux(mu, e) == mullineux_oracle(mu, e)


def test_large_e_transpose():
    for n in range(1, 11):
        for mu in partitions(n):
            assert mullineux(mu, n + 1) == transpose(mu)


def test_singular_input_rejected():
    with pytest.raises(ValueError, match="part 1 repeats 3"):
        mullineux((1, 1, 1), 3)
    with pytest.raises(ValueError, match="not 2-regular"):
        mullineux_oracle((2, 2), 2)


def b_core(mu, b):
    """Test-only: the b-core of mu by the abacus.  The beta numbers
    mu_i + r - 1 - i of its r parts lie on b runners by residue; each
    runner's beads slide to its top, and the slid beta numbers, descending,
    read back as a partition."""
    r = len(mu)
    beads = Counter((part + r - 1 - i) % b for i, part in enumerate(mu))
    slid = sorted((j + k * b for j, count in beads.items()
                   for k in range(count)), reverse=True)
    return tuple(x - (r - 1 - i) for i, x in enumerate(slid)
                 if x > r - 1 - i)


def rim_hook_core(mu, b):
    """Test-only oracle: the b-core of mu by removing b-rim hooks, one at a
    time, while some box has hook length b.  The rim hook of box (i, j)
    spans rows i to i + leg: each of them but the last takes the length of
    the next row less one, and the last keeps j boxes."""
    mu = list(mu)
    while True:
        conj = transpose(mu)
        box = next(((i, j) for i in range(len(mu)) for j in range(mu[i])
                    if mu[i] - j + conj[j] - i - 1 == b), None)
        if box is None:
            return tuple(mu)
        i, j = box
        leg = conj[j] - i - 1
        mu[i:i + leg + 1] = [part - 1 for part in mu[i + 1:i + leg + 1]] + [j]
        mu = [part for part in mu if part]


def test_core_examples():
    # (3, 1) loses two 2-hooks; (4, 2) has hook lengths 5 4 2 1 / 2 1, so
    # no 3-hook, and one 4-hook, whose removal leaves (1, 1)
    for core in (b_core, rim_hook_core):
        assert core((), 3) == ()
        assert core((3, 1), 2) == ()
        assert core((2, 1), 2) == (2, 1)
        assert core((5,), 3) == (2,)
        assert core((4, 2), 3) == (4, 2)
        assert core((4, 2), 4) == (1, 1)
        assert core((6, 3, 1), 3) == (2, 1, 1)


@given(st.lists(st.integers(1, 12), max_size=10), st.integers(1, 8))
def test_abacus_core_matches_rim_hook_removal(parts, b):
    mu = tuple(sorted(parts, reverse=True))
    assert b_core(mu, b) == rim_hook_core(mu, b)


def test_mullineux_transposes_the_b_core():
    """Tensoring with the sign sends the block of core kappa to the block
    of the transposed core, so the Mullineux map does too, on every
    b-regular partition of n <= 12 and 2 <= b <= n."""
    checked = 0
    for n in range(2, 13):
        for b in range(2, n + 1):
            for mu in e_regular_partitions(n, b):
                assert b_core(mullineux(mu, b), b) == transpose(b_core(mu, b))
                checked += 1
    assert checked == 1842


def test_wc_bijection_n2_b2():
    table = wc_bijection_hilb(2, 2)["map"]
    assert table["2"] == {"image": "2", "provenance": "mullineux"}
    assert table["1+1"] == {"image": None, "provenance": "EXTERNAL"}


def test_wc_bijection_is_involution_on_regulars():
    for n, b in [(4, 2), (5, 3), (6, 4)]:
        table = wc_bijection_hilb(n, b)["map"]
        for key, entry in table.items():
            if entry["provenance"] != "mullineux":
                continue
            assert table[entry["image"]]["image"] == key


def test_wc_bijection_matches_oracle():
    table = wc_bijection_hilb(3, 3)["map"]
    from alcovelab.partitions import partition_str
    for mu in e_regular_partitions(3, 3):
        assert table[partition_str(mu)]["image"] == \
            partition_str(mullineux_oracle(mu, 3))


def test_wc_bijection_variants():
    t = wc_bijection_hilb(3, 2, "transpose")["map"]
    assert t["3"]["image"] == "1+1+1"
    mt = wc_bijection_hilb(3, 2, "mullineux+transpose")["map"]
    assert mt["1+1+1"]["provenance"] == "EXTERNAL"
    with pytest.raises(ValueError, match="variant"):
        wc_bijection_hilb(3, 2, "nonsense")


def test_wc_bijection_bad_b():
    with pytest.raises(ValueError, match="2 <= b <= n"):
        wc_bijection_hilb(3, 7)
