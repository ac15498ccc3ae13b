import pytest

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
