import re
from fractions import Fraction as F
from itertools import islice, permutations

import pytest

from alcovelab.arith import rat_str
from alcovelab.config import parse_config
from alcovelab.instances import (POINT_KINDS, builtin_instance,
                                 hilb_instance, weyl_a_instance, wt_chi)
from alcovelab.partitions import (check_partition, cont, n_stat,
                                  partition_from_str, partition_numbers,
                                  partition_str, partitions, transpose)
from test_arith import wall_json


def test_cont_examples():
    assert cont((5,)) == 0 + 1 + 2 + 3 + 4
    assert cont(()) == 0
    assert cont((1, 1, 1)) == -3


def box_cont(mu):
    """Test-only oracle for cont: j - i summed box by box over the Young
    diagram, rows and columns 1-indexed."""
    return sum(j - i for i, part in enumerate(mu, start=1)
               for j in range(1, part + 1))


def test_cont_closed_form_matches_the_box_sum():
    for n in range(21):
        for mu in partitions(n):
            assert cont(mu) == box_cont(mu)


def test_cont_transpose_antisymmetry():
    for n in range(13):
        for mu in partitions(n):
            assert cont(mu) + cont(transpose(mu)) == 0


def test_n_stat_examples():
    assert n_stat((7,)) == 0
    assert n_stat((1, 1, 1)) == 3
    assert n_stat((2, 1)) == 1


def test_n_stat_cont_identity_bruteforce():
    # n(mu) - n(mu^t) = -cont(mu): per box, n counts i-1 and n^t counts j-1
    for n in range(13):
        for mu in partitions(n):
            assert n_stat(mu) - n_stat(transpose(mu)) == -cont(mu)


def test_partition_counts_against_known():
    known = [1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]
    assert list(islice(partition_numbers(), 1, 13)) == known


def test_partition_str_roundtrip():
    for mu in partitions(6):
        assert partition_from_str(partition_str(mu)) == mu


@pytest.mark.parametrize("part", [2.7, F(3, 1), "2", True],
                         ids=["float", "fraction", "str", "bool"])
def test_a_partition_part_that_is_not_an_int_is_a_type_error(part):
    # int() used to truncate: (2.7, 1) was (2, 1)
    with pytest.raises(TypeError, match=re.escape(repr(part))):
        check_partition((part, 1))
    assert check_partition([3, 1]) == (3, 1)


@pytest.mark.parametrize("size", [True, 3.0, F(3), "3"],
                         ids=["bool", "float", "fraction", "str"])
def test_a_hilb_size_that_is_not_an_int_is_a_type_error(size):
    # hilb_instance(True) used to build hilb(True)
    with pytest.raises(TypeError, match=f"n must be an int, not "
                                        f"{re.escape(repr(size))}"):
        hilb_instance(size)
    with pytest.raises(TypeError, match=f"ell must be an int, not "
                                        f"{re.escape(repr(size))}"):
        hilb_instance(3, size)


def test_hilb_values():
    inst = hilb_instance(2, 0)
    # c-coordinates: evaluate at c = 3/2 (the parameter lambda = 2)
    assert inst.c_value((2,), (F(3, 2),)) == F(3, 2)
    assert inst.c_value((1, 1), (F(3, 2),)) == F(-5, 2)
    assert len(inst.points) == 2
    assert sorted(inst.walls[0].sigma_tilde) == [F(1, 2)]


def test_hilb_sigma_tilde_ell():
    inst = hilb_instance(2, 1)
    assert sorted(inst.walls[0].sigma_tilde) == [-F(1, 2), F(1, 2), F(3, 2)]
    assert hilb_instance(1, 0).walls == ()


def test_hilb_point_count():
    for n, count in zip(range(1, 8), islice(partition_numbers(), 1, None)):
        assert len(hilb_instance(n).points) == count


def epsilon_pairings(lam):
    """<lambda, eps_k> from fundamental-weight coordinates, normalized to
    end at zero: an independent route to <w lambda, rho_vee>."""
    r = len(lam)
    return [sum((F(lam[j]) for j in range(k - 1, r)), F(0))
            for k in range(1, r + 1)] + [F(0)]


def weyl_c_oracle(w, lam):
    """<w lambda, rho_vee> = sum_k rho_vee_k * t_{w^{-1}(k)} with t the
    epsilon pairings of lambda."""
    n = len(w)
    t = epsilon_pairings(lam)
    rho = [F(n + 1, 2) - m for m in range(1, n + 1)]
    winv = [0] * n
    for i, v in enumerate(w):
        winv[v - 1] = i
    return sum(rho[k] * t[winv[k]] for k in range(n))


def test_weyl_values_against_epsilon_oracle():
    inst = weyl_a_instance(3)
    rho_wt = (1, 1)
    ident = (1, 2, 3)
    w0 = (3, 2, 1)
    assert inst.c_value(ident, rho_wt) == 2
    assert inst.c_value(w0, rho_wt) == -2
    for lam in [(1, 1), (2, 5), (F(1, 3), F(7, 2)), (0, 0)]:
        for w in inst.points:
            assert inst.c_value(w, lam) == weyl_c_oracle(w, lam)
    assert all(inst.c_value(w, (0, 0)) == 0 for w in inst.points)


def test_weyl_a4_against_epsilon_oracle():
    inst = weyl_a_instance(4)
    for lam in [(1, 1, 1), (F(1, 2), 3, F(5, 3))]:
        for w in inst.points:
            assert inst.c_value(w, lam) == weyl_c_oracle(w, lam)


def test_weyl_sn_multiset_invariance():
    # c(w; lambda) depends on w only through the epsilon pairings of lambda:
    # permuting them permutes the value multiset (rho_vee sums to zero, so
    # the normalization constant drops out)
    inst = weyl_a_instance(3)
    lam = (F(1, 2), F(3))
    t = epsilon_pairings(lam)
    base = sorted(inst.c_value(w, lam) for w in inst.points)
    for v in permutations(range(3)):
        tv = [t[v[k]] for k in range(3)]
        lam_v = (tv[0] - tv[1], tv[1] - tv[2])
        vals = sorted(inst.c_value(w, lam_v) for w in inst.points)
        assert vals == base


def test_weyl_point_count():
    for n in (2, 3, 4):
        assert len(weyl_a_instance(n).points) == \
            [None, None, 2, 6, 24][n]


def test_wt_chi_examples():
    hil = hilb_instance(3, 0)
    for mu in hil.points:
        assert wt_chi(hil, mu, (2,)) == 2 * cont(mu)
        assert wt_chi(hil, mu, (0,)) == 0
    wa = weyl_a_instance(3)
    for w in wa.points:
        # derivative of <w lambda, rho_vee> in lambda is <w chi, rho_vee>
        chi = (1, -2)
        assert wt_chi(wa, w, chi) == weyl_c_oracle(w, chi)


def test_h_block_difference_identity():
    # (c_{lam+chi}(x) - c_{lam+chi}(x')) - (c_lam(x) - c_lam(x'))
    #   = wt_chi(x) - wt_chi(x'), exactly, for affine c
    for inst, lam, chi in [
            (hilb_instance(4, 0), (F(7, 3),), (3,)),
            (weyl_a_instance(3), (F(1, 2), F(5)), (2, -1))]:
        for x in inst.points:
            for y in inst.points:
                lhs = ((inst.c_value(x, tuple(a + b for a, b in zip(lam, chi)))
                        - inst.c_value(y, tuple(a + b for a, b in zip(lam, chi))))
                       - (inst.c_value(x, lam) - inst.c_value(y, lam)))
                assert lhs == wt_chi(inst, x, chi) - wt_chi(inst, y, chi)


def instance_json(inst):
    """Test-only writer: an instance as the config reader takes it, each
    point named by its kind's writer."""
    return {
        "name": inst.name,
        "rank": inst.rank,
        "points": [{
            "id": inst.point_str(x),
            "c_const": rat_str(inst.c_const[x]),
            "c_linear": [rat_str(c) for c in inst.c_linear[x]],
        } for x in inst.points],
        "walls": [wall_json(w) for w in inst.walls],
        "lambdas": [[rat_str(c) for c in l] for l in inst.lambdas],
        "generators": [[rat_str(c) for c in g] for g in inst.generators],
        "meta": dict(inst.meta),
    }


def test_instance_json_roundtrip():
    for inst in (hilb_instance(3, 1), weyl_a_instance(3), weyl_a_instance(4)):
        back, _ = parse_config(instance_json(inst))
        for key in ("points", "c_const", "c_linear", "walls", "generators",
                    "meta"):
            assert getattr(back, key) == getattr(inst, key), key


def test_point_ids_read_and_write_back_byte_equal():
    insts = [*map(hilb_instance, range(2, 7)), *map(weyl_a_instance, (3, 4))]
    for inst in insts:
        read, write = POINT_KINDS[inst.meta["points"]]
        for x, entry in zip(inst.points, instance_json(inst)["points"]):
            assert read(entry["id"]) == x
            assert write(read(entry["id"])) == entry["id"]


def test_builtin_dispatch():
    assert builtin_instance("hilb", n=3).name == "hilb(3)"
    assert builtin_instance("weyl_a", n=3).name == "weyl_a(3)"
