"""Fixed-point data for the two built-in families, plus user tables.

A FixedPointInstance packages a finite fixed-point set with the affine
highest-weight function c(x; lambda) = c_const(x) + <c_linear(x), lambda>,
the wall data of the parameter space, registered parameters and lattice
generators.  Everything downstream (orders, blocks, pre-orders) consumes
only this interface, so other examples can be loaded as data.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, count, permutations, product
from operator import mul

from .arith import MAX_SHIFTS, AffineInP, Value, Wall, pairing, vec
from .partitions import (cont, n_stat, partition_from_str, partition_numbers,
                         partition_str, partitions)

# (read, write) of a point id under each "meta": {"points": ...} kind
POINT_KINDS = {None: (str, str),
               "partitions": (partition_from_str, partition_str),
               "permutations": (lambda s: tuple(int(v) for v in s.split(",")),
                                lambda x: ",".join(map(str, x)))}

# fixed points a builtin instance may list; about 200 times weyl_a(7)'s
# 5040, the largest instance any test, demo or benchmark builds
MAX_POINTS = 1_000_000


class FixedPointInstance(Value):
    name: str
    rank: int
    points: tuple
    c_const: dict
    c_linear: dict
    walls: tuple
    lambdas: tuple      # registered rational parameters (the set Lambda)
    generators: tuple   # lattice generators (the set P_2)
    meta: dict

    def c_value(self, x, lam) -> Fraction:
        """c(x; lambda) for a rational parameter vector lambda."""
        return self.c_const[x] + pairing(self.c_linear[x], vec(lam))

    def c_affine(self, x, lam_bar, mu) -> AffineInP:
        """c(x; lambda_bar + p*mu) as an affine function of p."""
        return AffineInP(self.c_value(x, lam_bar),
                         pairing(self.c_linear[x], vec(mu)))

    def point_str(self, x) -> str:
        return POINT_KINDS[self.meta.get("points")][1](x)


def wt_chi(instance: FixedPointInstance, x, chi) -> Fraction:
    """Directional derivative of c(x; .) along the lattice vector chi.

    Canonical up to a global additive constant (character twist); only
    differences wt(x) - wt(x') are ever consumed downstream.
    """
    return pairing(instance.c_linear[x], vec(chi))


def hilb_sigma_tilde(n: int, ell: int) -> frozenset:
    """Saturated shift set for Hilb_n in c-coordinates: a/b + k for reduced
    values a/b in (0,1) with denominator 2..n and |k| <= ell.  Its size,
    2*ell + 1 shifts per a/b, is checked against MAX_SHIFTS before any
    shift is listed."""
    base = {Fraction(a, b) for b in range(2, n + 1) for a in range(1, b)}
    shifts = len(base) * (2 * ell + 1)
    if shifts > MAX_SHIFTS:
        raise ValueError(f"n = {n} and ell = {ell} give {shifts} sigma_tilde "
                         f"shifts, more than {MAX_SHIFTS} (the bound)")
    return frozenset(s + k for s, k in product(base, range(-ell, ell + 1)))


def check_point_count(counts, n):
    """The size error if the n-th of the increasing point counts
    counts[0], counts[1], ... exceeds MAX_POINTS; no count after the first
    one above the bound is computed, so a huge n costs nothing, and a
    negative n stops at counts[0]."""
    for size, c in enumerate(counts):
        if c > MAX_POINTS:
            raise ValueError(f"n = {n} gives more than {MAX_POINTS} fixed "
                             "points (the bound)")
        if size >= n:
            return


def hilb_instance(n: int, ell: int = 0) -> FixedPointInstance:
    """Hilbert-scheme fixed points: partitions of n with
    c(mu; c) = c * cont(mu) - n(mu) in c-coordinates (c = lambda - 1/2).

    Single wall alpha = (1); real alcoves are the intervals between
    consecutive rationals with denominators 2..n.  A size that is not an
    int, a bool among them, is a TypeError naming it.
    """
    for key, size in (("n", n), ("ell", ell)):
        if type(size) is not int:
            raise TypeError(f"{key} must be an int, not {size!r}")
    if n < 1:
        raise ValueError("n must be >= 1")
    if ell < 0:
        raise ValueError("ell must be >= 0")
    check_point_count(partition_numbers(), n)
    walls = ()
    if n >= 2:
        walls = (Wall(id=0, alpha=(1,), sigma_tilde=hilb_sigma_tilde(n, ell)),)
    pts = tuple(partitions(n))
    c_const = {mu: Fraction(-n_stat(mu)) for mu in pts}
    c_linear = {mu: (Fraction(cont(mu)),) for mu in pts}
    return FixedPointInstance(
        name=f"hilb({n})", rank=1, points=pts,
        c_const=c_const, c_linear=c_linear,
        walls=walls, lambdas=(), generators=((1,),),
        meta={"points": "partitions", "n": n, "ell": ell,
              "coords": "c = lambda - 1/2"},
    )


def _coroot_covectors(n: int):
    """Positive coroots of A_{n-1} as covectors on fundamental-weight
    coordinates: the coroot alpha_i + ... + alpha_j pairs to lam_i + ... + lam_j."""
    r = n - 1
    covs = []
    for i in range(r):
        for j in range(i, r):
            covs.append(tuple(1 if i <= k <= j else 0 for k in range(r)))
    return covs


def weyl_a_instance(n: int) -> FixedPointInstance:
    """Type A_{n-1} Weyl-group fixed points: permutations w of {1..n} with
    c(w; lambda) = <w lambda, rho_vee>, nu = rho_vee.

    Coordinates are fundamental-weight coordinates (lattice Z^{n-1}); walls
    are all positive coroots with sigma_tilde = {0}.  An n that is not an
    int, a bool among them, is a TypeError naming it.
    """
    if type(n) is not int:
        raise TypeError(f"n must be an int, not {n!r}")
    if n < 2:
        raise ValueError("n must be >= 2")
    check_point_count(accumulate(count(1), mul, initial=1), n)  # n!
    r = n - 1
    pts = tuple(permutations(range(1, n + 1)))  # in lexicographic order
    # rho_vee in epsilon coordinates: entry m is (n+1)/2 - m
    rho_vee = [Fraction(n + 1, 2) - m for m in range(1, n + 1)]
    c_linear = {}
    for w in pts:
        # <w lambda, rho_vee> = <lambda, w^{-1} rho_vee>; on fundamental-weight
        # coordinates the i-th coefficient is sum_{k <= i} rho_vee[w(k)]
        coeffs = []
        acc = Fraction(0)
        for k in range(r):
            acc += rho_vee[w[k] - 1]
            coeffs.append(acc)
        c_linear[w] = tuple(coeffs)
    c_const = {w: Fraction(0) for w in pts}
    walls = tuple(Wall(id=i, alpha=a, sigma_tilde=frozenset([Fraction(0)]))
                  for i, a in enumerate(_coroot_covectors(n)))
    return FixedPointInstance(
        name=f"weyl_a({n})", rank=r, points=pts,
        c_const=c_const, c_linear=c_linear,
        walls=walls, lambdas=(),
        generators=tuple(tuple(1 if k == i else 0 for k in range(r))
                         for i in range(r)),
        meta={"points": "permutations", "n": n, "nu": "rho_vee",
              "coords": "fundamental weights"},
    )


BUILTINS = ("hilb", "weyl_a")


# An instance is frozen and no library path writes to its dicts, so one
# build per (name, n, ell) serves every later call of the process; typed,
# so n=True is not a hit on n=1's build but the builder's TypeError.
@lru_cache(maxsize=16, typed=True)
def builtin_instance(name: str, **params) -> FixedPointInstance:
    if name == "hilb":
        return hilb_instance(params["n"], params.get("ell", 0))
    if name == "weyl_a":
        if "ell" in params:
            raise ValueError(f"weyl_a takes no ell, got {params['ell']}")
        return weyl_a_instance(params["n"])
    raise KeyError(f"unknown builtin instance: {name}")
