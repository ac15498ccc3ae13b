"""Exact rational and lattice arithmetic.

Everything downstream works over Q with arbitrary precision: rationals are
``fractions.Fraction``, lattice vectors and covectors are tuples.  No floats
anywhere.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm


class LemmaError(AssertionError):
    """A computed result contradicts a lemma of the theory: a defect of the
    library, not of its input."""


# an integer or "num/den" with a nonzero denominator
RATIONAL_LITERAL = re.compile(r"-?\d+(/0*[1-9]\d*)?")


def rat(x) -> Fraction:
    """Coerce ints, Fractions and "num/den" strings to an exact rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        if not RATIONAL_LITERAL.fullmatch(x.strip()):
            raise ValueError(f"not a rational literal: {x!r}")
        return Fraction(x.strip())
    raise TypeError(f"cannot interpret {x!r} as a rational")


def rat_str(x: Fraction) -> str:
    """Canonical JSON encoding: "num/den", or just "num" for integers."""
    return str(Fraction(x))


def vec(coords) -> tuple:
    return tuple(rat(c) for c in coords)


def vadd(u, v):
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vscale(k, v):
    return tuple(k * a for a in v)


def _num_den(v):
    """(numerator, denominator) of an int, or else of Fraction(v)."""
    if type(v) is int:
        return v, 1
    if type(v) is not Fraction:
        v = Fraction(v)
    return v.numerator, v.denominator


def pairing(alpha, x) -> Fraction:
    """<alpha, x> for a covector alpha and a vector x, as one Fraction: the
    integer numerators of the products a*b summed over the lcm of their
    denominators."""
    nums, dens = [], []
    for a, b in zip(alpha, x, strict=True):
        an, ad = _num_den(a)
        bn, bd = _num_den(b)
        nums.append(an * bn)
        dens.append(ad * bd)
    den = lcm(*dens)
    return Fraction(sum(n * (den // d) for n, d in zip(nums, dens)), den)


def is_lattice(v) -> bool:
    return all(Fraction(c).denominator == 1 for c in v)


def primitivize(v) -> tuple:
    """Normal form of a nonzero integer covector.

    Divides by the gcd and forces the first nonzero coefficient positive, so
    every rational ray has exactly one representative.
    """
    v = tuple(int(c) for c in v)
    if all(c == 0 for c in v):
        raise ValueError("degenerate wall: zero covector")
    g = gcd(*v)
    v = tuple(c // g for c in v)
    lead = next(c for c in v if c != 0)
    if lead < 0:
        v = tuple(-c for c in v)
    return v


def z_classes(s):
    """The elements of a finite set of rationals, grouped by Z-coset."""
    by_class: dict[Fraction, list[Fraction]] = {}
    for x in {rat(x) for x in s}:
        by_class.setdefault(x - x.numerator // x.denominator, []).append(x)
    return by_class.values()


def is_saturated(s) -> bool:
    """True if integer gaps inside the set are filled: z, z+n in S forces
    z+1, ..., z+n-1 in S.  Each Z-coset is saturated exactly when its
    elements are as many as the integers from its minimum to its maximum,
    so no gap value is built."""
    return all(int(max(e) - min(e)) + 1 == len(e) for e in z_classes(s))


def saturate(s) -> frozenset:
    """Smallest saturated superset of a finite set of rationals.

    Elements split into Z-cosets; within each coset the integer gap between
    the minimum and the maximum is filled.
    """
    out = set()
    for elems in z_classes(s):
        lo = min(elems)
        out.update(lo + j for j in range(int(max(elems) - lo) + 1))
    return frozenset(out)


@dataclass(frozen=True)
class Wall:
    """A wall Gamma: a primitive integer covector with a finite saturated
    set of rational shifts.  The hyperplane family of the wall is
    <alpha, .> = m for m congruent mod Z to an element of sigma_tilde."""

    id: int
    alpha: tuple
    sigma_tilde: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "alpha", primitivize(self.alpha))
        st = frozenset(rat(x) for x in self.sigma_tilde)
        if not st:
            raise ValueError(f"wall {self.id}: sigma_tilde must be nonempty")
        if not is_saturated(st):
            raise ValueError(f"wall {self.id}: sigma_tilde is not saturated")
        object.__setattr__(self, "sigma_tilde", st)

    @property
    def classes(self) -> frozenset:
        """Sigma_Gamma: classes of sigma_tilde in Q/Z, as representatives in [0,1)."""
        return frozenset(x - (x.numerator // x.denominator) for x in self.sigma_tilde)

    @cached_property
    def offsets(self) -> tuple:
        """(den, ((sigma, sigma * den), ...)): sigma_tilde in ascending
        order, with the lcm den of its denominators and each element's
        integer numerator over den; class_part, the alcove brackets and
        validate_p's denominator check read this one ordering.  Cached on
        first use; not a field, so equality, hashing and to_json do not
        see it."""
        ordered = sorted(self.sigma_tilde)
        den = lcm(*(s.denominator for s in ordered))
        return den, tuple((s, s.numerator * (den // s.denominator))
                          for s in ordered)

    def class_part(self, m) -> list[Fraction]:
        """Elements of sigma_tilde in the Z-coset of m (sorted, possibly
        empty), read off the offsets: none unless m's denominator divides
        den, else the sigma whose numerator S has den | (den*m - S)."""
        m = rat(m)
        den, offsets = self.offsets
        if den % m.denominator:
            return []
        big_m = m.numerator * (den // m.denominator)
        return [x for x, s in offsets if (big_m - s) % den == 0]

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "alpha": list(self.alpha),
            "sigma_tilde": sorted(rat_str(x) for x in self.sigma_tilde),
        }


@dataclass(frozen=True, init=False)
class AffineInP:
    """An exact affine function a + b*p of a symbolic (large) prime p.

    Comparison is the "for all p >> 0" order: by slope first, then by the
    constant term.  Use eval_at for a concrete prime.
    """

    const: Fraction = Fraction(0)
    slope: Fraction = Fraction(0)

    def __init__(self, const=0, slope=0):
        object.__setattr__(self, "const", rat(const))
        object.__setattr__(self, "slope", rat(slope))

    def eval_at(self, p) -> Fraction:
        return self.const + self.slope * p

    def __add__(self, other):
        other = affine(other)
        return AffineInP(self.const + other.const, self.slope + other.slope)

    __radd__ = __add__

    def __sub__(self, other):
        other = affine(other)
        return AffineInP(self.const - other.const, self.slope - other.slope)

    def __rsub__(self, other):
        return affine(other) - self

    def __mul__(self, k):
        k = rat(k)
        return AffineInP(self.const * k, self.slope * k)

    __rmul__ = __mul__

    def __neg__(self):
        return AffineInP(-self.const, -self.slope)

    def _key(self):
        return (self.slope, self.const)

    def __hash__(self):
        # equal Fractions have equal numerators and denominators, so this
        # agrees with equality without Fraction's modular inverse
        c, s = self.const, self.slope
        return hash((c.numerator, c.denominator, s.numerator, s.denominator))

    def __lt__(self, other):
        return self._key() < affine(other)._key()

    def __le__(self, other):
        return self._key() <= affine(other)._key()

    def __gt__(self, other):
        return self._key() > affine(other)._key()

    def __ge__(self, other):
        return self._key() >= affine(other)._key()

    def crossing_threshold(self, other) -> Fraction | None:
        """The p-value where self and other cross, or None for parallel lines.

        For every prime above the threshold the concrete comparison agrees
        with the large-p order (< and >).
        """
        other = affine(other)
        if self.slope == other.slope:
            return None
        return (other.const - self.const) / (self.slope - other.slope)

    @staticmethod
    def max_crossing_threshold(fs) -> int:
        """Smallest integer P >= 0 at or above every pairwise
        crossing_threshold of the affine functions fs: for every prime above
        P each pair compares as it does for all large p.  Only the n - 1
        neighbours in the large-p order (_key) are compared: just right of
        the last crossing no pair crosses again, so the lines through it are
        contiguous in that order, and two neighbours among them with
        different slopes cross there."""
        fs = sorted(fs, key=AffineInP._key)
        return max([0] + [t.__ceil__() for f, g in zip(fs, fs[1:])
                          if (t := f.crossing_threshold(g)) is not None])

    def __str__(self):
        c, s = self.const, self.slope
        if not s:
            return str(c)
        text = "p" if s == 1 else f"{s}p"
        if not c:
            return text
        # str of a negative Fraction is "-" and the text of its absolute value
        return (f"{text} - {str(c)[1:]}" if c.numerator < 0
                else f"{text} + {c}")

    def to_json(self):
        return {"const": rat_str(self.const), "slope": rat_str(self.slope)}


def affine(x) -> AffineInP:
    if isinstance(x, AffineInP):
        return x
    return AffineInP(rat(x), Fraction(0))
