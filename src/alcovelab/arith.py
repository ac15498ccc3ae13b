"""Exact rational and lattice arithmetic.

Everything downstream works over Q with arbitrary precision: rationals are
``fractions.Fraction``, lattice vectors and covectors are tuples.  No floats
anywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import attrgetter


class LemmaError(AssertionError):
    """A computed result contradicts a lemma of the theory: a defect of the
    library, not of its input."""


class Value:
    """Base of the library's immutable value types.

    A subclass lists its fields as annotations, which __init_subclass__
    reads once.  __init__ stores them as given, by position or by name, in
    one pass: it takes each field past the positional ones from the names,
    and a name left over or a count other than the number of fields is a
    TypeError.  No field has a default; only Wall, which checks and
    normalizes its input, keeps its own __init__ and hands the values to
    Value.__init__ by position.  Equality holds between instances of the
    same class whose fields are equal, the hash is that of the tuple of
    the fields, and the repr lists them as `Class(name=value, ...)`.
    Assigning or deleting an attribute is an AttributeError.  There are no
    __slots__: cached properties live in the instance __dict__.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        # the tuple of the fields (every value type has two or more)
        cls._values = staticmethod(attrgetter(*cls._fields))

    def __init__(self, /, *args, **named):
        fields = self._fields
        if named:
            args += tuple([named.pop(name) for name in fields[len(args):]
                           if name in named])
        if named or len(args) != len(fields):
            raise TypeError(f"{type(self).__qualname__}{fields} got "
                            f"{len(args)} values, names left: {[*named]}")
        self.__dict__.update(zip(fields, args))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        return (f"{type(self).__qualname__}("
                + ", ".join(f"{name}={getattr(self, name)!r}"
                            for name in self._fields) + ")")

    def replace(self, **changes):
        """A copy with the given fields changed, built by __init__; an
        unknown field is a TypeError."""
        return type(self)(**{name: getattr(self, name)
                             for name in self._fields} | changes)


# an integer or "num/den" with a nonzero denominator
RATIONAL_LITERAL = re.compile(r"-?\d+(/0*[1-9]\d*)?")


def rat(x) -> Fraction:
    """Coerce ints (not bools), Fractions and "num/den" strings to an exact
    rational."""
    if isinstance(x, Fraction):
        return x
    if type(x) is int:
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
    """(numerator, denominator) of an int or a Fraction; anything else,
    a bool, a float or a string among them, is a TypeError naming it."""
    if type(v) is int:
        return v, 1
    if type(v) is not Fraction:
        raise TypeError(f"an entry must be an int or a Fraction, not {v!r}")
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
    return all(_num_den(c)[1] == 1 for c in v)


def primitivize(v) -> tuple:
    """Normal form of a nonzero integer covector.

    Divides by the gcd and forces the first nonzero coefficient positive, so
    every rational ray has exactly one representative.  An entry that is
    not an int or a Fraction of denominator 1 is a TypeError naming it.
    """
    for c in v:
        if _num_den(c)[1] != 1:
            raise TypeError(f"a covector entry must be an integer, not {c!r}")
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


# shifts the saturated sigma_tilde of an instance's walls may list in all,
# counted before any is listed; about 300 times hilb(14)'s 315 at ell 2,
# the largest any test, demo, README command or workload builds
MAX_SHIFTS = 100_000


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


class Wall(Value):
    """A wall Gamma: a primitive integer covector with a finite saturated
    set of rational shifts.  The hyperplane family of the wall is
    <alpha, .> = m for m congruent mod Z to an element of sigma_tilde."""

    id: int
    alpha: tuple
    sigma_tilde: frozenset

    def __init__(self, id, alpha, sigma_tilde):
        alpha = primitivize(alpha)
        st = frozenset(rat(x) for x in sigma_tilde)
        if not st:
            raise ValueError(f"wall {id}: sigma_tilde must be nonempty")
        if not is_saturated(st):
            raise ValueError(f"wall {id}: sigma_tilde is not saturated")
        Value.__init__(self, id, alpha, st)

    @cached_property
    def offsets(self) -> tuple:
        """(den, ((sigma, sigma * den), ...)): sigma_tilde in ascending
        order, with the lcm den of its denominators and each element's
        integer numerator over den; class_part, the alcove brackets and
        validate_p's denominator check read this one ordering.  Cached on
        first use; not a field, so equality and hashing do not see it."""
        den = lcm(*(s.denominator for s in self.sigma_tilde))
        pairs = [(s, s.numerator * (den // s.denominator))
                 for s in self.sigma_tilde]
        return den, tuple(sorted(pairs, key=lambda pair: pair[1]))

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


class AffineInP(Value):
    """An exact affine function a + b*p of a symbolic (large) prime p,
    built from two Fractions; affine() gives the constant function of any
    rational.  Use eval_at for a concrete prime."""

    const: Fraction
    slope: Fraction

    def eval_at(self, p) -> Fraction:
        return self.const + self.slope * p

    def __add__(self, other):
        other = affine(other)
        return AffineInP(self.const + other.const, self.slope + other.slope)

    __radd__ = __add__

    def __sub__(self, other):
        other = affine(other)
        return AffineInP(self.const - other.const, self.slope - other.slope)

    def _key(self):
        """The sort key of the "for all p >> 0" (large-p) order: by slope
        first, then by the constant term."""
        return (self.slope, self.const)

    def __hash__(self):
        # equal Fractions have equal numerators and denominators, so this
        # agrees with equality without Fraction's modular inverse
        c, s = self.const, self.slope
        return hash((c.numerator, c.denominator, s.numerator, s.denominator))

    @staticmethod
    def max_crossing_threshold(fs) -> int:
        """Smallest integer P >= 0 such that above P every pair of the
        affine functions fs compares as for all large p: the threshold of
        g - f over the neighbours f < g in the large-p order (_key).  Right
        of the last crossing no pair crosses again, so the lines through it
        are contiguous in that order, and two neighbours among them with
        different slopes cross there."""
        fs = sorted(set(fs), key=AffineInP._key)
        return threshold(g - f for f, g in zip(fs, fs[1:]))

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


def threshold(fs) -> int | None:
    """The least integer P >= 0 with f(p) > 0 for every affine f in fs and
    every real p > P: the largest ceiling of a root -const/slope, floored
    at 0.  None when some f is <= 0 for all large p."""
    fs = list(fs)
    if any(f._key() <= (0, 0) for f in fs):
        return None
    return max([0] + [-(f.const // f.slope) for f in fs if f.slope])
