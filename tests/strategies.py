"""The arrangements (rank, walls) that the alcove and compat tests draw
from, each table once, and the draws of their points and alcoves."""

from fractions import Fraction as F
from itertools import product

from hypothesis import assume
from hypothesis import strategies as st

from alcovelab.alcoves import SingularPointError, real_alcove_of
from alcovelab.arith import Wall
from alcovelab.instances import hilb_instance, weyl_a_instance

HILB = [(1, hilb_instance(n, ell).walls) for n in range(2, 9)
        for ell in range(3)]
WEYL = [(n - 1, weyl_a_instance(n).walls) for n in range(3, 6)]

# <alpha, x> = 1/2 + k for the four covectors (1, +-1, +-1): its alcoves
# are octahedra, whose vertices lie on four facets each, and tetrahedra
OCTAHEDRAL_WALLS = tuple(
    Wall(id=i, alpha=alpha, sigma_tilde=frozenset([F(1, 2)]))
    for i, alpha in enumerate([(1, 1, 1), (1, 1, -1), (1, -1, 1),
                               (1, -1, -1)]))

# <alpha, x> = 1/2 + k for the eight covectors (1, +-1, +-1, +-1): the
# alcove at the origin is the cross-polytope |x_1| + ... + |x_4| <= 1/2,
# whose eight vertices each lie on eight facets
CROSS_WALLS = tuple(
    Wall(id=i, alpha=(1,) + signs, sigma_tilde=frozenset([F(1, 2)]))
    for i, signs in enumerate(product((1, -1), repeat=3)))

# weyl_a(4) with a second wall on the hyperplanes <(1, 1, 0), x> in Z,
# which also has the hyperplanes <(1, 1, 0), x> in 1/2 + Z
TWIN_WALLS = weyl_a_instance(4).walls + (
    Wall(id=6, alpha=(1, 1, 0), sigma_tilde=frozenset([F(0), F(1, 2)])),)


def arrangements(*more):
    """One branch per table (HILB, WEYL, the octahedral walls and each of
    more), so that the 21 rank-1 lines do not crowd out rank 2 and up."""
    return st.one_of(st.sampled_from(HILB), st.sampled_from(WEYL), *(
        st.just((len(walls[0].alpha), walls))
        for walls in (OCTAHEDRAL_WALLS,) + more))


# Every covector of the tables has entries in {-1, 0, 1} and every offset a
# denominator of at most 8, so a coordinate over its own prime above 8 puts
# that prime in the denominator of each pairing that reads it
PRIMES = (11, 13, 17, 19, 23, 29, 31)


@st.composite
def points(draw, rank):
    """Points of (-3, 3)^rank with coordinates m + r/q over distinct
    primes q of PRIMES, 0 < r < q: off every hyperplane of every table."""
    primes = draw(st.lists(st.sampled_from(PRIMES), min_size=rank,
                           max_size=rank, unique=True))
    return tuple(F(draw(st.integers(-3, 2)) * q + draw(st.integers(1, q - 1)),
                   q) for q in primes)


def regular_alcove(data, walls, rank):
    """A drawn point of points(rank) and its alcove, assumed regular."""
    x = data.draw(points(rank))
    try:
        return x, real_alcove_of(x, walls)
    except SingularPointError:
        assume(False)


def far_alcove(draw, walls, rank):
    """The alcove of a drawn point of coordinates k/d, |k| <= 90 and
    7 <= d <= 31, assumed regular: these points reach the far octahedral
    faces whose find_compatible start radius passes 32 (ROADMAP item 1)."""
    x = tuple(F(draw(st.integers(-90, 90)), draw(st.integers(7, 31)))
              for _ in range(rank))
    try:
        return real_alcove_of(x, walls)
    except SingularPointError:
        assume(False)
