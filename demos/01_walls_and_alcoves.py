"""Walls, real alcoves and faces.

A wall is a primitive integer covector together with a finite saturated set
of rational shifts; the hyperplanes <alpha, .> = m (m running over the
shift classes mod Z) chop parameter space into alcoves.  This script walks
through the two built-in arrangements.
"""

from fractions import Fraction as F

from alcovelab import (faces_of, hilb_instance, real_alcove_of,
                       weyl_a_instance)

# --- the Hilbert-scheme arrangement (rank 1, c-coordinates) ---------------

hilb = hilb_instance(3, 0)
wall = hilb.walls[0]
print("Hilb(3) wall: alpha =", wall.alpha,
      " sigma~ =", sorted(wall.sigma_tilde))

# real alcoves are intervals between consecutive rationals with
# denominators 2..n; the point 5/12 sits between 1/3 and 1/2
A = real_alcove_of((F(5, 12),), hilb.walls)
print("alcove around 5/12:", A.inequalities)

for face in faces_of(A, hilb.walls):
    print(f"  face codim {face.codim}: witness {face.witness}")

# translating by the lattice moves alcoves onto alcoves
B = real_alcove_of((F(5, 12) + 2,), hilb.walls)
assert B == A.translate((2,), hilb.walls)
print("Z-periodicity: alcove(x+2) == alcove(x)+2")

# --- the type A_2 coroot arrangement (rank 2) ------------------------------

a2 = weyl_a_instance(3)
print("\nA_2 walls (coroot covectors):",
      [(w.id, w.alpha) for w in a2.walls])

# the fundamental alcove: <alpha_i, .> >= 0 for the simple coroots and
# <theta, .> <= 1 for the highest coroot
fund = real_alcove_of((F(1, 3), F(1, 3)), a2.walls)
print("fundamental alcove:", fund.inequalities)
print("vertices:", fund.vertices())

faces = faces_of(fund, a2.walls)
print("face counts by codim:",
      {c: sum(1 for f in faces if f.codim == c) for c in range(3)})
