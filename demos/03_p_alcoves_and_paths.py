"""p-alcoves: symbolic bounds, membership at a concrete prime, and
translation paths between lattice points.

Each real alcove corresponds to a unique p-alcove whose defining bounds are
exact affine functions of the symbolic prime p; validate_p reports whether a
concrete prime satisfies the congruence and size conditions.
"""

from fractions import Fraction as F

from alcovelab import (hilb_instance, p_alcove_of, p_membership,
                       real_alcove_of, translation_path, validate_p,
                       weyl_a_instance)

# --- type A: the fundamental p-alcove ---------------------------------------

a2 = weyl_a_instance(3)
fund = real_alcove_of((F(1, 3), F(1, 3)), a2.walls)
pa = p_alcove_of(fund, a2.walls)
print("fundamental p-alcove of A_2 (strict bounds, affine in p):")
for wid, orient, rhs in pa.inequalities:
    alpha = next(w.alpha for w in a2.walls if w.id == wid)
    oriented = tuple(orient * a for a in alpha)
    print(f"  <{oriented}, lambda> > {rhs}")
# on the weight lattice these read <alpha_i, lambda> >= 1 and
# <alpha_0, lambda> >= 1 - p

# --- Hilb: integer windows and singular points ------------------------------

hilb = hilb_instance(2, 0)
p = 5
pa = p_membership((5,), p, hilb.walls)
print("\nc = 5 at p = 5 lies in the p-alcove of", pa.source.inequalities)
window = [c for c in range(-2, 12) if pa.contains((c,), p, hilb.walls)]
print("its lattice window:", window)
try:
    p_membership((3,), p, hilb.walls)
except ValueError as exc:
    print("c = 3 is singular:", exc)

# --- admissibility of a prime ----------------------------------------------

inst = hilb_instance(3, 0)
for p in (13, 23):
    rep = validate_p(p, inst, alcoves=[real_alcove_of((F(5, 12),),
                                                      inst.walls)])
    print(f"\nvalidate_p({p}):",
          {k: v["ok"] for k, v in rep.items() if isinstance(v, dict)})

# --- shortest translation path inside a p-alcove ----------------------------

p = 7
pa = p_membership((1, 1), p, a2.walls)
steps = translation_path((1, 1), (2, 3), pa, p, a2.generators, a2.walls)
print("\npath (1,1) -> (2,3) inside the fundamental p-alcove at p=7:")
print("  steps:", steps)
