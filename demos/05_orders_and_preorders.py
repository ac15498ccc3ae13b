"""Highest-weight orders, the shift action, and standardly stratified
pre-orders with their finite equivalence classes.

Labels are pairs (fixed point, character).  At a concrete prime the order
compares characters inside an equivariant block; the pre-order from a face
compares the p-slopes of the symbolic characters, and its classes carry the
reversed within-class order.
"""

from fractions import Fraction as F

from alcovelab import (equivalence_classes, export_poset, faces_of,
                       find_compatible, hilb_instance, hw_order,
                       order_compat_check, phw_axiom_check, real_alcove_of,
                       ss_preorder)
from alcovelab.partitions import cont, partition_str

hilb = hilb_instance(3, 0)

# --- the highest-weight order at p = 23 -------------------------------------

A = real_alcove_of((F(5, 12),), hilb.walls)
theta = next(f for f in faces_of(A, hilb.walls)
             if f.codim == 1 and f.witness == (F(1, 3),))
pair = find_compatible(A, theta, hilb.walls)
p = 23
lam_p = pair.p_point(p)
print("lambda' =", lam_p, "at p =", p)

poset = hw_order(hilb, lam_p, p, (0, 3 * p))
print("labels:", len(poset.labels), " cover edges:", len(poset.covers))
rep = phw_axiom_check(poset, d_bound=2 * len(hilb.points) * p)
print("PHW axioms:", {k: v["ok"] for k, v in rep.items()
                      if isinstance(v, dict)})
print("longest chain in the window:",
      rep["axiom5_chains"]["observed_max"])

# --- the pre-order determined by the face {1/3} -----------------------------

pre = ss_preorder(hilb, pair, (-3, 3))
classes = equivalence_classes(pre)
print("\npre-order classes (slope: members low to high):")
for cls in pre.classes:  # a class's labels share their slope
    members = [f"{partition_str(l.point)}(cont {cont(l.point)})"
               for l in pre.within_class_order(cls)]
    print(f"  slope {cls[0].kappa.slope}: " + " < ".join(members))
# inside a class the order is cont-reversed: bigger content sits lower
# (approaching the face from below mirrors the picture: lambda-bar turns
# negative and the within-class order flips with it)

# --- compatibility of the two structures -------------------------------------

chain = order_compat_check(hw_order(hilb, lam_p, p, (-3 * p, 3 * p)),
                           pre, p)
print("\nchain strict-pre => hw => pre:",
      chain["passed"], " (crossing threshold:",
      chain["crossing_threshold"], ")")

# --- DOT export for visualization --------------------------------------------

dot = export_poset(poset, hilb)
print("\nDOT preview (first lines):")
print("\n".join(dot.splitlines()[:6]))
