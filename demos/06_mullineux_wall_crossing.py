"""Wall-crossing bijections in the Hilbert-scheme case: the Mullineux
involution, computed by two independent algorithms that must agree.

The rim-symbol route peels e-rims and conjugates the symbol; the crystal
route peels good boxes and re-adds them with negated residues.  Labels
outside the b-regular support are delegated to an external construction and
flagged rather than guessed.
"""

from alcovelab import (mullineux, mullineux_oracle, mullineux_symbol,
                       wc_bijection_hilb)
from alcovelab.partitions import e_regular_partitions, partition_str

# --- the involution on 3-regular partitions of 6 ----------------------------

e, n = 3, 6
print(f"Mullineux involution, e = {e}, partitions of {n}:")
for mu in e_regular_partitions(n, e):
    img = mullineux(mu, e)
    check = mullineux_oracle(mu, e)
    sym = mullineux_symbol(mu, e)
    assert img == check
    print(f"  {partition_str(mu):10s} -> {partition_str(img):10s}"
          f"   symbol {sym}")

# --- classical degenerations -------------------------------------------------

print("\ne = 2 fixes every 2-regular partition:")
print("  ", [partition_str(mu) for mu in e_regular_partitions(5, 2)
             if mullineux(mu, 2) == mu])

print("e > |mu| transposes:",
      partition_str(mullineux((3, 1), 7)), "== (3,1)^t")

# --- the wall-crossing table -------------------------------------------------

table = wc_bijection_hilb(5, 3)
print(f"\nwall-crossing table n={table['n']}, b={table['b']}, "
      f"variant={table['variant']}:")
for key in sorted(table["map"]):
    entry = table["map"][key]
    target = entry["image"] if entry["image"] else "(external)"
    print(f"  {key:12s} -> {target:12s} [{entry['provenance']}]")
