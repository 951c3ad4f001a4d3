"""The five generated signed permutation groups and their class data.

Each group comes from a two-generator signed permutation presentation; the
library finds its order from a stabilizer chain, its conjugacy classes from
centralizer orders (without listing the group), Frame shapes and twisted
Euler characters, and labels everything against the bundled class tables.
The degree-24 group at lambency 2 is stored data (order ~2.4e8).
"""
from moonshine.groups import (check_ell4_to_ell2, class_table, frame_shapes,
                              frame_str, generators, shuffle_group,
                              squared_class_set, umbral_group)

print("Generated group orders and class counts:")
for ell in (3, 4, 5, 7, 13):
    gd = umbral_group(ell)
    print(f"  lambency {ell:>2}: order {gd.order:>7}, {len(gd.classes)} classes")

print("\nFrame shapes of the degree-12 involution generator:")
sigma = generators(3)[0]
pi, pibar, total = frame_shapes(sigma)
print(f"  signed {frame_str(pi)}, unsigned {frame_str(pibar)}, "
      f"total {frame_str(total)}")

print("\nClass inventory at lambency 5 (symbol n|h from the Frame shapes):")
for c in umbral_group(5).classes:
    sym = f"{c.gamma[0]}|{c.gamma[1]}" if c.gamma[1] != 1 else str(c.gamma[0])
    print(f"  {c.label:>5}: size {c.size:>3}  chi {c.chi:>3}  chibar {c.chibar:>2}"
          f"  Gamma {sym:>5}  Pi {frame_str(c.pi)}")

print("\nThe reverse/Mongean shuffle groups recover the quotient orders:")
for n in (12, 6, 4, 2):
    print(f"  n = {n:>2}: order {shuffle_group(n)}")

print("\nSquared-class sets behind the labelled diagrams:")
print("  (3, 2B):", sorted(squared_class_set(3, "2B")))
print("  (4, 2C):", sorted(squared_class_set(4, "2C")))
print("  (5, 4AB):", sorted(squared_class_set(5, "4AB")))
print("  (7, 4A):", sorted(squared_class_set(7, "4A")))

print("\nGenuine-cycle-shape classes at lambency 4 double into degree-24")
print("classes, with the documented 4B exception:")
rep = check_ell4_to_ell2()
print("  pairs:", rep["checked"])
print("  excluded:", [e[0] for e in rep["excluded"]])

print("\nStored degree-24 class data (first rows):")
m24 = class_table(2)
for c in m24.classes[:5]:
    print(f"  {c.label:>4}: size {c.size:>9}  chi {c.chi:>2}  "
          f"Pi {frame_str(c.pi)}")
