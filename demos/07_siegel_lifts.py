"""Two routes to the weight-10 Siegel cusp form, compared coefficientwise.

The additive lift sums the Hecke images phi|V_m of the weight 10 index 1
form; the product lift exponentiates minus the sum of the images Z|V_m of
the weight-0 form under the same operator.  Both are computed exactly on a
finite box and must agree, which crosses essentially every series primitive
in the library in one check.
"""
from moonshine.siegel import additive_lift, compare_igusa, exponential_lift

print("Additive lift slices (m = 1 is the input form itself):")
add = additive_lift(3, 3, 6)
for m in (1, 2):
    head = sorted((k, v) for k, v in add.slice(m).items() if v)[:5]
    print(f"  slice m={m}: {head} ...")

print("\nProduct lift prefactor exponents (A, B, C) per lambency:")
for ell in (2, 3, 4, 5, 7, 13):
    lift = exponential_lift(ell, 1, 1)
    print(f"  lambency {ell:>2}: p^{lift.prefactor[0]} q^{lift.prefactor[1]} "
          f"y^{lift.prefactor[2]}")

print("\nCoefficientwise comparison on the box m, n <= 3, |r| <= 6:")
rep = compare_igusa(3, 3, 6)
print("  additive == exponential:", rep["ok"])

print("\nA few product-lift coefficients at lambency 3 (paramodular side):")
lift = exponential_lift(3, 2, 2)
for row in lift.dump()[:8]:
    print(f"  c({row['m']}, {row['n']}, {row['r']}) = {row['c']}")
