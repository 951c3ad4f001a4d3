"""The weight-0 weak Jacobi forms and the six distinguished extremal ones.

The forms phi^(m)_1 are theta blocks or built by Gritsenko's product
recursion; the distinguished Z^(l) = 2 phi^(l)_1 exist exactly for l - 1
dividing 12, and the library verifies both their extremal structure and, on
the whole weak Jacobi space of each index up to 24, that no other index has one.
"""
from moonshine.jacobi import (extremal_space_dim, gritsenko,
                              leading_row_relation, umbral_Z, verify_extremal)

print("Leading rows of the generators (q^0 coefficients of y^k):")
for m in (2, 3, 4):
    phi = gritsenko(m, 1, 3)
    row = {int(y): c for qe, y, c in phi.items() if qe == 0}
    print(f"  phi^({m})_1 : {dict(sorted(row.items()))}")

print("\nEvery phi^(m)_1 for 2 <= m <= 25 satisfies the linear relation")
print("(m-1)(a+2b) = 12b forced on leading rows by the empty weight-2 space:")
print("  holds for all m:", all(leading_row_relation(gritsenko(m, 1, 3), m)
                                for m in range(2, 26)))

print("\nThe six distinguished forms specialize at z = 0 to 24/(l-1):")
for ell in (2, 3, 4, 5, 7, 13):
    z0 = umbral_Z(ell, 3).specialize_z0()
    print(f"  Z^({ell})(t, 0) = {z0.coefficient(0)}")

print("\nExtremal structure of the attached vectors (single polar term -2):")
for ell in (2, 3, 4, 5, 7, 13):
    print(f"  lambency {ell:>2}: {'pass' if verify_extremal(ell)['ok'] else 'FAIL'}")

print("\nThe space of extremal forms of index m - 1 (exact nullity of the")
print("coefficient constraints on the whole weak Jacobi space):")
for m in range(2, 26):
    print(f"  index {m - 1:>2}: dimension {extremal_space_dim(m)}")
