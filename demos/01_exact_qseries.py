"""Tour of the one-variable engine: exact Laurent series in q^(1/D).

Everything is rational arithmetic with explicit cutoffs; an operation that
cannot guarantee a coefficient refuses instead of returning it.
"""
from fractions import Fraction as F

from moonshine.qseries import (FracSeries, dedekind_epsilon, eta, eta_quotient,
                               lambda_n, mock_theta, newform, unary_theta)

print("The Dedekind eta function, with its sparse pentagonal expansion:")
print("  eta =", eta(14).render(7))

print("\nIts cube equals the r = 1 unary theta function of index 2,")
print("an identity the library checks coefficient by coefficient:")
print("  eta^3      =", eta_quotient([(1, 3)], 10).render(5))
print("  S^(2)_1    =", unary_theta(2, 1, 10).render(5))
print("  equal:", eta_quotient([(1, 3)], 10) == unary_theta(2, 1, 10))

print("\nEta quotients take rational argument scales; here eta(t/2)^4/eta(2t)^2:")
print("  ", eta_quotient([(F(1, 2), 4), (2, -2)], 4).render(6))

print("\nWeight-2 Eisenstein combinations Lambda_N and the newforms that")
print("complete the weight-2 spaces at the levels the tables need:")
print("  Lambda_2 =", lambda_n(2, 6).render(6))
print("  f11      =", newform("f11", 9).render(8))
print("  f23a     =", newform("f23a", 6).render(5))

print("\nThe level-44 newform is counted from its elliptic curve")
print("y^2 = x^3 + x^2 + 3x - 1: a_p = p - #{(x, y) mod p}, so it has no depth limit:")
f44 = newform("f44", 400)
print("  f44      =", f44.render(8))
print("  a_397    =", f44.coefficient(397), " |a_397| <= 2 sqrt(397):",
      f44.coefficient(397) ** 2 <= 4 * 397)

print("\nClassical mock theta functions by their Eulerian series:")
for label in ("f", "mu2", "U0", "S0", "phi10", "X"):
    print(f"  {label:>6} =", mock_theta(label, 8).render(8))

print("\nThe eta multiplier as a 24th root of unity e(k/24):")
for mat in ((1, 1, 0, 1), (0, -1, 1, 0), (1, 0, 1, 1)):
    print(f"  epsilon{mat} = e({dedekind_epsilon(*mat)}/24)")

print("\nLaurent inversion with honest cutoffs:")
geo = FracSeries(1, {0: 1, 1: -1}, 6).invert()
print("  1/(1-q) =", geo.render(6), " cutoff", geo.cutoff)
