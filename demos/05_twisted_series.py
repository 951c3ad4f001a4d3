"""Twisted series for every conjugacy class, from weight-2 form data.

Every computed component follows one formula, H_{g,r} = (chi_{g,r}/chi) H_r
+ hat H_{g,r}: the shadow part is a multiple of the identity series, and the
shadow-free part hat H_g solves the weight-2 relations against the unary
thetas S_r, one parity block of r at a time.  The lambency-4 bridge (odd r)
and the stored columns at lambencies 7 and 13 replace whole components; the
bundled coefficient tables are regenerated exactly.
"""
from fractions import Fraction as F

from moonshine.mckay import (mock_identity_check, twisted_H, verify_F_consistency,
                             weight2)
from moonshine.qseries import mock_theta

print("A weight-2 catalog entry and one of its eta-quotient identities:")
print("  F(2, 2A) =", weight2(2, "2A", "F", 5).render(5))
print("  F(2, 2B) =", weight2(2, "2B", "F", 5).render(5), "  [= -2 eta^8/eta(2t)^4]")

print("\nTwisted components straight out of the reconstruction:")
for ell, lab in ((2, "2A"), (3, "2B"), (4, "2C"), (5, "2C"), (7, "4A"), (13, "4AB")):
    tw = twisted_H(ell, lab, 6)
    print(f"  lambency {ell:>2} class {lab:>4}: H_1 = {tw.component(1).render(4)}")

print("\nTwo of the series are classical mock theta functions on the nose:")
tw = twisted_H(2, "4B", 8)
mu = mock_theta("mu2", 8).shift(F(-1, 8)).scale(-2)
print("  H(2, 4B) == -2 q^(-1/8) mu(q):",
      tw.component(1).truncate(mu.cutoff) == mu)
rep = mock_identity_check("5:2C,2=psi10(-q)")
print("  H(5, 2C)_2 == 2 q^(-1/5) psi10(-q):", rep["ok"])

print("\nRecombining the shadow-free parts against the unary thetas returns")
print("the cataloged weight-2 forms (shown for classes where both catalogs")
print("apply, including the stored-column classes):")
for ell, lab in ((2, "11A"), (3, "10A"), (5, "4CD"), (7, "4A"), (13, "4AB")):
    rep = verify_F_consistency(ell, lab, qcut=10)
    checked = ", ".join(c["variant"] for c in rep["checked"])
    print(f"  lambency {ell:>2} class {lab:>4} [{checked}]: "
          f"{'pass' if rep['ok'] else 'FAIL'}")

print("\nShadowless classes (both twisted Euler characters zero) come out as")
print("honest eta-quotient objects; their finite parts are themselves:")
tw = twisted_H(3, "4A", 8)
print("  H(3, 4A)_1 =", tw.component(1).render(5))
