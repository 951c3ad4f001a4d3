"""Truncated three-variable lifts, both built from one Hecke operator.

For a weight-k Jacobi form phi = sum c(n, r) q^n y^r, phi|V_m has the coefficient sum
over j | gcd(m, n, r) of j^(k-1) c(nm/j^2, r/j) at q^n y^r (V. Gritsenko and V. Nikulin,
Int. J. Math. 9 (1998)).  The additive (Maass) lift of the weight 10 index 1 cusp form is
sum_{m >= 1} p^m phi|V_m.  The exponential (Borcherds) lift of a weight-0 form Z, the
product of (1 - p^m q^n y^r)^c(mn, r) over (m, n, r) > 0, is E = head * exp(X), with
X = -sum p^m Z|V_m, V_m at weight 0, and head = prod_{r < 0} (1 - y^r)^c(0, r); as
p dE/dp = (p dX/dp) E, its p-slices obey m E_m = sum_{i=1..m} i X_i E_(m-i).  At lambency
2 both give Igusa's chi_10, which ``compare_igusa`` checks coefficientwise.  Each lift is
held as its p-slices, so a coefficient outside the box raises.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import comb, gcd, lcm

from .data import LAMBENCIES, memo
from .errors import CutoffUnderflow, OutOfRange
from .jacobi import ENTIRE, WindowedSeries, _clip, _theta_block, umbral_Z, windowed_mul


@dataclass
class TripleSeries:
    """Exact coefficients c(m, n, r) of sum c p^m q^n y^r inside a box, held
    as p-slices: ``slices[m]``, the coefficient of p^m, is a ``WindowedSeries``
    on integer q- and y-exponents, and a read past the box raises as it does
    (``CutoffUnderflow`` also past the last slice).  ``prefactor`` holds
    fractional exponents pulled out in front, so lifts with non-integral
    leading powers still live on integer keys: ``exponential_lift`` stores
    its (A, B, C), the exponents of (q, y, s) with p = s^(l-1), so (1/4, 1, 1)
    at lambency 5 is q^(1/4) y p^(1/4).
    """

    slices: list
    prefactor: tuple = (Fraction(0), Fraction(0), Fraction(0))

    def _slice(self, m: int) -> WindowedSeries:
        if m >= len(self.slices):
            raise CutoffUnderflow(f"p-exponent {m} >= pcut {len(self.slices)}")
        return self.slices[m] if m >= 0 else self.slices[0].scale(0)  # no p^(-k)

    def get(self, m, n, r) -> Fraction:
        return self._slice(m).coefficient(n, r)

    def slice(self, m: int) -> dict:
        return {(int(n), int(r)): c for n, r, c in self._slice(m).items()}

    def dump(self) -> list:
        return [{"m": m, "n": int(n), "r": int(r), "c": f"{c.numerator}/{c.denominator}"}
                for m, s in enumerate(self.slices) for n, r, c in s.items()]


def _coeffs(s: WindowedSeries) -> tuple:
    """The int rows {n: {r: numerator of c(n, r)}} of a series on integer q- and y-exponents,
    and their denominator."""
    return {k // s.denom: {y // s.ydenom: v for y, v in row.items()}
            for k, row in s.rows.items()}, s.cden


def _hecke(c: dict, cden: int, m: int, weight: int, nmax: int) -> WindowedSeries:
    """phi|V_m below q^(nmax+1) from the int rows ``c`` of phi over ``cden`` (module
    docstring).  Below weight 1, j^(weight-1) is read as den/j^(1-weight) over den, the
    lcm of those j^(1-weight).

    With m = 0 only n >= 1 remain: gcd(0, 0) = 0 leaves no j.
    """
    gs = [gcd(m, n) for n in range(nmax + 1)]
    den = lcm(*range(1, max(gs) + 1)) ** max(1 - weight, 0)
    rows = {}
    for n, g in enumerate(gs):
        row = {}
        for j in range(1, g + 1):
            if g % j == 0:
                w = j ** (weight - 1) if weight >= 1 else den // j ** (1 - weight)
                for r, v in c.get(n * m // (j * j), {}).items():
                    row[r * j] = row.get(r * j, 0) + w * v
        if row := {r: v for r, v in row.items() if v}:
            rows[n] = row
    return WindowedSeries._of(1, rows, Fraction(nmax + 1), cden=cden * den)


@memo
def _phi_10_1(qcut) -> WindowedSeries:
    """The weight 10 index 1 cusp form theta^2 eta^18, theta = theta_1 / -i, a theta block."""
    return _theta_block((1, 1), (), 18, qcut)


def additive_lift(pmax=3, nmax=3, ywindow=6) -> TripleSeries:
    """The p-slices phi|V_m, 1 <= m <= pmax (slice 0 is zero), of the weight 10
    index 1 form, for n <= nmax and |r| <= ywindow."""
    if min(pmax, nmax, ywindow) < 0:
        raise OutOfRange(f"negative box size in {(pmax, nmax, ywindow)}")
    c, cden = _coeffs(_phi_10_1(pmax * nmax + 1))
    slices = [_hecke(c, cden, m, 10, nmax) if m else WindowedSeries(1, {}, nmax + 1)
              for m in range(pmax + 1)]
    return TripleSeries([_clip(s, ywindow, ENTIRE) for s in slices])


@memo
def exponential_lift(ell: int, pmax=3, nmax=3) -> TripleSeries:
    """Product lift prod (1 - p^m q^n y^r)^(c(mn, r)) over (m, n, r) > 0 of
    Z = umbral_Z(ell), for m <= pmax, n <= nmax and every r, with prefactor
    exponents A = sum_r c(0,r)/24, B = sum_{r>0} r c(0,r)/2,
    C = sum_r r^2 c(0,r)/4.

    The ordering (m, n, r) > 0 means m > 0, or m = 0 and n > 0, or
    m = n = 0 and r < 0.  X_0 = -Z|V_0 starts at q^1, so slice 0, head * exp(X_0),
    stops at X_0^nmax / nmax!; slice m >= 1 is the recurrence of the module docstring.
    Built once per arguments (``data.memo``): callers share the result and must not change it.
    """
    if ell not in LAMBENCIES:
        raise OutOfRange(f"lambency {ell}")
    if min(pmax, nmax) < 0:
        raise OutOfRange(f"negative box size in {(pmax, nmax)}")
    c, cden = _coeffs(umbral_Z(ell, pmax * nmax + 1))
    row0 = {r: Fraction(v, cden) for r, v in c[0].items()}
    prefactor = (Fraction(sum(row0.values()), 24),
                 Fraction(sum(r * v for r, v in row0.items() if r > 0), 2),
                 Fraction(sum(r * r * v for r, v in row0.items()), 4))
    qcut = nmax + 1
    x = [_hecke(c, cden, m, 0, nmax).scale(-max(m, 1)) for m in range(pmax + 1)]  # X_0, i X_i
    powers = accumulate(range(2, nmax + 1), initial=x[0],  # X_0^k / k!
                        func=lambda t, k: windowed_mul(t, x[0], qcut).scale(Fraction(1, k)))
    e = sum(powers, WindowedSeries.one(qcut))
    for r, v in row0.items():
        if r < 0:  # (1 - y^r)^v, v = c(0, r) >= 0, by the binomial theorem
            e = e * WindowedSeries(1, {0: {r * i: (-1) ** i * comb(int(v), i)
                                           for i in range(int(v) + 1)}}, qcut)
    slices = [e]
    for m in range(1, pmax + 1):
        slices.append(sum((windowed_mul(x[i], slices[m - i], qcut) for i in range(1, m + 1)),
                          WindowedSeries(1, {}, qcut)).scale(Fraction(1, m)))
    return TripleSeries(slices, prefactor)


def compare_igusa(pmax=3, nmax=3, ywindow=6) -> dict:
    """Additive vs exponential lift of the weight 10 form, coefficientwise.

    The exponential lift at lambency 2 has prefactor p q y, so its integer-
    key coefficients are compared against the additive lift shifted by one,
    which is built one row and column larger so that every (m, n) of the
    product side is read.  A box without m >= 1, n >= 1 and r = 0 compares
    nothing of the product side and is refused.
    """
    if min(pmax, nmax) < 1 or ywindow < 0:
        raise OutOfRange(f"empty comparison box {(pmax, nmax, ywindow)}")
    add = additive_lift(pmax + 1, nmax + 1, ywindow)
    exp = exponential_lift(2, pmax, nmax)
    assert exp.prefactor == (1, 1, 1)
    report = {"box": (pmax, nmax, ywindow), "first_mismatch": None, "ok": True}
    for m in range(1, pmax + 2):
        a, e = add._slice(m), exp._slice(m - 1)  # both on integral exponents, denominators 1
        for n in range(0, nmax + 2):
            a.coefficient(n, -ywindow), e.coefficient(n - 1, -ywindow - 1)  # past the box: raise
            ra, re = a.rows.get(n, {}), e.rows.get(n - 1, {})
            for r in range(-ywindow, ywindow + 1):
                if (u := ra.get(r, 0)) * e.cden != (v := re.get(r - 1, 0)) * a.cden:
                    u, v = Fraction(u, a.cden), Fraction(v, e.cden)
                    return {**report, "first_mismatch": (m, n, r, str(u), str(v)), "ok": False}
    return report
