"""Truncated three-variable lifts: the additive lift of the weight 10 index 1
cusp form and the exponential (product) lift of the distinguished weight-0
forms, with the coefficientwise cross-check between the two routes to the
weight 10 Siegel cusp form.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .algebra import as_rat
from .data import LAMBENCIES
from .errors import OutOfRange
from .jacobi import WindowedSeries, jacobi_theta, umbral_Z
from .qseries import eta


@dataclass
class TripleSeries:
    """Exact coefficients c(m, n, r) of sum c p^m q^n y^r inside a box.

    ``prefactor`` holds fractional (p, q, y) exponents pulled out in front,
    so lifts with non-integral leading powers still live on integer keys.
    """

    pmax: int
    nmax: int
    ywindow: int
    coeffs: dict = field(default_factory=dict)  # (m, n, r) -> Fraction
    prefactor: tuple = (Fraction(0), Fraction(0), Fraction(0))

    def set(self, m, n, r, c):
        if c:
            self.coeffs[(m, n, r)] = c
        else:
            self.coeffs.pop((m, n, r), None)

    def get(self, m, n, r) -> Fraction:
        return as_rat(self.coeffs.get((m, n, r), 0))

    def slice(self, m: int) -> dict:
        return {(n, r): c for (mm, n, r), c in self.coeffs.items() if mm == m}

    def dump(self) -> list:
        out = []
        for (m, n, r) in sorted(self.coeffs):
            c = as_rat(self.coeffs[(m, n, r)])
            out.append({"m": m, "n": n, "r": r, "c": f"{c.numerator}/{c.denominator}"})
        return out


def _phi_10_1(qcut) -> WindowedSeries:
    """The weight 10 index 1 cusp form eta^18 * (theta_1 / -i)^2."""
    t1 = jacobi_theta(1, qcut)
    return (t1 * t1) * WindowedSeries.from_fracseries(eta(qcut) ** 18)


def additive_lift(pmax=3, nmax=3, ywindow=6) -> TripleSeries:
    """Fourier--Jacobi slices phi|V_m of the weight 10 index 1 form.

    The Hecke-like operator acts on coefficients by
    c|V_m(n, r) = sum over j | gcd(n, r, m) of j^(k-1) c(nm/j^2, r/j), k = 10.
    """
    out = TripleSeries(pmax, nmax, ywindow)
    phi = _phi_10_1(pmax * nmax + 1)
    c = {}
    for qe, yp, v in phi.items():
        c[(int(qe), int(yp))] = v
    for m in range(1, pmax + 1):
        for n in range(0, nmax + 1):
            for r in range(-ywindow, ywindow + 1):
                g = gcd(gcd(n, abs(r)), m)
                total = Fraction(0)
                for j in range(1, g + 1):
                    if g % j == 0:
                        total += j ** 9 * as_rat(c.get((n * m // (j * j), r // j), 0))
                out.set(m, n, r, total)
    return out


def _z_coeff_table(ell: int, kmax: int) -> dict:
    """c(n, r) coefficients of the weight-0 form up to q^kmax, all r."""
    Z = umbral_Z(ell, kmax + 1)
    out = {}
    for qe, yp, v in Z.items():
        out[(int(qe), int(yp))] = v
    return out


def exponential_lift(ell: int, pmax=3, nmax=3, ywindow=6) -> TripleSeries:
    """Product lift prod (1 - p^m q^n y^r)^(c(mn, r)) over (m, n, r) > 0,
    with prefactor exponents A = sum_r c(0,r)/24, B = sum_{r>0} r c(0,r)/2,
    C = sum_r r^2 c(0,r)/4.

    The ordering (m, n, r) > 0 means m > 0, or m = 0 and n > 0, or
    m = n = 0 and r < 0.
    """
    if ell not in LAMBENCIES:
        raise OutOfRange(f"lambency {ell}")
    table = _z_coeff_table(ell, pmax * nmax)
    row0 = {r: c for (n, r), c in table.items() if n == 0}
    A = sum(row0.values()) / 24
    B = sum(r * c for r, c in row0.items() if r > 0) / 2
    C = sum(r * r * c for r, c in row0.items()) / 4
    # accumulate the product on integer exponents
    acc = {(0, 0, 0): Fraction(1)}

    def mul_factor(m, n, r, expo):
        """Multiply acc by (1 - p^m q^n y^r)^expo inside the box."""
        nonlocal acc
        # binomial series; for m = n = 0 the factor is a pure y-polynomial
        # with positive exponent, else truncation in p or q bounds powers
        if expo == 0:
            return
        if m == 0 and n == 0:
            if expo < 0:
                raise OutOfRange("infinite pure-y factor in the product lift")
            kmax = expo
        else:
            kmax = min(top // step for top, step in ((pmax, m), (nmax, n)) if step)
        series = {0: Fraction(1)}
        sign = -1
        coef = Fraction(1)
        # (1 - x)^expo = sum_k binom(expo, k)(-x)^k
        for k in range(1, kmax + 1):
            coef = coef * Fraction(expo - k + 1, k)
            series[k] = coef * ((-1) ** k)
        new = {}
        for (pm, pn, pr), v in acc.items():
            for k, bk in series.items():
                if bk == 0:
                    continue
                key = (pm + k * m, pn + k * n, pr + k * r)
                if key[0] > pmax or key[1] > nmax:
                    continue
                new[key] = new.get(key, Fraction(0)) + v * bk
        acc = {k: v for k, v in new.items() if v}

    for r in sorted((r for r in row0 if r < 0), reverse=True):
        mul_factor(0, 0, r, int(row0[r]))
    for n in range(1, nmax + 1):
        for r in sorted(row0):
            mul_factor(0, n, r, int(row0[r]))
    for m in range(1, pmax + 1):
        for n in range(0, nmax + 1):
            k = m * n
            rs = sorted(r for (nn, r) in table if nn == k)
            for r in rs:
                mul_factor(m, n, r, int(table[(k, r)]))
    out = TripleSeries(pmax, nmax, ywindow, prefactor=(A, B, C))
    for (m, n, r), v in acc.items():
        out.set(m, n, r, v)
    return out


def compare_igusa(pmax=3, nmax=3, ywindow=6) -> dict:
    """Additive vs exponential lift of the weight 10 form, coefficientwise.

    The exponential lift at lambency 2 has prefactor p q y, so its integer-
    key coefficients are compared against the additive lift shifted by one.
    """
    add = additive_lift(pmax, nmax, ywindow)
    exp = exponential_lift(2, pmax, nmax, ywindow)
    assert exp.prefactor == (1, 1, 1)
    report = {"box": (pmax, nmax, ywindow), "first_mismatch": None, "ok": True}
    for m in range(1, pmax + 1):
        for n in range(0, nmax + 1):
            for r in range(-ywindow, ywindow + 1):
                a = add.get(m, n, r)
                e = exp.get(m - 1, n - 1, r - 1) if (n >= 1) else Fraction(0)
                if a != e:
                    report["first_mismatch"] = (m, n, r, str(a), str(e))
                    report["ok"] = False
                    return report
    return report
