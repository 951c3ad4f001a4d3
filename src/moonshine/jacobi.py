"""Two-variable exact series: Jacobi theta functions, the weight-0 basis of
weak Jacobi forms, meromorphic blocks expanded in a fixed annulus, and the
extraction of the vector-valued mock modular forms attached to the six
distinguished weight-0 forms from the rows y^1..y^(m-1) of Psi_{1,1} * phi alone,
each summed along Psi's pole-factor rays (``_psi_rows``); the N = 4 identity check
forms the whole product with an expanded Psi (``windowed_mul``).

A :class:`WindowedSeries` stores, for each q-exponent below ``qcut``, a finite
Laurent row in y.  Two flavours exist:

* *complete* (``ywindow is None``): every nonzero coefficient is stored; this
  is the case for weak Jacobi forms and theta functions, whose y-support per
  q-order is finite.
* *windowed* (``ywindow = Y``): rows are exact for ``|y-power| <= Y`` only;
  used for meromorphic blocks whose annulus expansions have infinite tails.

The ``annulus`` tag records which geometric expansion produced a meromorphic
block: ``lower`` means |q| < |y| < 1, ``upper`` means 1 < |y| < 1/|q|.
Entire series combine with anything; two tagged series combine only when the
tags agree.

One builder on integral rows makes every theta block (``_theta_block``): four
basis generators, phi_{-2,1}, whose heat-operator images give the two seeds of
index 1 and 2 (``_phi_seed``), and Psi_{1,1} phi_{-2,1} = theta(2z)/eta^3, which
with phi_{-2,1}, phi^(2)_1, E_4 and E_6 spans the extremal matrix on the whole weak
Jacobi space (``_extremal_matrix``).  It builds each block from shared pieces:
equal thetas as one power by repeated squaring, and a numerator theta(az) over a
denominator theta(bz), a = kb, as the ratio R_k = theta(kz)/theta(z) read at y^b,
built once per k at the deepest cutoff asked (``_theta_ratio``), so phi^(7)_1 and
phi^(13)_1 share R_2.  No series is inverted here.

Coefficients are stored as in ``qseries``: int numerators over one positive
int denominator ``cden`` per series, reduced; ``coefficient``, ``items`` and
``dump`` hand out Fractions.  The theta blocks and the Gritsenko tower run on
ints.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import reduce
from math import ceil, gcd, isqrt, lcm
from itertools import accumulate, groupby, repeat
from operator import add, itemgetter, mul, sub

from .algebra import as_rat
from .data import LAMBENCIES, memo
from .errors import (CutoffUnderflow, NotInvertible, OutOfRange, UnboundedSupport,
                     WindowTooNarrow)
# eta is not called here; it stays importable, as perfbench's tracer test rebinds jacobi.eta
from .qseries import (FracSeries, _convolve, _eisenstein, _pack, _theta_lattice, _unpack, eta,
                      eta_quotient)

ENTIRE = "entire"
LOWER = "lower"   # |q| < |y| < 1
UPPER = "upper"   # 1 < |y| < 1/|q|


class WindowedSeries:
    """q/y bi-series with exact windowing; see module docstring."""

    __slots__ = ("denom", "ydenom", "qcut", "rows", "ywindow", "annulus", "cden")

    def __init__(self, denom, rows, qcut, ywindow=None, annulus=ENTIRE, ydenom=1):
        self.denom = denom
        self.ydenom = ydenom
        self.qcut = as_rat(qcut)
        kcut = ceil(self.qcut * denom)
        rows = {k: r for k, row in rows.items() if k < kcut
                if (r := {y: c if type(c) is int else as_rat(c) for y, c in row.items() if c})}
        self.cden = lcm(*(c.denominator for row in rows.values() for c in row.values()))
        self.rows = {k: {y: c.numerator * (self.cden // c.denominator) for y, c in row.items()}
                     for k, row in rows.items()}
        self.ywindow = ywindow
        self.annulus = annulus

    @classmethod
    def _of(cls, denom, rows, qcut, ywindow=None, annulus=ENTIRE, ydenom=1, cden=1):
        """Wrap nonempty rows of nonzero int numerators below ``qcut`` over ``cden`` > 0,
        their common factor with ``cden`` divided out."""
        if cden != 1 and (g := gcd(cden, *(c for r in rows.values() for c in r.values()))) != 1:
            rows, cden = {k: {y: c // g for y, c in r.items()} for k, r in rows.items()}, cden // g
        s = object.__new__(cls)
        s.denom, s.ydenom, s.qcut, s.rows, s.cden = denom, ydenom, qcut, rows, cden
        s.ywindow, s.annulus = ywindow, annulus
        return s

    # -- constructors ----------------------------------------------------
    @classmethod
    def one(cls, qcut):
        return cls(1, {0: {0: 1}}, qcut)

    @classmethod
    def from_fracseries(cls, f: FracSeries) -> "WindowedSeries":
        """Embed a one-variable series as a y-independent bi-series."""
        return cls._of(f.denom, {k: {0: v} for k, v in f.coeffs.items()}, f.cutoff, cden=f.cden)

    # -- basic inspection --------------------------------------------------
    def is_complete(self):
        return self.ywindow is None

    def coefficient(self, qe, ypow) -> Fraction:
        qe, ypow = as_rat(qe), as_rat(ypow)
        if qe >= self.qcut:
            raise CutoffUnderflow(f"q-exponent {qe} >= qcut {self.qcut}")
        if self.ywindow is not None and abs(ypow) > self.ywindow:
            raise WindowTooNarrow(f"y-power {ypow} outside window {self.ywindow}")
        if self.denom % qe.denominator or self.ydenom % ypow.denominator:
            return Fraction(0)
        k = qe.numerator * (self.denom // qe.denominator)
        y = ypow.numerator * (self.ydenom // ypow.denominator)
        return Fraction(self.rows.get(k, {}).get(y, 0), self.cden)

    def max_abs_y(self) -> Fraction:
        m = 0
        for row in self.rows.values():
            for y in row:
                if abs(y) > m:
                    m = abs(y)
        return Fraction(m, self.ydenom)

    def items(self):
        """Sorted (q-exponent, y-power, coefficient) triples, all Fractions."""
        for k, row in sorted(self.rows.items()):
            q = Fraction(k, self.denom)
            for y in sorted(row):
                yield q, Fraction(y, self.ydenom), Fraction(row[y], self.cden)

    def dump(self) -> str:
        """Line format '(q_num/q_den, y_pow) -> rational', sorted."""
        out = []
        for qe, yp, c in self.items():
            out.append(f"({qe.numerator}/{qe.denominator}, {yp}) -> {c}")
        return "\n".join(out)

    # -- algebra -----------------------------------------------------------
    def _combine_annulus(self, other):
        if self.annulus == ENTIRE:
            return other.annulus
        if other.annulus == ENTIRE or other.annulus == self.annulus:
            return self.annulus
        raise ValueError(f"incompatible annuli {self.annulus}/{other.annulus}")

    def _on(self, d: int, yd: int, f: int = 1) -> dict:
        """The rows on the lattice q^(1/d), y^(1/yd), numerators times f; ``rows`` if unchanged."""
        fq, fy = d // self.denom, yd // self.ydenom
        if fq == fy == f == 1:
            return self.rows
        return {k * fq: {y * fy: c * f for y, c in row.items()} for k, row in self.rows.items()}

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = WindowedSeries(1, {0: {0: other}}, self.qcut)
        d, yd = lcm(self.denom, other.denom), lcm(self.ydenom, other.ydenom)
        cden, qcut = lcm(self.cden, other.cden), min(self.qcut, other.qcut)
        kcut = ceil(qcut * d)
        a = {k: dict(row) for k, row in self._on(d, yd, cden // self.cden).items() if k < kcut}
        for k, row in other._on(d, yd, cden // other.cden).items():
            if k < kcut:
                dst = a.setdefault(k, {})
                for y, c in row.items():
                    dst[y] = dst.get(y, 0) + c
        wins = [w for w in (self.ywindow, other.ywindow) if w is not None]
        return WindowedSeries._of(d, {k: r for k, row in a.items()
                                      if (r := {y: c for y, c in row.items() if c})}, qcut,
                                  ywindow=min(wins) if wins else None,
                                  annulus=self._combine_annulus(other), ydenom=yd, cden=cden)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = as_rat(c)
        p = c.numerator
        rows = {k: {y: p * v for y, v in row.items()} for k, row in self.rows.items()} if p else {}
        return WindowedSeries._of(self.denom, rows, self.qcut, ywindow=self.ywindow,
                                  annulus=self.annulus, ydenom=self.ydenom,
                                  cden=self.cden * c.denominator)

    def qshift(self, e):
        e = as_rat(e)
        d = lcm(self.denom, e.denominator)
        f = d // self.denom
        off = e.numerator * (d // e.denominator)
        rows = {k * f + off: row for k, row in self.rows.items()}
        return WindowedSeries._of(d, rows, self.qcut + e, ywindow=self.ywindow,
                                  annulus=self.annulus, ydenom=self.ydenom, cden=self.cden)

    def truncate(self, qcut):
        qcut = as_rat(qcut)
        if qcut > self.qcut:
            raise CutoffUnderflow(f"cannot extend qcut {self.qcut} to {qcut}")
        kcut = ceil(qcut * self.denom)
        return WindowedSeries._of(self.denom, {k: r for k, r in self.rows.items() if k < kcut},
                                  qcut, ywindow=self.ywindow, annulus=self.annulus,
                                  ydenom=self.ydenom, cden=self.cden)

    def __eq__(self, other):
        if not isinstance(other, WindowedSeries):
            return NotImplemented
        return (self - other).is_zero()

    def is_zero(self):
        return not self.rows

    def low_q(self) -> Fraction:
        """Lowest q-exponent that may be nonzero: qcut if no term is stored."""
        if not self.rows:
            return self.qcut
        return Fraction(min(self.rows), self.denom)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if isinstance(other, FracSeries):
            other = WindowedSeries.from_fracseries(other)
        return _product(self, other)

    __rmul__ = __mul__

    def specialize_z0(self) -> FracSeries:
        """Set z = 0, i.e. sum each q-row over y.  Complete series only."""
        if not self.is_complete():
            raise UnboundedSupport("specialization needs a y-polynomial series")
        return FracSeries._of(self.denom, {k: v for k, row in self.rows.items()
                                           if (v := sum(row.values()))}, self.qcut, self.cden)

    def y_row(self, ypow: int) -> FracSeries:
        """The coefficient of y^ypow as a one-variable series."""
        if self.ywindow is not None and abs(ypow) > self.ywindow:
            raise WindowTooNarrow(f"row {ypow} outside window {self.ywindow}")
        y = ypow * self.ydenom
        return FracSeries._of(self.denom, {k: row[y] for k, row in self.rows.items() if y in row},
                              self.qcut, self.cden)


def windowed_mul(a: WindowedSeries, b: WindowedSeries, qcut=None, ywindow=None):
    """Exact product when at least one factor is y-polynomial per q-order.

    The windowed factor must be exact on the target window widened by the
    complete factor's maximal |y|-power; otherwise the tails it is missing
    could fold back into the window.
    """
    return _product(a, b, qcut, ywindow)


def _product(a: WindowedSeries, b: WindowedSeries, qcut=None, ywindow=None):
    """The product behind ``*`` and ``windowed_mul``.

    Both operands' numerators are lifted to common q- and y-denominators and
    multiplied by ``qseries._convolve``, over the product of their denominators:
    one big-integer product per pair of q-rows, each row packed with one slot per
    y-power, each slot bits(max|a|) + bits(max|b|) + bits(min #terms) + 1 bits
    wide, so no product coefficient spills into the next.  Complete times complete
    keeps every term.  With a windowed factor the full product is clipped to the
    target window afterwards.  ``*`` calls this directly, so profiles charge its
    time to ``__mul__``.
    """
    target = None
    if not (a.is_complete() and b.is_complete()):
        if b.is_complete():
            a, b = b, a
        if not a.is_complete():
            raise UnboundedSupport("product of two windowed series is not supported")
        # a complete, b windowed
        reach = a.max_abs_y()
        target = ywindow if ywindow is not None else b.ywindow - reach
        if target < 0 or b.ywindow < target + reach:
            raise WindowTooNarrow(
                f"need window {target}+{reach} on windowed factor, have {b.ywindow}")
    cut = min(a.qcut + b.low_q(), b.qcut + a.low_q())
    if qcut is not None:
        cut = min(cut, as_rat(qcut))
    d, yd = lcm(a.denom, b.denom), lcm(a.ydenom, b.ydenom)
    out = _convolve(a._on(d, yd), b._on(d, yd), ceil(cut * d))
    prod = WindowedSeries._of(d, out, cut, annulus=a._combine_annulus(b), ydenom=yd,
                              cden=a.cden * b.cden)
    return prod if target is None else _clip(prod, target, prod.annulus)


def _clip(s: WindowedSeries, ywindow, annulus: str) -> WindowedSeries:
    """The terms of ``s`` with |y-power| <= ywindow, as a windowed series."""
    ymax = ywindow * s.ydenom
    rows = {k: r for k, row in s.rows.items()
            if (r := {y: c for y, c in row.items() if abs(y) <= ymax})}
    return WindowedSeries._of(s.denom, rows, s.qcut, ywindow=ywindow, annulus=annulus,
                              ydenom=s.ydenom, cden=s.cden)


# ---------------------------------------------------------------------------
# theta functions

def jacobi_theta(i: int, qcut) -> WindowedSeries:
    """The four classical theta functions, summed as theta series.

    By the Jacobi triple product (with theta_1's constant unit -i divided
    out, so all four have rational coefficients)

        theta_1 = q^(1/8) (y^(1/2) - y^(-1/2)) prod (1-q^n)(1-y q^n)(1-y^-1 q^n)
                = sum_n (-1)^n q^((2n+1)^2/8) y^((2n+1)/2),
        theta_3 = prod (1-q^n)(1+y q^(n-1/2))(1+y^-1 q^(n-1/2))
                = sum_n q^(n^2/2) y^n,

    and theta_2, theta_4 drop the signs (-1)^n, resp. put them in.  In terms
    of the index-2 theta series at z/2, theta_i = theta^(2)_r +- theta^(2)_(r+2)
    with r = 1 for i = 1, 2 and r = 0 for i = 3, 4, minus for i = 1, 4: the
    rows of ``index_theta(2, .)`` read with y-denominator 2.  Only even powers
    of theta_1 (or ratios) appear in this library, and there the unit cancels.
    """
    if i not in (1, 2, 3, 4):
        raise OutOfRange(f"no theta function theta_{i}")
    r = 1 if i <= 2 else 0
    s = index_theta(2, r, qcut) + index_theta(2, r + 2, qcut).scale(-1 if i in (1, 4) else 1)
    return WindowedSeries._of(s.denom, s.rows, s.qcut, ydenom=2, cden=s.cden)


def index_theta(m: int, r: int, qcut) -> WindowedSeries:
    """theta^(m)_r(tau, z) = sum over j = r (mod 2m) of q^(j^2/4m) y^j."""
    rows = {}
    for j in _theta_lattice(m, r, qcut):
        rows.setdefault(j * j, {})[j] = 1
    return WindowedSeries(4 * m, rows, qcut)


def hat_theta(m: int, r: int, qcut) -> WindowedSeries:
    """theta^(m)_{-r} - theta^(m)_r (odd under y -> 1/y)."""
    return index_theta(m, -r, qcut) - index_theta(m, r, qcut)


# ---------------------------------------------------------------------------
# the weight-0 basis

# phi^(m)_1 = prod theta(tau, a z) / prod theta(tau, b z), theta = theta_1, as
# m: (a's, b's); ``_theta_block`` pairs 6 with 3 at m = 13 and divides the rest in the order
# listed, so every partial quotient is holomorphic and every division is exact.
_THETA_QUOTIENTS = {4: ((2, 2), (1, 1)), 5: ((3,), (1,)), 7: ((4,), (2,)),
                    13: ((1, 6), (3, 2))}
# Gritsenko's recursion (1999) for phi^(m)_1 at every other m >= 6:
# c phi^(m)_1 = sum_j a_j gcd(12, m-j) phi^(m-j+1)_1 phi^(j)_1, where c = gcd(12, m-1)
# and the row {j: a_j} depends on c only.
_RECURSION = {1: {5: 1, 3: 1, 4: -2}, 2: {5: 1, 3: 1, 4: -2}, 4: {13: 1, 5: 1, 9: -1},
              3: {4: 2, 7: 1, 5: -3}, 6: {4: 2, 7: 1, 5: -3}, 12: {4: 2, 7: 1, 5: -3}}
# m = 9 takes one product row instead, m: (c, {(a, b): k}) for
# c phi^(m)_1 = sum k phi^(a)_1 phi^(b)_1.
_PRODUCT_ROWS = {9: (1, {(3, 7): 1, (5, 5): -1})}


def _theta_rows(a: int, kcut: int) -> dict:
    """theta(tau, a z)/q^(1/8) = sum (-1)^n q^(n(n+1)/2) y^(a(2n+1)/2) (``jacobi_theta``)
    on its integral q-rows k < kcut, y-powers doubled; n and -1-n share a row."""
    return {n * (n + 1) // 2: {a * (2 * n + 1): (-1) ** n, -a * (2 * n + 1): (-1) ** (n + 1)}
            for n in range(kcut) if n * (n + 1) // 2 < kcut}


def _theta_divide(num: dict, b: int, kcut: int) -> dict:
    """The rows Q below kcut with Q * theta(tau, b z)/q^(1/8) = num, y-powers doubled.

    Row k of Q solves Q_k L = R_k, with R_k = num_k minus Q_(k-i) times the divisor's
    row i >= 1, s (y^(f/2) - y^(-f/2)), and L = y^(b/2) - y^(-b/2) its row 0.  Each
    row is packed as one int (``qseries._pack``), its coefficients in signed w-bit
    slots, w = 8 nb, on the lattice of step g = gcd(2b, the y-offsets of num), slot 0
    at its lowest y-power: R_k's y-powers lie on one class mod g, Q's on that class
    less b.  Divisor row i adds two shifts of the stored Q_(k-i) to R_k.  With
    R_k = y^(lo/2) P(Y), Y = y^(g/2), L divides R_k when Y^(2b/g) - 1 divides P, and
    one ``divmod`` of P(2^w) by 2^(2bw/g) - 1 decides it: the quotient, less its zero
    low slots, is Q_k from y^((lo + b)/2) up, read back once (``qseries._unpack``).

    The slots are wide enough when w >= bits(B_k) + 2.  R_k's coefficients are at
    most A_k = max|num_k| + 2 sum_i max|Q_(k-i)|.  The polynomial quotient of P by
    Y^(2b/g) - 1 and its remainder are suffix sums along the stride 2b of R_k's span,
    so their coefficients are at most B_k = (floor(span/2b) + 1) A_k < 2^(w-2).  So
    the remainder at Y = 2^w has absolute value below 2^(2bw/g) - 1 and is 0 only
    if it vanishes: the integer remainder is nonzero, and the row raises, exactly
    when L does not divide R_k.  Otherwise the integer quotient is the polynomial one
    at 2^w; its lowest set bit lies in its lowest nonzero slot and its bit length
    over w, plus 1, counts its slots from there.  A row whose B_k outgrows w widens
    it, at least doubled, and repacks the stored rows.
    """
    es = [e for row in num.values() for e in row]
    if not es:
        return {}
    g = gcd(2 * b, *(e - es[0] for e in es))
    m = 2 * b // g  # slots of y^b
    den = [(i, f, s) for i, row in sorted(_theta_rows(b, kcut).items()) if i
           for f, s in row.items() if f > 0]  # row i is s (y^(f/2) - y^(-f/2))
    nb, quo, packed, out = 1, {}, {}, {}  # quo[k]: Q_k's lowest, highest y-power, max |c|
    for k in range(kcut):
        row = num.get(k, {})
        terms = [(j, f, s) for i, f, s in den if i <= k and (j := k - i) in quo]
        if not row and not terms:
            continue
        lo = min([*row, *(quo[j][0] - f for j, f, _ in terms)])
        hi = max([*row, *(quo[j][1] + f for j, f, _ in terms)])
        bound = ((hi - lo) // (2 * b) + 1) * (max(map(abs, row.values()), default=0)
                                              + 2 * sum(quo[j][2] for j, _, _ in terms))
        if 8 * nb < bound.bit_length() + 2:
            nb = max(2 * nb, (bound.bit_length() + 9) // 8)
            packed = {j: _pack([(e - quo[j][0]) // g for e in r], r.values(), nb)
                      for j, r in out.items()}
        w = 8 * nb
        rest = _pack([(e - lo) // g for e in row], row.values(), nb) if row else 0
        for j, f, s in terms:  # R_k -= s Q_(k-i) (y^(f/2) - y^(-f/2))
            x, at = packed[j], quo[j][0] - lo
            up, down = x << w * ((at + f) // g), x << w * ((at - f) // g)
            rest += down - up if s > 0 else up - down
        if not rest:
            continue
        rest, left = divmod(rest, (1 << w * m) - 1)
        if left:
            raise NotInvertible(f"theta(tau, {b}z) does not divide row q^{k}")
        first = ((rest & -rest).bit_length() - 1) // w
        packed[k] = rest = rest >> w * first
        vals = _unpack(rest, abs(rest).bit_length() // w + 1, nb)
        low = lo + b + g * first
        quo[k] = (low, low + g * (len(vals) - 1), max(map(abs, vals)))
        out[k] = {e: v for e, v in zip(range(low, quo[k][1] + 1, g), vals) if v}
    return out


@memo
def _theta_ratio(k: int, qcut) -> WindowedSeries:
    """R_k = theta(tau, kz)/theta(tau, z), k >= 2, on its integral q-rows, y-powers doubled:
    one division (``_theta_divide``), kept at the deepest cutoff asked (``data.memo``)."""
    kcut = ceil(qcut)
    return WindowedSeries._of(1, _theta_divide(_theta_rows(k, kcut), 1, kcut), qcut, ydenom=2)


def _theta_block(nums, dens, k: int, qcut) -> WindowedSeries:
    """The theta block prod theta(tau, az) / prod theta(tau, bz) * eta^k, a in ``nums``,
    b in ``dens`` (Gritsenko, Skoruppa and Zagier, "Theta blocks", arXiv:1907.00188).

    On integral q-rows, q^s pulled out, s = (#nums - #dens)/8 + k/24.  Each b, in order,
    takes the first numerator a = jb, j >= 2, met once in ``nums``: their quotient is the
    shared ratio R_j (``_theta_ratio``) read at y^b, its doubled y-powers times b.  A
    repeated theta stays in its power: theta(2z)^2 divided twice by theta(z) builds faster
    than R_2^2.  Each other theta(az)^e is a power by repeated squaring (``FracSeries.__pow__``, which for
    e >= 1 only multiplies); the powers and ratios are multiplied (``*``), then eta^k from
    ``eta_quotient``, then each unpaired denominator theta divided out.  Row n reads rows
    <= n only, so the rows below qcut - s need no pad.
    """
    s = Fraction(len(nums) - len(dens), 8) + Fraction(k, 24)
    kcut = ceil(qcut - s)
    nums, rest, factors = list(nums), [], []
    for b in dens:
        a = next((a for a in nums if a > b and a % b == 0 and nums.count(a) == 1), None)
        if a is None:
            rest.append(b)
            continue
        nums.remove(a)
        r = _theta_ratio(a // b, kcut)
        factors.append(WindowedSeries._of(1, r._on(1, 2 * b), r.qcut, ydenom=2))
    for a in dict.fromkeys(nums):
        theta = WindowedSeries._of(1, _theta_rows(a, kcut), Fraction(kcut), ydenom=2)
        factors.append(FracSeries.__pow__(theta, nums.count(a)))
    prod = reduce(mul, factors)
    if k:
        prod = prod * eta_quotient([(1, k)], kcut + Fraction(k, 24)).shift(Fraction(-k, 24))
    rows = prod.rows
    for b in rest:
        rows = _theta_divide(rows, b, kcut)
    return WindowedSeries._of(1, rows, qcut - s, ydenom=2, cden=prod.cden).qshift(s)


def _phi_seed(m: int, qcut) -> WindowedSeries:
    """phi^(m)_1, m in {2, 3}, of index j = m - 1, from A = phi_{-2,1} = theta^2/eta^6,
    E_2, E_4 (``qseries._eisenstein``) and the heat operator L, c(n, r) -> (4jn - r^2) c(n, r)
    (Eichler and Zagier, *The Theory of Jacobi Forms*, 1985, sections 2 and 9): phi^(2)_1 =
    -6 L A - 5 E_2 A and 12 phi^(3)_1 = 3 L^2 A^2 + 14 E_2 L A^2 + (21 E_2^2 - 13 E_4) A^2.
    Only the rows y^0..y^j are formed, each a one-variable series (the row of theta^(2j)
    times eta^(-6j)); the rest follow from c(n, r) = C_(r mod 2j)(4jn - r^2), C_r = C_(-r).
    """
    j, qcut = m - 1, as_rat(qcut)
    e2 = _eisenstein(2, qcut)
    if m == 2:
        weights, den = [e2.scale(-5), -6], 1
    else:
        weights, den = [(e2 * e2).scale(21) - _eisenstein(4, qcut).scale(13), e2.scale(14), 3], 12
    theta = _theta_block((1,) * (2 * j), (), 0, qcut + Fraction(j, 4))
    inv = eta_quotient([(1, -6 * j)], qcut)
    cols = []
    for rho in range(j + 1):
        a, terms = theta.y_row(rho) * inv, []
        for w in weights:
            terms.append(a * w)
            a = FracSeries._of(a.denom, {k: w for k, v in a.coeffs.items()  # L a
                                         if (w := (4 * j * k // a.denom - rho * rho) * v)},
                               a.cutoff, a.cden)
        cols.append(sum(terms[1:], terms[0]))
    cden = lcm(*(c.cden for c in cols))
    cols = [{k // c.denom: v * (cden // c.cden) for k, v in c.coeffs.items()} for c in cols]
    rows = {}
    for n in range(ceil(qcut)):
        top, row = isqrt(4 * j * n + j * j), {}
        for r in range(-top, top + 1):
            rho = min(r % (2 * j), -r % (2 * j))
            if v := cols[rho].get(n - (r * r - rho * rho) // (4 * j)):
                row[r] = v
        if row:
            rows[n] = row
    return WindowedSeries._of(1, rows, qcut, cden=cden * den)


@memo
def gritsenko(m: int, n: int, qcut) -> WindowedSeries:
    """The weight 0, index m-1 form phi^(m)_1 (2 <= m <= 25); n must be 1.

    At m = 4, 5, 7 and 13 it is a theta block (``_THETA_QUOTIENTS``): (theta(2z)/theta(z))^2,
    theta(3z)/theta(z), theta(4z)/theta(2z) and theta(z) theta(6z)/(theta(2z) theta(3z)),
    Gritsenko's phi_{0,3/2} and phi_{0,4} quotients (V. Gritsenko, "Elliptic genus of
    Calabi-Yau manifolds and Jacobi and Siegel modular forms", 1999; Gritsenko, Skoruppa and
    Zagier, "Theta blocks", arXiv:1907.00188), in five divisions, R_2 = theta(2z)/theta(z)
    shared by 7 and 13.  The seeds phi^(2,3)_1 come from phi_{-2,1} by the heat operator
    (``_phi_seed``), every other m from Gritsenko's product recursion.  One form per m is
    kept, at the deepest cutoff asked; a shallower call gets it truncated (``data.memo``).
    """
    if not (2 <= m <= 25 and n == 1):
        raise OutOfRange(f"no basis form phi^({m})_{n}")
    if m in _THETA_QUOTIENTS:
        out = _theta_block(*_THETA_QUOTIENTS[m], 0, qcut)
    elif m <= 3:
        out = _phi_seed(m, qcut)
    else:
        if m in _PRODUCT_ROWS:
            c, terms = _PRODUCT_ROWS[m]
        else:
            c = gcd(12, m - 1)
            terms = {(m - j + 1, j): a * gcd(12, m - j) for j, a in _RECURSION[c].items()}
        prods = [(gritsenko(a, 1, qcut) * gritsenko(b, 1, qcut)).scale(k)
                 for (a, b), k in terms.items()]
        out = sum(prods[1:], prods[0]).scale(Fraction(1, c))
    return out.truncate(qcut)


def umbral_Z(ell: int, qcut) -> WindowedSeries:
    """The distinguished weight-0 form Z^(l) = 2 phi^(l)_1, l in {2,3,4,5,7,13}."""
    if ell not in LAMBENCIES:
        raise OutOfRange(f"lambency {ell}")
    return gritsenko(ell, 1, qcut).scale(2)


# ---------------------------------------------------------------------------
# meromorphic blocks

def psi_one_one(qcut, ywindow: int, annulus: str = LOWER) -> WindowedSeries:
    """The meromorphic weight 1 index 1 block Psi_{1,1} = -i theta_1(tau,2z)
    eta^3 / theta_1(tau,z)^2, expanded in the given annulus.

    It equals the Appell-Lerch sum mu^(1)_0 (Dabholkar, Murthy and Zagier,
    "Quantum black holes, wall crossing and mock modular forms", 2012): the
    shadow of mu^(1)_0 is built from sum_(r = l mod 2) r q^(r^2/4), which is
    zero as r and -r cancel, so both sides are meromorphic Jacobi forms of
    weight 1 and index 1 with simple poles only at z in Z tau + Z and the same
    residue 1/(pi i) at z = 0.  Their difference is a holomorphic Jacobi form
    of weight 1, and there is none but 0 (Skoruppa).
    """
    return appell_mu(1, 0, qcut, ywindow, annulus)


def _rays(m: int, j2: int, qcut, annulus: str):
    """The pole-factor rays (k, qe, yp, d, c) of mu^(m)_j, 2j = j2, listed by k: each
    k-summand q^(m k^2) y^(2mk) (sum_t (y q^k)^t) / (1 - y q^k) expands its pole factor
    in powers of (y q^k)^d, d = +1 where |y q^k| < 1 (k > 0, or k = 0 in the lower
    annulus) and d = -1 otherwise, so the ray of t starts at (m k^2 + k t, 2mk + t), one
    step on for d = -1, steps by (|k|, d) and has coefficient c = d (-1)^(1+2j).
    k runs over -K..K, K the largest |k| with m k^2 - (j2+1)|k| < qcut."""
    if annulus not in (LOWER, UPPER):
        raise ValueError(annulus)
    sign = -1 if j2 % 2 == 0 else 1  # (-1)^(1+2j)
    K = 0  # first |k| past the range
    while m * K * K - (j2 + 1) * K < qcut:
        K += 1
    for k in range(1 - K, K):
        d = 1 if k > 0 or k == 0 and annulus == LOWER else -1
        for t in range(-j2, j2 + 2):
            qe, yp = m * k * k + k * t, 2 * m * k + t
            yield (k, qe, yp, d, d * sign) if d > 0 else (k, qe - k, yp - 1, d, d * sign)


@memo
def appell_mu(m: int, j2: int, qcut, ywindow: int, annulus: str = LOWER) -> WindowedSeries:
    """The averaged pole block mu^(m)_j, 2j = j2 in {0, ..., m-1}: every ray of ``_rays``
    walked below qcut while d * y-power <= ywindow.  Built at the deepest cutoff asked
    (``data.memo``), ``psi_one_one`` included."""
    if not 0 <= j2 <= m - 1:
        raise OutOfRange(f"2j = {j2} outside 0..{m - 1}")
    qcut = as_rat(qcut)
    rows = {}
    for k, qe, yp, d, c in _rays(m, j2, qcut, annulus):
        while qe < qcut and d * yp <= ywindow:
            if abs(yp) <= ywindow:
                row = rows.setdefault(qe, {})
                row[yp] = row.get(yp, 0) + c
            qe, yp = qe + abs(k), yp + d
    return WindowedSeries(1, rows, qcut, ywindow=ywindow, annulus=annulus)


# ---------------------------------------------------------------------------
# extraction of the mock modular vector

@dataclass
class HVector:
    """The (l-1)-vector of theta-coefficients of a weight-0 form's finite part."""

    lambency: int
    components: list  # FracSeries, index r-1 for r = 1..l-1

    def component(self, r: int) -> FracSeries:
        if not 0 < r < self.lambency:
            raise OutOfRange(f"component r = {r} outside 1..{self.lambency - 1}")
        return self.components[r - 1]

    def __iter__(self):
        return iter(self.components)

    def _offset(self, r: int) -> Fraction:
        """How far component r ends below the vector's cutoff: r^2/4l."""
        return Fraction(r * r, 4 * self.lambency)

    def truncate(self, qcut) -> "HVector":
        """Component r cut at min(its cutoff, qcut - ``_offset(r)``)."""
        return replace(self, components=[h.truncate(min(h.cutoff, qcut - self._offset(r)))
                                         for r, h in enumerate(self.components, 1)])


def _psi_rows(phi: WindowedSeries, m: int, qcut, annulus: str) -> list:
    """Rows y^1..y^(m-1) of Psi_{1,1} * phi as FracSeries, phi complete from q^0 on,
    summed along the rays of Psi_{1,1} = mu^(1)_0 (``_rays``) without expanding Psi.

    Ray (k, q0, y0, d, c) adds c R_k[n - q0][r - y0] to row y^r at q^n, where
    R_k[n][y] = phi[n][y] + R_k[n - |k|][y - d]: for k != 0 one list per residue of n
    mod |k|, indexed by y less d per step taken and spanning only the y that reach a row
    y^r below the cutoff; at k = 0 a prefix sum along y, upward for d = +1 (lower
    annulus), downward for d = -1.  Exact below min(phi.qcut, qcut + phi.low_q(), qcut)."""
    qcut = as_rat(qcut)
    cut = min(phi.qcut, qcut + phi.low_q(), qcut)
    D, Y = phi.denom, phi.ydenom
    kcut = ceil(cut * D)
    dense = {}  # n: (lowest integral y-power, the row's coefficients from there on)
    for n, row in phi.rows.items():
        lo = -(-min(row) // Y)
        dense[n] = (lo, list(map(row.get, range(lo * Y, max(row) + 1, Y), repeat(0))))
    sums = [[0] * (m - 1) for _ in range(kcut)]
    for k, rays in groupby(_rays(1, 0, cut, annulus), itemgetter(0)):
        rays = [(q0 * D, y0, d, c) for _, q0, y0, d, c in rays]
        d, y0s, step, accs = rays[0][2], [r[1] for r in rays], abs(k) * D, {}
        nmax = kcut - min(r[0] for r in rays)  # no row y^r below the cutoff reads n >= nmax
        jmax = (nmax - 1) // step if k else 0
        base = 1 - max(y0s) - (jmax if d > 0 else 0)  # acc[x] holds y - d j = base + x
        size = m - 1 + max(y0s) - min(y0s) + jmax
        for n in range(nmax):
            j = n // step if k else 0
            lo, vals = dense.get(n, (0, []))
            i = lo - d * j - base  # vals[t] belongs at acc[i + t]
            if k:
                acc = accs.setdefault(n % step, [0] * size)
                a, b = max(i, 0), min(i + len(vals), size)
                if a < b:
                    acc[a:b] = map(add, acc[a:b], vals[a - i:b - i])
            else:  # acc[x]: the row summed up to y = base + x, or down to it for d = -1
                pre = list(accumulate(vals, initial=0))  # pre[t]: the first t terms summed
                acc = [pre[min(max(x - i + (d > 0), 0), len(vals))] for x in range(size)]
                acc = acc if d > 0 else [pre[-1] - v for v in acc]
            for q0, y0, _, c in rays:  # c = +-1
                if n + q0 < kcut:
                    x = 1 - y0 - d * j - base
                    sums[n + q0] = list(map(add if c > 0 else sub, sums[n + q0], acc[x:x + m - 1]))
    return [FracSeries._of(D, {n: col[i] for n, col in enumerate(sums) if col[i]}, cut, phi.cden)
            for i in range(m - 1)]


def extract_from_form(phi: WindowedSeries, m: int, qcut, annulus: str = LOWER) -> HVector:
    """Theta-coefficients H_r of the finite part of (Psi_{1,1} * phi).

    ``phi`` is a weak Jacobi form of weight 0 and index m-1 (complete);
    H_r = -q^(-r^2/4m) [y^r](Psi*phi - chi*mu^(m)_0), both blocks expanded in
    the same annulus.  Only the rows y^r, 0 < r < m, of Psi*phi are formed, each
    summed along Psi's pole-factor rays (``_psi_rows``), so Psi needs no window;
    mu^(m)_0 is built to |y| <= m-1, as wide as the rows read, when chi != 0.
    Coefficients are exact below ``phi.qcut`` only, so the cutoff is capped there.
    """
    qcut = min(as_rat(qcut), phi.qcut)
    chi = phi.specialize_z0().coefficient(0)
    mu0 = appell_mu(m, 0, qcut, m - 1, annulus) if chi else None
    comps = []
    for r, row in enumerate(_psi_rows(phi, m, qcut, annulus), 1):
        row = row - mu0.y_row(r).scale(chi) if chi else row
        comps.append((-row).shift(Fraction(-r * r, 4 * m)))
    return HVector(m, comps)


def extract_H(ell: int, qcut, annulus: str = LOWER) -> HVector:
    """The mock modular vector attached to Z^(l) (identity-class series)."""
    if ell not in LAMBENCIES:
        raise OutOfRange(f"lambency {ell}")
    return extract_from_form(umbral_Z(ell, qcut), ell, qcut, annulus)


def verify_extremal(ell: int) -> dict:
    """Check the distinguished polar structure of the extracted vector below q^6."""
    qcut = 6
    H = extract_H(ell, qcut)
    z0 = umbral_Z(ell, qcut).specialize_z0()
    report = {
        "lambency": ell,
        "chi": z0.coefficient(0),
        "chi_expected": Fraction(24, ell - 1),
        "constant_Z": all(c == 0 for e, c in z0.items() if e != 0),
        "polar_ok": True,
        "failures": [],
    }
    for r in range(1, ell):
        h = H.component(r)
        for e, c in h.items():
            if e > 0:
                break
            if r == 1 and e == Fraction(-1, 4 * ell) and c == -2:
                continue
            report["polar_ok"] = False
            report["failures"].append((r, e, c))
    report["ok"] = (report["polar_ok"] and report["constant_Z"]
                    and report["chi"] == report["chi_expected"])
    return report


def leading_row_relation(phi: WindowedSeries, m: int) -> bool:
    """For a form with q^0 row a + b(y + 1/y): the relation (m-1)(a+2b) = 12b."""
    a = phi.coefficient(0, 0)
    b = phi.coefficient(0, 1)
    return (m - 1) * (a + 2 * b) == 12 * b


_PRIME = 32749  # the largest prime below 2^15: the extremal rank is taken mod it first


def extremal_space_dim(m: int) -> int:
    """Dimension of the extremal forms of weight 0 and index m-1 (2 <= m <= 25): the weak
    Jacobi forms whose H_r vanish at every q^n y^r, n <= n_bound = max(4, (m-1)^2 // 4m),
    r^2 - 4mn >= 0, but the polar head r = 1, n = 0; the nullity of ``_extremal_matrix``.
    A minor nonzero mod p is nonzero, so the rank mod ``_PRIME`` is at most the rank over Q
    and a full one proves nullity 0; only a rank that falls short is taken again exactly.
    """
    matrix = _extremal_matrix(m)
    rank = _rank(matrix, _PRIME)
    if rank < len(matrix):
        rank = _rank(matrix)
    return len(matrix) - rank


def _extremal_matrix(m: int) -> list:
    """One row per basis form of J^weak_{0,t} = sum_j M_(2j) phi_{-2,1}^j phi_{0,1}^(t-j),
    t = m - 1 (Eichler and Zagier, 1985, Theorem 9.3), M_(2j) spanned by the E_4^a E_6^b,
    2a + 3b = j, phi_{0,1} = phi^(2)_1: its H_r at the slots, up to a factor per row.

    Row j = 0, phi_{0,1}^t, is extracted, built to q^(n_bound + 1), the least sound cutoff:
    H_r, read at n <= n_bound, is exact below it minus r^2/4m.  For j >= 2 (M_2 = 0) the
    form vanishes at z = 0, so chi = 0, and Psi_{1,1} phi_{-2,1}^j = theta(2z) theta^(2j-2)
    eta^(3-6j) is a holomorphic theta block (Dabholkar, Murthy and Zagier, 2012), the same
    in both annuli: H_r of f phi_{-2,1}^j phi_{0,1}^(t-j) is -q^(-r^2/4m) [y^r] of f C_j,
    C_j = Psi phi_{-2,1}^j phi_{0,1}^(t-j), so f's row reads slot (r, n) as the int sum
    sum_k f_k C_j[n - k][r], less the sign and denominator.
    """
    if not 2 <= m <= 25:
        raise OutOfRange(f"extremal candidates at 2 <= m <= 25, not m = {m}")
    nbound = max(4, (m - 1) ** 2 // (4 * m))
    qcut = nbound + 1
    slots = [(r, n) for r in range(1, m) for n in range(0, nbound + 1)
             if r * r - 4 * m * n >= 0 and (r, n) != (1, 0)]
    phi01 = gritsenko(2, 1, qcut)
    powers = [WindowedSeries.one(qcut), *accumulate(repeat(phi01, m - 1), mul)]  # phi_{0,1}^i
    H = extract_from_form(powers[-1], m, qcut)
    matrix = [[H.component(r).coefficient(Fraction(4 * m * n - r * r, 4 * m)) for r, n in slots]]
    e4, e6 = (list(map(_eisenstein(w, qcut).coeffs.get, range(qcut), repeat(0))) for w in (4, 6))
    mono = {(0, 0): [1] + [0] * nbound}  # E_4^a E_6^b at q^0..q^nbound
    block, phi = _theta_block((2,), (), -3, qcut), _theta_block((1, 1), (), -6, qcut)
    for j in range(2, m):
        block = block * phi  # Psi phi_{-2,1}^j
        core = block * powers[m - 1 - j]
        if core.qcut <= nbound:  # a row past the cutoff would read as 0
            raise CutoffUnderflow(f"q^{nbound} read at qcut {core.qcut} of C_{j}")
        cols = [[core.rows.get(k, {}).get(r * core.ydenom, 0) for k in range(n, -1, -1)]
                for r, n in slots]  # C_j[n - k][r] for k = 0..n; core.denom is 1
        for b in range(j % 2, j // 3 + 1, 2):
            a = (j - 3 * b) // 2
            g, e = (mono[a - 1, b], e4) if a else (mono[a, b - 1], e6)
            f = mono[a, b] = [sum(g[i] * e[k - i] for i in range(k + 1)) for k in range(qcut)]
            matrix.append([sum(map(mul, f, col)) for col in cols])
    return matrix


def _rank(matrix: list, p: int = 0) -> int:
    """Rank of a matrix of ints and Fractions over Q by fraction-free (Bareiss) elimination,
    or over F_p, p > 0 prime, by the same steps mod p.  Rows are scaled to integers; after
    each pivot v every entry below it is a minor of the scaled matrix, so the division by the
    previous pivot is exact (E. H. Bareiss, Math. Comp. 22 (1968)); mod p a row is scaled by
    the unit v and needs no division.
    """
    rows = []
    for row in matrix:
        den = lcm(*(x.denominator for x in row))
        ints = [x.numerator * (den // x.denominator) for x in row]
        rows.append([x % p for x in ints] if p else ints)
    rank, prev = 0, 1
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        v, top = rows[rank][c], rows[rank][c:]  # every row below is 0 left of column c
        for i in range(rank + 1, len(rows)):
            f, tail = rows[i][c], zip(rows[i][c:], top)
            rows[i][c:] = ([(v * x - f * t) % p for x, t in tail] if p
                           else [(v * x - f * t) // prev for x, t in tail])
        prev = v
        rank += 1
    return rank


def verify_n4_identity(ell: int, qcut=10, ywindow=12) -> dict:
    """Residual of Psi*Z - chi*mu_0 - sum_r H_r theta-hat_r inside a box.

    Psi*Z is Z times Psi_{1,1} expanded, by ``windowed_mul``, not extraction's ray sums
    (``_psi_rows``), so the check shares no code with the row sums it checks.
    """
    qcut = as_rat(qcut)
    Z = umbral_Z(ell, qcut)
    H = extract_H(ell, qcut)
    chi = Fraction(24, ell - 1)
    psi = psi_one_one(qcut, ywindow + int(Z.max_abs_y()) + 1, LOWER)
    total = windowed_mul(Z, psi, qcut=qcut, ywindow=ywindow)
    total = total - appell_mu(ell, 0, qcut, ywindow, LOWER).scale(chi)
    for r in range(1, ell):
        piece = hat_theta(ell, r, qcut) * WindowedSeries.from_fracseries(H.component(r))
        total = total - _clip(piece, ywindow, total.annulus)
    bad = [(qe, yp, c) for qe, yp, c in total.items()]
    return {"lambency": ell, "residual_terms": bad, "ok": not bad}
