"""Exact one-variable q-series and the catalog of classical building blocks.

A :class:`FracSeries` is a Laurent series in q^(1/D) with rational
coefficients and an explicit *cutoff*: coefficients at exponents strictly
below the cutoff are exact, everything above is unknown.  Operations
propagate the tightest cutoff they can guarantee and refuse (rather than
silently truncate) when asked for data beyond it.  A cutoff is always finite
and chosen by the caller, even for a known polynomial.  A product is exact
below min(cut_a + low_b, cut_b + low_a), where ``low()`` of a series with no
stored term is its cutoff, the lowest exponent that may be nonzero.

Coefficients are stored as int numerators over one positive int denominator
per series, ``cden``, kept reduced: the gcd of ``cden`` and every numerator is
1, and ``cden`` is 1 for an integral series.  ``coefficient`` and ``items``
hand out Fractions.  The public constructors take ints and Fractions and lift
them over their lcm denominator; operations hand int numerators and a
denominator to the private ``_of``, which divides out their common factor with
one gcd.

Both series classes multiply by Kronecker substitution (von zur Gathen and
Gerhard, *Modern Computer Algebra*, ch. 8), over the product of the two
denominators.  A FracSeries packs each operand's int numerators once along q
into one Python int, a signed slot of B bytes per term (``_convolve_line``);
``_convolve`` packs each q-row of a two-variable operand alone, slot 0 at its
lowest y-power, multiplies row pairs and reads each product row back over its
own y-span.  A slot sums at most min(#terms) pairs, so bits(max|a|) +
bits(max|b|) + bits(min #terms) bits and a sign bit hold it.  ``_pack`` and
``_unpack`` hold the slots; the theta-block divider of ``jacobi`` uses both.

The catalog covers the Dedekind eta function and eta quotients, the Eisenstein
series E_2, E_4, E_6 and the weight-2 combinations Lambda_N, the level
11/14/15/20/23/44 newforms, the unary theta functions S^(m)_r, and the classical
mock theta functions of orders 2, 3, 8 and 10.  Eta, S^(m)_r and the index-m
theta functions of ``jacobi`` are sums over one lattice, the j = r (mod 2m) with
j^2/4m below the cutoff, enumerated by ``_theta_lattice``.  The catalog builders
do not multiply series: eta quotients follow an integer recurrence, E_k and
Lambda_N a divisor sieve and each mock theta term one int list multiplied and
divided in place by its factors, so each is exact below the cutoff asked.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, repeat
from math import ceil, gcd, isqrt, lcm
from operator import mul

from .algebra import as_rat
from .data import memo
from .errors import (CutoffUnderflow, NotInvertible, NotUnimodular, OutOfRange,
                     UnknownClass)


def _pack(at, vals, nb: int) -> int:
    """One int holding each of ``vals`` in the signed nb-byte slot of index ``at``:
    the join of slots biased by h = 2^(8nb-1), h in the empty ones, less h per slot."""
    half, to_bytes = 1 << (8 * nb - 1), int.to_bytes
    zero = to_bytes(half, nb, "little")
    slots = [zero] * (max(at) + 1)
    for i, v in zip(at, vals):
        slots[i] = to_bytes(v + half, nb, "little")
    return int.from_bytes(b"".join(slots), "little") - int.from_bytes(zero * len(slots), "little")


def _unpack(x: int, n: int, nb: int) -> list:
    """The values of the n lowest signed nb-byte slots of ``x``, lowest first, when each
    lies in [-2^(8nb-1), 2^(8nb-1)): x plus h per slot, cut to n slots, read slot by slot."""
    half, size = 1 << (8 * nb - 1), nb * n
    buf = ((x + int.from_bytes(half.to_bytes(nb, "little") * n, "little"))
           & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
    from_bytes = int.from_bytes
    return [from_bytes(buf[p:p + nb], "little") - half for p in range(0, size, nb)]


def _slot_bytes(amax: int, bmax: int, n: int) -> int:
    """Bytes of a signed slot that sums n products of |a| <= amax and |b| <= bmax."""
    return (amax.bit_length() + bmax.bit_length() + n.bit_length() + 8) // 8


def _convolve(ra: dict, rb: dict, kcut: int) -> dict:
    """Product of int rows ``{k: {y: c}}`` (zeros allowed) at keys k < kcut, row by row.

    Each row that reaches a key below kcut is packed by ``_pack`` in steps of ys, the
    gcd of both operands' y offsets, slot 0 at its own lowest y-power; a slot sums at
    most min(#terms) pairs.  Product row k sums one big-integer product per row pair
    with ka + kb = k, shifted by the pair's lowest y above the row's running lowest,
    and is read back by ``_unpack`` once, over the span of its pairs.
    """
    ra, rb = ({k: r for k, row in rs.items() if (r := row if all(row.values()) else
               {y: c for y, c in row.items() if c})} for rs in (ra, rb))
    if not ra or not rb or min(ra) + min(rb) >= kcut:
        return {}
    ka, kb = min(ra), min(rb)
    ra, rb = ({k: r for k, r in rs.items() if k < kcut - k0} for rs, k0 in ((ra, kb), (rb, ka)))
    (ya, Ya), (yb, Yb) = ((min(ys), ys) for ys in (set().union(*rs.values()) for rs in (ra, rb)))
    ys = gcd(*(y - ya for y in Ya), *(y - yb for y in Yb)) or 1
    nb = _slot_bytes(*(max(max(map(abs, r.values())) for r in rs.values()) for rs in (ra, rb)),
                     min(sum(map(len, rs.values())) for rs in (ra, rb)))
    pa, pb = ([(k, lo, max(r), _pack([(y - lo) // ys for y in r], r.values(), nb))
               for k, r in sorted(rs.items()) for lo in (min(r),)] for rs in (ra, rb))
    acc, w = {}, 8 * nb
    for k1, lo1, hi1, p1 in pa:
        for k2, lo2, hi2, p2 in pb:
            if (k := k1 + k2) >= kcut:
                break
            v, vlo, vhi = acc.get(k, (0, lo := lo1 + lo2, lo))
            base = min(lo, vlo)
            acc[k] = ((v << (vlo - base) * w // ys) + (p1 * p2 << (lo - base) * w // ys), base,
                      max(hi1 + hi2, vhi))
    return {k: row for k, (v, lo, hi) in sorted(acc.items())
            if (row := {y: c for y, c in zip(range(lo, hi + 1, ys),
                                             _unpack(v, (hi - lo) // ys + 1, nb)) if c})}


def _convolve_line(a: dict, b: dict, kcut: int) -> dict:
    """Product of nonzero int coefficients ``{k: c}`` at keys k < kcut: each operand packed
    once in steps of ks, the gcd of the key offsets, multiplied, the slots below kcut read."""
    if not a or not b or min(a) + min(b) >= kcut:
        return {}
    ka, kb = min(a), min(b)
    a, b = ({k: c for k, c in s.items() if k < kcut - k0} for s, k0 in ((a, kb), (b, ka)))
    ks = gcd(*(k - ka for k in a), *(k - kb for k in b)) or 1
    nb = _slot_bytes(max(map(abs, a.values())), max(map(abs, b.values())), min(len(a), len(b)))
    x = _pack([(k - ka) // ks for k in a], a.values(), nb) * \
        _pack([(k - kb) // ks for k in b], b.values(), nb)
    return {ka + kb + i * ks: c
            for i, c in enumerate(_unpack(x, -((ka + kb - kcut) // ks), nb)) if c}


class FracSeries:
    """Laurent series in q^(1/denom), exact below ``cutoff``.

    ``coeffs`` maps integer k to the int numerator of the coefficient of
    q^(k/denom) over the series' denominator ``cden``; zero coefficients are
    never stored.  Instances are immutable by convention.
    """

    __slots__ = ("denom", "coeffs", "cutoff", "cden")

    def __init__(self, denom: int, coeffs: dict, cutoff: Fraction):
        self.denom = denom
        self.cutoff = as_rat(cutoff)
        kcut = ceil(self.cutoff * denom)
        vals = {k: v if type(v) is int else as_rat(v) for k, v in coeffs.items() if v and k < kcut}
        self.cden = lcm(*(v.denominator for v in vals.values()))  # so the numerators are reduced
        self.coeffs = {k: v.numerator * (self.cden // v.denominator) for k, v in vals.items()}

    @classmethod
    def _of(cls, denom, coeffs, cutoff, cden=1):
        """Wrap nonzero int numerators below ``cutoff`` over ``cden`` > 0, their common
        factor with ``cden`` divided out."""
        if cden != 1 and (g := gcd(cden, *coeffs.values())) != 1:
            coeffs, cden = {k: v // g for k, v in coeffs.items()}, cden // g
        s = object.__new__(cls)
        s.denom, s.coeffs, s.cutoff, s.cden = denom, coeffs, cutoff, cden
        return s

    @classmethod
    def _reduced(cls, denom, coeffs, cutoff, cden=1):
        """``_of`` on the coarsest lattice, denom / gcd(denom, keys), as ``from_terms``."""
        g = gcd(denom, *coeffs)
        return cls._of(denom // g, {k // g: v for k, v in coeffs.items()}, cutoff, cden)

    # -- construction -------------------------------------------------
    @classmethod
    def from_terms(cls, terms, cutoff) -> "FracSeries":
        """Build from (exponent, coefficient) pairs with Fraction exponents."""
        cutoff = as_rat(cutoff)
        denom = 1
        pairs = []
        for e, c in terms:
            e = as_rat(e)
            if e < cutoff:
                denom = lcm(denom, e.denominator)
                pairs.append((e, c))
        coeffs = {}
        for e, c in pairs:
            k = e.numerator * (denom // e.denominator)
            coeffs[k] = coeffs.get(k, 0) + c
        return cls(denom, coeffs, cutoff)

    @classmethod
    def zero(cls, cutoff) -> "FracSeries":
        return cls(1, {}, cutoff)

    @classmethod
    def one(cls, cutoff) -> "FracSeries":
        return cls(1, {0: 1}, cutoff)

    # -- inspection ---------------------------------------------------
    def items(self):
        """Sorted (exponent, coefficient) pairs, both Fractions."""
        for k in sorted(self.coeffs):
            yield Fraction(k, self.denom), Fraction(self.coeffs[k], self.cden)

    def coefficient(self, e) -> Fraction:
        e = as_rat(e)
        if e >= self.cutoff:
            raise CutoffUnderflow(f"coefficient at {e} >= cutoff {self.cutoff}")
        if self.denom % e.denominator == 0:
            return Fraction(self.coeffs.get(e.numerator * (self.denom // e.denominator), 0),
                            self.cden)
        return Fraction(0)

    def low(self) -> Fraction:
        """Lowest exponent that may be nonzero: the cutoff if no term is stored."""
        if not self.coeffs:
            return self.cutoff
        return Fraction(min(self.coeffs), self.denom)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, FracSeries):
            return NotImplemented
        cut = min(self.cutoff, other.cutoff)
        return list(self.truncate(cut).items()) == list(other.truncate(cut).items())

    # -- arithmetic ----------------------------------------------------
    def _on(self, d: int, f: int = 1) -> dict:
        """The numerators on the lattice q^(1/d), times f; ``coeffs`` itself if unchanged."""
        t = d // self.denom
        if t == f == 1:
            return self.coeffs
        return {k * t: v * f for k, v in self.coeffs.items()}

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = FracSeries(1, {0: other}, self.cutoff)
        d, cden = lcm(self.denom, other.denom), lcm(self.cden, other.cden)
        a = dict(self._on(d, cden // self.cden))
        for k, v in other._on(d, cden // other.cden).items():
            a[k] = a.get(k, 0) + v
        cut = min(self.cutoff, other.cutoff)
        kcut = ceil(cut * d)
        return FracSeries._of(d, {k: v for k, v in a.items() if v and k < kcut}, cut, cden)

    __radd__ = __add__

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c) -> "FracSeries":
        c = as_rat(c)
        if c == 1:
            return self
        p = c.numerator
        return FracSeries._of(self.denom, {k: p * v for k, v in self.coeffs.items()} if p else {},
                              self.cutoff, self.cden * c.denominator)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        d = lcm(self.denom, other.denom)
        cut = min(self.cutoff + other.low(), other.cutoff + self.low())
        return FracSeries._of(d, _convolve_line(self._on(d), other._on(d), ceil(cut * d)), cut,
                              self.cden * other.cden)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        """self**n by repeated squaring from self itself; a negative n inverts first."""
        if n <= 0:
            return self.invert() ** -n if n else FracSeries.one(self.cutoff)
        out, x = None, self
        while n:
            if n & 1:
                out = x if out is None else out * x
            n >>= 1
            if n:
                x = x * x
        return out

    def invert(self) -> "FracSeries":
        """Multiplicative inverse; requires a nonzero lowest-order coefficient.

        The result is exact below ``self.cutoff - 2*low``.  For numerators a_j at x^j
        (x the sparsest sublattice from low on) it is cden x^-low sum_k I_k x^k / a_0^(k+1),
        I_0 = 1 and I_k = -sum_j a_j a_0^(j-1) I_(k-j), all in ints."""
        if not self.coeffs:
            raise NotInvertible("cannot invert the zero series")
        low_k = min(self.coeffs)
        lead = self.coeffs[low_k]
        cut = self.cutoff - 2 * Fraction(low_k, self.denom)
        step = gcd(*(k - low_k for k in self.coeffs)) or 1
        u = sorted(((k - low_k) // step, v) for k, v in self.coeffs.items() if k != low_k)
        uk = [(j, v * lead ** (j - 1)) for j, v in u]
        kmax_f = (self.cutoff * self.denom - low_k) / step  # exact bound on reduced lattice
        inv = [0] * max(int(kmax_f) + 1, 1)
        inv[0] = 1
        for k in range(1, len(inv)):
            s = 0
            for j, uj in uk:
                if j > k:
                    break
                s += uj * inv[k - j]
            inv[k] = -s
        top = len(inv) - 1  # over the one denominator a_0^(top+1), sign moved up
        pows = list(accumulate(repeat(lead, top), mul, initial=1))
        sign = -1 if lead < 0 and top % 2 == 0 else 1
        kcut = ceil(cut * self.denom)
        return FracSeries._of(self.denom, {k * step - low_k: sign * self.cden * v * pows[top - k]
                                           for k, v in enumerate(inv)
                                           if v and k * step - low_k < kcut},
                              cut, abs(lead) ** (top + 1))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(Fraction(1) / as_rat(other))
        return self * other.invert()

    # -- structural ops -------------------------------------------------
    def rescale(self, t) -> "FracSeries":
        """Map exponents e -> t*e (t a positive rational)."""
        t = as_rat(t)
        if t <= 0:
            raise ValueError("rescale factor must be positive")
        return FracSeries._reduced(self.denom * t.denominator,
                                   {k * t.numerator: v for k, v in self.coeffs.items()},
                                   self.cutoff * t, self.cden)

    def shift(self, e) -> "FracSeries":
        """Multiply by q^e."""
        e, d = as_rat(e), self.denom
        return FracSeries._reduced(d * e.denominator, {k * e.denominator + e.numerator * d: v
                                   for k, v in self.coeffs.items()}, self.cutoff + e, self.cden)

    def split(self, residue) -> "FracSeries":
        """Keep only exponents congruent to ``residue`` modulo 1."""
        t = as_rat(residue) % 1 * self.denom  # k/denom = residue (mod 1) iff k = t (mod denom)
        t = t.numerator if t.denominator == 1 else -1
        return FracSeries._of(self.denom, {k: v for k, v in self.coeffs.items()
                                           if k % self.denom == t}, self.cutoff, self.cden)

    def substitute_minus_q(self) -> "FracSeries":
        """q -> -q on an integer-exponent series."""
        if any(k % self.denom for k in self.coeffs):
            raise ValueError("q -> -q needs integer exponents")
        return FracSeries._of(self.denom, {k: -v if k // self.denom % 2 else v for k, v
                                           in self.coeffs.items()}, self.cutoff, self.cden)

    def truncate(self, cutoff) -> "FracSeries":
        cutoff = as_rat(cutoff)
        if cutoff > self.cutoff:
            raise CutoffUnderflow(f"cannot extend cutoff {self.cutoff} to {cutoff}")
        kcut = ceil(cutoff * self.denom)
        return FracSeries._of(self.denom, {k: v for k, v in self.coeffs.items() if k < kcut},
                              cutoff, self.cden)

    def render(self, max_terms: int = 12) -> str:
        """Canonical text form q^(a/b)*(c0 + c1*q^(s) + ...)."""
        if not self.coeffs:
            return "0"
        low = self.low()
        parts = []
        for i, (e, c) in enumerate(self.items()):
            if i >= max_terms:
                parts.append("...")
                break
            rel = e - low
            if rel == 0:
                parts.append(str(c))
            else:
                parts.append(f"{c}*q^({rel})")
        body = " + ".join(parts).replace("+ -", "- ")
        if low == 0:
            return body
        return f"q^({low})*({body})"

    def __repr__(self):
        return f"FracSeries({self.render(6)}, cutoff={self.cutoff})"


# ---------------------------------------------------------------------------
# catalog: eta and friends

def _theta_lattice(m: int, r: int, cutoff) -> range:
    """The integers j = r (mod 2m) with j^2/4m below ``cutoff``, ascending.

    Every theta series here sums over this lattice: S^(m)_r, theta^(m)_r and,
    by Euler's pentagonal theorem, eta = (theta^(6)_1 - theta^(6)_7)(tau, 0).
    """
    if m < 1:
        raise OutOfRange("index must be positive")
    bound = ceil(as_rat(cutoff) * 4 * m)  # j^2 < 4m*cutoff iff j^2 < bound
    top = isqrt(bound - 1) if bound > 0 else -1
    return range(-top + (r + top) % (2 * m), top + 1, 2 * m)


def eta(cutoff) -> FracSeries:
    """Dedekind eta: q^(1/24) prod (1 - q^n) = sum over j = 1 (mod 6) of
    +-q^(j^2/24), + for j = 1 and - for j = 7 (mod 12)."""
    return FracSeries.from_terms(((Fraction(j * j, 24), s) for r, s in ((1, 1), (7, -1))
                                  for j in _theta_lattice(6, r, cutoff)), cutoff)


def _sigma(n: int, e: int = 1) -> list:
    """sigma_e(k), the sum of the e-th powers of the divisors of k, for 0 <= k < n
    (sigma_e(0) = 0), by one divisor sieve."""
    sig = [0] * max(n, 1)
    for d in range(1, n):
        de = d ** e
        sig[d::d] = [s + de for s in sig[d::d]]
    return sig


def _eisenstein(k: int, cutoff) -> FracSeries:
    """E_k = 1 - (2k/B_k) sum sigma_(k-1)(n) q^n, k in {2, 4, 6}, in ints below ``cutoff``."""
    c, sig = {2: -24, 4: 240, 6: -504}[k], _sigma(max(ceil(cutoff), 0), k - 1)
    return FracSeries(1, {0: 1, **{n: c * s for n, s in enumerate(sig) if n}}, cutoff)


def eta_quotient(spec, cutoff) -> FracSeries:
    """prod_k eta(k*tau)^(m_k) for spec a sequence of (scale, exponent).

    Scales are positive rationals (tau/2 is scale 1/2), exponents any integers.
    With D the lcm of the scales' denominators and x = q^(1/D), the quotient
    is q^L prod_e (1 - x^e)^(c_e), L = sum k*m/24 and c_e the sum of the m
    whose k*D divides e.  Its coefficients a_j at x^j follow from the
    logarithmic derivative, j*a_j = -sum_(i=1..j) b_i a_(j-i) with a_0 = 1 and
    b_i = sum_(e | i) e*c_e = sum m*k*D*sigma(i/(k*D)) over the k*D dividing i.
    Each ``//`` by j is exact: the product has integer coefficients, a_j
    among them.  No series is multiplied or inverted, so the result is exact
    below ``cutoff`` itself and reports it; it is zero there if cutoff <= L.
    """
    cutoff = as_rat(cutoff)
    spec = [(as_rat(k), m) for k, m in spec if m]
    if any(k <= 0 for k, _ in spec):
        raise ValueError("eta scale must be positive")
    low = sum((k * m for k, m in spec), Fraction(0)) / 24
    if cutoff <= low:
        return FracSeries.zero(cutoff)
    d = lcm(*(k.denominator for k, _ in spec))
    n = ceil((cutoff - low) * d)  # the x^j with L + j/D < cutoff
    sig, b = _sigma(n), [0] * n
    for k, m in spec:
        step = k.numerator * (d // k.denominator)
        for t, i in enumerate(range(step, n, step), 1):
            b[i] += m * step * sig[t]
    a = [1] + [0] * (n - 1)
    for j in range(1, n):
        a[j] = -sum(map(mul, b[1:j + 1], reversed(a[:j]))) // j
    return FracSeries._of(d, {j: c for j, c in enumerate(a) if c}, cutoff - low).shift(low)


def lambda_n(n: int, cutoff) -> FracSeries:
    """Weight-2 Eisenstein form Lambda_N on Gamma_0(N), N >= 2:
    N(N-1)/24 + N sum_k sigma(k) q^k - N^2 sum_k sigma(k) q^(Nk), in ints
    below ``cutoff``, sigma from one divisor sieve."""
    if n < 2:
        raise ValueError("lambda_n needs N >= 2")
    cutoff = as_rat(cutoff)
    top = max(ceil(cutoff), 0)  # the q^k with k < cutoff
    sig = _sigma(top)
    coeffs = [n * s for s in sig]
    for k in range(1, (top - 1) // n + 1):
        coeffs[n * k] -= n * n * sig[k]
    coeffs[0] = Fraction(n * (n - 1), 24)
    return FracSeries(1, dict(enumerate(coeffs)), cutoff)


def _curve_newform(a2: int, a4: int, a6: int, level: int, cutoff) -> FracSeries:
    """Newform of the curve y^2 = x^3 + a2 x^2 + a4 x + a6 (a minimal model of
    conductor ``level``): a_p = p - #{(x, y) mod p}, bad primes included;
    a_(p^k) = a_p a_(p^(k-1)) - p a_(p^(k-2)), the second term dropped when p
    divides the level; a_mn = a_m a_n for coprime m and n."""
    top = max(ceil(cutoff), 1)
    a = [0, 1] + [0] * (top - 2)
    for n in range(2, top):
        p = next(d for d in range(2, n + 1) if n % d == 0)
        pk = p
        while n % (pk * p) == 0:
            pk *= p
        if pk < n:
            a[n] = a[pk] * a[n // pk]
        elif pk == p:
            squares = [0] * p
            for y in range(p):
                squares[y * y % p] += 1
            a[p] = p - sum(squares[(x ** 3 + a2 * x * x + a4 * x + a6) % p] for x in range(p))
        else:
            a[n] = a[p] * a[n // p] - (0 if level % p == 0 else p * a[n // (p * p)])
    return FracSeries(1, dict(enumerate(a)), cutoff)


_NEWFORM_SPECS = {
    "f11": [(1, 2), (11, 2)],
    "f14": [(1, 1), (2, 1), (7, 1), (14, 1)],
    "f15": [(1, 1), (3, 1), (5, 1), (15, 1)],
    "f20": [(2, 2), (10, 2)],
    "f23b": [(1, 2), (23, 2)],
}


def newform(label: str, cutoff) -> FracSeries:
    """Weight-2 newform by label: f11, f14, f15, f20, f23a, f23b, f44."""
    cutoff = as_rat(cutoff)
    if label in _NEWFORM_SPECS:
        return eta_quotient(_NEWFORM_SPECS[label], cutoff)
    if label == "f23a":
        out = eta_quotient([(1, 3), (23, 3), (2, -1), (46, -1)], cutoff)
        out = out + eta_quotient([(1, 2), (23, 2)], cutoff).scale(3)
        out = out + eta_quotient([(1, 1), (2, 1), (23, 1), (46, 1)], cutoff).scale(4)
        out = out + eta_quotient([(2, 2), (46, 2)], cutoff).scale(4)
        return out
    if label == "f44":  # Cremona's curve 44a1
        return _curve_newform(1, 3, -1, 44, cutoff)
    raise UnknownClass(f"unknown newform {label!r}")


@memo
def unary_theta(m: int, r: int, qcut) -> FracSeries:
    """S^(m)_r = sum over j = r (mod 2m) of j q^(j^2/4m), built at the deepest
    cutoff asked (``data.memo``)."""
    return FracSeries.from_terms(((Fraction(j * j, 4 * m), j)
                                  for j in _theta_lattice(m, r, qcut)), qcut)


# ---------------------------------------------------------------------------
# mock theta functions

def _eulerian(cutoff, valuation, numerator, denominator, sign=None):
    """Sum over n of sign(n) * q^valuation(n) * numerator(n)/denominator(n),
    exact below ``cutoff``.

    Term n is built on one int list t, t[j] its coefficient at q^(v + j) with
    v = valuation(n), starting from t = [+-1].  Multiplying by a factor
    (1 + s*q^e) adds s*t[j - e] to every t[j] at once; dividing by it runs
    t[j] -= s*t[j - e] upwards along each residue class mod e, so each step
    reads a quotient coefficient already final.  Every factor starts with 1,
    so the division never divides a coefficient: it is exact, in ints.
    """
    cutoff = as_rat(cutoff)
    top = ceil(cutoff)
    total = [0] * max(top, 0)
    n = 0
    while (v := valuation(n)) < cutoff:
        t = [0] * (top - v)
        t[0] = -1 if sign is not None and sign(n) else 1
        for s, e in numerator(n):
            t[e:] = [x + s * y for x, y in zip(t[e:], t)]
        for s, e in denominator(n):
            for r in range(min(e, len(t) - e)):  # the classes with two terms or more
                t[r::e] = accumulate(t[r::e], lambda done, x: x - s * done)
        total[v:] = [x + y for x, y in zip(total[v:], t)]
        n += 1
    return FracSeries(1, dict(enumerate(total)), cutoff)


# label: (valuation, numerator, denominator, sign) as functions of the
# summation index n, read by _eulerian; numerator and denominator list the
# factors (1 + s*q^e) as (s, e).  chi and rho keep to this form through
# 1 - x + x^2 = (1 + x^3)/(1 + x) and 1 + x + x^2 = (1 - x^3)/(1 - x).
_MOCK_THETA = {
    # order 3
    "f": (lambda n: n * n, lambda n: [],
          lambda n: [(1, k) for k in range(1, n + 1)] * 2, None),
    "phi": (lambda n: n * n, lambda n: [],
            lambda n: [(1, 2 * k) for k in range(1, n + 1)], None),
    "chi": (lambda n: n * n, lambda n: [(1, k) for k in range(1, n + 1)],
            lambda n: [(1, 3 * k) for k in range(1, n + 1)], None),
    "omega": (lambda n: 2 * n * (n + 1), lambda n: [],
              lambda n: [(-1, 2 * k + 1) for k in range(n + 1)] * 2, None),
    "rho": (lambda n: 2 * n * (n + 1), lambda n: [(-1, 2 * k + 1) for k in range(n + 1)],
            lambda n: [(-1, 6 * k + 3) for k in range(n + 1)], None),
    # order 2 and 8
    "mu2": (lambda n: n * n, lambda n: [(-1, 2 * k - 1) for k in range(1, n + 1)],
            lambda n: [(1, 2 * k) for k in range(1, n + 1)] * 2, lambda n: n % 2),
    "U0": (lambda n: n * n, lambda n: [(1, 2 * k - 1) for k in range(1, n + 1)],
           lambda n: [(1, 4 * k) for k in range(1, n + 1)], None),
    "U1": (lambda n: (n + 1) ** 2, lambda n: [(1, 2 * k - 1) for k in range(1, n + 1)],
           lambda n: [(1, 4 * k - 2) for k in range(1, n + 2)], None),
    "S0": (lambda n: n * n, lambda n: [(1, 2 * k - 1) for k in range(1, n + 1)],
           lambda n: [(1, 2 * k) for k in range(1, n + 1)], None),
    "S1": (lambda n: n * (n + 2), lambda n: [(1, 2 * k - 1) for k in range(1, n + 1)],
           lambda n: [(1, 2 * k) for k in range(1, n + 1)], None),
    "T0": (lambda n: (n + 1) * (n + 2), lambda n: [(1, 2 * k) for k in range(1, n + 1)],
           lambda n: [(1, 2 * k - 1) for k in range(1, n + 2)], None),
    "T1": (lambda n: n * (n + 1), lambda n: [(1, 2 * k) for k in range(1, n + 1)],
           lambda n: [(1, 2 * k - 1) for k in range(1, n + 2)], None),
    # order 10
    "phi10": (lambda n: n * (n + 1) // 2, lambda n: [],
              lambda n: [(-1, 2 * k - 1) for k in range(1, n + 2)], None),
    "psi10": (lambda n: (n + 1) * (n + 2) // 2, lambda n: [],
              lambda n: [(-1, 2 * k - 1) for k in range(1, n + 2)], None),
    "X": (lambda n: n * n, lambda n: [],
          lambda n: [(1, k) for k in range(1, 2 * n + 1)], lambda n: n % 2),
    "chi10": (lambda n: (n + 1) ** 2, lambda n: [],
              lambda n: [(1, k) for k in range(1, 2 * n + 2)], lambda n: n % 2),
}


@memo
def mock_theta(label: str, qcut) -> FracSeries:
    """Classical mock theta function by label, exact below ``qcut``.

    Labels: order 3: f, phi, chi, omega, rho; order 2/8: mu2, U0, U1,
    S0, S1, T0, T1; order 10: phi10, psi10, X, chi10.  Built once per
    label, at the deepest cutoff asked (``data.memo``).
    """
    try:
        row = _MOCK_THETA[label]
    except KeyError:
        raise UnknownClass(f"unknown mock theta {label!r}") from None
    return _eulerian(qcut, *row)


# ---------------------------------------------------------------------------
# eta multiplier

def _dedekind_sum(d: int, c: int) -> Fraction:
    def saw(x: Fraction) -> Fraction:
        if x.denominator == 1:
            return Fraction(0)
        return x - (x.numerator // x.denominator) - Fraction(1, 2)

    s = Fraction(0)
    for m in range(1, c):
        s += saw(Fraction(m, c)) * saw(Fraction(m * d, c))
    return s


def dedekind_epsilon(a: int, b: int, c: int, d: int) -> int:
    """Eta multiplier as the integer k (mod 24) with epsilon = e(k/24)."""
    if a * d - b * c != 1:
        raise NotUnimodular(f"det != 1 for {(a, b, c, d)}")
    if c < 0 or (c == 0 and d < 0):
        # epsilon(-gamma) = epsilon(gamma) * e(1/4)
        return (dedekind_epsilon(-a, -b, -c, -d) + 6) % 24
    if c == 0:
        return (-b) % 24
    x = Fraction(-(a + d), 24 * c) + _dedekind_sum(d, c) / 2 + Fraction(1, 8)
    k = 24 * x
    if k.denominator != 1:
        raise ArithmeticError(f"eta multiplier not a 24th root for {(a, b, c, d)}")
    return k.numerator % 24
