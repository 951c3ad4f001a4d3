"""Exact scalars: rationals and quadratic irrationalities.

Rationals are ``fractions.Fraction`` (plain ``int`` is accepted anywhere a
rational is, and arithmetic never leaves the exact world).  QuadValue adds a
single square root of a square-free integer, enough for every character table
entry in the bundled data, such as b_n = (-1+sqrt(-n))/2 and a_n = sqrt(-n).
The tables themselves are parsed to ints (``groups.character_table``);
``CharacterTable.values`` builds their QuadValues on first read.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import MixedDiscriminant


def as_rat(x) -> Fraction:
    """Coerce an int, Fraction or 'p/q' string to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def squarefree_part(n: int) -> tuple[int, int]:
    """Write n = s^2 * d with d square-free; return (d, s).  n may be negative."""
    if n == 0:
        return 0, 1
    sign = -1 if n < 0 else 1
    n = abs(n)
    s, d, p = 1, 1, 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        s *= p ** (e // 2)
        if e % 2:
            d *= p
        p += 1 if p == 2 else 2
    return sign * d * n, s


@dataclass(frozen=True)
class QuadValue:
    """An exact value rat + irr*sqrt(disc) with disc square-free.

    A purely rational value is stored canonically with irr = 0, disc = 0.
    """

    rat: Fraction
    irr: Fraction = Fraction(0)
    disc: int = 0

    def __post_init__(self):
        object.__setattr__(self, "rat", as_rat(self.rat))
        object.__setattr__(self, "irr", as_rat(self.irr))
        if self.irr == 0 and self.disc != 0:
            object.__setattr__(self, "disc", 0)
        if self.irr != 0:
            d, s = squarefree_part(self.disc)
            if s != 1:
                object.__setattr__(self, "disc", d)
                object.__setattr__(self, "irr", self.irr * s)
            if d in (0, 1):
                object.__setattr__(self, "rat", self.rat + self.irr * d)
                object.__setattr__(self, "irr", Fraction(0))
                object.__setattr__(self, "disc", 0)

    @classmethod
    def of(cls, x) -> "QuadValue":
        if isinstance(x, QuadValue):
            return x
        return cls(as_rat(x))

    @property
    def is_rational(self) -> bool:
        return self.irr == 0

    def _common_disc(self, other: "QuadValue") -> int:
        if self.irr == 0:
            return other.disc
        if other.irr == 0 or self.disc == other.disc:
            return self.disc
        raise MixedDiscriminant(f"sqrt({self.disc}) vs sqrt({other.disc})")

    def __add__(self, other):
        other = QuadValue.of(other)
        d = self._common_disc(other)
        return QuadValue(self.rat + other.rat, self.irr + other.irr, d)

    __radd__ = __add__

    def __neg__(self):
        return QuadValue(-self.rat, -self.irr, self.disc)

    def __sub__(self, other):
        return self + (-QuadValue.of(other))

    def __rsub__(self, other):
        return QuadValue.of(other) + (-self)

    def __mul__(self, other):
        other = QuadValue.of(other)
        d = self._common_disc(other)
        rat = self.rat * other.rat + self.irr * other.irr * d
        irr = self.rat * other.irr + self.irr * other.rat
        return QuadValue(rat, irr, d)

    __rmul__ = __mul__

    def conj(self) -> "QuadValue":
        return QuadValue(self.rat, -self.irr, self.disc)

    def norm(self) -> Fraction:
        """Field norm: value times its conjugate (always rational)."""
        return self.rat * self.rat - self.irr * self.irr * self.disc

    def __truediv__(self, other):
        other = QuadValue.of(other)
        n = other.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero QuadValue")
        return self * other.conj() * QuadValue(Fraction(1) / n)

    def __bool__(self):
        return self.rat != 0 or self.irr != 0

    def __str__(self):
        if self.irr == 0:
            return str(self.rat)
        return f"{self.rat}+{self.irr}*sqrt({self.disc})"

