from fractions import Fraction as F

import pytest

from moonshine.algebra import QuadValue, squarefree_part
from moonshine.errors import MixedDiscriminant


def b_value(n: int) -> QuadValue:
    """The character-table abbreviation b_n = (-1 + sqrt(-n)) / 2."""
    return QuadValue(F(-1, 2), F(1, 2), -n)


def a_value(n: int) -> QuadValue:
    """The character-table abbreviation a_n = sqrt(-n)."""
    return QuadValue(F(0), F(1), -n)


def test_b7_plus_conjugate():
    b7 = b_value(7)
    assert b7 + b7.conj() == QuadValue.of(-1)


def test_b7_times_conjugate():
    b7 = b_value(7)
    assert b7 * b7.conj() == QuadValue.of(2)


def test_a2_squared():
    a2 = a_value(2)
    assert a2 * a2 == QuadValue.of(-2)


def test_mixed_discriminant_raises():
    with pytest.raises(MixedDiscriminant):
        b_value(7) * b_value(15)


def test_rational_times_irrational_allowed():
    assert QuadValue.of(3) * a_value(5) == QuadValue(0, 3, -5)


def test_canonical_squarefree_storage():
    v = QuadValue(F(0), F(1), -8)  # sqrt(-8) = 2 sqrt(-2)
    assert v.disc == -2 and v.irr == 2


def test_sqrt_of_square_collapses():
    v = QuadValue(F(1), F(3), 4)   # 1 + 3*sqrt(4) = 7
    assert v.is_rational and v.rat == 7


def test_squarefree_part():
    assert squarefree_part(720) == (5, 12)
    assert squarefree_part(-8) == (-2, 2)
    assert squarefree_part(1) == (1, 1)


def test_field_axioms_randomized(rng):
    vals = [QuadValue(F(rng.randint(-5, 5), rng.randint(1, 4)),
                      F(rng.randint(-5, 5), rng.randint(1, 4)), -7)
            for _ in range(12)]
    for a in vals[:4]:
        for b in vals[4:8]:
            for c in vals[8:]:
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c
                assert a * b == b * a


def test_conj_is_ring_homomorphism(rng):
    for _ in range(20):
        a = QuadValue(F(rng.randint(-9, 9), 2), F(rng.randint(-9, 9), 2), -11)
        b = QuadValue(F(rng.randint(-9, 9), 2), F(rng.randint(-9, 9), 2), -11)
        assert (a * b).conj() == a.conj() * b.conj()
        assert (a + b).conj() == a.conj() + b.conj()
        assert a.conj().conj() == a


def test_division():
    b = b_value(7)
    assert b / b == QuadValue.of(1)
    assert (b * 4) / 2 == b * 2
