"""Seeded differential tests of the one convolution kernel.

``qseries._convolve`` and both ``*`` operators are compared with a
schoolbook product written here on Fractions only, with exponents compared
as Fractions against the cutoff.  The operands mix ints, Fractions, negative
values and terms that cancel, and the cutoffs are fractional with products
landing on both sides of the integer bound ceil(cut * d).
"""
import random
from fractions import Fraction as F
from math import ceil

from moonshine.jacobi import WindowedSeries
from moonshine.qseries import FracSeries, _convolve

SEED = 20121


def low(terms, cutoff):
    """Lowest exponent that may be nonzero: the cutoff when no term is stored."""
    return min((F(t[0]) for t in terms), default=cutoff)


def reference(a_terms, b_terms, cut):
    """sum of ca*cb at (qa+qb, ya+yb) over the pairs with qa + qb < cut.

    Terms are (q-exponent, y-power, coefficient) triples; zeros dropped.
    """
    out = {}
    for qa, ya, ca in a_terms:
        for qb, yb, cb in b_terms:
            if F(qa) + F(qb) < cut:
                key = (F(qa) + F(qb), F(ya) + F(yb))
                out[key] = out.get(key, F(0)) + F(ca) * F(cb)
    return {key: c for key, c in out.items() if c != 0}


def coefficient(rng):
    """An int or a Fraction, either sign, small enough to cancel often."""
    return rng.choice([rng.randint(-3, 3), F(rng.randint(-5, 5), rng.randint(1, 4))])


def rows(rng, keys, ys):
    return {k: {y: coefficient(rng) for y in rng.sample(ys, rng.randint(1, len(ys)))}
            for k in keys}


def test_convolve_matches_reference():
    rng = random.Random(SEED)
    kept_last = 0
    for _ in range(300):
        kbound = rng.randint(2, 30)
        ra = rows(rng, rng.sample(range(-4, kbound), rng.randint(1, 6)), [-2, -1, 0, 1, 2])
        rb = rows(rng, rng.sample(range(-4, kbound + 4), rng.randint(1, 6)), [-1, 0, 3])
        # one pair sums to kbound - 1 (kept) and one to kbound (dropped)
        ka = rng.choice(list(ra))
        rb.setdefault(kbound - 1 - ka, {0: 1})
        rb.setdefault(kbound - ka, {0: -1})
        got = {(F(k), F(y)): F(c) for k, row in _convolve(ra, rb, kbound).items()
               for y, c in row.items() if c != 0}
        flat = lambda r: [(k, y, c) for k, row in r.items() for y, c in row.items()]
        want = reference(flat(ra), flat(rb), kbound)
        assert got == want
        kept_last += any(k == kbound - 1 for k, _ in want)
    assert kept_last > 200


def frac_series(rng, denom, cutoff, low):
    """Random terms on q^(1/denom) from q^low up to the cutoff."""
    kcut = ceil(cutoff * denom)
    keys = rng.sample(range(low * denom, kcut), min(kcut - low * denom, rng.randint(2, 9)))
    return FracSeries(denom, {k: coefficient(rng) for k in keys}, cutoff)


def test_fracseries_product_matches_reference():
    rng = random.Random(SEED + 1)
    boundary = 0
    for i in range(300):
        da, db = rng.choice([1, 2, 3, 4, 6]), rng.choice([1, 2, 3, 4, 6])
        ca = F(rng.randint(3, 40), rng.randint(1, 7))
        cb = ca if rng.random() < 0.5 else F(rng.randint(3, 40), rng.randint(1, 7))
        a = frac_series(rng, da, ca, rng.randint(-1, 0))
        b = frac_series(rng, db, cb, rng.randint(-1, 0))
        # zero operands, either and both, without moving the random stream
        a, b = a.scale(0) if i % 10 == 0 else a, b.scale(0) if i % 15 == 0 else b
        prod = a * b
        cut = min(a.cutoff + low(b.items(), b.cutoff), b.cutoff + low(a.items(), a.cutoff))
        assert prod.cutoff == cut
        want = reference([(e, 0, c) for e, c in a.items()],
                         [(e, 0, c) for e, c in b.items()], cut)
        assert {(e, F(0)): c for e, c in prod.items()} == want
        assert all(type(c) in (int, F) for c in prod.coeffs.values())
        sums = {ea + eb for ea, _ in a.items() for eb, _ in b.items()}
        d = prod.denom
        if F(ceil(cut * d) - 1, d) in sums and F(ceil(cut * d), d) in sums:
            boundary += 1
    assert boundary > 50


def test_fracseries_boundary_rounding():
    # cut * d = 14/3: q^(4/2) is below 7/3 and kept, q^(5/2) is not
    a = FracSeries(2, {0: 1, 1: F(1, 2), 4: -3}, F(7, 3))
    b = FracSeries(2, {0: 2, 4: F(2, 3)}, F(7, 3))
    prod = a * b
    assert prod.cutoff == F(7, 3)
    assert dict(prod.items()) == {0: 2, F(1, 2): 1, 2: F(-16, 3)}
    assert prod.coeffs == {0: 2, 1: 1, 4: F(-16, 3)}
    assert [type(prod.coeffs[k]) for k in (0, 1, 4)] == [int, int, F]


def windowed(rng, denom, ydenom, cutoff, low):
    kcut = ceil(cutoff * denom)
    keys = rng.sample(range(low * denom, kcut), min(kcut - low * denom, rng.randint(2, 7)))
    return WindowedSeries(denom, rows(rng, keys, [-2, -1, 0, 1, 3]), cutoff, ydenom=ydenom)


def test_windowed_product_matches_reference():
    rng = random.Random(SEED + 2)
    boundary = 0
    for i in range(200):
        a = windowed(rng, rng.choice([1, 2, 8]), rng.choice([1, 2]),
                     F(rng.randint(3, 30), rng.randint(1, 8)), rng.randint(-1, 0))
        b = windowed(rng, rng.choice([1, 3, 4]), rng.choice([1, 2]),
                     F(rng.randint(3, 30), rng.randint(1, 8)), rng.randint(-1, 0))
        a, b = a.scale(0) if i % 10 == 0 else a, b.scale(0) if i % 15 == 0 else b
        prod = a * b
        cut = min(a.qcut + low(b.items(), b.qcut), b.qcut + low(a.items(), a.qcut))
        assert prod.qcut == cut
        want = reference(list(a.items()), list(b.items()), cut)
        assert {(q, y): c for q, y, c in prod.items()} == want
        assert all(type(c) in (int, F) for row in prod.rows.values() for c in row.values())
        sums = {qa + qb for qa, _, _ in a.items() for qb, _, _ in b.items()}
        d = prod.denom
        if F(ceil(cut * d) - 1, d) in sums and F(ceil(cut * d), d) in sums:
            boundary += 1
    assert boundary > 30


def test_product_cutoff_with_zero_operands():
    # FracSeries(1, {5: 1}, 6) agrees with zero(5) below q^5, and its product
    # with b has coefficient 1 at q^4: a zero factor's low is its cutoff
    b = FracSeries(1, {-1: 1, 0: 3}, 10)
    assert (FracSeries(1, {5: 1}, 6) * b).coefficient(4) == 1
    assert (FracSeries.zero(5) * b).cutoff == 4
    assert (b * FracSeries.zero(5)).cutoff == 4
    assert (FracSeries.zero(-1) * FracSeries.zero(-1)).cutoff == -2
    w = WindowedSeries(1, {}, -1)
    assert (w * w).qcut == -2
