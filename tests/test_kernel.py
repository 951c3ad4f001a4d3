"""Seeded differential tests of the two convolution kernels.

``qseries._convolve`` (one packed int per q-row, one big-integer product per
pair of rows), ``qseries._convolve_line`` (one packed int per FracSeries) and
both ``*`` operators are compared with a schoolbook product written here on
Fractions only, with exponents compared as Fractions against the cutoff.  The
operands mix ints, Fractions, negative values and terms that cancel; the kernels
get them as int numerators over one denominator per operand, as the series
store them.  The cutoffs are fractional with products landing on both sides of
the integer bound ceil(cut * d).  Targeted cases cover the packing: strided
keys, negative keys and powers, coefficients that fill the slot width exactly,
rows that widen with q as a Jacobi form's do, product rows whose later pairs
start lower in y than the first, one-term rows against wide rows,
denominators, empty operands and cutoffs below the lowest product key.
"""
import random
from fractions import Fraction as F
from math import ceil, gcd, isqrt, lcm

from moonshine.jacobi import WindowedSeries
from moonshine.qseries import FracSeries, _convolve, _convolve_line

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


def flat(r):
    return [(k, y, c) for k, row in r.items() for y, c in row.items()]


def numerators(r):
    """Rows of ints and Fractions as int numerators over their lcm denominator."""
    den = lcm(*(F(c).denominator for row in r.values() for c in row.values()))
    return {k: {y: int(c * den) for y, c in row.items()} for k, row in r.items()}, den


def assert_product(ra, rb, kcut):
    """``_convolve`` on the numerators, over the product of the two denominators,
    equals the reference and holds only nonzero ints."""
    (na, da), (nb, db) = numerators(ra), numerators(rb)
    out = _convolve(na, nb, kcut)
    got = {(F(k), F(y)): F(c, da * db) for k, row in out.items() for y, c in row.items()}
    assert got == reference(flat(ra), flat(rb), kcut)
    for row in out.values():
        assert row
        assert all(type(c) is int and c for c in row.values())
    return out


def assert_reduced(series):
    """The storage of either series class: int numerators, a positive int
    denominator, and no common factor of the two but 1."""
    nums = (list(series.coeffs.values()) if isinstance(series, FracSeries)
            else [c for row in series.rows.values() for c in row.values()])
    assert all(type(c) is int and c for c in nums) and type(series.cden) is int
    assert series.cden > 0 and gcd(series.cden, *nums) == 1


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
        out = assert_product(ra, rb, kbound)
        kept_last += kbound - 1 in out
    assert kept_last > 200


def test_convolve_strided_keys():
    # aligned lambency-2 rows sit on every 8th key, and y on even powers
    rng = random.Random(SEED + 3)
    for _ in range(60):
        ra = rows(rng, [8 * i + 3 for i in rng.sample(range(10), 4)], [-4, -2, 0, 2, 6])
        rb = rows(rng, [8 * i - 5 for i in rng.sample(range(10), 4)], [-2, 2, 4])
        assert_product(ra, rb, rng.randint(-10, 90))


def test_convolve_negative_keys_and_powers():
    rng = random.Random(SEED + 4)
    for _ in range(60):
        ra = rows(rng, rng.sample(range(-30, -10), 5), [-9, -5, -4])
        rb = rows(rng, rng.sample(range(-12, 3), 5), [-7, -1, 2])
        assert_product(ra, rb, rng.randint(-45, 0))


def test_convolve_slot_width_is_tight():
    # n pairs of coefficients of ba and bb bits land on slot n - 1; where
    # ba + bb + bits(n) is a multiple of 8 and n = 3 or 7, the sum needs every
    # bit of the bound, so a slot one bit narrower is a byte short
    tight = 0
    for ba in range(297, 305):
        for bb in (299, 300, 301):
            for n in (1, 2, 3, 4, 7):
                for sa, sb in ((1, 1), (1, -1), (-1, -1)):
                    ra = {k: {0: sa * (2 ** ba - 1)} for k in range(n)}
                    rb = {k: {0: sb * (2 ** bb - 1)} for k in range(n)}
                    out = assert_product(ra, rb, n)
                    assert out[n - 1][0] == sa * sb * n * (2 ** ba - 1) * (2 ** bb - 1)
                    tight += n in (3, 7) and (ba + bb + n.bit_length()) % 8 == 0
    assert tight >= 12



def jacobi_rows(rng, j, keys):
    """Rows k holding every y-power |y| <= isqrt(4jk + j^2), the span of a weak Jacobi
    form of index j, so the rows widen with k."""
    return {k: {y: coefficient(rng) for y in range(-isqrt(4 * j * k + j * j),
                                                   isqrt(4 * j * k + j * j) + 1)}
            for k in keys}


def test_convolve_jacobi_shaped_rows():
    rng = random.Random(SEED + 6)
    for _ in range(40):
        n = rng.randint(1, 8)
        ra = jacobi_rows(rng, rng.randint(1, 4), range(n))
        rb = jacobi_rows(rng, rng.randint(1, 4), rng.sample(range(10), rng.randint(1, 6)))
        assert_product(ra, rb, rng.randint(1, 2 * n + 4))


def test_convolve_later_pair_starts_lower():
    # a's rows move down in y with k and b's up, so the pair (0, k) of product row k
    # starts highest and each later pair (i, k - i) lower: every row is re-based
    rng = random.Random(SEED + 7)
    for _ in range(60):
        n = rng.randint(2, 8)
        ra = {k: {y: coefficient(rng) for y in range(-4 * k, -4 * k + rng.randint(1, 4))}
              for k in range(n)}
        rb = {k: {y: coefficient(rng) for y in range(3 * k, 3 * k + rng.randint(1, 5))}
              for k in range(n)}
        ra[0][0], rb[n - 1][3 * n - 3] = 1, 1  # the first pair of row n - 1 is nonzero
        out = assert_product(ra, rb, rng.randint(n, 2 * n))
        assert min(out[n - 1]) < 3 * n - 3


def test_one_term_rows_times_wide_rows():
    # a FracSeries lifted to one-term rows against a Jacobi-shaped WindowedSeries
    rng = random.Random(SEED + 8)
    for _ in range(30):
        f = FracSeries(1, {k: coefficient(rng) for k in range(rng.randint(1, 40))}, 40)
        w = WindowedSeries(1, jacobi_rows(rng, rng.randint(1, 6), range(rng.randint(1, 12))),
                           F(rng.randint(3, 40), rng.randint(1, 3)))
        prod = w * f
        assert prod.qcut == min(w.qcut + low(f.items(), f.cutoff), f.cutoff + w.low_q())
        want = reference(list(w.items()), [(e, 0, c) for e, c in f.items()], prod.qcut)
        assert {(q, y): c for q, y, c in prod.items()} == want
        assert_reduced(prod)


def test_line_product_cut_on_both_sides():
    # the kernel of FracSeries: strided keys, either sign, at every cut around the
    # products; then through * at cutoffs just below and just above a product key K
    rng = random.Random(SEED + 9)
    for _ in range(100):
        step = rng.choice([1, 2, 3, 6])
        a, b = ({rng.randint(-3, 3) + step * i: rng.choice([-1, 1]) * rng.randint(1, 2 ** 70)
                 for i in rng.sample(range(12), rng.randint(1, 6))} for _ in "ab")
        for kcut in range(min(a) + min(b) - 1, max(a) + max(b) + 2):
            got = {(F(k), F(0)): F(c) for k, c in _convolve_line(a, b, kcut).items()}
            assert got == reference([(k, 0, c) for k, c in a.items()],
                                    [(k, 0, c) for k, c in b.items()], kcut)
    assert _convolve_line({0: 1}, {0: 1}, 10 ** 6) == {0: 1}
    for _ in range(100):
        d = rng.choice([1, 2, 3, 4, 6])
        ka, kb = ({0, *rng.sample(range(1, 20), rng.randint(1, 6))} for _ in "ab")
        K = rng.choice([x + y for x in ka for y in kb if x and y])  # both below cut * d
        for cut, kept in ((F(3 * K - 1, 3 * d), False), (F(3 * K + 1, 3 * d), True)):
            fa, fb = (FracSeries(d, {k: coefficient(rng) or 1 for k in ks}, cut) for ks in (ka, kb))
            prod = fa * fb
            assert prod.cutoff == cut and ceil(cut * d) == K + kept
            want = reference([(e, 0, c) for e, c in fa.items()],
                             [(e, 0, c) for e, c in fb.items()], cut)
            assert {(e, F(0)): c for e, c in prod.items()} == want
            assert_reduced(prod)

def windowed_product(ra, rb, kcut):
    """``*`` on the rows as WindowedSeries, cut at kcut, against the reference."""
    prod = (WindowedSeries(1, ra, 20) * WindowedSeries(1, rb, 20)).truncate(kcut)
    assert {(q, y): c for q, y, c in prod.items()} == reference(flat(ra), flat(rb), kcut)
    assert_reduced(prod)
    return prod


def test_product_of_rational_rows():
    rng = random.Random(SEED + 5)
    for _ in range(60):
        ra = {k: {y: F(rng.randint(-9, 9), rng.choice([1, 3, 4])) for y in (0, 1, 3)}
              for k in rng.sample(range(8), 3)}
        rb = {k: {y: F(rng.randint(-9, 9), rng.choice([1, 5, 6])) for y in (-1, 0)}
              for k in rng.sample(range(8), 3)}
        windowed_product(ra, rb, rng.randint(1, 16))


def test_product_of_integral_fractions_stores_reduced_numerators():
    ra = {0: {0: F(4, 2), 1: F(3)}, 1: {0: F(1, 2)}}
    rb = {0: {0: F(6, 3)}, 2: {-1: F(2, 4)}}
    prod = windowed_product(ra, rb, 3)
    assert {(int(q), int(y)): c for q, y, c in prod.items()} == \
        {(0, 0): 4, (0, 1): 6, (1, 0): 1, (2, -1): 1, (2, 0): F(3, 2)}
    assert (prod.rows, prod.cden) == ({0: {0: 8, 1: 12}, 1: {0: 2}, 2: {-1: 2, 0: 3}}, 2)


def test_convolve_empty_operand():
    a = {0: {0: 1, 1: -2}}
    for empty in ({}, {3: {}}, {0: {0: 0, 2: F(0)}}):
        assert _convolve(a, empty, 10) == {}
        assert _convolve(empty, a, 10) == {}


def test_convolve_cut_at_or_below_lowest_key():
    # the lowest product key is -3 + 5 = 2
    ra, rb = {-3: {0: 1}, 1: {1: 2}}, {5: {-1: 3}, 9: {0: 1}}
    assert _convolve(ra, rb, 2) == {}
    assert _convolve(ra, rb, -7) == {}
    assert _convolve(ra, rb, 3) == {2: {-1: 3}}


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
        assert_reduced(prod)
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
    assert (prod.coeffs, prod.cden) == ({0: 6, 1: 3, 4: -16}, 3)
    assert_reduced(prod)


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
        assert_reduced(prod)
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
