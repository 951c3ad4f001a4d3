import hashlib
import random
from fractions import Fraction as F
from math import gcd, lcm

import pytest

from moonshine import jacobi as jb
from moonshine import mckay
from moonshine.data import LAMBENCIES, memo, set_data_dir
from moonshine.errors import (CutoffUnderflow, NotInvertible, OutOfRange, UnboundedSupport,
                              WindowTooNarrow)
from moonshine.qseries import FracSeries, eta, eta_quotient, unary_theta


def row(series, n):
    return {float(y) if y.denominator > 1 else int(y): c
            for qe, y, c in series.items() if qe == n}


# -- theta functions ---------------------------------------------------------

def test_theta_specializations():
    t2 = jb.jacobi_theta(2, 7).specialize_z0()
    assert t2.low() == F(1, 8)
    assert [t2.coefficient(F(1, 8) + k) for k in range(4)] == [2, 2, 0, 2]
    t3 = jb.jacobi_theta(3, 5).specialize_z0()
    assert [t3.coefficient(F(k, 2)) for k in range(5)] == [1, 2, 0, 0, 2]


def test_theta1_leading_row():
    t1 = jb.jacobi_theta(1, 1)
    assert row(t1, F(1, 8)) == {0.5: 1, -0.5: -1}


def test_theta1_antisymmetric():
    t1 = jb.jacobi_theta(1, 4)
    for qe, yp, c in t1.items():
        assert t1.coefficient(qe, -yp) == -c


def _mul_upto(a, b, c):
    """Product of {(q-exponent, y-power): coefficient} dicts below q^c."""
    out = {}
    for (qa, ya), ca in a.items():
        for (qb, yb), cb in b.items():
            if qa + qb < c:
                out[qa + qb, ya + yb] = out.get((qa + qb, ya + yb), 0) + ca * cb
    return {k: v for k, v in out.items() if v}


def _triple_product(i, c):
    """theta_1,2 = q^(1/8)(y^(1/2) -+ y^(-1/2)) prod (1-q^n)(1 -+ y q^n)(1 -+ y^-1 q^n),
    theta_3,4 = prod (1-q^n)(1 +- y q^(n-1/2))(1 +- y^-1 q^(n-1/2)), expanded below q^c."""
    s = -1 if i in (1, 4) else 1
    one = {(0, 0): 1}
    if i <= 2:
        out, lag = _mul_upto(one, {(F(1, 8), F(1, 2)): 1, (F(1, 8), F(-1, 2)): s}, c), 0
    else:
        out, lag = one, F(1, 2)
    n = 1
    while n - lag < c:
        for factor in ({(n, 0): -1}, {(n - lag, 1): s}, {(n - lag, -1): s}):
            out = _mul_upto(out, {**one, **factor}, c)
        n += 1
    return sorted((F(q), F(y), v) for (q, y), v in out.items())


@pytest.mark.parametrize("c", [F(1, 8), F(9, 8), F(113, 16), 31], ids=str)
def test_thetas_match_triple_product(c):
    for i in (1, 2, 3, 4):
        th = jb.jacobi_theta(i, c)
        assert list(th.items()) == _triple_product(i, c), i
        assert th.qcut == c, i


@pytest.mark.parametrize("annulus", [jb.LOWER, jb.UPPER])
@pytest.mark.parametrize("c", [5, F(113, 16), 12], ids=str)
def test_psi_times_theta1_squared(c, annulus):
    # Psi_{1,1} theta_1(tau,z)^2 = theta_1(tau,2z) eta^3, with the units -i of
    # both thetas divided out; this pins psi_one_one = mu^(1)_0
    t1 = jb.jacobi_theta(1, c)
    t1_2z = jb.WindowedSeries(t1.denom, {k: {2 * y: F(v, t1.cden) for y, v in row.items()}
                                         for k, row in t1.rows.items()},
                              t1.qcut, ydenom=t1.ydenom)
    sq = t1 * t1
    lhs = jb.windowed_mul(sq, jb.psi_one_one(c, 6 + int(sq.max_abs_y()), annulus),
                          ywindow=6)
    rhs = jb._clip(t1_2z * eta(c) ** 3, 6, annulus)
    assert list(lhs.items()) == list(rhs.items())
    assert (lhs.qcut, lhs.ywindow, lhs.annulus) == (rhs.qcut, 6, annulus)


def test_index_theta_lattice():
    th = jb.index_theta(4, 1, 6)
    assert [(qe, int(yp)) for qe, yp, _ in th.items()] == \
        [(F(1, 16), 1), (F(49, 16), -7), (F(81, 16), 9)]


def test_hat_theta_diagonal_coefficient():
    for m in (2, 3, 5):
        for r in range(1, m):
            assert jb.hat_theta(m, r, 4).coefficient(F(r * r, 4 * m), r) == -1


def test_index_theta_r0_specialization():
    th = jb.index_theta(2, 0, 9).specialize_z0()
    assert [th.coefficient(k) for k in range(9)] == [1, 0, 2, 0, 0, 0, 0, 0, 2]


def dz_at_z0(s):
    """(1/2 pi i) d/dz at z = 0 of a complete series: each coefficient weighted by its y-power."""
    return FracSeries(s.denom, {k: sum(F(y * c, s.ydenom * s.cden) for y, c in row.items())
                                for k, row in s.rows.items()}, s.qcut)


def test_dz_gives_unary_theta():
    for c in (F(1, 8), 1, F(113, 16), 8):
        for m in range(1, 7):
            for r in range(-3 * m, 3 * m + 1):
                assert dz_at_z0(jb.index_theta(m, r, c)) == unary_theta(m, r, c), (m, r, c)


def test_theta_series_depend_on_r_mod_2m():
    # the lattice j = r (mod 2m) is all that r names, far outside 0..2m too:
    # S^(2)_(-3) = S^(2)_1 = q^(1/8) + ..., though j = -3 itself sits at q^(9/8)
    for c in (F(1, 8), 1, F(113, 16)):
        for m in range(1, 7):
            for r in range(-3 * m, 3 * m + 1):
                th, u = jb.index_theta(m, r, c), unary_theta(m, r, c)
                th0, u0 = jb.index_theta(m, r % (2 * m), c), unary_theta(m, r % (2 * m), c)
                assert (list(th.items()), th.qcut) == (list(th0.items()), th0.qcut), (m, r, c)
                assert (list(u.items()), u.cutoff) == (list(u0.items()), u0.cutoff), (m, r, c)
    assert unary_theta(2, -3, 1).coefficient(F(1, 8)) == 1


def test_eta_is_a_difference_of_index_6_thetas():
    # Euler's pentagonal theorem: eta = (theta^(6)_1 - theta^(6)_7)(tau, 0)
    for c in (F(1, 48), 1, F(113, 16), 31):
        theta = (jb.index_theta(6, 1, c) - jb.index_theta(6, 7, c)).specialize_z0()
        assert (list(eta(c).items()), eta(c).cutoff) == (list(theta.items()), theta.cutoff)


def test_theta_lattice_needs_positive_index():
    for make in (unary_theta, jb.index_theta, jb.hat_theta):
        with pytest.raises(OutOfRange):
            make(0, 1, 5)


def test_hat_theta_specializes_to_zero():
    assert jb.hat_theta(3, 1, 6).specialize_z0().is_zero()


# -- weight 0 basis ----------------------------------------------------------

def test_gritsenko_leading_rows():
    assert row(jb.gritsenko(2, 1, 2), 0) == {-1: 1, 0: 10, 1: 1}
    assert jb.gritsenko(3, 1, 2).specialize_z0().coefficient(0) == 6


def test_gritsenko_q0_support_sharp():
    for m, n in ((5, 2), (6, 3), (7, 4), (9, 8)):
        r0 = row(jb.gritsenko(m, n, 2), 0)
        assert max(abs(k) for k in r0) == n


def test_weight0_rows_symmetric():
    for m, n in ((4, 1), (5, 2), (7, 1)):
        phi = jb.gritsenko(m, n, 5)
        for qe, yp, c in phi.items():
            assert phi.coefficient(qe, -yp) == c


def test_discriminant_dependence():
    # c(n, r) depends only on r^2 - 4(m-1)n and r mod 2(m-1)
    m = 5
    phi = jb.gritsenko(m, 1, 7)
    idx = m - 1
    seen = {}
    for qe, yp, c in phi.items():
        key = (int(yp) ** 2 - 4 * idx * int(qe), int(yp) % (2 * idx))
        assert seen.setdefault(key, c) == c


def test_phi5_integral():
    phi5 = jb.gritsenko(5, 1, 8)
    for _, _, c in phi5.items():
        assert F(c).denominator == 1


def test_umbral_Z_constants():
    for ell in LAMBENCIES:
        z0 = jb.umbral_Z(ell, 4).specialize_z0()
        assert z0.coefficient(0) == F(24, ell - 1)
        assert all(c == 0 for e, c in z0.items() if e != 0)


def test_leading_row_relation_all_indices():
    for m in range(2, 26):
        assert jb.leading_row_relation(jb.gritsenko(m, 1, 3), m)


def _phi1_by_cases(m, qcut):
    """phi^(m)_1 by the case analysis on c = gcd(12, m-1), one branch per c."""
    p1 = lambda mm: jb.gritsenko(mm, 1, qcut)
    g = gcd
    if m == 9:
        return p1(3) * p1(7) - p1(5) * p1(5)
    c = g(12, m - 1)
    if c == 1:
        return (p1(m - 4) * p1(5)).scale(g(12, m - 5)) \
            + (p1(m - 2) * p1(3)).scale(g(12, m - 3)) \
            - (p1(m - 3) * p1(4)).scale(2 * g(12, m - 4))
    if c == 2:
        return ((p1(m - 4) * p1(5)).scale(g(12, m - 5))
                + (p1(m - 2) * p1(3)).scale(g(12, m - 3))
                - (p1(m - 3) * p1(4)).scale(2 * g(12, m - 4))).scale(F(1, 2))
    if c == 3:
        return (p1(m - 3) * p1(4)).scale(F(2 * g(12, m - 4), 3)) \
            + (p1(m - 6) * p1(7)).scale(F(g(12, m - 7), 3)) \
            - (p1(m - 4) * p1(5)).scale(g(12, m - 5))
    if c == 4:
        return ((p1(m - 12) * p1(13)).scale(g(12, m - 13))
                + (p1(m - 4) * p1(5)).scale(g(12, m - 5))
                - (p1(m - 8) * p1(9)).scale(g(12, m - 9))).scale(F(1, 4))
    if c == 6:
        return (p1(m - 3) * p1(4)).scale(F(g(12, m - 4), 3)) \
            + (p1(m - 6) * p1(7)).scale(F(g(12, m - 7), 6)) \
            - (p1(m - 4) * p1(5)).scale(F(g(12, m - 5), 2))
    assert c == 12
    return (p1(m - 3) * p1(4)).scale(F(g(12, m - 4), 6)) \
        - (p1(m - 4) * p1(5)).scale(F(g(12, m - 5), 4)) \
        + (p1(m - 6) * p1(7)).scale(F(g(12, m - 7), 12))


# one m per gcd(12, m - 1) in {1, 2, 3, 4, 6, 12} and the product row
@pytest.mark.parametrize("m", [6, 11, 16, 17, 19, 25, 9])
def test_gritsenko_recursion_table_matches_case_analysis(m):
    got = jb.gritsenko(m, 1, 3)
    want = _phi1_by_cases(m, 3)
    assert (list(got.items()), got.qcut) == (list(want.items()), want.qcut)


def reference_ratio_sq(i, c):
    """f_i^2 = (theta_i(tau,z)/theta_i(tau,0))^2 for i in {2,3,4}, by one series
    inversion.  Only theta_2 needs a pad: theta_2(tau,0) starts at q^(1/8), so
    inverting its square costs 1/8 of the cutoff; theta_3 and theta_4 start with 1."""
    th = jb.jacobi_theta(i, c + (F(1, 8) if i == 2 else 0))
    den = th.specialize_z0()
    return (th * th * jb.WindowedSeries.from_fracseries((den * den).invert())).truncate(c)


def reference_seed(m, c):
    """phi^(m)_1 for m in {2, 3, 4} as 4 e_1, 2 e_2 and 4 e_3 of (f2^2, f3^2, f4^2),
    every product formed on the q^(1/2) lattice, f3^2 included."""
    g2 = reference_ratio_sq(2, c).scale(4)
    f3 = reference_ratio_sq(3, c)
    f4 = reference_ratio_sq(4, c)
    if m == 2:
        return g2 + (f3 + f4).scale(4)
    if m == 3:
        return (g2 * (f3 + f4)).scale(F(1, 2)) + (f3 * f4).scale(2)
    return (g2 * f3) * f4


SEED_CUTOFFS = [7, F(113, 16), F(41, 3), 30]


# at m = 2 and 3 this checks the heat-operator route from phi_{-2,1}, at m = 4 the
# theta quotient (theta(2z)/theta(z))^2
@pytest.mark.parametrize("c", SEED_CUTOFFS)
@pytest.mark.parametrize("m", [2, 3, 4])
def test_seeds_match_the_symmetric_functions(m, c):
    set_data_dir(None)  # empties the memo, so the seed is built at c
    got = jb.gritsenko(m, 1, c)
    want = reference_seed(m, c)
    assert (list(got.items()), got.qcut) == (list(want.items()), want.qcut)


# c phi^(m)_1 = sum k phi^(a)_1 phi^(b)_1, m: (c, {(a, b): k}): the product rows that
# built phi^(5,7,13)_1 before the theta quotients, and row 9 that they read
REFERENCE_ROWS = {5: (4, {(4, 2): 1, (3, 3): -1}), 7: (1, {(3, 5): 1, (4, 4): -1}),
                  9: (1, {(3, 7): 1, (5, 5): -1}), 13: (1, {(5, 9): 1, (7, 7): -2})}


def reference_tower(m, c, built):
    """phi^(m)_1 for m in {2, 3, 4, 5, 7, 9, 13} from reference_seed and
    REFERENCE_ROWS alone, so no value of it reads the theta divider."""
    if m not in built:
        if m <= 4:
            built[m] = reference_seed(m, c)
        else:
            den, terms = REFERENCE_ROWS[m]
            prods = [(reference_tower(a, c, built) * reference_tower(b, c, built)).scale(k)
                     for (a, b), k in terms.items()]
            built[m] = sum(prods[1:], prods[0]).scale(F(1, den))
    return built[m]


@pytest.mark.parametrize("c", SEED_CUTOFFS)
@pytest.mark.parametrize("m", [5, 7, 13])
def test_theta_quotients_match_the_product_rows(m, c):
    set_data_dir(None)  # empties the memo, so the quotient is built at c
    got = jb.gritsenko(m, 1, c)
    want = reference_tower(m, c, {})
    assert (list(got.items()), got.qcut) == (list(want.items()), want.qcut)


# theta(4z)/theta(3z) and theta(5z)/theta(3z) have poles at z = 1/3, and
# theta(z) theta(6z)/(theta(4z) theta(3z)) at z = 1/4
@pytest.mark.parametrize("m, row", [(7, ((4,), (3,))), (7, ((5,), (3,))),
                                    (13, ((1, 6), (4, 3)))])
def test_a_wrong_theta_quotient_raises(monkeypatch, m, row):
    monkeypatch.setitem(jb._THETA_QUOTIENTS, m, row)
    set_data_dir(None)
    with pytest.raises(NotInvertible, match="does not divide"):
        jb.gritsenko(m, 1, 30)


def reference_theta_divide(num, b, kcut):
    """The rows Q below kcut with Q * theta(tau, b z)/q^(1/8) = num, one dict entry at a
    time: row k of Q is num_k minus the earlier rows of Q times the divisor's rows,
    divided exactly by the leading row y^(b/2) - y^(-b/2) from the top y-power down,
    Q[t] = R[t + b] + Q[t + 2b]; a row with a remainder raises."""
    den = [(i, f, s) for i, row in sorted(jb._theta_rows(b, kcut).items()) if i
           for f, s in row.items() if f > 0]  # row i is s (y^(f/2) - y^(-f/2))
    quo = {}
    for k in range(kcut):
        rest = dict(num.get(k, {}))
        for i, f, s in den:
            if i > k:
                break
            for e, c in quo.get(k - i, {}).items():
                c *= s
                rest[e + f] = rest.get(e + f, 0) - c
                rest[e - f] = rest.get(e - f, 0) + c
        keys = [e for e, c in rest.items() if c]
        if not keys:
            continue
        lo, q = min(keys), {}
        for t in range(max(keys) - b, lo - b - 1, -1):
            v = rest.get(t + b, 0) + q.get(t + 2 * b, 0)
            if v and t < lo + b:
                raise NotInvertible(f"theta(tau, {b}z) does not divide row q^{k}")
            if v:
                q[t] = v
        quo[k] = q
    return quo


def times_theta(quo, b, kcut):
    """The rows below kcut of quo * theta(tau, b z)/q^(1/8), y-powers doubled, zeros dropped."""
    out = {}
    for k, row in quo.items():
        for i, trow in jb._theta_rows(b, kcut).items():
            if k + i < kcut:
                prod = out.setdefault(k + i, {})
                for e, c in row.items():
                    for f, s in trow.items():
                        prod[e + f] = prod.get(e + f, 0) + c * s
    return {k: r for k, row in out.items() if (r := {e: c for e, c in row.items() if c})}


def random_quotient(rng, kcut, step, spread=6, size=9):
    """Random int rows below kcut on the doubled y-powers e0 + step*j, some rows empty."""
    e0 = rng.randint(-3, 3)
    quo = {}
    for k in range(kcut):
        if rng.random() < 0.8:
            row = {e0 + step * rng.randint(-spread, spread): rng.randint(-size, size)
                   for _ in range(rng.randint(1, 6))}
            if row := {e: c for e, c in row.items() if c}:
                quo[k] = row
    return quo


@pytest.mark.parametrize("c", [30, 60, 120])
def test_theta_divide_matches_the_reference_in_every_block(monkeypatch, c):
    # the six divisions of the theta quotients at 4, 5, 7 and 13; zeta_form divides by none
    calls, divide = [], jb._theta_divide
    monkeypatch.setattr(jb, "_theta_divide",
                        lambda num, b, kcut: calls.append((num, b, kcut)) or divide(num, b, kcut))
    set_data_dir(None)  # empties the memo, so every block is built at c
    for m in (4, 5, 7, 13):
        jb.gritsenko(m, 1, c)
    jb.zeta_form(c)
    assert [b for _, b, _ in calls] == [1, 1, 1, 2, 2, 3]
    for num, b, kcut in calls:
        assert divide(num, b, kcut) == reference_theta_divide(num, b, kcut)
    set_data_dir(None)


@pytest.mark.parametrize("b", [1, 2, 3])
def test_theta_divide_recovers_random_quotients(b):
    # steps 1 and 3 mix the parities of the doubled y-powers, so the lattice step g is 1
    rng = random.Random(350 + b)
    for step in (1, 2, 3, 4, 2 * b):
        for _ in range(12):
            kcut = rng.randint(1, 14)
            quo = random_quotient(rng, kcut, step)
            num = times_theta(quo, b, kcut)
            assert jb._theta_divide(num, b, kcut) == reference_theta_divide(num, b, kcut) == quo


def test_theta_divide_widens_its_slots_partway():
    # Q_3 rises 1, 2, ..., L and falls back to 1 on the step-2 lattice, so its product with
    # y^(1/2) - y^(-1/2) is -1 on L points and +1 on the next L: rest row 3 has small
    # coefficients, its quotient L, the span factor; rows 0-2 and 4-5 are small, so the
    # slots start one byte wide and must widen at row 3 and be repacked for rows 4 and 5
    rng, big = random.Random(353), 300
    quo = random_quotient(rng, 6, 2, size=3)
    quo[3] = {2 * j: min(j + 1, 2 * big - j - 1) for j in range(2 * big - 1)}
    num = times_theta(quo, 1, 6)
    assert max(abs(c) for c in num[3].values()) < 20
    assert jb._theta_divide(num, 1, 6) == reference_theta_divide(num, 1, 6) == quo


def test_theta_divide_checks_every_residue_class():
    # in doubled y-powers: (y^(1/2) - y^(-1/2)) (y^2 + 3) divides; y^(1/2) - y^(3/2) + y^2
    # (1 at y = 1) does not, and as its part y^(1/2) - y^(3/2) divides, only the
    # residue class of y^2 leaves a remainder
    assert jb._theta_divide({0: {5: 1, 3: -1, 1: 3, -1: -3}}, 1, 1) == {0: {4: 1, 0: 3}}
    with pytest.raises(NotInvertible):
        jb._theta_divide({0: {1: 1, 3: -1, 4: 1}}, 1, 1)
    # row 2 of a divisible numerator, plus one y-power on its lattice of step g: the
    # leading row divides a row exactly when each class mod 2b/g sums to 0, so one term
    # in any class leaves a remainder
    rng = random.Random(354)
    for b in (1, 2, 3):
        for step in (1, 2, 2 * b):
            quo = random_quotient(rng, 4, step)
            quo[2] = quo.get(2) or {step: 1}
            num = times_theta(quo, b, 4)
            es = [e for row in num.values() for e in row]
            g = gcd(2 * b, *(e - es[0] for e in es))
            for cls in range(2 * b // g):
                planted = {k: dict(row) for k, row in num.items()}
                e = min(planted[2]) + g * cls
                planted[2][e] = planted[2].get(e, 0) + 1
                for divide in (jb._theta_divide, reference_theta_divide):
                    with pytest.raises(NotInvertible,
                                       match=rf"^theta\(tau, {b}z\) does not divide row q\^2$"):
                        divide(planted, b, 4)


def _terms_series(terms, qcut):
    """A complete series on the q^(1/8) and y^(1/2) lattices from its terms."""
    rows = {}
    for qe, yp, c in terms:
        assert (8 * qe).denominator == (2 * yp).denominator == 1
        rows.setdefault(int(8 * qe), {})[int(2 * yp)] = c
    return jb.WindowedSeries(8, rows, qcut, ydenom=2)


# the relations that once built the seeds from f2^2 and f4^2, held by the reference
@pytest.mark.parametrize("c", SEED_CUTOFFS)
def test_theta_relations_behind_the_seeds(c):
    c = F(c)
    f3, f4 = reference_ratio_sq(3, c), reference_ratio_sq(4, c)
    # theta_4(tau, z) = theta_3(tau + 1, z): f3^2 + f4^2 = 2 (integral rows of f4^2)
    E = _terms_series([t for t in f4.items() if t[0].denominator == 1], c)
    total = f3 + f4
    assert (list(total.items()), total.qcut) == (list(E.scale(2).items()), c)
    # theta_3 theta_4(tau, z) = theta_4(2 tau, 2z) theta_4(2 tau, 0): f3^2 f4^2 = f4^2(2 tau, 2z)
    D = _terms_series([(2 * qe, 2 * yp, v) for qe, yp, v in f4.truncate(c / 2).items()], c)
    prod = f3 * f4
    assert (list(prod.items()), prod.qcut) == (list(D.items()), c)
    assert any(qe.denominator > 1 for qe, _, _ in f4.items())  # E drops rows


@pytest.mark.parametrize("c", [1, F(3, 2), F(113, 16), 12], ids=str)
def test_zeta_form_is_the_product_formula(c):
    # theta^12 by products and eta^12 inverted, both 3/2 past the cutoff, as
    # zeta_form was built before it became a theta block
    set_data_dir(None)
    t1 = jb.jacobi_theta(1, c + F(3, 2))
    t12 = t1
    for _ in range(11):
        t12 = t12 * t1
    e12 = jb.WindowedSeries.from_fracseries((eta(c + F(3, 2)) ** 12).invert())
    want = (t12 * e12).truncate(c)
    got = jb.zeta_form(c)
    assert (list(got.items()), got.qcut) == (list(want.items()), c)



def test_widest_products_keep_their_digest():
    # sha256 over items and qcut of zeta_form(120) and of the tower phi^(19)_n at q^6 that
    # extremal_space_dim(25) multiplies by zeta; recorded at commit ac8335a, where
    # _convolve packed each operand into one rectangle of nrows x width slots
    set_data_dir(None)
    h = hashlib.sha256()
    for name, s in [("zeta_form(120)", jb.zeta_form(120))] + \
            [(f"gritsenko(19, {n}, 6)", jb.gritsenko(19, n, 6)) for n in range(1, 19)]:
        h.update(repr((name, [(str(q), str(y), str(c)) for q, y, c in s.items()],
                       str(s.qcut))).encode())
    assert h.hexdigest() == "5c9977f8f95d71a7d160c4fc042d04c6cebdacd78e3352b2bf00d8d0e8ce3a04"

def test_zeta_in_cusp_ideal():
    z = jb.zeta_form(4)
    assert all(qe != 0 for qe, _, _ in z.items())
    for qe, yp, c in z.items():     # even in y <-> 1/y
        assert z.coefficient(qe, -yp) == c


def test_zeta_q1_row_binomials():
    r1 = row(jb.zeta_form(3), 1)
    assert r1[6] == 1 and r1[5] == -12 and r1[-6] == 1


def test_gritsenko_out_of_range():
    with pytest.raises(OutOfRange):
        jb.gritsenko(26, 1, 3)
    with pytest.raises(OutOfRange):
        jb.gritsenko(5, 5, 3)


@pytest.mark.parametrize("build", [jb.umbral_Z, jb.extract_H])
def test_lambency_outside_the_six_refused(build):
    # 6 is no lambency, though gritsenko(6, 1) exists
    with pytest.raises(OutOfRange, match="^lambency 6$"):
        build(6, 3)


def test_theta_and_block_arguments_checked():
    for i in (0, 5):
        with pytest.raises(OutOfRange):
            jb.jacobi_theta(i, 3)
    with pytest.raises(ValueError):
        jb.psi_one_one(3, 4, jb.ENTIRE)
    with pytest.raises(ValueError):
        jb.appell_mu(3, 0, 3, 4, jb.ENTIRE)


# -- meromorphic blocks ------------------------------------------------------

def test_psi_rows_match_display():
    psi = jb.psi_one_one(3, 6)
    assert row(psi, 0) == {0: -1, 1: -2, 2: -2, 3: -2, 4: -2, 5: -2, 6: -2}
    r1 = row(psi, 1)
    assert r1[2] == -1 and r1[-2] == 1


def test_psi_pole_residue():
    # (1 - y) * (q^0 row) evaluated at y -> 1 gives -2
    psi = jb.psi_one_one(2, 40)
    r0 = row(psi, 0)
    # (1-y) * sum c_j y^j has value c_0 + sum_{j>0} (c_j - c_{j-1}) -> telescopes
    val = r0[0] + sum(r0[j] - r0[j - 1] for j in range(1, 41))
    assert val == -2


def test_mu_annulus_row():
    mu = jb.appell_mu(2, 0, 3, 6)
    assert row(mu, 0) == {0: -1, 1: -2, 2: -2, 3: -2, 4: -2, 5: -2, 6: -2}


def reference_mu(m, j2, qcut, ywindow, annulus):
    """mu^(m)_j with its pole factors expanded in three branches, k = 0 per
    annulus, k > 0 and k < 0, k zig-zagging 0, 1, -1, 2, -2, ..."""
    qcut = F(qcut)
    sign = -1 if j2 % 2 == 0 else 1
    rows = {}

    def put(qe, yp, c):
        if qe < qcut and abs(yp) <= ywindow:
            dst = rows.setdefault(qe, {})
            dst[yp] = dst.get(yp, 0) + c

    k = 0
    while m * k * k - (j2 + 1) * abs(k) < qcut:
        base_q = m * k * k
        base_y = 2 * m * k
        for t in range(-j2, j2 + 2):
            cq, cy = base_q + k * t, base_y + t
            if k == 0:
                if annulus == jb.LOWER:
                    for i in range(0, ywindow + abs(cy) + 1):
                        put(cq, cy + i, sign)
                else:
                    for i in range(1, ywindow + abs(cy) + 2):
                        put(cq, cy - i, -sign)
            elif k > 0:
                i = 0
                while cq + k * i < qcut:
                    put(cq + k * i, cy + i, sign)
                    i += 1
            else:
                i = 1
                while cq - k * i < qcut:
                    put(cq - k * i, cy - i, -sign)
                    i += 1
        if k > 0:
            k = -k
        else:
            k = -k + 1
    return jb.WindowedSeries(1, rows, qcut, ywindow=ywindow, annulus=annulus)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 7, 13, 25])
def test_mu_one_rule_matches_the_three_branches(m):
    build = jb.appell_mu.__wrapped__  # the rule itself, at every cutoff asked
    for j2 in range(m):
        for qcut in (0, F(1, 8), 1, F(9, 4), 7, F(113, 16), 31):
            for w in (0, 1, 3, 6, 14, 27):
                for annulus in (jb.LOWER, jb.UPPER):
                    got = build(m, j2, qcut, w, annulus)
                    want = reference_mu(m, j2, qcut, w, annulus)
                    assert (list(got.items()), got.qcut, got.ywindow, got.annulus) \
                        == (list(want.items()), want.qcut, w, annulus), (j2, qcut, w, annulus)


def test_mu_hat_theta_relation():
    # mu_{(r-2)/2} + 2 mu_{(r-1)/2} + mu_{r/2} = (-1)^(r+1) q^(-r^2/4m) that-hat_r
    for m in range(2, 14):
        for r in range(1, m):
            w = m + 2
            total = jb.appell_mu(m, r, 5, w)
            total = total + jb.appell_mu(m, r - 1, 5, w).scale(2)
            if r >= 2:
                total = total + jb.appell_mu(m, r - 2, 5, w)
            ht = jb.hat_theta(m, r, 5 + F(r * r, 4 * m))
            ht = ht.qshift(F(-r * r, 4 * m)).scale((-1) ** (r + 1))
            diff = total - jb._clip(ht, w, total.annulus)
            assert diff.is_zero(), (m, r)


def test_mu_shift_half_is_sign_flip():
    # mu(tau, z + 1/2) = substitute y -> -y
    m = 3
    mu = jb.appell_mu(m, 0, 4, 6)
    flipped = {(qe, int(yp)): c * (-1) ** int(yp) for qe, yp, c in mu.items()}
    # the shifted function is Av[(1-y)/(1+y)] with the k-sum intact; verify
    # against an independent direct expansion of -mu0(tau, z+1/2)
    direct = {}
    for k in range(-3, 4):
        base_q, base_y = m * k * k, 2 * m * k
        for t in (0, 1):
            cq, cy = base_q + k * t, base_y + t
            sign = (-1) ** t
            if k == 0:
                for i in range(0, 40):
                    if abs(cy + i) <= 6 and cq < 4:
                        direct[(F(cq), cy + i)] = \
                            direct.get((F(cq), cy + i), 0) - sign * (-1) ** i
            elif k > 0:
                i = 0
                while cq + k * i < 4:
                    if abs(cy + i) <= 6:
                        direct[(F(cq + k * i), cy + i)] = \
                            direct.get((F(cq + k * i), cy + i), 0) - sign * (-1) ** i
                    i += 1
            else:
                i = 1
                while cq - k * i < 4:
                    if abs(cy - i) <= 6:
                        direct[(F(cq - k * i), cy - i)] = \
                            direct.get((F(cq - k * i), cy - i), 0) + sign * (-1) ** i
                    i += 1
    direct = {k: v for k, v in direct.items() if v}
    assert flipped == direct


# -- extraction --------------------------------------------------------------

PUBLISHED_HEADS = {
    2: {1: (F(-1, 8), [-2, 90, 462, 1540, 4554, 11592])},
    3: {1: (F(-1, 12), [-2, 32, 110, 288, 660, 1408]),
        2: (F(2, 3), [20, 88, 220, 560, 1144, 2400])},
    4: {1: (F(-1, 16), [-2, 14, 42, 86, 188, 336]),
        2: (F(3, 4), [16, 48, 112, 224, 432, 784]),
        3: (F(7, 16), [6, 28, 56, 138, 238, 478])},
    5: {1: (F(-1, 20), [-2, 8, 18, 40, 70, 120])},
    7: {1: (F(-1, 28), [-2, 4, 6, 10, 20, 30])},
    13: {1: (F(-1, 52), [-2, 2, 2, 0, 2, 2])},
}


def test_extraction_heads():
    for ell, comps in PUBLISHED_HEADS.items():
        H = jb.extract_H(ell, 7)
        for r, (e0, coeffs) in comps.items():
            got = [H.component(r).coefficient(e0 + k) for k in range(6)]
            assert got == coeffs, (ell, r, got)


def test_extract_verify_extremal_all():
    for ell in LAMBENCIES:
        assert jb.verify_extremal(ell)["ok"]


def test_verify_extremal_reports_a_stray_polar_term(monkeypatch):
    # a polar term q^(-1/12) added to H_1 at lambency 3: -1 beside the head -2
    extract = jb.extract_H

    def planted(ell, qcut):
        H = extract(ell, qcut)
        h = H.component(1) + FracSeries.from_terms([(F(-1, 12), 1)], H.component(1).cutoff)
        return jb.HVector(ell, [h] + H.components[1:])

    monkeypatch.setattr(jb, "extract_H", planted)
    rep = jb.verify_extremal(3)
    assert rep["polar_ok"] is False and rep["ok"] is False
    assert rep["failures"] == [(1, F(-1, 12), -1)]



def test_annulus_independence():
    lo = jb.extract_H(2, 7, annulus=jb.LOWER)
    up = jb.extract_H(2, 7, annulus=jb.UPPER)
    assert lo.component(1) == up.component(1)


def test_n4_identity_small():
    for ell in (2, 3, 13):
        rep = jb.verify_n4_identity(ell, qcut=10, ywindow=12)
        assert rep["ok"], rep["residual_terms"][:4]


@pytest.mark.parametrize("ell", LAMBENCIES)
def test_n4_identity_at_q30(ell):
    rep = jb.verify_n4_identity(ell, 30, ywindow=ell + 1)
    assert rep["ok"], rep["residual_terms"][:4]


def test_n4_identity_fires_on_a_dropped_row_term(monkeypatch):
    # the identity forms Psi * Z by windowed_mul, apart from extraction's ray
    # sums, so one term missing from the top row y^(l-1) must leave a residual
    rows, dropped = jb._psi_rows, []

    def drop_last(*args):
        out = rows(*args)
        top = out[-1]
        k = max(top.coeffs)
        dropped.append((F(k, top.denom), F(top.coeffs[k], top.cden)))
        out[-1] = FracSeries._of(top.denom, {j: v for j, v in top.coeffs.items() if j != k},
                                 top.cutoff, top.cden)
        return out

    monkeypatch.setattr(jb, "_psi_rows", drop_last)
    for ell in LAMBENCIES:
        rep = jb.verify_n4_identity(ell, 30, ywindow=ell + 1)
        qe, c = dropped[-1]
        assert not rep["ok"] and (qe, ell - 1, c) in rep["residual_terms"], ell


def _rows_agree(phi, m, qcut, annulus=jb.LOWER):
    """``_psi_rows`` against the y-rows of the whole product with Psi_{1,1} expanded
    wide enough, denominators, cutoffs and stored numerators included."""
    psi = jb.psi_one_one(qcut, (m - 1) + int(phi.max_abs_y()) + 1, annulus)
    full = jb.windowed_mul(phi, psi, qcut, ywindow=m - 1)
    rows = jb._psi_rows(phi, m, qcut, annulus)
    assert len(rows) == m - 1
    for r, got in enumerate(rows, 1):
        want = full.y_row(r)
        assert (got.denom, got.cutoff) == (want.denom, want.cutoff)
        assert list(got.items()) == list(want.items())
        assert (got.coeffs, got.cden) == (want.coeffs, want.cden)


@pytest.mark.parametrize("annulus", [jb.LOWER, jb.UPPER])
@pytest.mark.parametrize("qcut", [F(113, 16), 30], ids=str)
@pytest.mark.parametrize("ell", LAMBENCIES)
def test_y_rows_match_the_whole_product(ell, qcut, annulus):
    _rows_agree(jb.umbral_Z(ell, qcut), ell, qcut, annulus)


@pytest.mark.parametrize("ell", LAMBENCIES)
def test_y_rows_match_the_whole_product_with_fractions(ell):
    _rows_agree(jb.umbral_Z(ell, 12).scale(F(1, 3)), ell, 12)


def _zeta_forms(m, qcut):
    """(i, g, zeta^i g) for the forms zeta^i phi^(m-6i)_j that span extremal_space_dim(m)
    with phi^(m)_1, zeta^i by repeated products with zeta_form."""
    zpow = jb.WindowedSeries.one(qcut)
    for i in range(1, (m - 1) // 6 + 1):
        zpow = (zpow * jb.zeta_form(qcut)).truncate(qcut)
        for j in range(1, m - 6 * i):
            g = jb.gritsenko(m - 6 * i, j, qcut)
            yield i, g, zpow * g


def _psi_zetas(qcut, top):
    """P_i = Psi_{1,1} zeta^i for i = 1..top, as _extremal_matrix builds them."""
    p = [jb._theta_block(*jb._PSI_ZETA, qcut)]
    while len(p) < top:
        p.append((p[-1] * jb.zeta_form(qcut)).truncate(qcut))
    return p


def test_y_rows_match_the_whole_product_on_the_extremal_basis():
    # phi^(25)_1 and the 36 forms zeta^i phi^(25-6i)_j of index 24, at q^6
    forms = [jb.gritsenko(25, 1, 6)] + [f for _, _, f in _zeta_forms(25, 6)]
    assert len(forms) == 37
    for phi in forms:
        _rows_agree(phi, 25, 6)


@pytest.mark.parametrize("annulus", [jb.LOWER, jb.UPPER])
@pytest.mark.parametrize("c", [6, F(113, 16)], ids=str)
def test_psi_times_zeta_powers_is_a_theta_block(c, annulus):
    # Psi_{1,1} zeta^i, Psi expanded in either annulus, is the holomorphic block P_i =
    # theta(2z) theta^(12i-2) eta^(3-12i)
    zpow = jb.WindowedSeries.one(c)
    for i, p in enumerate(_psi_zetas(c, 3), 1):
        assert p == jb._theta_block((2,) + (1,) * (12 * i - 2), (), 3 - 12 * i, c)
        zpow = (zpow * jb.zeta_form(c)).truncate(c)
        psi = jb.psi_one_one(c, 4 + int(zpow.max_abs_y()), annulus)
        got, want = jb.windowed_mul(zpow, psi, qcut=c, ywindow=4), jb._clip(p, 4, annulus)
        assert (got.ywindow, got.annulus, got.qcut) == (want.ywindow, want.annulus, c)
        assert list(got.items()) == list(want.items())


@pytest.mark.parametrize("annulus", [jb.LOWER, jb.UPPER])
@pytest.mark.parametrize("m", [9, 25])
def test_zeta_rows_need_no_extraction(m, annulus):
    # H_r of zeta^i g is -q^(-r^2/4m) times row y^r of P_i g, terms and cutoff
    qcut = max(4, (m - 1) ** 2 // (4 * m)) + 1
    p = _psi_zetas(qcut, (m - 1) // 6)
    for i, g, form in _zeta_forms(m, qcut):
        H, s = jb.extract_from_form(form, m, qcut, annulus), p[i - 1] * g
        for r in range(1, m):
            got, want = H.component(r), s.y_row(r).scale(-1).shift(F(-r * r, 4 * m))
            assert (list(got.items()), got.cutoff) == (list(want.items()), want.cutoff)


def test_extremal_matrix_keeps_its_digest():
    # sha256 over m, the row count and the rows of _extremal_matrix(m) at m = 9 and 25, each
    # row made primitive: ints over the lcm of its denominators, divided by their gcd, the
    # first nonzero entry positive; recorded at commit fc93b71, where every row was read
    # from extract_from_form, the zeta-forms' included
    set_data_dir(None)
    h = hashlib.sha256()
    for m in (9, 25):
        rows = []
        for row in jb._extremal_matrix(m):
            den = lcm(*(F(x).denominator for x in row))
            ints = [int(F(x) * den) for x in row]
            g = gcd(*ints) or 1
            sign = -1 if next((x for x in ints if x), 1) < 0 else 1
            rows.append([sign * x // g for x in ints])
        h.update(repr((m, len(rows), rows)).encode())
    assert h.hexdigest() == "b9b6e78cfc0c181e424136506084fb9939d27aacfd5ee5eb8cd7a5464649db3d"


def test_extremal_blocks_read_the_tower_only_as_deep_as_needed(monkeypatch):
    # P_i = Psi_{1,1} zeta^i starts at q^i, so each block product P_i g takes g = phi^(25-6i)_j
    # at q^(n_bound + 1 - i) and is still exact to q^(n_bound + 1) = q^6; the matrix keeps the
    # sha256 of its repr recorded at commit d15992f, where every g was built to q^6
    set_data_dir(None)
    blocks, product = [], jb._product

    def traced(a, b, *args):
        out = product(a, b, *args)
        if a.low_q() > 0 and b.low_q() == 0:  # P_i times a form of the tower
            blocks.append((a.low_q(), b.qcut, out.qcut))
        return out

    monkeypatch.setattr(jb, "_product", traced)
    matrix = jb._extremal_matrix(25)
    assert sorted(blocks) == [(1, 5, 6)] * 18 + [(2, 4, 6)] * 12 + [(3, 3, 6)] * 6
    assert (hashlib.sha256(repr(matrix).encode()).hexdigest()
            == "4d192688f362418a4f59f77f15f4a92dbd231ca3ce52c9c7a8fed077a41e3a34")


@pytest.mark.parametrize("m, products", [(9, 0), (25, 2)])
def test_extremal_matrix_forms_only_the_zeta_powers_it_reads(monkeypatch, m, products):
    # P_i is read against phi^(m-6i)_j, j = 1 .. m-6i-1, so only for i <= (m - 2) // 6: P_2 and
    # P_3 = P_2 zeta are the two products at m = 25, and P_1 alone serves m = 9
    set_data_dir(None)
    calls, zeta = [], jb.zeta_form
    monkeypatch.setattr(jb, "zeta_form", lambda qcut: calls.append(qcut) or zeta(qcut))
    jb._extremal_matrix(m)
    assert len(calls) == products


@pytest.mark.parametrize("ell", [2, 5, 13])
def test_extraction_refuses_a_pole_block_one_power_short(monkeypatch, ell):
    # extract_from_form asks mu^(l)_0 to |y| <= l-1, what the rows read: a wider block
    # gives the same vector, and one y-power less must raise in y_row
    mu, want = jb.appell_mu, jb.extract_H(ell, 10)

    def widen(dmu):
        monkeypatch.setattr(jb, "appell_mu", lambda m, j2, c, w, ann: mu(m, j2, c, w + dmu, ann))

    widen(1)
    assert [(h.coeffs, h.cden) for h in jb.extract_H(ell, 10)] == [(h.coeffs, h.cden) for h in want]
    widen(-1)
    with pytest.raises(WindowTooNarrow) as err:
        jb.extract_H(ell, 10)
    assert err.traceback[-1].name == "y_row"


def test_round_trip_extraction():
    ell = 3
    H = jb.extract_H(ell, 6)
    total = None
    for r in range(1, ell):
        piece = jb.hat_theta(ell, r, 6) * jb.WindowedSeries.from_fracseries(H.component(r))
        total = piece if total is None else total + piece
    for r in range(1, ell):
        back = total.y_row(r)
        want = H.component(r).shift(F(r * r, 4 * ell)).scale(-1)
        assert back == want


def test_extremal_space_dims():
    assert jb.extremal_space_dim(9) == 0


def test_extremal_cutoff_is_the_least_sound(monkeypatch):
    # H_r is read at n <= n_bound: one order less than n_bound + 1 underflows
    assert jb.extremal_space_dim(25) == 0
    extract = jb.extract_from_form
    monkeypatch.setattr(jb, "extract_from_form",
                        lambda phi, m, qcut: extract(phi, m, qcut - 1))
    with pytest.raises(CutoffUnderflow, match="-29/100"):
        jb.extremal_space_dim(25)
    # the zeta-rows read the int rows of P_i g: P_1 one order short must raise, not read 0
    monkeypatch.setattr(jb, "extract_from_form", extract)
    block = jb._theta_block
    monkeypatch.setattr(jb, "_theta_block", lambda nums, dens, k, qcut: block(
        nums, dens, k, qcut - ((nums, dens, k) == jb._PSI_ZETA)))
    with pytest.raises(CutoffUnderflow, match="q\\^5 read at qcut 5 of P_1"):
        jb.extremal_space_dim(25)


def test_pole_blocks_built_once(monkeypatch):
    # extremal_space_dim(25) extracts phi^(25)_1 alone: one mu^(25)_0, Psi_{1,1} never expanded
    assert jb.psi_one_one(5, 4) is jb.appell_mu(1, 0, 5, 4, jb.LOWER)
    built = []
    build = jb.appell_mu.__wrapped__
    monkeypatch.setattr(jb, "appell_mu", memo(lambda *args: built.append(args) or build(*args)))
    assert jb.extremal_space_dim(25) == 0
    assert built == [(25, 0, 6, 24, jb.LOWER)]


def test_y_row_matches_canonicalizing_construction():
    # absent rows, windowed series, a y-denominator of 2 and a denominator 3 included
    z = jb.umbral_Z(5, 4)
    psi = jb.psi_one_one(4, int(z.max_abs_y()) + 4, jb.LOWER)
    for s in (z, psi, jb.windowed_mul(z, psi, qcut=4, ywindow=3), jb.jacobi_theta(1, 4),
              z.scale(F(2, 3))):
        top = s.ywindow if s.ywindow is not None else int(s.max_abs_y()) + 2
        for y in range(-top, top + 1):
            got = s.y_row(y)
            want = FracSeries(s.denom, {k: F(row.get(y * s.ydenom, 0), s.cden)
                                        for k, row in s.rows.items()}, s.qcut)
            assert (got.denom, got.coeffs, got.cden, got.cutoff) == \
                (want.denom, want.coeffs, want.cden, want.cutoff)


def gauss_jordan_rank(matrix):
    rows, rank = [[F(x) for x in row] for row in matrix], 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c] / rows[rank][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_bareiss_rank_matches_gauss_jordan():
    # products of n x r and r x m factors, so the rank is often below min(n, m)
    rng = random.Random(24)
    deficient = 0
    for _ in range(60):
        n, m, r = rng.randint(1, 7), rng.randint(1, 9), rng.randint(0, 6)
        a = [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(r)] for _ in range(n)]
        b = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(r)]
        mat = [[sum((a[i][k] * b[k][j] for k in range(r)), F(0)) for j in range(m)]
               for i in range(n)]
        want = gauss_jordan_rank(mat)
        assert jb._rank(mat) == want
        deficient += want < min(n, m)
    assert deficient > 15


def test_windowed_mul_guards():
    psi = jb.psi_one_one(3, 4)
    with pytest.raises(UnboundedSupport):
        jb.windowed_mul(psi, psi)
    z = jb.umbral_Z(2, 3)
    with pytest.raises(WindowTooNarrow):
        jb.windowed_mul(z, psi, qcut=3, ywindow=4)
    with pytest.raises(UnboundedSupport):
        psi.specialize_z0()


@pytest.mark.parametrize("ell", [2, 5])
def test_windowed_mul_independent_of_factor_window(ell):
    # a tail term folding into the target window would make the product
    # depend on how wide the windowed factor is
    qcut, target = 4, 3
    z = jb.umbral_Z(ell, qcut)
    reach = int(z.max_abs_y())
    narrow = jb.windowed_mul(z, jb.psi_one_one(qcut, target + reach), ywindow=target)
    wide = jb.windowed_mul(z, jb.psi_one_one(qcut, target + reach + 5), ywindow=target)
    assert narrow.ywindow == wide.ywindow == target
    assert narrow.dump() == wide.dump() != ""


def test_series_unhashable():
    # both classes compare by value (FracSeries at the smaller cutoff), so a
    # hash could not agree with equality
    for s in (FracSeries.one(5), jb.WindowedSeries.one(5)):
        with pytest.raises(TypeError):
            hash(s)


def test_truncate_refuses_a_deeper_cutoff():
    # both classes raise rather than report a cutoff they were not built to
    for s in (FracSeries.one(5), jb.WindowedSeries.one(5)):
        assert s.truncate(3) == type(s).one(3)
        with pytest.raises(CutoffUnderflow):
            s.truncate(6)


def test_coefficient_past_the_cutoff_is_an_underflow():
    # both classes raise the typed cutoff error, not the bad-parameter one
    with pytest.raises(CutoffUnderflow):
        FracSeries.one(5).coefficient(5)
    with pytest.raises(CutoffUnderflow):
        jb.WindowedSeries.one(5).coefficient(5, 0)


def test_vector_component_outside_1_to_l_minus_1():
    H = jb.HVector(3, [FracSeries.one(2), FracSeries.one(2)])
    assert H.component(2) is H.components[1]
    for r in (-1, 0, 3, 5):
        with pytest.raises(OutOfRange, match=f"r = {r} outside 1..2"):
            H.component(r)


def test_scalar_row_scaling():
    ht = jb.hat_theta(2, 1, 5)
    s = FracSeries(1, {0: 3, 1: -1}, 5)
    prod = ht * jb.WindowedSeries.from_fracseries(s)
    assert prod.coefficient(F(1, 8), 1) == -3
    assert prod.coefficient(F(9, 8), 1) == 1


def test_psi_times_Z_spot_value():
    # q^0 row, y^1 coefficient of Psi * Z^(2) is -46
    psi = jb.psi_one_one(3, 8)
    z = jb.umbral_Z(2, 3)
    prod = jb.windowed_mul(z, psi, qcut=3, ywindow=3)
    assert prod.coefficient(0, 1) == -46


def test_dump_format():
    th = jb.index_theta(2, 1, 2)
    assert th.dump() == "(1/8, 1) -> 1\n(9/8, -3) -> 1"


# -- stored numerators -----------------------------------------------------------

def stored(series):
    """The numerators a FracSeries or a WindowedSeries stores, and their one denominator."""
    if isinstance(series, FracSeries):
        return list(series.coeffs.values()), series.cden
    return [c for r in series.rows.values() for c in r.values()], series.cden


def assert_reduced(series):
    """Every stored numerator a nonzero int, the denominator a positive int, their gcd 1."""
    nums, cden = stored(series)
    assert all(type(c) is int and c for c in nums) and type(cden) is int and cden > 0, series
    assert gcd(cden, *nums) == 1, series


def test_tower_and_vectors_store_ints():
    # the extremal forms and their mock modular vectors are integral, so each
    # stores its coefficients themselves, over the denominator 1
    for m in LAMBENCIES:
        assert stored(jb.gritsenko(m, 1, 12))[1] == 1, m
        assert_reduced(jb.gritsenko(m, 1, 12))
        for h in jb.extract_H(m, 12):
            assert stored(h)[1] == 1, m
            assert_reduced(h)


def test_no_series_stores_a_float_or_an_integral_fraction():
    built = [jb.gritsenko(3, 1, 5), jb.psi_one_one(5, 4), jb.appell_mu(3, 0, 5, 4),
             jb.zeta_form(4), mckay.twisted_H(3, "2B", 6).component(1),
             eta_quotient([(1, 1), (2, -2)], 8), unary_theta(5, 2, 9)]
    # scaled, and cut down to the term whose denominator is 2
    mixed = FracSeries(2, {0: F(1, 2), 1: F(1, 3)}, 9)
    built += [s.scale(F(4, 6)) for s in built] + [
        mixed.truncate(F(1, 2)), mixed.split(0),
        jb.WindowedSeries.from_fracseries(mixed).truncate(F(1, 2)),
        jb.WindowedSeries(1, {0: {0: F(1, 2), 1: F(1, 3)}}, 9).y_row(0)]
    for series in built:
        assert_reduced(series)
    # the check fires on a denominator 2 over even numerators, set past _of's reduction
    for bad in (FracSeries._of(1, {0: 2, 1: -4}, 3), jb.WindowedSeries._of(1, {0: {0: 2, 1: 4}}, 3)):
        bad.cden = 2
        with pytest.raises(AssertionError):
            assert_reduced(bad)
    for make in (lambda c: FracSeries(1, {0: c}, 3),
                 lambda c: jb.WindowedSeries(1, {0: {0: c}}, 3),
                 lambda c: FracSeries.from_terms([(0, c)], 3),
                 lambda c: FracSeries.one(3).scale(c)):
        with pytest.raises(TypeError):
            make(0.5)
        assert stored(make(F(6, 3))) == ([2], 1)
        assert stored(make(F(6, 4))) == ([3], 2)
    # the public accessors still hand out Fractions
    assert type(FracSeries(1, {0: 2}, 3).coefficient(0)) is F
    assert type(jb.WindowedSeries(1, {0: {0: 2}}, 3).coefficient(0, 0)) is F


# -- cutoffs of the Gritsenko tower and the memo -------------------------------

@pytest.mark.parametrize("ell", [2, 3, 4, 5])
def test_extracted_vector_exact_below_its_cutoff(ell):
    # the theta_2 normalisation used to cost the tower 1/8 of its cutoff
    # while the extraction still certified the rows in that gap
    c = F(113, 16)
    set_data_dir(None)  # empties the memo, so both vectors are fresh builds
    shallow = jb.extract_H(ell, c)
    set_data_dir(None)
    deep = jb.extract_H(ell, 9)
    for r, (h, d) in enumerate(zip(shallow, deep), 1):
        assert list(h.items()) == list(d.truncate(h.cutoff).items())
        assert h.cutoff == c - F(r * r, 4 * ell)
    assert jb.umbral_Z(ell, c).qcut == c


MEMOIZED_SERIES = [
    *[(f"gritsenko({m},1)", lambda c, m=m: jb.gritsenko(m, 1, c))
      for m in sorted({*LAMBENCIES, 9})],
    ("gritsenko(5,3)", lambda c: jb.gritsenko(5, 3, c)),
    ("zeta_form", jb.zeta_form),
    *[(f"identity_H({ell})", lambda c, ell=ell: mckay.identity_H(ell, c))
      for ell in (2, 5, 13)],
    # 5A F2 at lambency 5 is the quarter twist of another catalog record
    *[(f"weight2({ell},{label},{variant})", lambda c, a=(ell, label, variant): mckay.weight2(*a, c))
      for ell, label, variant in ((2, "2B", "F"), (3, "10A", "F"), (5, "2B", "F2"), (5, "5A", "F2"))],
]


def _reported(value):
    """Everything a memoized value reports: terms, cutoffs and tags."""
    if isinstance(value, jb.HVector):
        return [(list(h.items()), h.cutoff) for h in value]
    if isinstance(value, FracSeries):
        return list(value.items()), value.cutoff
    return list(value.items()), value.qcut, value.ywindow, value.annulus


@pytest.mark.parametrize("c", [7, F(113, 16), F(41, 3)], ids=str)
def test_memo_independent_of_build_cutoff(c):
    set_data_dir(None)
    fresh = {name: _reported(build(c)) for name, build in MEMOIZED_SERIES}
    set_data_dir(None)
    for _, build in MEMOIZED_SERIES:
        build(14)
    for name, build in MEMOIZED_SERIES:
        assert _reported(build(c)) == fresh[name], name
        if not name.startswith("identity_H"):
            assert fresh[name][1] == c, name


def test_memo_serves_the_built_object():
    set_data_dir(None)
    phi = jb.gritsenko(5, 1, 9)
    assert jb.gritsenko(5, 1, F(18, 2)) is phi
    assert jb.gritsenko(5, 1, 7).qcut == 7
    assert jb.gritsenko(5, 1, 9) is phi  # a shallower call keeps the deeper value
    H = mckay.identity_H(5, 9)
    assert mckay.identity_H(5, 9) is H
    assert jb.gritsenko(5, 1, 10) is not phi
