from fractions import Fraction as F
from math import ceil, gcd

import pytest

from moonshine.errors import CutoffUnderflow, NotInvertible, NotUnimodular, UnknownClass
from moonshine.qseries import (_NEWFORM_SPECS, FracSeries, _eisenstein, _sigma, dedekind_epsilon,
                               eta, eta_quotient, lambda_n, mock_theta, newform, unary_theta)
from test_cutoffs import TWISTED_3_INVERSES, catalog_eta_specs


def heads(series, n):
    out = []
    for e, c in series.items():
        out.append((e, c))
        if len(out) == n:
            break
    return out


def test_eta_pentagonal():
    e = eta(13)
    assert heads(e, 5) == [(F(1, 24), 1), (F(25, 24), -1), (F(49, 24), -1),
                           (F(121, 24), 1), (F(169, 24), 1)]


def test_eta_cube_is_odd_theta():
    assert eta_quotient([(1, 3)], 15) == unary_theta(2, 1, 15)


def test_unary_theta_eta_expressions():
    assert unary_theta(3, 1, 12) == eta_quotient([(2, 5), (4, -2)], 12)
    assert unary_theta(3, 2, 12) == eta_quotient([(1, 2), (4, 2), (2, -1)], 12).scale(2)
    assert unary_theta(4, 2, 12) == eta_quotient([(2, 3)], 12).scale(2)


def test_unary_theta_leading():
    s = unary_theta(3, 1, 2)
    assert s.low() == F(1, 12) and s.coefficient(F(1, 12)) == 1


def test_theta_relation_l4_l2():
    lhs = unary_theta(4, 1, 8).rescale(2) - unary_theta(4, 3, 8).rescale(2)
    assert lhs == unary_theta(2, 1, 15)


def test_lambda_small():
    l2 = lambda_n(2, 6)
    assert [l2.coefficient(k) for k in range(6)] == [F(1, 12), 2, 2, 8, 2, 12]
    assert lambda_n(3, 1).coefficient(0) == F(1, 4)


def divisor_sigma(k):
    """The sum of the divisors of k, by trial division."""
    return sum(d for d in range(1, k + 1) if k % d == 0)


def test_lambda_low_coefficients_are_n_sigma():
    for n in (2, 3, 5, 7, 11):
        ln = lambda_n(n, n)
        for k in range(1, n):
            assert ln.coefficient(k) == n * divisor_sigma(k)


@pytest.mark.parametrize("cut", [F(1, 2), 7, F(113, 16), 21, F(337, 8)], ids=str)
def test_lambda_n_matches_its_formula(cut):
    # N(N-1)/24 + N sum sigma(k) q^k - N^2 sum sigma(k) q^(Nk): the q^(Nk) half
    # starts at q^N, which the low-coefficient test above never reads
    for n in (2, 3, 5, 7, 11, 23, 44):
        terms = [(0, F(n * (n - 1), 24))]
        for k in range(1, ceil(cut)):
            terms += [(k, n * divisor_sigma(k)), (n * k, -n * n * divisor_sigma(k))]
        want, got = FracSeries.from_terms(terms, cut), lambda_n(n, cut)
        assert (list(got.items()), got.cutoff) == (list(want.items()), want.cutoff), n


def test_sigma_sieve_matches_trial_division():
    for e in (1, 3, 5):
        assert _sigma(40, e) == [0] + [sum(d ** e for d in range(1, k + 1) if k % d == 0)
                                       for k in range(1, 40)]


@pytest.mark.parametrize("cut", [60, F(113, 16)], ids=str)
def test_eisenstein_series_hold_their_eta_relations(cut):
    # E_4 = eta^16/eta(2tau)^8 + 256 eta(2tau)^16/eta^8, the heat-operator seeds' E_4 before it
    # came from the sieve; E_4^3 - E_6^2 = 1728 eta^24; Ramanujan's 3 q dE_4/dq = E_2 E_4 - E_6
    e2, e4, e6 = (_eisenstein(k, cut) for k in (2, 4, 6))
    want = eta_quotient([(1, 16), (2, -8)], cut) + eta_quotient([(2, 16), (1, -8)], cut) * 256
    assert (list(e4.items()), e4.cutoff, e4.cden) == (list(want.items()), cut, want.cden)
    got, want = e4 * e4 * e4 - e6 * e6, eta_quotient([(1, 24)], cut).scale(1728)
    assert (list(got.items()), got.cutoff) == (list(want.items()), cut)
    got = FracSeries.from_terms([(n, 3 * n * c) for n, c in e4.items()], cut)
    want = e2 * e4 - e6
    assert (list(got.items()), got.cutoff) == (list(want.items()), cut)


def test_newforms():
    f11 = newform("f11", 8)
    assert [f11.coefficient(k) for k in range(1, 8)] == [1, -2, -1, 2, 1, 2, -2]
    f23b = newform("f23b", 5)
    assert f23b.low() == 2 and f23b.coefficient(2) == 1
    f23a = newform("f23a", 4)
    assert f23a.coefficient(1) == 1 and f23a.coefficient(2) == 0


# f44 below q^28 as tabulated for Cremona's curve 44a1 (it has no even terms)
F44_BELOW_28 = {1: 1, 3: 1, 5: -3, 7: 2, 9: -2, 11: -1, 13: -4, 15: -3, 17: 6, 19: 8,
                21: 2, 23: -3, 25: 4, 27: -5}


def test_f44_matches_table():
    f = newform("f44", 28)
    assert f.cutoff == 28 and {int(e): c for e, c in f.items()} == F44_BELOW_28


def test_f44_hecke_relations_and_hasse_bound():
    f = newform("f44", 200)
    a = {n: f.coefficient(n) for n in range(1, 200)}
    primes = [p for p in range(2, 200) if all(p % d for d in range(2, p))]
    for p in primes:
        assert a[p] ** 2 <= 4 * p, p
        pk = p * p
        while pk < 200:
            bad = 0 if 44 % p == 0 else p * a[pk // (p * p)]
            assert a[pk] == a[p] * a[pk // p] - bad, pk
            pk *= p
    for m in range(2, 200):
        for n in range(m + 1, 200 // m + 1):
            if m * n < 200 and gcd(m, n) == 1:
                assert a[m * n] == a[m] * a[n], (m, n)


def test_unknown_newform_and_mock_theta_are_data_errors():
    with pytest.raises(UnknownClass, match="f99"):
        newform("f99", 5)
    with pytest.raises(UnknownClass, match="nu"):
        mock_theta("nu", 5)


def reference_eta_quotient(spec, cutoff):
    """The product of ``eta(...).rescale(k) ** m``, as eta_quotient was built
    before its recurrence: each factor's eta exact below (cutoff - L)/k + 1/24."""
    cutoff = F(cutoff)
    spec = [(F(k), m) for k, m in spec if m]
    if not spec:
        return FracSeries.one(cutoff)
    low = sum(k * m for k, m in spec) / 24
    if cutoff <= low:
        return FracSeries.zero(cutoff)
    result = None
    for k, m in spec:
        factor = eta((cutoff - low) / k + F(1, 24)).rescale(k) ** m
        result = factor if result is None else result * factor
    return result


F23A_QUOTIENTS = [((1, 3), (23, 3), (2, -1), (46, -1)), ((1, 2), (23, 2)),
                  ((1, 1), (2, 1), (23, 1), (46, 1)), ((2, 2), (46, 2))]


@pytest.mark.parametrize("cut", [F(1, 3), 7, F(113, 16), F(21, 2), 21, F(337, 8), 60], ids=str)
def test_eta_quotient_matches_the_product_of_etas(cut):
    specs = (catalog_eta_specs() + TWISTED_3_INVERSES + list(_NEWFORM_SPECS.values())
             + F23A_QUOTIENTS)
    for spec in specs:
        got, want = eta_quotient(spec, cut), reference_eta_quotient(spec, cut)
        assert (list(got.items()), got.cutoff) == (list(want.items()), want.cutoff), spec


def test_invert_geometric():
    s = FracSeries(1, {0: 1, 1: -1}, 6)
    assert [s.invert().coefficient(k) for k in range(5)] == [1] * 5


def test_invert_requires_leading():
    with pytest.raises(NotInvertible):
        FracSeries.zero(5).invert()


def test_rescale_halves_exponents():
    s = eta_quotient([(1, 3)], 4).rescale(F(1, 2))
    assert s.low() == F(1, 16)
    assert s.coefficient(F(1, 16) + F(1, 2)) == -3


def _by_terms(s, exponent, cutoff):
    return FracSeries.from_terms(((exponent(e), c) for e, c in s.items()), cutoff)


def _same(a, b):
    assert (a.denom, list(a.items()), a.cutoff) == (b.denom, list(b.items()), b.cutoff)


def test_shift_and_rescale_on_the_lattice():
    # the integer-lattice ops give what from_terms gives, minimal denom included
    mixed = FracSeries.from_terms([(F(-1, 6), 2), (F(1, 4), F(-1, 3)), (F(5, 2), 7)], 4)
    series = [mixed, eta(5), unary_theta(5, 2, 6), FracSeries.zero(F(7, 3)),
              FracSeries(12, {6: 1, 18: F(1, 2)}, 3)]  # denom 12 on the lattice 1/2
    for s in series:
        for e in (F(-1, 8), F(-7, 3), F(1, 6), -2, 0, F(5, 12)):
            _same(s.shift(e), _by_terms(s, lambda x: x + e, s.cutoff + e))
        for t in (F(1, 2), 2, F(3, 4), F(6, 5)):
            _same(s.rescale(t), _by_terms(s, lambda x: x * t, s.cutoff * t))
        _same(-s, FracSeries(s.denom, {k: F(-v, s.cden) for k, v in s.coeffs.items()}, s.cutoff))
    assert FracSeries(12, {6: 1, 18: 1}, 3).shift(F(1, 2)).denom == 1
    assert FracSeries.zero(5).rescale(F(1, 2)).denom == 1


def test_split_partitions(rng):
    terms = [(F(rng.randint(-40, 40), 8), rng.randint(-5, 5)) for _ in range(30)]
    s = FracSeries.from_terms(terms, 10)
    parts = [s.split(F(k, 8)) for k in range(8)]
    total = parts[0]
    for p in parts[1:]:
        total = total + p
    assert total == s


def test_split_parity_example():
    s = FracSeries.from_terms([(F(-1, 16), 3), (F(7, 16), 5), (F(15, 16), 7)], 2)
    kept = s.split(F(-1, 16))
    assert kept.coefficient(F(-1, 16)) == 3
    assert kept.coefficient(F(15, 16)) == 7
    assert kept.coefficient(F(7, 16)) == 0


def test_ring_axioms_randomized(rng):
    def rand_series():
        return FracSeries.from_terms(
            [(F(rng.randint(0, 12), 3), F(rng.randint(-9, 9), rng.randint(1, 3)))
             for _ in range(6)], 5)

    for _ in range(10):
        a, b, c = rand_series(), rand_series(), rand_series()
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_mul_inverse_roundtrip():
    e = eta(10)
    assert (e * e.invert()).truncate(8) == FracSeries.one(8)


def test_coefficient_beyond_cutoff_raises():
    with pytest.raises(CutoffUnderflow):
        eta(3).coefficient(5)


def test_mock_theta_heads():
    f = mock_theta("f", 7)
    assert [f.coefficient(k) for k in range(6)] == [1, 1, -2, 3, -3, 3]
    mu = mock_theta("mu2", 6)
    assert [mu.coefficient(k) for k in range(5)] == [1, -1, 1, 2, -1]
    u0 = mock_theta("U0", 5)
    assert [u0.coefficient(k) for k in range(5)] == [1, 1, 1, 0, 1]


def test_mock_theta_order10_heads():
    phi10 = mock_theta("phi10", 5)
    assert phi10.coefficient(0) == 1
    x = mock_theta("X", 5)
    assert x.coefficient(0) == 1 and x.coefficient(1) == -1


# Reference expansions of the 16 mock theta functions from their classical
# definitions (Gordon and McIntosh 2012), on plain integer coefficient lists
# indexed by the exponent; chi and rho keep their trinomial denominators.

def _mul(a, p, n):
    """a * p truncated to exponents < n."""
    out = [0] * n
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in enumerate(p[:n - i]):
                out[i + j] += x * y
    return out


def _div(a, p, n):
    """a / p truncated to exponents < n (p[0] == 1)."""
    out = list(a[:n]) + [0] * (n - len(a))
    for i in range(n):
        for j in range(1, min(i, len(p) - 1) + 1):
            out[i] -= p[j] * out[i - j]
    return out


def _binomial(c, e):
    """1 + c*q^e."""
    return [1] + [0] * (e - 1) + [c]


def _trinomial(c, e):
    """1 + c*q^e + q^(2e)."""
    return [1] + [0] * (e - 1) + [c] + [0] * (e - 1) + [1]


def _poch(c, e, d, m):
    """(-c q^e; q^d)_m as factors: prod_{j<m} (1 + c*q^(e + d*j))."""
    return [_binomial(c, e + d * j) for j in range(m)]


_CLASSICAL = {
    # label: n -> (sign, q-exponent, numerator factors, denominator factors)
    "f": lambda n: (1, n * n, [], _poch(1, 1, 1, n) * 2),
    "phi": lambda n: (1, n * n, [], _poch(1, 2, 2, n)),
    "chi": lambda n: (1, n * n, [], [_trinomial(-1, k) for k in range(1, n + 1)]),
    "omega": lambda n: (1, 2 * n * (n + 1), [], _poch(-1, 1, 2, n + 1) * 2),
    "rho": lambda n: (1, 2 * n * (n + 1), [], [_trinomial(1, 2 * k + 1) for k in range(n + 1)]),
    "mu2": lambda n: ((-1) ** n, n * n, _poch(-1, 1, 2, n), _poch(1, 2, 2, n) * 2),
    "U0": lambda n: (1, n * n, _poch(1, 1, 2, n), _poch(1, 4, 4, n)),
    "U1": lambda n: (1, (n + 1) ** 2, _poch(1, 1, 2, n), _poch(1, 2, 4, n + 1)),
    "S0": lambda n: (1, n * n, _poch(1, 1, 2, n), _poch(1, 2, 2, n)),
    "S1": lambda n: (1, n * (n + 2), _poch(1, 1, 2, n), _poch(1, 2, 2, n)),
    "T0": lambda n: (1, (n + 1) * (n + 2), _poch(1, 2, 2, n), _poch(1, 1, 2, n + 1)),
    "T1": lambda n: (1, n * (n + 1), _poch(1, 2, 2, n), _poch(1, 1, 2, n + 1)),
    "phi10": lambda n: (1, n * (n + 1) // 2, [], _poch(-1, 1, 2, n + 1)),
    "psi10": lambda n: (1, (n + 1) * (n + 2) // 2, [], _poch(-1, 1, 2, n + 1)),
    "X": lambda n: ((-1) ** n, n * n, [], _poch(1, 1, 1, 2 * n)),
    "chi10": lambda n: ((-1) ** n, (n + 1) ** 2, [], _poch(1, 1, 1, 2 * n + 1)),
}


def _classical(label, n_terms):
    """Coefficients of q^0 .. q^(n_terms - 1)."""
    total = [0] * n_terms
    n = 0
    while True:
        sign, v, num, den = _CLASSICAL[label](n)
        if v >= n_terms:
            return total
        term = [0] * v + [sign]
        for p in num:
            term = _mul(term, p, n_terms)
        for p in den:
            term = _div(term, p, n_terms)
        total = [a + b for a, b in zip(total, term + [0] * n_terms)]
        n += 1


@pytest.mark.parametrize("cut", [F(7), F(21, 2), F(41)], ids=str)
def test_mock_theta_matches_classical_definitions(cut):
    n_terms = -(-cut.numerator // cut.denominator)
    for label in _CLASSICAL:
        got = mock_theta(label, cut)
        assert got.cutoff == cut, label
        want = _classical(label, n_terms)
        assert list(got.items()) == [(F(k), c) for k, c in enumerate(want) if c], label


def test_dedekind_epsilon_values():
    assert dedekind_epsilon(1, 1, 0, 1) == 23      # e(-1/24)
    assert dedekind_epsilon(1, 5, 0, 1) == 19      # e(-5/24)
    assert dedekind_epsilon(0, -1, 1, 0) == 3      # e(1/8)


def test_dedekind_epsilon_translation_rule(rng):
    mats = [(1, 0, 1, 1), (0, -1, 1, 0), (2, 1, 3, 2), (5, 2, 7, 3)]
    for a, b, c, d in mats:
        assert a * d - b * c == 1
        base = dedekind_epsilon(a, b, c, d)
        for m in (1, 2, 5, 24):
            assert dedekind_epsilon(a + m * c, b + m * d, c, d) == (base - m) % 24
            assert dedekind_epsilon(a, a * m + b, c, c * m + d) == (base - m) % 24


def test_dedekind_epsilon_negation():
    assert dedekind_epsilon(-1, 0, 0, -1) == 6     # e(1/4)
    with pytest.raises(NotUnimodular):
        dedekind_epsilon(1, 1, 1, 1)


def test_render_canonical_form():
    s = eta_quotient([(1, 3)], 4)
    assert s.render(2) == "q^(1/8)*(1 - 3*q^(1) + ...)"
    assert s.render(3) == "q^(1/8)*(1 - 3*q^(1) + 5*q^(3))"


@pytest.mark.parametrize("cut", [3, F(113, 16), F(41, 3)])
def test_unary_thetas_as_eta_quotients(cut):
    # S^(2)_1 = eta^3, S^(3)_1 = eta(2t)^5/eta(4t)^2,
    # S^(3)_2 = 2 eta^2 eta(4t)^2/eta(2t) and S^(4)_2 = 2 eta(2t)^3
    for (m, r), spec, coeff in (((2, 1), [(1, 3)], 1),
                                ((3, 1), [(2, 5), (4, -2)], 1),
                                ((3, 2), [(1, 2), (4, 2), (2, -1)], 2),
                                ((4, 2), [(2, 3)], 2)):
        theta, quotient = unary_theta(m, r, cut), eta_quotient(spec, cut).scale(coeff)
        assert (list(theta.items()), theta.cutoff) == (list(quotient.items()), quotient.cutoff)
