from fractions import Fraction as F
from math import gcd

import pytest

from moonshine import siegel
from moonshine.data import LAMBENCIES
from moonshine.errors import CutoffUnderflow, OutOfRange, WindowTooNarrow
from moonshine.jacobi import WindowedSeries, jacobi_theta, umbral_Z
from moonshine.qseries import eta


def reference_product(ell, pmax, nmax):
    """The product lift of umbral_Z(ell) on m <= pmax, n <= nmax, every r,
    multiplied out one binomial factor (1 - p^m q^n y^r)^c(mn, r) at a time
    on Fractions.  Returns the nonzero coefficients and the prefactor."""
    Z = umbral_Z(ell, pmax * nmax + 1)
    table = {(int(qe), int(yp)): c for qe, yp, c in Z.items()}
    row0 = {r: c for (n, r), c in table.items() if n == 0}
    prefactor = (sum(row0.values()) / 24,
                 sum(r * c for r, c in row0.items() if r > 0) / 2,
                 sum(r * r * c for r, c in row0.items()) / 4)
    acc = {(0, 0, 0): F(1)}

    def mul_factor(m, n, r, expo):
        """Multiply acc by (1 - p^m q^n y^r)^expo inside the box."""
        nonlocal acc
        if m == 0 and n == 0:
            assert expo >= 0, "infinite pure-y factor"
            kmax = expo
        else:
            kmax = min(top // step for top, step in ((pmax, m), (nmax, n)) if step)
        # (1 - x)^expo = sum_k binom(expo, k) (-x)^k
        series = {0: F(1)}
        coef = F(1)
        for k in range(1, kmax + 1):
            coef = coef * F(expo - k + 1, k)
            series[k] = coef * (-1) ** k
        new = {}
        for (pm, pn, pr), v in acc.items():
            for k, bk in series.items():
                key = (pm + k * m, pn + k * n, pr + k * r)
                if bk and key[0] <= pmax and key[1] <= nmax:
                    new[key] = new.get(key, F(0)) + v * bk
        acc = {k: v for k, v in new.items() if v}

    for r in sorted((r for r in row0 if r < 0), reverse=True):
        mul_factor(0, 0, r, int(row0[r]))
    for n in range(1, nmax + 1):
        for r in sorted(row0):
            mul_factor(0, n, r, int(row0[r]))
    for m in range(1, pmax + 1):
        for n in range(0, nmax + 1):
            for r in sorted(r for (nn, r) in table if nn == m * n):
                mul_factor(m, n, r, int(table[(m * n, r)]))
    return acc, prefactor


@pytest.mark.parametrize("c", [1, 4, F(113, 16), 10], ids=str)
def test_phi_10_1_is_the_product_formula(c):
    # theta_1^2 times eta^18, as the form was built before it became a theta block;
    # that product is exact 7/8 past c, the theta block to c itself
    t1 = jacobi_theta(1, c)
    want = (t1 * t1) * WindowedSeries.from_fracseries(eta(c) ** 18)
    assert want.qcut == c + F(7, 8)
    got = siegel._phi_10_1(c)
    assert (list(got.items()), got.qcut) == (list(want.truncate(c).items()), c)


def reference_hecke(phi, m, weight, nmax):
    """phi|V_m below q^(nmax+1), each coefficient a Fraction sum over j | gcd(m, n, r) of
    j^(weight-1) c(nm/j^2, r/j), c read from the items of phi."""
    c = {}
    for qe, yp, v in phi.items():
        c.setdefault(int(qe), {})[int(yp)] = v
    rows = {}
    for n in range(nmax + 1):
        g, row = gcd(m, n), rows.setdefault(n, {})
        for j in (j for j in range(1, g + 1) if g % j == 0):
            for r, v in c.get(n * m // (j * j), {}).items():
                row[r * j] = row.get(r * j, 0) + F(j) ** (weight - 1) * v
    return WindowedSeries(1, rows, nmax + 1)


@pytest.mark.parametrize("m", range(5))
def test_hecke_on_int_rows_matches_the_fraction_sum(m):
    # phi_{10,1} is stored with y-denominator 2; Z/3 and phi_{10,1}/6 have denominators
    phi = siegel._phi_10_1(13)
    assert phi.ydenom == 2 and siegel._phi_10_1(13) is phi
    for form, weight in [(phi, 10), (phi.scale(F(1, 6)), 10)] + \
            [(umbral_Z(ell, 13).scale(F(1, 3)), 0) for ell in LAMBENCIES]:
        got, want = siegel._hecke(*siegel._coeffs(form), m, weight, 3), \
            reference_hecke(form, m, weight, 3)
        assert (got.rows, got.cden, got.qcut) == (want.rows, want.cden, want.qcut)


def test_additive_m1_slice_is_the_form():
    add = siegel.additive_lift(2, 3, 6)
    phi = siegel._phi_10_1(4)
    got = {(n, r): c for (n, r), c in add.slice(1).items() if c}
    want = {(int(qe), int(yp)): c for qe, yp, c in phi.items() if qe < 4}
    assert got == want


def test_vm_collapses_when_coprime():
    # gcd(n, r, m) = 1 forces the single j = 1 term c(nm, r)
    add = siegel.additive_lift(3, 3, 6)
    phi = siegel._phi_10_1(10)
    for m in (2, 3):
        for n in (1, 2, 3):
            for r in (1, -1, 5):
                from math import gcd
                if gcd(gcd(n, abs(r)), m) != 1:
                    continue
                want = phi.coefficient(n * m, r) if n * m < 10 else 0
                assert add.get(m, n, r) == want


@pytest.mark.parametrize("pmax, nmax", [(1, 1), (2, 2), (3, 3), (1, 4), (4, 1), (5, 1), (2, 4),
                                        (4, 2)])
def test_exponential_lift_matches_binomial_product(pmax, nmax):
    for ell in LAMBENCIES:
        acc, prefactor = reference_product(ell, pmax, nmax)
        lift = siegel.exponential_lift(ell, pmax, nmax)
        want = [{"m": m, "n": n, "r": r, "c": f"{c.numerator}/{c.denominator}"}
                for (m, n, r), c in sorted(acc.items())]
        assert lift.dump() == want, ell
        assert lift.prefactor == prefactor, ell


@pytest.mark.parametrize("ell", LAMBENCIES)
@pytest.mark.parametrize("pmax, nmax", [(3, 3), (5, 1), (2, 4)])
def test_exponential_lift_takes_its_slices_by_the_recurrence(monkeypatch, ell, pmax, nmax):
    # nmax - 1 powers of X_0, one product per head factor (1 - y^r)^c(0, r), r < 0, and
    # pmax (pmax + 1) / 2 products m E_m = sum_i i X_i E_(m-i); the power series of
    # exp(X) to X^(pmax + nmax) takes (pmax + 1)(pmax + 2)/2 products per power
    from moonshine import jacobi
    Z = umbral_Z(ell, pmax * nmax + 1)  # built first: the form's own products are not counted
    heads = sum(1 for qe, yp, _ in Z.items() if qe == 0 and yp < 0)
    calls, product = [], jacobi._product
    monkeypatch.setattr(jacobi, "_product", lambda *args: calls.append(1) or product(*args))
    siegel.exponential_lift.__wrapped__(ell, pmax, nmax)  # cold, past the memo
    assert 0 < len(calls) <= pmax * (pmax + 1) // 2 + nmax - 1 + heads


def test_exponential_lift_is_built_once():
    assert siegel.exponential_lift(3, 2, 1) is siegel.exponential_lift(3, 2, 1)


def test_lambency_outside_the_six_refused():
    with pytest.raises(OutOfRange, match="^lambency 6$"):
        siegel.exponential_lift(6, 1, 1)


def test_negative_box_sizes_are_refused():
    with pytest.raises(OutOfRange):
        siegel.exponential_lift(3, -1, 3)
    with pytest.raises(OutOfRange):
        siegel.exponential_lift(3, 3, -1)
    with pytest.raises(OutOfRange):
        siegel.additive_lift(3, 3, -1)


@pytest.mark.parametrize("box", [(0, 0, 6), (0, 3, 6), (3, 0, 6), (3, 3, -1)])
def test_igusa_refuses_an_empty_box(box):
    with pytest.raises(OutOfRange):
        siegel.compare_igusa(*box)


def test_exponential_prefactor_l2():
    lift = siegel.exponential_lift(2, 2, 2)
    assert lift.prefactor == (1, 1, 1)


def test_exponential_prefactors_from_q0_row():
    # A = sum c(0,r)/24, B = sum_{r>0} r c(0,r)/2, C = sum r^2 c(0,r)/4
    for ell in (3, 5, 13):
        Z = umbral_Z(ell, 2)
        row0 = {int(yp): c for qe, yp, c in Z.items() if qe == 0}
        lift = siegel.exponential_lift(ell, 1, 1)
        A = sum(row0.values()) / 24
        B = sum(r * c for r, c in row0.items() if r > 0) / 2
        C = sum(r * r * c for r, c in row0.items()) / 4
        assert lift.prefactor == (A, B, C)


def test_ordering_includes_negative_r_at_origin():
    # the (m, n, r) > 0 ordering admits (0, 0, -1) but not (0, 0, +1):
    # the y^-1 factor contributes a pure y-polynomial piece
    lift = siegel.exponential_lift(2, 1, 1)
    assert lift.get(0, 0, -1) == -2   # from (1 - 1/y)^2 expansion head
    assert lift.get(0, 0, -2) == 1
    assert lift.get(0, 0, 1) == 0


def test_igusa_cross_check_box():
    rep = siegel.compare_igusa(3, 3, 6)
    assert rep["ok"], rep


def test_igusa_reads_the_corner_of_the_product_lift(monkeypatch):
    # the product side's (pmax, nmax) corner is compared, not just built
    lift = siegel.exponential_lift(2, 3, 3)
    slices = list(lift.slices)
    slices[3] = slices[3] + WindowedSeries(1, {3: {0: 1}}, 4)
    bad = siegel.TripleSeries(slices, lift.prefactor)
    monkeypatch.setattr(siegel, "exponential_lift", lambda *args: bad)
    rep = siegel.compare_igusa(3, 3, 6)
    assert not rep["ok"] and rep["first_mismatch"][:3] == (4, 4, 1), rep


def test_fj_slice_discriminant_dependence():
    # fixed-m slices depend on (r^2 - 4mn, r mod 2m) on the computed box
    add = siegel.additive_lift(3, 3, 6)
    for m in (1, 2, 3):
        seen = {}
        for (n, r), c in add.slice(m).items():
            key = (r * r - 4 * m * n, r % (2 * m))
            assert seen.setdefault(key, c) == c, (m, n, r)


def test_r_reflection_consistency():
    # both pipelines produce the same even r <-> -r behaviour: the additive
    # slices are symmetric, and the product side is symmetric about the
    # y-exponent of its prefactor
    add = siegel.additive_lift(2, 2, 5)
    exp = siegel.exponential_lift(2, 2, 2)
    for m, s in enumerate(add.slices):
        for n, r, c in s.items():
            assert add.get(m, n, -r) == c
    for m, s in enumerate(exp.slices):
        for n, r, c in s.items():
            if abs(-2 - r) <= 8:
                assert exp.get(m, n, -2 - r) == c


def test_log_exp_internal_consistency():
    # re-exponentiating the formal log of the product reproduces the box
    from math import gcd
    ell = 2
    pmax = nmax = 2
    lift = siegel.exponential_lift(ell, pmax, nmax)
    Z = umbral_Z(ell, pmax * nmax + 1)
    table = {(int(qe), int(yp)): c for qe, yp, c in Z.items()}
    # log sum: -sum c(mn, r)/k * (p^m q^n y^r)^k over factors, k >= 1
    log = {}
    def add_log(m, n, r, expo):
        if m == 0 and n == 0:
            kmax = 40
        elif m == 0:
            kmax = nmax // n
        elif n == 0:
            kmax = pmax // m
        else:
            kmax = min(pmax // m, nmax // n)
        for k in range(1, kmax + 1):
            key = (m * k, n * k, r * k)
            if abs(key[2]) <= 40:
                log[key] = log.get(key, F(0)) - F(expo, k)
    row0 = {r: c for (n, r), c in table.items() if n == 0}
    for r in sorted((r for r in row0 if r < 0), reverse=True):
        add_log(0, 0, r, int(row0[r]))
    for n in range(1, nmax + 1):
        for r in sorted(row0):
            add_log(0, n, r, int(row0[r]))
    for m in range(1, pmax + 1):
        for n in range(0, nmax + 1):
            for r in sorted(r for (nn, r) in table if nn == m * n):
                add_log(m, n, r, int(table[(m * n, r)]))
    # exponentiate: exp(L) = sum L^k / k!
    acc = {(0, 0, 0): F(1)}
    power = {(0, 0, 0): F(1)}
    fact = 1
    for k in range(1, 16):
        new = {}
        for (a1, a2, a3), v in power.items():
            for (b1, b2, b3), w in log.items():
                key = (a1 + b1, a2 + b2, a3 + b3)
                if key[0] > pmax or key[1] > nmax or abs(key[2]) > 40:
                    continue
                new[key] = new.get(key, F(0)) + v * w
        power = new
        fact *= k
        for key, v in power.items():
            acc[key] = acc.get(key, F(0)) + v / fact
        if not power:
            break
    acc = {k: v for k, v in acc.items() if v and abs(k[2]) <= 6}
    want = {(m, n, r): v for m, s in enumerate(lift.slices)
            for n, r, v in s.items() if abs(r) <= 6}
    assert acc == want


@pytest.mark.parametrize("read, error", [
    # the true values, read from larger boxes, are -6816, -6816, 240 and -272
    (lambda: siegel.exponential_lift(2, 2, 2).get(3, 1, 0), CutoffUnderflow),
    (lambda: siegel.exponential_lift(2, 2, 2).get(1, 3, 0), CutoffUnderflow),
    (lambda: siegel.additive_lift(2, 2, 1).get(2, 2, 2), WindowTooNarrow),
    (lambda: siegel.additive_lift(2, 2, 1).get(3, 1, 0), CutoffUnderflow),
    (lambda: siegel.exponential_lift(2, 2, 2).slice(3), CutoffUnderflow),
], ids=["past-last-slice", "past-qcut", "past-ywindow", "additive-past-last-slice",
        "slice-past-last"])
def test_read_past_the_box_raises(read, error):
    with pytest.raises(error):
        read()


def test_dump_schema():
    lift = siegel.exponential_lift(2, 1, 1)
    rows = lift.dump()
    assert all(set(r) == {"m", "n", "r", "c"} for r in rows)
    assert all("/" in r["c"] for r in rows)
