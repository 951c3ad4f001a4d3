"""Acceptance suite: one test per criterion, exact equality throughout.

All arithmetic is exact rational, so every comparison is equality, no
tolerances.  Two cells of the bundled printed tables are documented errata
(see reps.MT_ERRATA / reps.DEC_ERRATA); criterion 2 asserts that the
computed series differ from the raw fixtures at exactly those cells and
nowhere else.
"""
from fractions import Fraction as F

import pytest

from moonshine import groups, jacobi, mckay, reps, siegel
from moonshine.data import LAMBENCIES, load_json
from moonshine.qseries import FracSeries, unary_theta


def _table_qcut(ell):
    tabs = [load_json(f"mt_{ell}_{r}.json") for r in range(1, ell)]
    top = max(int(k) for t in tabs for k in t["rows"])
    return F(top + 4 * ell, 4 * ell) + 1


@pytest.fixture(scope="module")
def deep_H():
    return {ell: mckay.identity_H(ell, _table_qcut(ell)) for ell in LAMBENCIES}


def _report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else ""))
    assert ok, detail


def test_criterion_01_identity_columns(deep_H):
    """extract_H reproduces every 1A column to full stored depth."""
    bad = []
    for ell in LAMBENCIES:
        H = deep_H[ell]
        for r in range(1, ell):
            tab = load_json(f"mt_{ell}_{r}.json")
            col = tab["classes"].index("1A")
            for key, vals in tab["rows"].items():
                got = H.component(r).coefficient(F(int(key), 4 * ell))
                if got != vals[col]:
                    bad.append((ell, r, key, str(got), vals[col]))
    _report("criterion 1 (identity-class regeneration, all six lambencies)",
            not bad, str(bad[:4]))


def test_criterion_02_twisted_columns(deep_H):
    """twisted_H reproduces every stored column; documented errata excepted."""
    mismatches, capped = [], []
    for ell in LAMBENCIES:
        qcut = _table_qcut(ell)
        tabs = {r: load_json(f"mt_{ell}_{r}.json") for r in range(1, ell)}
        for lab in tabs[1]["classes"]:
            tw = mckay.twisted_H(ell, lab, qcut)
            for r in range(1, ell):
                comp = tw.component(r)
                # a stored column (7 and 13, not 1A or 2A) ends at its table's
                # depth; every computed route reaches qcut - r^2/4l uncapped
                stored = ell in (7, 13) and lab not in ("1A", "2A")
                if not stored and comp.cutoff < qcut - F(r * r, 4 * ell):
                    capped.append((ell, lab, r, str(comp.cutoff)))
                j = tabs[r]["classes"].index(lab)
                for key, vals in tabs[r]["rows"].items():
                    got = comp.coefficient(F(int(key), 4 * ell))  # raises past the cutoff
                    if got != vals[j]:
                        mismatches.append((ell, r, int(key), lab, got, vals[j]))
    documented = {(l, r, k, lab): v for (l, r, k, lab), v in reps.MT_ERRATA.items()}
    unexpected = [m for m in mismatches
                  if (m[0], m[1], m[2], m[3]) not in documented
                  or documented[(m[0], m[1], m[2], m[3])] != m[4]]
    _report("criterion 2 (twisted regeneration, errata-aware)",
            not unexpected and len(mismatches) == len(documented) and not capped,
            f"unexpected={unexpected[:4]} mismatches={len(mismatches)} capped={capped[:4]}")


def test_criterion_03_extremality():
    ok = True
    for ell in LAMBENCIES:
        rep = jacobi.verify_extremal(ell)
        z0 = jacobi.umbral_Z(ell, 3).specialize_z0().coefficient(0)
        ok = ok and rep["ok"] and z0 == F(24, ell - 1)
    _report("criterion 3 (extremal polar structure and chi = 24/(l-1))", ok)


def test_criterion_04_extremal_dimensions():
    # on the whole weak Jacobi space of index m - 1: 1 at the six lambencies, 0 elsewhere
    dims = [jacobi.extremal_space_dim(m) for m in range(2, 26)]
    rel = all(jacobi.leading_row_relation(jacobi.gritsenko(m, 1, 3), m)
              for m in range(2, 26))
    _report("criterion 4 (dim 1 at the six lambencies, 0 at every other index up to 24; "
            "leading-row relation)",
            dims == [int(m in LAMBENCIES) for m in range(2, 26)] and rel,
            f"dims={dims} rel={rel}")


def test_criterion_05_mock_theta_identities():
    failures = [n for n in sorted(mckay.MOCK_IDENTITIES)
                if not mckay.mock_identity_check(n, qcut=21)["ok"]]
    counts = {2: 0, 3: 0, 4: 0, 5: 0, 8: 0}
    for name in mckay.MOCK_IDENTITIES:
        counts[int(name.split(":")[0])] += 1
    _report("criterion 5 (mock theta identities to q-order >= 20)",
            not failures and counts[2] == 2 and counts[3] == 5
            and counts[4] + counts[8] == 7 and counts[5] == 4,
            f"failures={failures} counts={counts}")


def test_criterion_06_weight2_consistency():
    failures = []
    for ell in LAMBENCIES:
        if ell == 4:
            continue  # no cataloged weight-2 forms at lambency 4
        for lab in mckay.weight2_classes(ell, "F"):
            rep = mckay.verify_F_consistency(ell, lab, qcut=15)
            if not rep["ok"]:
                failures.append((ell, lab))
    _report("criterion 6 (weight-2 consistency for every cataloged class)",
            not failures, str(failures))


def test_criterion_07_group_data():
    orders = {3: 190080, 4: 2688, 5: 240, 7: 24, 13: 4}
    ok = True
    for ell, want in orders.items():
        gd = groups.umbral_group(ell)
        stored = groups.class_table(ell)
        ok = ok and gd.order == want
        for a, b in zip(gd.classes, stored.classes):
            ok = ok and (a.label, a.gamma, a.chi, a.chibar, a.pi, a.pibar) == \
                (b.label, b.gamma, b.chi, b.chibar, b.pi, b.pibar)
    # the total shape equals the formal product elementwise: every element
    # of the two smallest groups, a seeded sample of the largest
    import random
    for ell in (5, 7, 13):
        for img in groups.enumerate_group(groups.generators(ell)):
            g = groups.SignedPerm(img)
            ok = ok and groups.total_frame_direct(g) == groups.frame_shapes(g)[2]
    rng = random.Random(1729)
    big = sorted(groups.enumerate_group(groups.generators(3)))
    for img in rng.sample(big, 250):
        g = groups.SignedPerm(img)
        ok = ok and groups.total_frame_direct(g) == groups.frame_shapes(g)[2]
    # shuffle groups for every divisor of 12; lambent ones match the
    # quotient orders |G|/2
    shuffle = {n: groups.shuffle_group(n) for n in (1, 2, 3, 4, 6, 12)}
    ok = ok and shuffle == {1: 1, 2: 2, 3: 6, 4: 12, 6: 120, 12: 95040}
    for ell, n in ((13, 2), (7, 4), (5, 6), (3, 12)):
        ok = ok and shuffle[n] == groups.umbral_group(ell).order // 2
    _report("criterion 7 (orders, Frame shapes, Euler characters, symbols, "
            "shuffle groups)", ok)


def test_criterion_08_dynkin_checks():
    ok = (groups.squared_class_set(3, "2B")
          == {"1A", "2B", "3A", "4C", "5A", "6C", "3B", "4B", "2C"})
    ok = ok and groups.squared_class_set(4, "2C") \
        == {"1A", "2C", "3A", "4C", "6A", "4A", "2B", "2A"}
    ok = ok and groups.squared_class_set(5, "4AB") == {"2A", "2C", "6A"}
    # both constituent orbits of the merged order-4 pair give the same set
    gd5 = groups.umbral_group(5)
    rep_b = gd5.by_label["4AB"].rep.negate()
    orbit_b = groups.conjugation_orbit(5, rep_b)
    set_b = {gd5.class_of(rep_b * groups.SignedPerm(i)) for i in orbit_b}
    ok = ok and set_b == {"2A", "2C", "6A"}
    ok = ok and groups.squared_class_set(7, "4A") == {"1A", "4A", "2A"}
    bridge = groups.check_ell4_to_ell2()
    _report("criterion 8 (squared-class diagrams and the degree-24 bridge)",
            ok and bridge["ok"])


def test_criterion_09_character_tables_and_decompositions():
    ok = True
    for ell in LAMBENCIES:
        ok = ok and reps.validate_table(ell)["ok"]
        rep = reps.verify_decomposition_tables(ell)
        ok = ok and rep["ok"]
        ok = ok and reps.parity_split_ok(ell)
        for r in range(1, ell):
            tab = load_json(f"mt_{ell}_{r}.json")
            for key in list(tab["rows"])[:6]:
                if int(key) < 0:
                    continue
                got = reps.decompose(ell, r, int(key),
                                     reps.coefficient_row(ell, r, int(key)))
                ok = ok and got.integral and got.nonnegative
    _report("criterion 9 (orthogonality, stored decompositions, parity split)", ok)


def test_criterion_10_discriminants():
    expected_types = {2: [7, 15, 23], 3: [5, 8, 11, 20], 4: [3, 7],
                      5: [4], 7: [3], 13: [4]}
    ok = True
    for ell in LAMBENCIES:
        rep = reps.discriminant_report(ell)
        ok = ok and rep["ok"] and rep["types"] == expected_types[ell]
    _report("criterion 10 (type inventory, FS matching, minimal rows, doublets)", ok)


def test_criterion_11_siegel_cross_check():
    rep = siegel.compare_igusa(3, 3, 6)
    _report("criterion 11 (additive vs product lift on the box)", rep["ok"],
            str(rep))


def test_criterion_12_property_suites(rng):
    # series ring axioms on seeded random inputs
    def rand_series():
        return FracSeries.from_terms(
            [(F(rng.randint(0, 10), 4), F(rng.randint(-6, 6)))
             for _ in range(7)], 4)
    ring = all((lambda a, b, c: a * b == b * a and (a * b) * c == a * (b * c)
                and a * (b + c) == a * b + a * c)(rand_series(), rand_series(),
                                                  rand_series())
               for _ in range(8))
    # split partitions
    s = rand_series()
    split = sum((s.split(F(k, 4)) for k in range(1, 4)), start=s.split(0)) == s
    # round-trip extraction at lambency 3
    H = jacobi.extract_H(3, 6)
    total = None
    for r in range(1, 3):
        piece = jacobi.hat_theta(3, r, 6) * \
            jacobi.WindowedSeries.from_fracseries(H.component(r))
        total = piece if total is None else total + piece
    rt = all(total.y_row(r) == H.component(r).shift(F(r * r, 12)).scale(-1)
             for r in (1, 2))
    # annulus independence at lambency 2
    ann = jacobi.extract_H(2, 7, annulus=jacobi.LOWER).component(1) == \
        jacobi.extract_H(2, 7, annulus=jacobi.UPPER).component(1)
    _report("criterion 12 (ring axioms, split partition, round trip, annulus "
            "independence)", ring and split and rt and ann)


def test_raw_fixtures_differ_only_at_documented_errata(deep_H):
    """The raw printed tables disagree with the computation exactly at the
    documented errata cells (and the decomposition erratum row)."""
    ell, r, key, lab = 4, 3, 599, "6BC"
    tw = mckay.twisted_H(ell, lab, _table_qcut(ell))
    raw = reps.coefficient_row(ell, r, key, corrected=False)[lab]
    fixed = reps.coefficient_row(ell, r, key, corrected=True)[lab]
    got = tw.component(r).coefficient(F(key, 4 * ell))
    assert raw == 3 and fixed == 4 and got == 4
    # parity argument: 599 is not n*lambda^2 for n in {3, 7}, so the module
    # is a doublet and every trace at that degree is even
    assert not reps.is_representable(4, 599, {3, 7})
    dec = load_json("dec_3_1.json")["rows"]["95"]
    assert dec != list(reps.DEC_ERRATA[(3, 1, 95)].values())
