import io
import json
import shutil
from contextlib import redirect_stdout
from fractions import Fraction as F
from math import gcd

import pytest

from moonshine import mckay as mk
from moonshine.cli import main
from moonshine.data import LAMBENCIES, data_dir, load_json, memo, set_data_dir
from moonshine.errors import DataCorrupt, UnknownClass
from moonshine.groups import class_table
from moonshine.qseries import FracSeries, eta_quotient, lambda_n, mock_theta, unary_theta
from moonshine.reps import coefficient_row


def test_weight2_lambda_combination():
    f = mk.weight2(2, "2A", "F", 6)
    assert f == lambda_n(2, 6).scale(-16)
    assert f.coefficient(0) == F(-4, 3)


def test_weight2_eta_equalities():
    # tabulated Lambda combinations equal the displayed eta quotients
    assert mk.weight2(2, "2B", "F", 14) == eta_quotient([(1, 8), (2, -4)], 14).scale(-2)
    assert mk.weight2(2, "4A", "F", 14) == eta_quotient([(2, 8), (4, -4)], 14).scale(-2)


def test_weight2_forms_built_once(monkeypatch):
    # the weight-2 sides of a class and of its z-partner both read the forms of the pair
    set_data_dir(None)
    built = []
    combination = mk._combination
    monkeypatch.setattr(mk, "_combination",
                        lambda terms, cutoff: built.append(cutoff) or combination(terms, cutoff))
    mk._sides(3, "5A", 20)
    mk._sides(3, "10A", 20)
    mk._sides(3, "10A", 12)
    assert built == [20, 20]
    assert mk.weight2(3, "5A", "F", 20) is mk.weight2(3, "5A", "F", F(40, 2))


def test_weight2_fractional_argument():
    f = mk.weight2(5, "2B", "F2", 8)
    assert f.low() == F(1, 4)
    assert f == eta_quotient([(1, 8), (F(1, 2), -4)], 8).scale(F(-8, 3))


def test_quarter_twist_is_residue_sign():
    f = mk.weight2(5, "2B", "F2", 6)
    tw = mk.quarter_twist(f)
    for e, c in f.items():
        want = -c if (e + F(1, 4)) % 1 == F(1, 2) else c
        assert tw.coefficient(e) == want


def test_quarter_twist_rejects_off_lattice():
    # an integer exponent has no real quarter twist: the catalog entry is corrupt
    with pytest.raises(DataCorrupt, match="off-lattice exponent 0"):
        mk.quarter_twist(lambda_n(2, 4))


def test_twisted_identity_columns_match_extraction():
    for ell in LAMBENCIES:
        tw = mk.twisted_H(ell, "1A", 6)
        H = mk.identity_H(ell, 6)
        for r in range(1, ell):
            cut = min(tw.component(r).cutoff, H.component(r).cutoff)
            assert tw.component(r).truncate(cut) == H.component(r).truncate(cut)


# The weight-2 relations solved by hand, as the reference for the one solver
# of twisted_H: F eta^-3 at lambency 2, the eta-quotient inverses 1/S1 and 1/S2
# at lambency 3, a written-out 2x2 solve at lambency 5 (its forms built 2 past
# the cutoff) and W / (2 eta(2t)^3) for the second component at lambency 4.

def _reference_2(label, qcut):
    c = class_table(2).by_label[label]
    f = mk.weight2(2, label, "F", qcut)
    h = mk.identity_H(2, qcut).component(1)
    return [h.scale(F(c.chi, 24)) + f * eta_quotient([(1, -3)], qcut)]


def _reference_3(label, qcut):
    c, zlab = class_table(3).by_label[label], mk.pairing(3, label)[0]
    fg, fz = mk.weight2(3, label, "F", qcut), mk.weight2(3, zlab, "F", qcut)
    H = mk.identity_H(3, qcut)
    s1_inv = eta_quotient([(4, 2), (2, -5)], qcut)
    s2_inv = eta_quotient([(2, 1), (1, -2), (4, -2)], qcut).scale(F(1, 2))
    return [H.component(1).scale(F(c.chibar, 12)) + ((fg + fz) * s1_inv).scale(F(1, 2)),
            H.component(2).scale(F(c.chi, 12)) + ((fg - fz) * s2_inv).scale(F(1, 2))]


def _reference_5(label, qcut):
    c, zlab = class_table(5).by_label[label], mk.pairing(5, label)[0]
    fcut = qcut + 2
    fg, fz, f2g, f2z = (mk.weight2(5, lab, v, fcut) for v in ("F", "F2") for lab in (label, zlab))
    S = {r: unary_theta(5, r, fcut) for r in (1, 2, 3, 4)}
    det_inv = (S[1] * S[2] - S[3] * S[4]).invert()
    rhs1, rhs3 = (fg + fz).scale(F(1, 2)), (fg - fz).scale(F(1, 2))
    rhs2, rhs4 = (f2g + f2z).scale(F(1, 2)), (f2z - f2g).scale(F(1, 2))
    hat = {1: (rhs1 * S[2] - rhs2 * S[3]) * det_inv, 3: (rhs2 * S[1] - rhs1 * S[4]) * det_inv,
           2: (rhs3 * S[1] - rhs4 * S[4]) * det_inv, 4: (rhs4 * S[2] - rhs3 * S[3]) * det_inv}
    H = mk.identity_H(5, qcut)
    return [(H.component(r).scale(F(c.chibar if r % 2 else c.chi, 6)) + hat[r]).truncate(
        min(qcut - F(r * r, 20), hat[r].cutoff)) for r in (1, 2, 3, 4)]


def _reference_4_second(label, qcut):
    c = class_table(4).by_label[label]
    W = mk._combination(load_json("l4_reconstruction.json")["h2_hat"][label], qcut)
    return (mk.identity_H(4, qcut).component(2).scale(F(c.chi, 8))
            + W * eta_quotient([(2, -3)], qcut).scale(F(1, 2)))


def exact(s):
    return list(s.items()), s.cutoff


@pytest.mark.parametrize("qcut", [7, F(113, 16)])
def test_twisted_H_matches_hand_coded_reference(qcut):
    for ell, reference in ((2, _reference_2), (3, _reference_3), (5, _reference_5)):
        for label in class_table(ell).by_label:
            got = mk.twisted_H(ell, label, qcut).components
            assert [exact(s) for s in got] == [exact(s) for s in reference(label, qcut)], \
                (ell, label)
    for label in ("3A", "6A", "7AB", "14AB"):
        got = mk.twisted_H(4, label, qcut).component(2)
        assert exact(got) == exact(_reference_4_second(label, qcut)), label


def test_pairing_sign_rule_on_tables():
    # H_{zg,r} = H_{g,r} for odd r and -H_{g,r} for even r
    for ell in (3, 4, 5, 7, 13):
        tabs = {r: load_json(f"mt_{ell}_{r}.json") for r in range(1, ell)}
        from moonshine.groups import class_table
        gd = class_table(ell)
        for lab in tabs[1]["classes"]:
            zlab = gd.pairing[lab]
            for r in range(1, ell):
                i, j = tabs[r]["classes"].index(lab), tabs[r]["classes"].index(zlab)
                sign = 1 if r % 2 else -1
                for vals in tabs[r]["rows"].values():
                    assert vals[j] == sign * vals[i]


def test_mock_theta_identities_all():
    for name in sorted(mk.MOCK_IDENTITIES):
        rep = mk.mock_identity_check(name, qcut=21)
        assert rep["ok"], rep


def test_twisted_4B_is_order2_mock_theta():
    tw = mk.twisted_H(2, "4B", 10)
    want = mock_theta("mu2", 10).shift(F(-1, 8)).scale(-2)
    cut = min(tw.component(1).cutoff, want.cutoff)
    assert tw.component(1).truncate(cut) == want.truncate(cut)


def test_f_consistency_samples():
    for ell, lab in [(2, "3A"), (2, "11A"), (3, "6A"), (3, "22AB"),
                     (5, "3A"), (7, "4A"), (7, "6AB"), (13, "4AB")]:
        rep = mk.verify_F_consistency(ell, lab, qcut=10)
        assert rep["ok"], rep


def test_f_consistency_reaches_the_order_asked():
    # hat H_r is exact below c - r^2/4l once; F2 pairs it with S_(l-r), so the
    # F2 classes need c = qcut + (l-2)/4 for every check to reach qcut
    for ell in (2, 3, 5, 7, 13):
        for lab in mk.weight2_classes(ell, "F"):
            rep = mk.verify_F_consistency(ell, lab, qcut=10)
            assert rep["ok"], rep
            assert [c["order"] for c in rep["checked"]] == ["10"] * len(rep["checked"]), rep


def test_twisted_series_built_once(monkeypatch):
    # identities that share a class, and the lambency-4 bridge, share one build
    assert mk.twisted_H(3, "2B", 21) is mk.twisted_H(3, "2B", F(21)) is mk.twisted_H(3, "2B", "21")
    built = []
    build = mk.twisted_H.__wrapped__
    monkeypatch.setattr(mk, "twisted_H", memo(
        lambda ell, label, qcut: built.append((ell, label, qcut)) or build(ell, label, qcut)))
    for name in mk.MOCK_IDENTITIES:
        assert mk.mock_identity_check(name)["ok"]
    assert len(built) == len(set(built)) == 11


def test_memo_binds_keywords_and_defaults():
    # a call is bound to the builder's signature: keywords and defaults share one key
    from moonshine import jacobi, siegel
    set_data_dir(None)
    assert jacobi.gritsenko(2, 1, qcut=3) is jacobi.gritsenko(2, 1, 3)
    assert mock_theta("f", qcut=3) is mock_theta("f", 3)
    assert jacobi.appell_mu(1, 0, 3, 4, annulus="upper").annulus == "upper"
    assert siegel.exponential_lift(2) is siegel.exponential_lift(2, pmax=3, nmax=3)
    tw = mk.twisted_H(3, "2B")
    assert tw is mk.twisted_H(3, "2B", 31) is mk.twisted_H(3, label="2B", qcut=F(31))
    assert [s.cutoff for s in tw.components] == [31 - F(r * r, 12) for r in (1, 2)]


def test_served_twisted_series_equal_fresh_builds():
    # a deeper value truncated by the memo reports what a build at the shallower
    # cutoff reports: stored columns, the lambency-4 bridge and computed routes
    def reported(tw):
        return [(list(s.items()), s.cutoff) for s in tw.components]

    labels = [(ell, c.label) for ell in LAMBENCIES for c in class_table(ell).classes]
    set_data_dir(None)
    for ell, label in labels:
        mk.twisted_H(ell, label, F(113, 16) + 1)
    served = [reported(mk.twisted_H(ell, label, 7)) for ell, label in labels]
    set_data_dir(None)
    assert served == [reported(mk.twisted_H(ell, label, 7)) for ell, label in labels]


def test_mock_theta_functions_built_once(monkeypatch):
    # identities that share a function share one build, at the deepest cutoff asked
    from moonshine import qseries
    set_data_dir(None)
    built = []
    eulerian = qseries._eulerian
    monkeypatch.setattr(qseries, "_eulerian",
                        lambda cutoff, *row: built.append(cutoff) or eulerian(cutoff, *row))
    for name in mk.MOCK_IDENTITIES:
        assert mk.mock_identity_check(name)["ok"]
    assert len(built) == 16
    assert mock_theta("U0", 21) is mock_theta("U0", F(21))


def test_unary_thetas_built_once(monkeypatch):
    # a cold verify-identities asks S^(l)_j 299 times at 35 (l, j, cutoff): each is
    # built once per (l, j), and again only at a deeper cutoff (``data.memo``); the
    # lambency-4 bridge runs first, so S^(2)_1 is built at its deepest cutoff alone
    from moonshine import qseries
    set_data_dir(None)
    built = []
    lattice = qseries._theta_lattice
    monkeypatch.setattr(qseries, "_theta_lattice",
                        lambda m, r, cutoff: built.append((m, r, cutoff)) or lattice(m, r, cutoff))
    with redirect_stdout(io.StringIO()):
        assert main(["verify-identities"]) == 0
    assert len(built) == len(set(built)) == 28
    set_data_dir(None)
    assert unary_theta(5, 2, 9) is unary_theta(5, 2, F(18, 2))


def test_verify_identities_builds_no_identity_vector(monkeypatch):
    # the weight-2 checks read the stored tables: without the mock identities
    # no identity vector is extracted
    set_data_dir(None)
    built = []
    extract = mk.jacobi.extract_H
    monkeypatch.setattr(mk.jacobi, "extract_H",
                        lambda ell, qcut: built.append(ell) or extract(ell, qcut))
    monkeypatch.setattr(mk, "MOCK_IDENTITIES", {})
    with redirect_stdout(io.StringIO()):
        assert main(["verify-identities"]) == 0
    assert built == []


def test_identity_class_F_vanishes():
    # F_1A = 0: the twisted series of 1A is the identity vector, cutoffs included
    for ell in (2, 3, 5, 7, 13):
        tw, H = mk.twisted_H(ell, "1A", 8), mk.identity_H(ell, 8)
        for r in range(1, ell):
            got, want = tw.component(r), H.component(r)
            assert (list(got.items()), got.cutoff) == (list(want.items()), want.cutoff), (ell, r)


def test_weight2_check_fires_on_a_wrong_catalog_form(tmp_path):
    # 5A's Lambda_5 coefficient at lambency 3 changed from -2 to 3
    alt = tmp_path / "tables"
    shutil.copytree(data_dir(), alt)
    path = alt / "weight2_3.json"
    table = json.loads(path.read_text())
    rec = next(r for r in table["records"] if (r["class"], r["variant"]) == ("5A", "F"))
    assert rec["terms"][0]["coeff"] == "-2"
    rec["terms"][0]["coeff"] = "3"
    path.write_text(json.dumps(table))
    try:
        set_data_dir(alt)
        rep = mk.verify_F_consistency(3, "5A")
        assert not rep["ok"] and rep["checked"][0]["first_mismatch"] == 0, rep
        with redirect_stdout(io.StringIO()):
            assert main(["verify-identities", "--data-dir", str(alt)]) == 1
    finally:
        set_data_dir(None)


def test_weight2_check_reports_the_depth_the_tables_reach():
    # the lambency-3 tables end at q^(359/12) (r = 1) and q^(356/12) (r = 2):
    # hat_r S_r is exact below 31 for both, short of the 40 asked
    rep = mk.verify_F_consistency(3, "2B", 40)
    assert rep["ok"] and [c["order"] for c in rep["checked"]] == ["31"], rep


def test_f44_class_reports_the_cutoff_asked():
    # f44 is computed from its elliptic curve, so nothing caps 22AB
    tw = mk.twisted_H(3, "22AB", 40)
    assert [s.cutoff for s in tw.components] == [40 - F(r * r, 12) for r in (1, 2)]


def test_stored_class_depth():
    from moonshine.errors import CutoffUnderflow
    h1 = mk.twisted_H(7, "4A", 60).component(1)
    assert h1.cutoff == F(1035 + 28, 28)
    assert h1.coefficient(F(1035, 28)) == 172
    with pytest.raises(CutoffUnderflow):
        h1.coefficient(F(1035 + 28, 28))


def test_pairing_examples():
    assert mk.pairing(3, "2B")[0] == "2C"
    assert mk.pairing(5, "1A")[0] == "2A"
    assert mk.pairing(4, "3A") == ("6A", [1, -1, 1])


def test_chi_r_parity():
    assert mk.chi_r(4, "2A", 1) == 8
    assert mk.chi_r(4, "2A", 2) == -8


def test_multiplier_rho_structure():
    ident = mk.multiplier_rho(3, 2, 2, (1, 0, 0, 1))
    assert ident == [[F(0), None], [None, F(0)]]
    m = mk.multiplier_rho(4, 2, 4, (1, 0, 2, 1))
    # J^(c(d+1)/n) K^(c/n) = J^2 K^1 = K for the 3x3 case
    flat = [(i, j) for i in range(3) for j in range(3) if m[i][j] is not None]
    assert flat == [(0, 2), (1, 1), (2, 0)]


def test_multiplier_rho_J_signs():
    # diagonal of J via gamma with c/n even, c(d+1)/n odd
    m = mk.multiplier_rho(5, 2, 4, (1, 1, 4, 5))
    # c/n = 2 (K^2 = I), c(d+1)/n = 12 (J^12 = I): scalar * identity
    assert all(m[i][i] is not None for i in range(4))


def _rho_by_matrices(ell, n, h, gamma):
    """rho_{n|h}(gamma) as the product e(x) J^a K^b of root-of-unity matrices."""
    a, b, c, d = gamma
    size = ell - 1
    v = mk._V_ELL[ell]

    def scalar_times(x, mat):
        return [[None if e is None else (x + e) % 1 for e in row] for row in mat]

    ident = [[F(0) if i == j else None for j in range(size)] for i in range(size)]
    if n % h == 0:
        return scalar_times(F(-v * c * d, n * h) % 1, ident)
    J = [[(F(0) if (i + 1) % 2 else F(1, 2)) if i == j else None
          for j in range(size)] for i in range(size)]
    K = [[F(0) if i + j == size - 1 else None for j in range(size)] for i in range(size)]

    def mat_mul(A, B):
        out = [[None] * size for _ in range(size)]
        for i in range(size):
            for k in range(size):
                for j in range(size):
                    if A[i][k] is not None and B[k][j] is not None:
                        assert out[i][j] is None  # monomial matrices
                        out[i][j] = (A[i][k] + B[k][j]) % 1
        return out

    scale = F(gcd(n, h), n) if n % 2 == 0 else F(n, gcd(n, h))
    x = (F(-v * c * d, n * h) * scale) % 1
    return scalar_times(x, mat_mul(J if (c * (d + 1)) // n % 2 else ident,
                                   K if c // n % 2 else ident))


def test_multiplier_rho_matches_matrix_product():
    checked = 0
    for ell in LAMBENCIES:
        for n in (1, 2, 3, 4, 6, 8, 12):
            for c in range(0, 6 * n, n):
                for d in range(-7, 8):
                    if gcd(c, d) != 1:
                        continue
                    # a d - b c = 1: a = d^-1 mod c (a = d = +-1 when c = 0)
                    a = pow(d, -1, c) if c > 1 else d if c == 0 else 1
                    gamma = (a, (a * d - 1) // c if c else 0, c, d)
                    for h in range(1, 7):
                        got = mk.multiplier_rho(ell, n, h, gamma)
                        assert got == _rho_by_matrices(ell, n, h, gamma), (ell, n, h, gamma)
                        checked += 1
    assert checked > 7000


def test_multiplier_not_in_group():
    from moonshine.errors import NotInGroup
    with pytest.raises(NotInGroup):
        mk.multiplier_rho(3, 4, 2, (1, 0, 2, 1))


def test_unknown_class_raises():
    with pytest.raises(UnknownClass):
        mk.twisted_H(3, "99Z", 5)
    with pytest.raises(UnknownClass):
        mk.weight2(2, "nope", "F", 5)


def test_vanishing_shadow_classes_are_modular():
    # chi = chibar = 0: the twisted vector coincides with its hat version
    from moonshine.groups import class_table
    for ell, lab in [(3, "4A"), (3, "8AB"), (4, "4B"), (5, "4AB")]:
        c = class_table(ell).by_label[lab]
        assert c.chi == 0 and c.chibar == 0
        tw, H = mk.twisted_H(ell, lab, 8), mk.identity_H(ell, 8)
        for r in range(1, ell):
            shadow = H.component(r).scale(F(mk.chi_r(ell, lab, r) * (ell - 1), 24))
            hat = tw.component(r) - shadow
            cut = min(tw.component(r).cutoff, hat.cutoff)
            assert tw.component(r).truncate(cut) == hat.truncate(cut)


def test_l5_solve_stays_on_lattice():
    # no parity cross-contamination: component r supported on -r^2/20 mod 1
    for lab in ("2B", "10A", "4AB", "12AB"):
        tw = mk.twisted_H(5, lab, 9)
        for r in range(1, 5):
            for e, c in tw.component(r).items():
                assert (e + F(r * r, 20)) % 1 == 0, (lab, r, e)


def test_l4_bridge_equations():
    # H_{g,1} - H_{g,3} coincides with the half-argument degree-24 series
    l4 = mk.load_json("l4_reconstruction.json")
    for lab, partner in l4["bridge"].items():
        tw = mk.twisted_H(4, lab, 8)
        star = tw.component(1) - tw.component(3)
        want = mk.twisted_H(2, partner, 17).component(1).rescale(F(1, 2))
        cut = min(star.cutoff, want.cutoff)
        assert star.truncate(cut) == want.truncate(cut), lab


def test_l4_h2_hat_second_component_as_deep_as_identity():
    # W_g / S2 has low -1/4, so built at c it is exact below c - 1/4, the
    # cutoff of H_2 itself; at c = 113/16 that reaches the term q^(27/4)
    l4 = mk.load_json("l4_reconstruction.json")
    for c in (7, F(113, 16)):
        want = mk.twisted_H(4, "1A", c).component(2).cutoff
        assert want == c - F(1, 4)
        for lab in l4["h2_hat"]:
            h2 = mk.twisted_H(4, lab, c).component(2)
            assert h2.cutoff == want, (lab, c)
            deeper = mk.twisted_H(4, lab, c + 1).component(2)
            assert deeper.truncate(want) == h2, (lab, c)
    assert mk.twisted_H(4, "3A", F(113, 16)).component(2).coefficient(F(27, 4)) != 0


def test_unknown_block_type_in_l4_data_raises(tmp_path):
    # every term list goes through one reader, which rejects an unknown block
    # type; an h2_hat block that is not a lambda must not pass as a newform
    alt = tmp_path / "tables"
    shutil.copytree(data_dir(), alt)
    path = alt / "l4_reconstruction.json"
    table = json.loads(path.read_text())
    blocks = [t["block"] for t in table["h2_hat"]["7AB"] if t["block"]["type"] == "newform"]
    assert blocks
    for blk in blocks:
        blk["type"] = "bogus"
    path.write_text(json.dumps(table))
    try:
        set_data_dir(alt)
        with pytest.raises(UnknownClass, match="bogus"):
            mk.twisted_H(4, "7AB", 11)
    finally:
        set_data_dir(None)


def test_stored_columns_match_the_from_terms_build():
    # the columns keyed by 4l*d equal the Fraction-keyed from_terms build of the raw tables
    set_data_dir(None)
    for ell in LAMBENCIES:
        built = mk.stored_columns(ell)
        tabs = [load_json(f"mt_{ell}_{r}.json") for r in range(1, ell)]
        for label, hv in built.items():
            col = [{F(int(k), 4 * ell): vals[tab["classes"].index(label)]
                    for k, vals in tab["rows"].items()} for tab in tabs]
            want = [FracSeries.from_terms(c.items(), max(c) + 1) for c in col]
            assert ([(list(s.items()), s.cutoff) for s in hv.components]
                    == [(list(s.items()), s.cutoff) for s in want]), (ell, label)


def test_stored_columns_keep_their_digest():
    # sha256 over items and cutoff of every component of the column views at 7 and 13, the
    # series verify-tables reads back; recorded at commit 65d4f65, where they were pivoted
    # from one {label: value} dict per stored row
    import hashlib
    set_data_dir(None)
    h, n = hashlib.sha256(), 0
    for ell in (7, 13):
        cols = mk.stored_columns(ell)
        for label in sorted(cols):
            for r, c in enumerate(cols[label], 1):
                n += len(c.coeffs)
                h.update(repr((ell, label, r, [(str(e), str(v)) for e, v in c.items()],
                               str(c.cutoff))).encode())
    assert n == 1924
    assert h.hexdigest() == "4b4a29ea4ca67c651b0b048f8e0d9f6845a9e4bbf86c381ad644dfd6bc01743e"


def test_verify_identities_reads_each_table_once(monkeypatch):
    # the weight-2 checks read the int columns of the stored tables: a cold
    # verify-identities reads each lambency's tables once and pivots no column view
    from moonshine import reps
    set_data_dir(None)
    read, pivoted = [], []
    reader, pivot = reps.stored_tables.__wrapped__, mk.stored_columns.__wrapped__
    counted = memo(lambda ell: read.append(ell) or reader(ell))
    monkeypatch.setattr(reps, "stored_tables", counted)
    monkeypatch.setattr(mk, "stored_tables", counted)
    monkeypatch.setattr(mk, "stored_columns", memo(lambda ell: pivoted.append(ell) or pivot(ell)))
    with redirect_stdout(io.StringIO()):
        assert main(["verify-identities"]) == 0
    assert sorted(read) == [2, 3, 5, 7, 13] and pivoted == []


def test_weight2_reports_keep_their_digest(monkeypatch):
    # sha256 over the reports of every cataloged class at qcut 10, 12, 15 and 40,
    # then again with the F2 sign of r = 2 flipped; recorded at commit 4de579a,
    # where the check summed FracSeries hats of a column view of the tables
    import hashlib

    def reports():
        return repr([mk.verify_F_consistency(ell, lab, qcut) for qcut in (10, 12, 15, 40)
                     for ell in (2, 3, 5, 7, 13) for lab in mk.weight2_classes(ell, "F")])

    set_data_dir(None)
    h = hashlib.sha256(reports().encode())
    relation = mk._relation
    monkeypatch.setattr(mk, "_relation", lambda ell, variant: [
        (r, j, -sign if (variant, r) == ("F2", 2) else sign) for r, j, sign in relation(ell, variant)])
    h.update(reports().encode())
    assert h.hexdigest() == "4599fdd29a4b65be76ea8cd3f5ffb87e1f4ab9dfb2d29593acd0620d2ade9231"


def test_verify_identities_weight2_reports_keep_their_digest():
    # sha256 over the 61 reports verify-identities makes at qcut 12, in its order;
    # recorded at commit d15992f, where every check rescanned its lambency's rows
    # for the table depths and the labels they hold
    import hashlib
    set_data_dir(None)
    reports = [mk.verify_F_consistency(ell, lab, qcut=12) for ell in LAMBENCIES if ell != 4
               for lab in mk.weight2_classes(ell, "F")]
    assert len(reports) == 61
    assert (hashlib.sha256(repr(reports).encode()).hexdigest()
            == "65804267b39032d8c6664b659c5bcb9d8ebfb44e673578091a2ba8691a2ecded")


@pytest.mark.parametrize("drop, label, want", [
    ("2B", "2B", "no stored column 2B in table 3,2"),
    ("1A", "3A", "no stored column 1A in table 3,2"),
])
def test_weight2_check_names_a_missing_stored_column(tmp_path, drop, label, want):
    # a column dropped from the lambency-3 r = 2 table: the check names it and the table
    alt = tmp_path / "tables"
    shutil.copytree(data_dir(), alt)
    path = alt / "mt_3_2.json"
    table = json.loads(path.read_text())
    i = table["classes"].index(drop)
    del table["classes"][i]
    for vals in table["rows"].values():
        del vals[i]
    path.write_text(json.dumps(table))
    try:
        set_data_dir(alt)
        with pytest.raises(UnknownClass) as err:
            mk.verify_F_consistency(3, label)
        assert str(err.value) == want
    finally:
        set_data_dir(None)


def test_weight2_check_fires_on_a_wrong_stored_cell(tmp_path):
    # +2 on the 2B cell of row 20 of the lambency-3 r = 2 table: hat_2 S_2 first
    # differs at 20/12 + low(S_2) = 5/3 + 1/3, and only the 2B check fires
    alt = tmp_path / "tables"
    shutil.copytree(data_dir(), alt)
    path = alt / "mt_3_2.json"
    table = json.loads(path.read_text())
    table["rows"]["20"][table["classes"].index("2B")] += 2
    path.write_text(json.dumps(table))
    try:
        set_data_dir(alt)
        rep = mk.verify_F_consistency(3, "2B")
        assert rep["checked"] == [{"variant": "F", "order": "20",
                                   "first_mismatch": F(20, 12) + unary_theta(3, 2, 21).low()}]
        assert all(mk.verify_F_consistency(3, lab)["ok"]
                   for lab in mk.weight2_classes(3, "F") if lab != "2B")
        buf = io.StringIO()
        with redirect_stdout(buf):
            assert main(["verify-identities", "--data-dir", str(alt)]) == 1
        assert buf.getvalue() == "failures: [('weight2', 3, '2B')]\n"
    finally:
        set_data_dir(None)


def test_verify_identities_builds_each_identity_vector_once(monkeypatch):
    # the lambency-4 identities run first, so their bridge builds lambency 2 at
    # its deepest cutoff and the lambency-2 identities read it truncated
    set_data_dir(None)
    built = []
    build = mk.identity_H.__wrapped__
    monkeypatch.setattr(mk, "identity_H", memo(
        lambda ell, qcut: built.append(ell) or build(ell, qcut)))
    with redirect_stdout(io.StringIO()):
        assert main(["verify-identities"]) == 0
    assert built.count(2) == 1 and len(built) == len(set(built))


def test_solver_and_check_share_one_relation_table(monkeypatch):
    # the F2 sign of r = 2 flipped in the one table: the check fires, and the
    # solved series leave the stored table
    relation = mk._relation
    monkeypatch.setattr(mk, "_relation", lambda ell, variant: [
        (r, j, -sign if (variant, r) == ("F2", 2) else sign) for r, j, sign in relation(ell, variant)])
    set_data_dir(None)
    try:
        rep = mk.verify_F_consistency(5, "2B", 12)
        assert [c["first_mismatch"] for c in rep["checked"]] == [None, F(5, 4)], rep
        tw = mk.twisted_H(5, "2B", 12)
        assert tw.component(2).coefficient(F(36, 20)) != coefficient_row(5, 2, 36)["2B"]
    finally:
        monkeypatch.undo()
        set_data_dir(None)
    assert mk.twisted_H(5, "2B", 12).component(2).coefficient(F(36, 20)) \
        == coefficient_row(5, 2, 36)["2B"]


def test_singular_block_raises_determinant_not_unit(monkeypatch, capsys):
    # with F2 pairing r with r as F does, each 2x2 block at lambency 5 is singular
    from moonshine.errors import DeterminantNotUnit
    relation = mk._relation
    monkeypatch.setattr(mk, "_relation", lambda ell, variant: relation(ell, "F"))
    set_data_dir(None)
    try:
        with pytest.raises(DeterminantNotUnit, match="zero series"):
            mk.twisted_H(5, "2B", 6)
        assert main(["twist", "--lambency", "5", "--class", "2B", "--order", "5"]) == 1
        assert capsys.readouterr().err.startswith("error: cannot invert the zero series")
    finally:
        set_data_dir(None)


def test_verify_identities_reports_a_failing_mock_identity(monkeypatch):
    # 4B at lambency 2 is -2 q^(-1/8) mu; the sign flipped, the identity fails at once
    monkeypatch.setitem(mk.MOCK_IDENTITIES, "2:4B=+mu", ((2, "4B", 1), [(2, "mu2", "q", "-1/8")]))
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(["verify-identities"]) == 1
    assert buf.getvalue() == "failures: [('mock', '2:4B=+mu', Fraction(-1, 8))]\n"
