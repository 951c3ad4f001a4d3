import functools
import hashlib
import json
import re
import shutil
from fractions import Fraction as F
from math import isqrt

import pytest

from moonshine import reps
from moonshine.cli import main
from moonshine.algebra import QuadValue
from moonshine.data import LAMBENCIES, data_dir, load_json, set_data_dir
from moonshine.errors import DataCorrupt, MixedDiscriminant, OutOfRange, UnknownClass
from moonshine.groups import class_table, merged_members, umbral_group

EXPECTED_TYPES = {2: [7, 15, 23], 3: [5, 8, 11, 20], 4: [3, 7],
                  5: [4], 7: [3], 13: [4]}

EXPECTED_PAIRS = {
    2: {7: [3, 4, 12, 13, 15, 16], 15: [5, 6], 23: [10, 11]},
    3: {5: [20, 21], 8: [16, 17, 22, 23], 11: [4, 5, 25, 26], 20: [20, 21]},
    4: {3: [13, 14], 7: [2, 3, 15, 16]},
    5: {4: [8, 9, 10, 11, 12, 13]},
    7: {3: [2, 3, 6, 7]},
    13: {4: [3, 4]},
}

DOUBLET_SAMPLES = {
    2: [7, 15, 23, 63, 135, 175, 207],
    3: [8, 11, 20, 32, 44, 80],
    4: [7, 12, 28, 63, 108],
    5: [4, 16, 64, 144, 196],
    7: [3 * k * k for k in range(1, 10) if k != 7],
    13: [4 * k * k for k in range(1, 12)],
}


def test_orthogonality_all_tables():
    for ell in LAMBENCIES:
        rep = reps.validate_table(ell)
        assert rep["ok"]


def test_table_orders():
    for ell, want in [(2, 244823040), (3, 190080), (4, 2688),
                      (5, 240), (7, 24), (13, 4)]:
        assert reps.character_table(ell).order == want


def test_column_norm_example():
    t = reps.character_table(7)
    assert t.centralizers[0] == 24
    assert sum(t.degree(i) ** 2 for i in range(t.nchars)) == 24


def test_decompose_spec_examples():
    got = reps.decompose(2, 1, 7, reps.coefficient_row(2, 1, 7))
    assert {i + 1: c for i, c in enumerate(got.counts) if c} == {3: 1, 4: 1}
    got = reps.decompose(3, 2, 8, reps.coefficient_row(3, 2, 8))
    assert {i + 1: c for i, c in enumerate(got.counts) if c} == {16: 1, 17: 1}
    got = reps.decompose(7, 5, 3, reps.coefficient_row(7, 5, 3))
    assert {i + 1: c for i, c in enumerate(got.counts) if c} == {2: 1, 3: 1}


def test_decompose_single_character_row():
    t = reps.character_table(13)
    # the row decomposed, chi_2, is rational
    assert all(v.irr == 0 for v in t.values[1])
    coeffs = {lab: t.values[1][k].rat for k, lab in enumerate(t.classes)}
    got = reps.decompose(13, 1, 51, coeffs)
    assert got.counts == [0, 1, 0, 0]


def test_decompose_recompose_roundtrip(rng):
    t = reps.character_table(5)
    mults = [rng.randint(0, 4) for _ in range(t.nchars)]
    # conjugate pairs need equal multiplicities for a real class function
    for a, b in ((8, 9), (10, 11), (12, 13)):
        mults[b - 1] = mults[a - 1]
    vec = {}
    for k, lab in enumerate(t.classes):
        s = sum((t.values[i][k] * m for i, m in enumerate(mults)),
                start=reps.QuadValue.of(0))
        assert s.irr == 0
        vec[lab] = s.rat
    got = reps.decompose(5, 1, 19, vec)
    assert got.counts == mults


@functools.cache
def _class_weights(ell, directory):
    """The classes, and for each character i its weights conj(chi_i(K)) / |C(K)| as
    QuadValues with the one discriminant they share, once per lambency and data directory."""
    t = reps.character_table(ell)
    out = []
    for row in t.values:
        w = [v.conj() * QuadValue.of(F(1, n)) for v, n in zip(row, t.centralizers)]
        (disc,) = {v.disc for v in w if v.irr} or {0}
        out.append((w, disc))
    return t.classes, out


def _reference_multiplicities(ell, coefficients):
    """m_i = sum_K conj(chi_i(K)) c_K / |C(K)| in QuadValue components: the rational
    and the sqrt(disc) parts summed apart over the classes."""
    classes, weights = _class_weights(ell, data_dir())
    by_col = {m: F(c) for lab, c in coefficients.items() for m in merged_members(lab)}
    cs = [by_col[lab] for lab in classes]
    return [QuadValue(sum(v.rat * c for v, c in zip(w, cs)), sum(v.irr * c for v, c in zip(w, cs)),
                      disc) for w, disc in weights]


def test_decompose_matches_reference_on_every_stored_row():
    rows = 0
    for ell in LAMBENCIES:
        for r in range(1, ell):
            for key in load_json(f"mt_{ell}_{r}.json")["rows"]:
                coeffs = reps.coefficient_row(ell, r, int(key))
                want = _reference_multiplicities(ell, coeffs)
                assert all(m.is_rational for m in want)
                got = reps.decompose(ell, r, int(key), coeffs)
                assert got.counts == [m.rat for m in want], (ell, r, key)
                rows += 1
    assert rows == 1032


def test_decompose_matches_reference_on_random_class_functions(rng):
    for ell in LAMBENCIES:
        t = reps.character_table(ell)
        dual = {i: j for i in range(t.nchars) for j in range(t.nchars)
                if all(a == b.conj() for a, b in zip(t.values[i], t.values[j]))}
        for _ in range(4):
            # equal multiplicities on conjugate pairs: a real class function
            mults = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(t.nchars)]
            for i, j in dual.items():
                mults[max(i, j)] = mults[min(i, j)]
            vec = {}
            for k, lab in enumerate(t.classes):
                s = sum((t.values[i][k] * m for i, m in enumerate(mults)),
                        start=QuadValue.of(0))
                assert s.is_rational
                # ints, Fractions and 'p/q' strings are all exact inputs
                vec[lab] = rng.choice([s.rat, str(s.rat), s.rat.numerator
                                       if s.rat.denominator == 1 else s.rat])
            got = reps.decompose(ell, 1, 1, vec)
            assert got.counts == mults == [m.rat for m in _reference_multiplicities(ell, vec)]
            # arbitrary rational values: rejected at the reference's first non-real one
            vec = {lab: F(rng.randint(-20, 20), rng.randint(1, 3)) for lab in t.classes}
            want = _reference_multiplicities(ell, vec)
            first = next(i for i, m in enumerate(want) if not m.is_rational)
            with pytest.raises(DataCorrupt, match=rf"non-real multiplicity for chi_{first + 1}$"):
                reps.decompose(ell, 1, 1, vec)


def _sign(x):
    return (x > 0) - (x < 0)


@pytest.mark.parametrize("ell", LAMBENCIES)
def test_decompose_near_its_slot_width(ell):
    # c_K = c sign(w(K)) for the rational or the irrational part of a character's weights w:
    # sum_K w(K) c_K then reaches |c| sum_K |w(K)|, the bound the packed slot is sized by.  c is
    # +-(2^200 - 1) or 2^200 + 1, or a Fraction, at every class or at 1A alone (the rest lifted
    # to its denominator); on the rational parts c is constant on each Galois orbit of classes,
    # so the multiplicities are rational
    t = reps.character_table(ell)
    _, weights = _class_weights(ell, data_dir())
    big = 2 ** 200
    for w, _ in weights:
        for part in ("rat", "irr"):
            signs = [_sign(getattr(v, part)) for v in w]
            if not any(signs):
                continue
            for c, at_1a in [(big - 1, big - 1), (-big + 1, -big + 1), (big + 1, big + 1),
                             (F(big - 1, 3), F(big - 1, 3)), (big - 1, F(big - 1, 7))]:
                vec = {lab: s * c for lab, s in zip(t.classes, signs)}
                vec["1A"] = signs[0] * at_1a
                want = _reference_multiplicities(ell, vec)
                bad = next((i for i, m in enumerate(want) if not m.is_rational), None)
                if bad is None:
                    got = reps.decompose(ell, 1, 1, vec)
                    assert got.counts == [m.rat for m in want]
                    assert got.integral == all(m.rat.denominator == 1 for m in want)
                    assert got.nonnegative == all(m.rat >= 0 for m in want)
                else:
                    with pytest.raises(DataCorrupt, match=rf"non-real multiplicity for chi_{bad + 1}$"):
                        reps.decompose(ell, 1, 1, vec)


def test_merged_labels_need_no_non_real_test():
    # on each stored layout the irrational columns of a character come in conjugate pairs read
    # by one merged label, so the summed B rows vanish; the table's own classes keep them
    for ell in LAMBENCIES:
        t = reps.character_table(ell)
        stored = tuple(reps.stored_tables(ell)[1].columns)
        assert reps._column_map(ell, stored)[2] == []
        assert [i for i, _ in reps._column_map(ell, tuple(t.classes))[2]] == [
            i for i, row in enumerate(t.X) if any(row)]


def test_non_real_multiplicity_rejected():
    t = reps.character_table(2)
    vec = {lab: int(lab == "7A") for lab in t.classes}
    assert not _reference_multiplicities(2, vec)[2].is_rational
    with pytest.raises(DataCorrupt, match=r"non-real multiplicity for chi_3$"):
        reps.decompose(2, 1, 1, vec)


def test_incomplete_vector_rejected():
    with pytest.raises(UnknownClass):
        reps.decompose(13, 1, 51, {"1A": 2})


def test_each_class_indicator_rejected_at_its_first_non_real_character():
    # the indicator of a class is non-real first at the first character irrational there,
    # which for some classes is not the first irrational character of the table
    later = 0
    for ell in LAMBENCIES:
        t = reps.character_table(ell)
        first_irrational = next(i for i, row in enumerate(t.values) if any(v.irr for v in row))
        for lab in t.classes:
            vec = {k: int(k == lab) for k in t.classes}
            want = _reference_multiplicities(ell, vec)
            first = next((i for i, m in enumerate(want) if not m.is_rational), None)
            if first is None:
                assert reps.decompose(ell, 1, 1, vec).counts == [m.rat for m in want]
                continue
            later += first > first_irrational
            with pytest.raises(DataCorrupt, match=rf"non-real multiplicity for chi_{first + 1}$"):
                reps.decompose(ell, 1, 1, vec)
    assert later


def test_bad_layout_rejected_after_a_valid_one_was_mapped():
    # the column map is kept per label tuple; an unknown or a missing class still raises
    assert reps.decompose(13, 1, 1, {"1A": 1, "2A": 1, "4AB": 1}).counts == [1, 0, 0, 0]
    for _ in range(2):
        with pytest.raises(UnknownClass, match="4C not a class at lambency 13"):
            reps.decompose(13, 1, 1, {"1A": 1, "2A": 1, "4AC": 1})
        with pytest.raises(UnknownClass, match=r"missing \['4B'\]"):
            reps.decompose(13, 1, 1, {"1A": 1, "2A": 1, "4A": 1})


def test_polar_row_decomposes_to_trivial():
    got = reps.decompose(2, 1, -1, reps.coefficient_row(2, 1, -1))
    assert got.counts[0] == -2 and all(c == 0 for c in got.counts[1:])


def test_verify_decomposition_tables_all():
    for ell in LAMBENCIES:
        rep = reps.verify_decomposition_tables(ell)
        assert rep["ok"], rep["failures"][:2]
    assert reps.verify_decomposition_tables(3).get("errata_applied") == [(1, "95")]


def test_self_paired_classes_kill_faithful_characters():
    # genuinely self-paired means z*g stays in the same (unmerged) orbit;
    # merged labels whose two orbits are exchanged by z are excluded
    from moonshine.groups import (SignedPerm, conjugation_orbit,
                                  merged_members, umbral_group)
    for ell in (3, 4, 5, 7, 13):
        t = reps.character_table(ell)
        gd = umbral_group(ell)
        zcol = t.classes.index("2A")
        faithful = [i for i in range(t.nchars)
                    if t.values[i][zcol].rat == -t.degree(i)]
        for c in gd.classes:
            if gd.pairing[c.label] != c.label:
                continue
            if c.merged > 1 and c.rep.negate().img not in conjugation_orbit(ell, c.rep):
                continue  # the two merged orbits are swapped by z
            for lab in merged_members(c.label):
                k = t.classes.index(lab)
                for i in faithful:
                    assert not t.values[i][k], (ell, lab, i + 1)


def test_element_keys_are_images():
    # the orbit tests above look images up in these collections; a key of
    # another type than .img would make every such lookup miss silently
    from moonshine.groups import (SignedPerm, conjugation_orbit, enumerate_group,
                                  generators)
    for ell in (3, 4, 5, 7, 13):
        elements = enumerate_group(generators(ell))
        for c in umbral_group(ell).classes:
            assert c.rep.img in elements
            assert c.rep.img in conjugation_orbit(ell, c.rep)
            assert SignedPerm(c.rep.img) == c.rep


def test_parity_split():
    for ell in (3, 4, 5, 7, 13):
        assert reps.parity_split_ok(ell)


def test_every_stored_row_decomposed_once(monkeypatch):
    # the table checks and the discriminant suite read one map of decompositions, built
    # by the routine behind decompose, one stored table of int columns at a time
    set_data_dir(None)
    calls = []
    table_of = reps._decompose_table
    monkeypatch.setattr(reps, "_decompose_table", lambda ell, r, table, d=1: calls.extend(
        (ell, r, k) for k in table.keys) or table_of(ell, r, table, d))
    for ell in LAMBENCIES:
        assert reps.verify_decomposition_tables(ell)["ok"]
        assert reps.parity_split_ok(ell)
        assert reps.discriminant_report(ell)["ok"]
    assert len(calls) == len(set(calls)) == 1032


def test_table_checks_build_no_fractions():
    # integrality, the decomposition tables, parity and doublets read the int numerators;
    # the Fractions of counts are built only for the rows whose counts are read
    set_data_dir(None)
    for ell in LAMBENCIES:
        assert reps.verify_decomposition_tables(ell)["ok"] and reps.parity_split_ok(ell)
        assert reps.doublet_check(ell)["ok"]
        assert not any("counts" in vars(m) for m in reps.stored_decompositions(ell).values())
        minimal = reps.minimal_lambda_rows(ell)
        built = [m for m in reps.stored_decompositions(ell).values() if "counts" in vars(m)]
        assert {m.fourld for m in built} == {row["fourld"] for row in minimal.values()}
        assert all(type(c) is F for row in minimal.values() for c in row["counts"].values())
    got = reps.decompose(2, 1, 7, reps.coefficient_row(2, 1, 7))
    assert all(type(c) is F for c in got.counts) and got.counts[2] == 1


def test_stored_table_rows_hold_one_int_per_class(tmp_path):
    # a row missing a value, or holding a string, would shift or break its columns
    def short(t):
        t["rows"]["7"].pop()

    def text(t):
        t["rows"]["7"][1] = "3"
    for edit in (short, text):
        alt = _edited_copy(tmp_path / edit.__name__, {"mt_2_1.json": edit})
        try:
            set_data_dir(alt)
            with pytest.raises(DataCorrupt, match=r"^mt_2_1\.json: a row is not one int per"):
                reps.stored_tables(2)
        finally:
            set_data_dir(None)


def test_decomposed_rows_and_discriminant_json_keep_their_digests(capsys):
    # the two digests the tier-1 workflow records, hashed as it hashes them: every multiplicity
    # row of stored_decompositions(l) in sorted key order, and the exit code and stdout of
    # `discriminants --lambency l --json`; recorded at commit a2cf1fb, where decompose expanded
    # the merged labels of each row anew and summed its values as Fractions or ints.  The counts
    # stay Fractions: the JSON prints the minimal rows' counts through str
    set_data_dir(None)
    rows, n = hashlib.sha256(), 0
    for ell in LAMBENCIES:
        decs = reps.stored_decompositions(ell)
        for r, k in sorted(decs):
            m, n = decs[r, k], n + 1
            assert all(type(c) is F for c in m.counts)
            rows.update(repr((ell, r, k, [str(c) for c in m.counts], m.integral,
                              m.nonnegative)).encode())
    disc = hashlib.sha256()
    for ell in LAMBENCIES:
        code = main(["discriminants", "--lambency", str(ell), "--json"])
        disc.update(f"{code}\n{capsys.readouterr().out}".encode())
    assert n == 1032
    assert rows.hexdigest() == "579f4a274a71766e39f9642a49b075b4931bf1c152a8031faf8cbffe9d76aa05"
    assert disc.hexdigest() == "b70b7a43d3e22cec4c913d113848caedb547644e576d08d21ecbe15a895f6fe0"


def test_discriminants_fail_on_a_planted_wrong_cell(tmp_path, capsys):
    # 2A of row 59 in mt_3_1 changed from 1408 to 1409: the row decomposes to non-integral
    # multiplicities, so the doublet check fails and counts the 59 other rows
    def plant(t):
        col = t["classes"].index("2A")
        assert t["rows"]["59"][col] == 1408
        t["rows"]["59"][col] = 1409
    alt = _edited_copy(tmp_path, {"mt_3_1.json": plant})
    try:
        assert main(["discriminants", "--lambency", "3", "--data-dir", str(alt)]) == 1
    finally:
        set_data_dir(None)
    assert capsys.readouterr().out == ("types [5, 8, 11, 20]; fs ok; minimal rows ok; "
                                       "doublets FAIL over 59 rows\n")
    assert main(["discriminants", "--lambency", "3"]) == 0


def test_parity_checked_past_the_tenth_row(tmp_path):
    # row 623 is the 13th of mt_13_1 (r odd): 2A = -1A puts faithful irreducibles in it
    def flip(t):
        assert sorted(t["rows"], key=int).index("623") == 12
        t["rows"]["623"][1] = -t["rows"]["623"][0]
    alt = _edited_copy(tmp_path, {"mt_13_1.json": flip})
    try:
        set_data_dir(alt)
        assert reps.parity_split_ok(13) is False
    finally:
        set_data_dir(None)
    assert reps.parity_split_ok(13) is True


def test_decomposition_row_without_coefficients_fails(tmp_path):
    alt = _edited_copy(tmp_path, {"mt_13_1.json": lambda t: t["rows"].pop("103")})
    try:
        set_data_dir(alt)
        rep = reps.verify_decomposition_tables(13)
        assert rep["failures"] == [(1, "103", "not stored", {2: 2})] and not rep["ok"]
    finally:
        set_data_dir(None)


def test_type_inventory_matches_tables():
    for ell, want in EXPECTED_TYPES.items():
        inv = reps.type_n_inventory(ell)
        assert sorted(inv["types"]) == want
        assert {n: sorted(v) for n, v in inv["pairs"].items()} == EXPECTED_PAIRS[ell]


def test_type_inventory_built_once():
    # discriminant_report reads it four times per lambency
    assert reps.type_n_inventory(5) is reps.type_n_inventory(5)


def test_fs_zero_iff_typed():
    for ell in LAMBENCIES:
        assert reps.fs_zero_matches_types(ell)


def test_dual_pairs_match_the_conjugated_values():
    # is_dual_pair reads the int view; the reference conjugates the QuadValue rows
    for ell in LAMBENCIES:
        t = reps.character_table(ell)
        conj = [[v.conj() for v in row] for row in t.values]
        pairs = {(i, j) for i in range(1, t.nchars + 1) for j in range(1, t.nchars + 1)
                 if reps.is_dual_pair(ell, i, j)}
        assert pairs == {(i + 1, j + 1) for i in range(t.nchars) for j in range(t.nchars)
                         if t.values[i] == conj[j]}
        assert any(i != j for i, j in pairs) and any(i == j for i, j in pairs)


def test_minimal_lambda_rows():
    rows = reps.minimal_lambda_rows(2)
    assert rows[7]["fourld"] == 7 and rows[7]["counts"] == {3: 1, 4: 1}
    assert rows[15]["fourld"] == 15 and rows[15]["counts"] == {5: 1, 6: 1}
    assert rows[23]["fourld"] == 23 and rows[23]["counts"] == {10: 1, 11: 1}
    rows3 = reps.minimal_lambda_rows(3)
    assert rows3[8]["fourld"] == 8 and rows3[8]["counts"] == {16: 1, 17: 1}
    assert rows3[20]["fourld"] == 20 and rows3[20]["counts"] == {20: 1, 21: 1}


def test_doublet_conjecture_and_samples():
    for ell, samples in DOUBLET_SAMPLES.items():
        rep = reps.doublet_check(ell)
        assert rep["ok"], rep["failures"][:3]
        inv = reps.type_n_inventory(ell)
        for fourld in samples:
            r = reps.row_component(ell, fourld)
            got = reps.decompose(ell, r, fourld, reps.coefficient_row(ell, r, fourld))
            assert reps.is_representable(ell, fourld, inv["types"])
            assert not reps._is_doubled(got.numerators, got.denominator), (ell, fourld)


def test_is_representable_by_division_up_to_the_largest_stored_row():
    # every 4ld up to the largest stored one against each divisor n of a class order,
    # n lambda^2 tested by division; past them, and for any other n, it refuses
    for ell in LAMBENCIES:
        top = max(max(t.keys) for t in reps.stored_tables(ell).values())
        ns = {d for c in class_table(ell).classes for d in range(2, c.order + 1)
              if c.order % d == 0}
        for n in ns:
            for fourld in range(1, top + 1):
                q, rem = divmod(fourld, n)
                assert reps.is_representable(ell, fourld, {n}) == (not rem and isqrt(q) ** 2 == q)
        with pytest.raises(OutOfRange):
            reps.is_representable(ell, top + 1, ns)
        with pytest.raises(OutOfRange):
            reps.is_representable(ell, top, {max(ns) + 1})


def test_is_doubled_needs_even_integers():
    # numerators over one denominator: 2/3; 4, 0, -2 (over 1 and over 3); 3 and 9/3
    assert not reps._is_doubled([2], 3)
    assert reps._is_doubled([4, 0, -2], 1) and reps._is_doubled([12, 0, -6], 3)
    assert not reps._is_doubled([3], 1) and not reps._is_doubled([9], 3)


def test_discriminant_report_all():
    for ell in LAMBENCIES:
        rep = reps.discriminant_report(ell)
        assert rep["ok"], rep


@pytest.mark.parametrize("ell", LAMBENCIES)
def test_h_discriminants_are_the_positive_stored_keys(ell):
    # the 4l d keys with a nonzero 1A cell, read from the raw JSON; the polar key -1 (the
    # head -2 q^(-1/4l) of H_1) is stored at every lambency and is no discriminant
    keys = set()
    for r in range(1, ell):
        table = load_json(f"mt_{ell}_{r}.json")
        col = table["classes"].index("1A")
        keys |= {int(k) for k, row in table["rows"].items() if row[col]}
    assert -1 in keys
    assert reps.h_discriminants(ell) == {k for k in keys if k > 0}


def _edited_copy(tmp_path, edits):
    """A copy of the data directory with ``edits[name](table)`` applied."""
    alt = tmp_path / "tables"
    shutil.copytree(data_dir(), alt)
    for name, edit in edits.items():
        table = json.loads((alt / name).read_text())
        edit(table)
        (alt / name).write_text(json.dumps(table))
    return alt


def test_set_data_dir_rebuilds_tables(tmp_path):
    labels = ["1A", "2A", "4AB"]
    assert reps.character_table(13).order == 4
    assert [c.label for c in umbral_group(13).classes] == labels
    assert [c.size for c in class_table(13).classes] == [1, 1, 2]
    alt = _edited_copy(tmp_path, {
        "chartab_13.json": lambda t: t.update(order=8),
        # the class rows listed last to first
        "euler_13.json": lambda t: t.update(
            {k: v[::-1] for k, v in t.items() if isinstance(v, list)}),
    })
    try:
        set_data_dir(alt)
        assert reps.character_table(13).order == 8
        assert [c.label for c in umbral_group(13).classes] == labels[::-1]
        assert [c.size for c in class_table(13).classes] == [4, 2, 2]
    finally:
        set_data_dir(None)
    assert reps.character_table(13).order == 4
    assert [c.label for c in umbral_group(13).classes] == labels
    assert [c.size for c in class_table(13).classes] == [1, 1, 2]


def test_data_dir_variable_followed_in_a_running_process(tmp_path, monkeypatch):
    alt = _edited_copy(tmp_path, {"chartab_13.json": lambda t: t.update(order=8)})
    assert reps.character_table(13).order == 4
    monkeypatch.setenv("MOONSHINE_DATA_DIR", str(alt))
    assert load_json("chartab_13.json")["order"] == 8
    assert reps.character_table(13).order == 8
    monkeypatch.delenv("MOONSHINE_DATA_DIR")
    assert reps.character_table(13).order == 4


def test_integer_view_and_values_keep_their_digests():
    # (e, L, R, X, A, B, row and column discriminants) of the six tables, and the repr of their
    # QuadValue rows, hashed as recorded at commit f900477, where the tables were built as
    # QuadValues and the int view read back from them; the library's own checks leave the
    # QuadValue rows unbuilt
    set_data_dir(None)
    for ell in LAMBENCIES:
        assert reps.validate_table(ell)["ok"] and reps.discriminant_report(ell)["ok"]
        assert reps.verify_decomposition_tables(ell)["ok"] and reps.parity_split_ok(ell)
        assert "values" not in vars(reps.character_table(ell))
    view, values = hashlib.sha256(), hashlib.sha256()
    for ell in LAMBENCIES:
        t = reps.character_table(ell)
        view.update(repr((ell, t.e, t.L, t.R, t.X, t.A, t.B, t.row_disc, t.col_disc)).encode())
        assert all(type(v) is QuadValue for row in t.values for v in row)
        values.update(repr((ell, t.values)).encode())
    assert view.hexdigest() == "b1385a6104678f18efdca0205dc717ab41519974ae285f9f3b27cb3c811ee322"
    assert values.hexdigest() == "a01b36abc91883680e87a287a06657f4a0b5543ef4cf4f3bcfcf577b2cd3d14b"


def test_power_map_check_fires(tmp_path):
    # 4A squares into 2A; a map sending 4A to itself keeps the order at 4
    alt = _edited_copy(tmp_path, {
        "chartab_13.json": lambda t: t["power_maps"]["2"].__setitem__(2, "4A"),
    })
    try:
        set_data_dir(alt)
        with pytest.raises(DataCorrupt, match="sends 4A to 4A"):
            reps.validate_table(13)
    finally:
        set_data_dir(None)


def _set_value(row, col, rat="0", irr="0", disc=0):
    return lambda t: t["values"][row].__setitem__(
        col, {"rat": rat, "irr": irr, "disc": disc})


@pytest.mark.parametrize("edit, error, message", [
    # chi_3 of lambency 13 is i at 4A; one entry sqrt(-3) mixes two fields
    (_set_value(2, 3, irr="1", disc=-3), MixedDiscriminant, "chi_3 mixes"),
    # a centralizer off by a factor of 2
    (lambda t: t["centralizers"].__setitem__(1, 8), DataCorrupt, "column norm at 2A"),
    # chi_2(4A) = 1 instead of -1 keeps every column norm
    (_set_value(1, 2, rat="1"), DataCorrupt, r"row orthogonality \(1,2\)"),
])
def test_table_checks_fire(tmp_path, edit, error, message):
    alt = _edited_copy(tmp_path, {"chartab_13.json": edit})
    try:
        set_data_dir(alt)
        with pytest.raises(error, match=message):
            reps.validate_table(13)
    finally:
        set_data_dir(None)
    assert reps.validate_table(13)["ok"]


def _swap_columns(a, b):
    def edit(t):
        for row in t["values"]:
            row[a], row[b] = row[b], row[a]
    return edit


def _class_equation_broken(t):
    # chi_3 and chi_4 zeroed at 4B and its centralizer halved: every column norm holds,
    # but the class sizes 1 + 1 + 1 + 2 sum to 5
    t["values"][2][3] = t["values"][3][3] = {"rat": "0", "irr": "0", "disc": 0}
    t["centralizers"][3] = 2


@pytest.mark.parametrize("ell, edit, message", [
    (13, lambda t: t["values"].pop(), "table 13 not square"),
    (13, _class_equation_broken, "class equation broken"),
    (13, lambda t: t["power_maps"]["2"].pop(), "power map 2 malformed"),
    (13, lambda t: t["power_maps"]["2"].__setitem__(3, "8A"), "power map 2 hits unknown 8A"),
    # without a 2-power map every square reads as nothing
    (13, lambda t: t["power_maps"].pop("2"),
     "Frobenius-Schur indicator of chi_1: stored 1, computed 0"),
    (13, lambda t: t["classes"].__setitem__(3, "4b"), "class label '4b' states no element order"),
    # chi_4 of lambency 7 is real with indicator 1, stored as -1
    (7, lambda t: t["fs"].__setitem__(3, -1),
     "Frobenius-Schur indicator of chi_4: stored -1, computed 1"),
    # 1A and 2A have one centralizer order and every value of a row at 2A is +-chi(1), so the
    # swap keeps orthogonality and the power maps; the faithful chi_5 has degree 2
    (7, _swap_columns(0, 1), "chi_5(1) = -2 is not positive"),
    # the class equation holds for any order once sum 1/|C(K)| = 1
    (13, lambda t: t.__setitem__("order", 8), "|C(1A)| = 4, not the order 8"),
], ids=["not-square", "class-equation", "power-map-length", "power-map-unknown",
        "power-map-2-missing", "label-order", "fs-entry", "swap-1A-2A", "order"])
def test_validate_table_raises_on_planted_tables(tmp_path, ell, edit, message):
    alt = _edited_copy(tmp_path, {f"chartab_{ell}.json": edit})
    try:
        set_data_dir(alt)
        with pytest.raises(DataCorrupt, match=re.escape(message)):
            reps.validate_table(ell)
    finally:
        set_data_dir(None)
    assert reps.validate_table(ell)["ok"]


@pytest.mark.parametrize("irr, disc", [("1/2", -4), ("1", 1), ("1", 0)])
def test_non_square_free_disc_rejected(tmp_path, irr, disc):
    # chi_3(4A) = i stored as (1/2) sqrt(-4), the same number with a square left in the disc,
    # or with an irrational part over sqrt(1) or sqrt(0)
    alt = _edited_copy(tmp_path, {"chartab_13.json": _set_value(2, 2, irr=irr, disc=disc)})
    try:
        set_data_dir(alt)
        message = f"chartab_13.json: sqrt({disc}) is not a square-free irrational"
        with pytest.raises(DataCorrupt, match=re.escape(message)):
            reps.character_table(13)
    finally:
        set_data_dir(None)
    assert reps.character_table(13).values[2][2] == QuadValue(0, 1, -1)


def test_mixed_row_rejected_by_decompose(tmp_path):
    alt = _edited_copy(tmp_path, {"chartab_13.json": _set_value(2, 3, irr="1", disc=-3)})
    vec = {"1A": 1, "2A": 1, "4A": 1, "4B": 1}
    try:
        set_data_dir(alt)
        with pytest.raises(MixedDiscriminant, match="chi_3 mixes"):
            reps.decompose(13, 1, 1, vec)
    finally:
        set_data_dir(None)
    assert reps.decompose(13, 1, 1, vec).counts == [1, 0, 0, 0]


def test_decompose_follows_a_data_dir_switch(tmp_path):
    # chi_2 negated: the class function chi_2 then has multiplicity -1
    vec = {"1A": 1, "2A": 1, "4A": -1, "4B": -1}
    assert reps.decompose(13, 1, 1, vec).counts == [0, 1, 0, 0]
    alt = _edited_copy(tmp_path, {"chartab_13.json": lambda t: t["values"].__setitem__(
        1, [{"rat": str(-int(v["rat"])), "irr": "0", "disc": 0} for v in t["values"][1]])})
    try:
        set_data_dir(alt)
        assert reps.decompose(13, 1, 1, vec).counts == [0, -1, 0, 0]
    finally:
        set_data_dir(None)
    assert reps.decompose(13, 1, 1, vec).counts == [0, 1, 0, 0]


def test_impossible_frame_shapes_raise_data_corrupt(tmp_path, capsys):
    # pi "1^3" over pibar "1^2" would need -1/2 anti-fixed points
    from moonshine.cli import main
    alt = _edited_copy(tmp_path, {"euler_13.json": lambda t: t["pi"].__setitem__(0, "1^3")})
    try:
        set_data_dir(alt)
        with pytest.raises(DataCorrupt, match="no signed permutation"):
            class_table(13)
        assert main(["group-info", "--lambency", "13", "--data-dir", str(alt)]) == 1
        assert "no signed permutation" in capsys.readouterr().err
    finally:
        set_data_dir(None)
    assert class_table(13).order == 4


def test_signed_shape_with_an_extra_cycle_length_is_corrupt(tmp_path, capsys):
    # "1^24 3^1" agrees with the unsigned "1^24" at every length the latter
    # has, but 3-cycles exist only in the signed shape
    from moonshine.cli import main
    alt = _edited_copy(tmp_path, {"euler_2.json": lambda t: t["pi"].__setitem__(0, "1^24 3^1")})
    try:
        assert main(["group-info", "--lambency", "2", "--data-dir", str(alt)]) == 1
        assert "no signed permutation has Frame shapes 1^24 3^1" in capsys.readouterr().err
    finally:
        set_data_dir(None)
    assert class_table(2).by_label["1A"].pi == {1: 24}


def _set_cell(column, label, value):
    def edit(t):
        t[column][t["classes"].index(label)] = value
    return edit


@pytest.mark.parametrize("column, label, stored, derived", [
    ("gamma", "4AB", "4|4", "2|8"),
    ("chi", "2C", 3, 2),
    ("chibar", "5A", 2, 1),
])
def test_stored_class_columns_checked_against_frame_shapes(
        tmp_path, capsys, column, label, stored, derived):
    alt = _edited_copy(tmp_path, {"euler_5.json": _set_cell(column, label, stored)})
    message = (f"lambency 5, class {label}: stored {column} {stored}, "
               f"its Frame shapes give {derived}")
    try:
        set_data_dir(alt)
        with pytest.raises(DataCorrupt, match=re.escape(message)):
            class_table(5)
        assert main(["group-info", "--lambency", "5", "--data-dir", str(alt)]) == 1
        assert message in capsys.readouterr().err
    finally:
        set_data_dir(None)
    assert class_table(5).by_label["4AB"].gamma == (2, 8)


def _drop_class(index):
    def edit(t):
        for column in ("classes", "gamma", "chi", "chibar", "pi", "pibar"):
            del t[column][index]
    return edit


def _as_class(label, source):
    """Give class ``label`` every stored column of class ``source`` but its label."""
    def edit(t):
        i, j = t["classes"].index(label), t["classes"].index(source)
        for column in ("gamma", "chi", "chibar", "pi", "pibar"):
            t[column][i] = t[column][j]
    return edit


@pytest.mark.parametrize("ell, edit, message", [
    # 23AB, the last of the 21 classes, dropped from every column
    (2, _drop_class(20), "missing ['23A', '23B'], unknown or repeated []"),
    (13, _drop_class(1), "missing ['2A'], unknown or repeated []"),
    # the character table has no column 4C
    (13, _set_cell("classes", "4AB", "4ABC"), "missing [], unknown or repeated ['4C']"),
    (13, _set_cell("classes", "2A", "1A"), "missing ['2A'], unknown or repeated ['1A']"),
], ids=["no-23AB", "no-2A", "unknown-4C", "repeated-1A"])
def test_stored_classes_list_each_character_table_column_once(tmp_path, ell, edit, message):
    alt = _edited_copy(tmp_path, {f"euler_{ell}.json": edit})
    message = (f"lambency {ell}: euler_{ell}.json does not list each character-table "
               f"column once: {message}")
    try:
        set_data_dir(alt)
        with pytest.raises(DataCorrupt, match=re.escape(message)):
            class_table(ell)
    finally:
        set_data_dir(None)
    assert len(class_table(ell).classes) == {2: 21, 13: 3}[ell]


@pytest.mark.parametrize("edits, message", [
    # 2A with the Frame shapes of 1A: no class has the z-flipped shapes of 1A
    ({"euler_13.json": _as_class("2A", "1A")}, "lambency 13: no z-partner for 1A"),
    # 4A squares into 2A but 4B into 1A, so the merged class 4AB has no square
    ({"chartab_13.json": lambda t: t["power_maps"]["2"].__setitem__(3, "1A")},
     "lambency 13: inconsistent merged power map at 4AB^2"),
], ids=["no-z-partner", "merged-power-map"])
def test_class_table_consistency_checks_fire(tmp_path, capsys, edits, message):
    alt = _edited_copy(tmp_path, edits)
    try:
        set_data_dir(alt)
        with pytest.raises(DataCorrupt, match=re.escape(message)):
            class_table(13)
        assert main(["group-info", "--lambency", "13", "--data-dir", str(alt)]) == 1
        assert message in capsys.readouterr().err
    finally:
        set_data_dir(None)
    assert class_table(13).pairing == {"1A": "2A", "2A": "1A", "4AB": "4AB"}


def test_missing_decomposition_table_raises(tmp_path):
    # a missing dec_<l>_<r>.json must not pass the check on fewer rows
    alt = _edited_copy(tmp_path, {})
    (alt / "dec_3_2.json").unlink()
    try:
        set_data_dir(alt)
        with pytest.raises(FileNotFoundError, match="dec_3_2.json"):
            reps.verify_decomposition_tables(3)
    finally:
        set_data_dir(None)


def _doubled(key):
    def edit(table):
        table["rows"][key] = [2 * v for v in table["rows"][key]]
    return edit


def test_doublet_check_fires(tmp_path, capsys):
    # row 63 = 7 * 3^2 doubled is a doublet at a representable -D; row 31 with
    # its 2A value moved by one has non-integral multiplicities
    def edit(table):
        _doubled("63")(table)
        table["rows"]["31"][1] += 1
    alt = _edited_copy(tmp_path, {"mt_2_1.json": edit})
    try:
        set_data_dir(alt)
        rep = reps.doublet_check(2)
        assert rep["failures"] == [(1, 31, "non-integral"), (1, 63, "doublet", "representable")]
        assert not rep["ok"] and not reps.discriminant_report(2)["ok"]
        assert main(["discriminants", "--lambency", "2", "--data-dir", str(alt)]) == 1
        assert "doublets FAIL" in capsys.readouterr().out
    finally:
        set_data_dir(None)


def test_minimal_row_check_fires(tmp_path, capsys):
    # row 7, the minimal discriminant of type 7, doubled: 2 chi_3 + 2 chi_4
    alt = _edited_copy(tmp_path, {"mt_2_1.json": _doubled("7")})
    try:
        set_data_dir(alt)
        rep = reps.discriminant_report(2)
        assert rep["minimal_rows"][7]["counts"] == {3: 2, 4: 2}
        assert rep["minimal_ok"] is False and rep["fs_matches"] and not rep["ok"]
        assert main(["discriminants", "--lambency", "2", "--data-dir", str(alt)]) == 1
        assert "minimal rows FAIL" in capsys.readouterr().out
    finally:
        set_data_dir(None)


def test_fs_zero_check_fires_on_a_rational_character(tmp_path, capsys):
    # the trivial character stored with Frobenius-Schur indicator 0
    alt = _edited_copy(tmp_path, {"chartab_2.json": lambda t: t["fs"].__setitem__(0, 0)})
    try:
        set_data_dir(alt)
        assert reps.fs_zero_matches_types(2) is False
        assert main(["discriminants", "--lambency", "2", "--data-dir", str(alt)]) == 1
        assert "fs FAIL" in capsys.readouterr().out
    finally:
        set_data_dir(None)


def test_fs_zero_check_fires_on_an_untyped_irrational_character(tmp_path, capsys):
    # 1A zeroed on every row -D = -4 lambda^2 (lambda odd) at lambency 13: type 4
    # is gone, and chi_3, chi_4 (irrational, indicator 0) belong to no type
    def untype(table):
        for key, vals in table["rows"].items():
            k, lam = int(key), isqrt(max(int(key), 0) // 4)
            if k > 0 and k == 4 * lam * lam and lam % 2:
                vals[0] = 0
    alt = _edited_copy(tmp_path, {f"mt_13_{r}.json": untype for r in range(1, 13)})
    try:
        set_data_dir(alt)
        assert reps.type_n_inventory(13)["types"] == set()
        assert reps.fs_zero_matches_types(13) is False
        assert main(["discriminants", "--lambency", "13", "--data-dir", str(alt)]) == 1
        assert "fs FAIL" in capsys.readouterr().out
    finally:
        set_data_dir(None)
