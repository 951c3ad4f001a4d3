"""Character-table validation, module decompositions, and the discriminant checks.

The six character tables, parsed to ints by ``groups.character_table``, are
validated here by exact orthogonality and their Frobenius-Schur indicators;
coefficient vectors (one integer per conjugacy class) are decomposed into
irreducibles by character inversion over the quadratic fields involved.

With e the common denominator of a table and L the lcm of its centralizer
orders, e*chi_i(K) = R[i][K] + X[i][K]*sqrt(d_i) and conj(chi_i(K))/|C(K)| =
(A[i][K] - B[i][K]*sqrt(d_i))/(e*L).  Rows that share one label tuple (a stored
``mt_<l>_<r>.json``, or the one row given to ``decompose``) are decomposed
together, A and B summed over the columns that read each label.  ``stored_tables``
reads each ``mt_<l>_<r>.json`` once into int columns, one per label; ``decompose``
lifts its one row to the lcm denominator of its values.  The column of each label P
is packed by ``qseries._pack`` into one int C_P; sum_P A[i][P]*C_P holds the
numerator of m_i in every row and is read back once by ``qseries._unpack``.  A
slot of bits(max|c|) + bits(S) + 1 bits, S the largest sum_P |entry| of a row
of A or B, holds each such sum.  A packed int is 0 only if every slot is, so
the non-real check is one zero test of sum_P B[i][P]*C_P on each chi_i whose
summed B[i] is not 0; on a merged label such as 7AB the two columns' B cancel.
A non-real multiplicity depends on the class function (at lambency 2, the
function 1 on 7A and 0 elsewhere has a non-real chi_3 part).  Every per-row
check reads these numerators over the table's one denominator; the Fractions of
``Multiplicities.counts`` are built only when read.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd, isqrt, lcm
from operator import mul
from typing import NamedTuple

from .algebra import QuadValue, as_rat, squarefree_part
from .data import load_json, memo
from .errors import DataCorrupt, OutOfRange, UnknownClass
from .groups import character_table, class_table, merged_members
from .qseries import _pack, _unpack


def _label_order(label: str) -> int:
    """The element order a class label such as '12B' states."""
    m = re.match(r"(\d+)[A-Z]+$", label)
    if m is None:
        raise DataCorrupt(f"class label {label!r} states no element order")
    return int(m.group(1))


def validate_table(ell: int) -> dict:
    """Exact orthogonality, power-map sanity, positive degrees and Frobenius-Schur indicators."""
    t = character_table(ell)
    n = len(t.classes)
    report = {"lambency": ell, "order": t.order, "classes": n, "ok": True}
    if t.nchars != n:
        raise DataCorrupt(f"table {ell} not square")
    e, big_l, R, X, A, B, rdisc = t.e, t.L, t.R, t.X, t.A, t.B, t.row_disc
    # column norms reproduce the stored centralizer orders
    for k, (lab, c) in enumerate(zip(t.classes, t.centralizers)):
        norm = sum(R[i][k] ** 2 - t.col_disc[k] * X[i][k] ** 2 for i in range(n))
        if norm != e * e * c:
            raise DataCorrupt(f"column norm at {lab}: {Fraction(norm, e * e)}")
    if sum(Fraction(t.order, c) for c in t.centralizers) != t.order:
        raise DataCorrupt("class equation broken")
    if t.centralizers[0] != t.order:
        raise DataCorrupt(f"|C(1A)| = {t.centralizers[0]}, not the order {t.order}")
    # row orthogonality: sum_K w_K (e chi_i)(e conj chi_j) = e^2 L delta_ij; its
    # irrational part is irr_i*sqrt(d_i) - irr_j*sqrt(d_j)
    scale = e * e * big_l
    for i in range(n):
        for j in range(i, n):
            rat = sum(map(mul, A[i], R[j])) - rdisc[i] * sum(map(mul, B[i], X[j]))
            irr_i, irr_j = sum(map(mul, B[i], R[j])), sum(map(mul, A[i], X[j]))
            if (rat != (scale if i == j else 0) or irr_i != irr_j
                    or irr_i and rdisc[i] != rdisc[j]):
                s = (QuadValue(Fraction(rat, scale), Fraction(irr_i, scale), rdisc[i])
                     - QuadValue(0, Fraction(irr_j, scale), rdisc[j]))
                raise DataCorrupt(f"row orthogonality ({i + 1},{j + 1}): {s}")
    # the p-th power of a class of order n lies in a class of order n/gcd(n, p);
    # for p dividing the group order a power map need not be a permutation
    for p, labels in t.power_maps.items():
        if len(labels) != n:
            raise DataCorrupt(f"power map {p} malformed")
        for src, lab in zip(t.classes, labels):
            if lab not in t.classes:
                raise DataCorrupt(f"power map {p} hits unknown {lab}")
            order = _label_order(src)
            if _label_order(lab) != order // gcd(order, int(p)):
                raise DataCorrupt(f"power map {p} sends {src} to {lab}")
    # nu(chi_i) = sum_K chi_i(g_K^2)/|C(K)|; times e*L it is sum_K w_K e*chi_i(g_K^2)
    square = [t.classes.index(lab) for lab in t.power_maps.get("2", ())]
    w = [big_l // c for c in t.centralizers]
    for i in range(n):
        if R[i][0] <= 0:
            raise DataCorrupt(f"chi_{i + 1}(1) = {Fraction(R[i][0], e)} is not positive")
        rat, irr = (sum(wk * row[k] for wk, k in zip(w, square)) for row in (R[i], X[i]))
        if rat != t.fs[i] * e * big_l or irr:
            nu = QuadValue(Fraction(rat, e * big_l), Fraction(irr, e * big_l), rdisc[i])
            raise DataCorrupt(f"Frobenius-Schur indicator of chi_{i + 1}: stored {t.fs[i]}, "
                              f"computed {nu}")
    report["fs_zero"] = [i + 1 for i, v in enumerate(t.fs) if v == 0]
    return report


@dataclass
class Multiplicities:
    lambency: int
    r: int
    fourld: int
    integral: bool
    nonnegative: bool
    numerators: list         # per irreducible, over one denominator, ints
    denominator: int

    @cached_property
    def counts(self) -> list:  # per irreducible, exact rationals, built when first read
        return [Fraction(x, self.denominator) for x in self.numerators]


class StoredTable(NamedTuple):
    keys: list               # the int 4l*d of each row
    columns: dict            # {merged label: its int column over the rows}, in table order


@memo
def _column_map(ell: int, labels: tuple):
    """(e*L, A, irrational, sbits) for rows keyed by ``labels``: A and B summed over the
    columns that read each label, irrational the (i, B[i]) with B[i] != 0, sbits the bits
    of S (module docstring)."""
    t = character_table(ell)
    at = {}
    for pos, lab in enumerate(labels):
        for member in merged_members(lab):
            if member not in t.classes:
                raise UnknownClass(f"{member} not a class at lambency {ell}")
            at[member] = pos
    if len(at) != len(t.classes):
        missing = set(t.classes) - set(at)
        raise UnknownClass(f"coefficient vector incomplete: missing {sorted(missing)}")
    cols = [at[lab] for lab in t.classes]
    A, B = ([_summed(row, cols, len(labels)) for row in rows] for rows in (t.A, t.B))
    sbits = max(sum(map(abs, row)) for row in A + B).bit_length()
    return t.e * t.L, A, [(i, b) for i, b in enumerate(B) if any(b)], sbits


def _summed(row: list, cols: list, n: int) -> list:
    """row[K] summed into position cols[K] of n."""
    out = [0] * n
    for pos, v in zip(cols, row):
        out[pos] += v
    return out


def _decompose_table(ell: int, r: int, table: StoredTable, d: int = 1) -> dict:
    """The ``Multiplicities`` of the rows of ``table``, whose values are its ints over d,
    keyed by (r, 4l*d), by one packed product per character (module docstring)."""
    scale, A, irrational, sbits = _column_map(ell, tuple(table.columns))
    n, columns = len(table.keys), table.columns.values()
    nb = (max(max(map(abs, col)) for col in columns).bit_length() + sbits + 8) // 8
    packed = [_pack(range(n), col, nb) for col in columns]
    for i, b in irrational:
        if sum(map(mul, b, packed)):
            raise DataCorrupt(f"non-real multiplicity for chi_{i + 1}")
    scale *= d
    rows = list(zip(*(_unpack(sum(map(mul, a, packed)), n, nb) for a in A)))
    split = {x for x in set(chain.from_iterable(rows)) if x % scale}
    return {(r, k): Multiplicities(ell, r, k, split.isdisjoint(nums), min(nums) >= 0, list(nums),
                                   scale) for k, nums in zip(table.keys, rows)}


def decompose(ell: int, r: int, fourld: int, coefficients: dict) -> Multiplicities:
    """Invert the character table on a class function.

    ``coefficients`` maps merged class labels to exact values.
    m_i = sum_K conj(chi_i(K)) c_K / |C(K)|, read as a one-row table by the routine that
    decomposes the stored tables; the non-real check runs on the characters whose irrational
    parts do not cancel over the columns of one label.
    """
    values = {lab: as_rat(v) for lab, v in coefficients.items()}
    d = lcm(*(v.denominator for v in values.values()))
    table = StoredTable([fourld], {lab: (v.numerator * (d // v.denominator),)
                                   for lab, v in values.items()})
    return _decompose_table(ell, r, table, d)[r, fourld]


# ---------------------------------------------------------------------------
# stored-table verification
#
# The bundled tables are shipped exactly as printed in their source; the two
# entries below are documented errata whose corrections are forced by
# internal consistency (each is reproduced independently by the computation
# pipelines and by the parity constraints of the doublet property).  Raw
# values remain available with corrected=False.

MT_ERRATA = {
    # (lambency, r, 4ld, class): corrected value
    (4, 3, 599, "6BC"): 4,
}

DEC_ERRATA = {
    # (lambency, r, 4ld): corrected {chi index: multiplicity}
    (3, 1, 95): {2: 2, 6: 4, 7: 4, 8: 8, 9: 6, 10: 8, 11: 6, 12: 10,
                 13: 12, 14: 14, 15: 18},
}


@memo
def stored_tables(ell: int) -> dict:
    """The stored coefficient tables of one lambency, as printed, as {r: ``StoredTable``}:
    the one reader of the ``mt_<l>_<r>.json`` layout (a class list, and rows of ints keyed
    by str(4l*d)).  Every caller shares the result."""
    tables = {}
    for r in range(1, ell):
        tab = load_json(f"mt_{ell}_{r}.json")
        labels, rows = tab["classes"], tab["rows"].values()
        if any(len(v) != len(labels) for v in rows) or set(map(type, chain(*rows))) - {int}:
            raise DataCorrupt(f"mt_{ell}_{r}.json: a row is not one int per class")
        tables[r] = StoredTable(list(map(int, tab["rows"])), dict(zip(labels, zip(*rows))))
    return tables


def corrected_tables(ell: int) -> dict:
    """``stored_tables`` with ``MT_ERRATA`` applied, each to a copy of its one column."""
    tables = dict(stored_tables(ell))
    for (l2, r, k, lab), v in MT_ERRATA.items():
        t = tables.get(r) if l2 == ell else None
        if t and k in t.keys and lab in t.columns:
            col = list(t.columns[lab])
            col[t.keys.index(k)] = v
            tables[r] = t._replace(columns={**t.columns, lab: tuple(col)})
    return tables


def coefficient_row(ell: int, r: int, fourld: int, corrected: bool = True) -> dict:
    """Row of the stored coefficient table as {merged label: integer}."""
    t = (corrected_tables if corrected else stored_tables)(ell).get(r)
    if t is None or fourld not in t.keys:
        raise UnknownClass(f"row {fourld} not stored for ({ell},{r})")
    i = t.keys.index(fourld)
    return {lab: col[i] for lab, col in t.columns.items()}


@memo
def stored_decompositions(ell: int) -> dict:
    """``decompose`` of every stored row, errata applied, keyed by (r, 4l*d): one
    ``_decompose_table`` per stored table, whose rows share one label tuple."""
    return {key: m for r, table in corrected_tables(ell).items()
            for key, m in _decompose_table(ell, r, table).items()}


def row_component(ell: int, fourld: int) -> int:
    for r in range(1, ell):
        if (fourld + r * r) % (4 * ell) == 0:
            return r
    raise OutOfRange(f"row {fourld} off the lambency-{ell} lattice")


def verify_decomposition_tables(ell: int) -> dict:
    """Reproduce every stored decomposition row from the coefficient tables; a
    missing ``dec_<l>_<r>.json`` raises FileNotFoundError."""
    report = {"lambency": ell, "rows": 0, "failures": [], "ok": True}
    decs = stored_decompositions(ell)
    for r in range(1, ell):
        dec = load_json(f"dec_{ell}_{r}.json")
        for key, mults in dec["rows"].items():
            expected = {chi: m for chi, m in zip(dec["chis"], mults) if m}
            if (ell, r, int(key)) in DEC_ERRATA:
                expected = DEC_ERRATA[(ell, r, int(key))]
                report.setdefault("errata_applied", []).append((r, key))
            got = decs.get((r, int(key)))
            report["rows"] += 1
            if not (got and got.integral and {i + 1: x for i, x in enumerate(got.numerators) if x}
                    == {chi: m * got.denominator for chi, m in expected.items()}):
                full = {i + 1: c for i, c in enumerate(got.counts) if c} if got else "not stored"
                report["failures"].append((r, key, full, expected))
    report["ok"] = not report["failures"]
    return report


def parity_split_ok(ell: int) -> bool:
    """Odd r rows use only z-trivial irreducibles, even r only faithful ones (every stored row)."""
    if ell == 2:
        return True
    t = character_table(ell)
    zcol = t.classes.index("2A")
    faithful = {i for i, row in enumerate(t.R) if row[zcol] == -row[0]}
    return all((i in faithful) != (r % 2 == 1)
               for (r, _), got in stored_decompositions(ell).items()
               for i, x in enumerate(got.numerators) if x)


# ---------------------------------------------------------------------------
# discriminants

def h_discriminants(ell: int) -> set:
    """Positive integers -D with q^(-D/4l) present in the stored identity
    columns (D < 0 a discriminant of the untwisted vector)."""
    return {k for t in stored_tables(ell).values() for k, v in zip(t.keys, t.columns["1A"])
            if k > 0 and v}


@memo
def _scaled_squares(ell: int) -> tuple:
    """The largest stored 4ld, the divisors n >= 2 of the class orders, and the map from
    each n lambda^2 up to that 4ld, lambda >= 1, to {n: lambda}: the one table behind the
    n lambda^2 tests of the discriminant suite."""
    top = max(max(t.keys) for t in stored_tables(ell).values())
    ns = {d for c in class_table(ell).classes for d in range(2, c.order + 1) if c.order % d == 0}
    table = {}
    for n in ns:
        for lam in range(1, isqrt(top // n) + 1):
            table.setdefault(n * lam * lam, {})[n] = lam
    return top, ns, table


@memo
def type_n_inventory(ell: int) -> dict:
    """The integers n passing the two discriminant conditions, with the
    irreducible pairs whose character fields are Q(sqrt(-n)).

    Fields match up to square factors (type 8 lives in Q(sqrt(-2)), type 20
    in Q(sqrt(-5))), so pairs are grouped by the squarefree kernel.
    """
    table = _scaled_squares(ell)[2]
    ns = {n for k in h_discriminants(ell) for n, lam in table.get(k, {}).items()
          if gcd(lam, n) == 1}
    by_field = {}
    for i, d in enumerate(character_table(ell).row_disc):
        if d:
            by_field.setdefault(squarefree_part(-d)[0], []).append(i + 1)
    pairs = {n: sorted(by_field.get(squarefree_part(n)[0], [])) for n in ns}
    return {"types": ns, "pairs": pairs, "by_field": by_field}


def minimal_lambda_rows(ell: int) -> dict:
    """For each type n: the smallest lambda with -D = -n lambda^2 a
    discriminant, and the decomposition at that row."""
    table = _scaled_squares(ell)[2]
    discs = sorted(h_discriminants(ell))
    out = {}
    for n in sorted(type_n_inventory(ell)["types"]):
        fourld = next(k for k in discs if n in table.get(k, {}))
        r = row_component(ell, fourld)
        got = stored_decompositions(ell)[r, fourld]
        nonzero = {i + 1: c for i, c in enumerate(got.counts) if c != 0}
        out[n] = {"lambda": table[fourld][n], "fourld": fourld, "r": r, "counts": nonzero}
    return out


def is_representable(ell: int, fourld: int, types) -> bool:
    """fourld = n lambda^2 for some n in ``types`` and lambda >= 1; fourld at most the
    largest stored 4ld and each n a divisor of a class order."""
    top, ns, table = _scaled_squares(ell)
    if fourld > top or not ns.issuperset(types):
        raise OutOfRange(f"4ld = {fourld} or types {sorted(types)} past the lambency-{ell} tables")
    return not table.get(fourld, {}).keys().isdisjoint(types)


def doublet_check(ell: int) -> dict:
    """Doublet <=> -D not of the form -n lambda^2, over the stored rows."""
    types = type_n_inventory(ell)["types"]
    table = _scaled_squares(ell)[2]
    report = {"lambency": ell, "rows": 0, "failures": [], "ok": True}
    for (r, fourld), got in stored_decompositions(ell).items():
        if fourld <= 0:
            continue
        if not got.integral:
            report["failures"].append((r, fourld, "non-integral"))
            continue
        doublet = _is_doubled(got.numerators, got.denominator)
        rep = not types.isdisjoint(table.get(fourld, ()))
        report["rows"] += 1
        if doublet == rep:
            report["failures"].append((r, fourld, "doublet" if doublet else "single",
                                       "representable" if rep else "not"))
    report["ok"] = not report["failures"]
    return report


def _is_doubled(numerators, denominator: int) -> bool:
    return all(not x % (2 * denominator) for x in numerators)


def fs_zero_matches_types(ell: int) -> bool:
    """FS indicator 0 exactly on the type-n (irrational) irreducibles."""
    t = character_table(ell)
    inv = type_n_inventory(ell)
    typed = {i for pair in inv["pairs"].values() for i in pair}
    for i in range(t.nchars):
        irrational = any(t.X[i])
        if (t.fs[i] == 0) != irrational:
            return False
        if irrational and (i + 1) not in typed:
            return False
    return True


def is_dual_pair(ell: int, i: int, j: int) -> bool:
    """chi_i and chi_j (1-based) are complex conjugates row-wise."""
    t = character_table(ell)
    (ri, xi, di), (rj, xj, dj) = ((t.R[k - 1], t.X[k - 1], t.row_disc[k - 1]) for k in (i, j))
    return ri == rj and xi == [-x for x in xj] and (di == dj or not any(xi))


def discriminant_report(ell: int) -> dict:
    """The four-part discriminant suite for one lambency: type inventory,
    FS-zero matching, minimal-discriminant rows, and the doublet property."""
    inv = type_n_inventory(ell)
    minimal = minimal_lambda_rows(ell)
    min_ok = all(len(pair := sorted(info["counts"])) == 2 and set(info["counts"].values()) == {1}
                 and set(pair) <= set(inv["pairs"].get(n, [])) and is_dual_pair(ell, *pair)
                 for n, info in minimal.items())
    dbl = doublet_check(ell)
    fs_ok = fs_zero_matches_types(ell)
    return {
        "lambency": ell,
        "types": sorted(inv["types"]),
        "pairs": inv["pairs"],
        "fs_matches": fs_ok,
        "minimal_rows": minimal,
        "minimal_ok": min_ok,
        "doublet_ok": dbl["ok"],
        "doublet_rows": dbl["rows"],
        "ok": fs_ok and min_ok and dbl["ok"],
    }
