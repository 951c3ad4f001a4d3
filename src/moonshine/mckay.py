"""Twisted series for every conjugacy class, from the weight-2 form catalogs.

Every computed component follows one formula, H_{g,r} = (chi_{g,r}/chi) H_r +
hat H_{g,r}, with H the extracted identity vector and ``_shadow`` the one
coefficient chi_{g,r}/chi, chi = 24/(l-1).  hat H_g solves the weight-2
relations of ``_relation``, the one table of (r, j, sign) with F_g = sum sign
hat H_{g,r} S_j (F2 pairs r with l-r), one block of r of one ``_parity`` at a
time; at 7 and 13 hat H vanishes for 1A and 2A.  ``_lambency_4`` is the one
route through the stored lambency-4 data: the even block's side W_g, and
H_{g,1} and H_{g,3} whole (split from their difference, the bridge partner's
lambency-2 series at half argument or an eta quotient).  Every other class at
7 and 13 reads ``stored_columns``, the series view of ``reps.stored_tables``.
The weight-2 check sums the same relation table over the hat H of those int
columns, in ints, and compares with each cataloged form, for every class.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, gcd

from . import jacobi
from .algebra import as_rat
from .data import LAMBENCIES, load_json, memo
from .errors import (DataCorrupt, DeterminantNotUnit, NotInGroup, NotInvertible,
                     UnknownClass)
from .groups import class_table
from .qseries import (FracSeries, eta_quotient, lambda_n, mock_theta, newform,
                      unary_theta)
from .reps import stored_tables


# ---------------------------------------------------------------------------
# weight-2 catalog

def _catalog(ell: int) -> dict:
    recs = load_json(f"weight2_{ell}.json")["records"]
    return {(r["class"], r["variant"]): r for r in recs}


def weight2_classes(ell: int, variant: str = "F") -> list:
    return [c for (c, v) in _catalog(ell) if v == variant]


def _combination(terms, cutoff) -> FracSeries:
    """sum coeff * block(scale*tau) over catalog terms, exact below ``cutoff``;
    a block is a lambda, an eta quotient or a newform."""
    total = FracSeries.zero(cutoff)
    for term in terms:
        blk, scale = term["block"], as_rat(term.get("scale", "1"))
        if blk["type"] == "lambda":
            s = lambda_n(blk["n"], cutoff / scale)
        elif blk["type"] == "eta":
            s = eta_quotient([(as_rat(k), m) for k, m in blk["spec"]], cutoff / scale)
        elif blk["type"] == "newform":
            s = newform(blk["label"], cutoff / scale)
        else:
            raise UnknownClass(f"unknown block {blk['type']}")
        total = total + (s.rescale(scale) if scale != 1 else s).scale(as_rat(term["coeff"]))
    return total


def quarter_twist(f: FracSeries) -> FracSeries:
    """e(1/4) f(tau+1) for a series on the lattice 1/4 + (1/2)Z.

    The phase at exponent e is e(e + 1/4), which is -1 on e = 1/4 (mod 1)
    and +1 on e = 3/4 (mod 1); anything off that lattice would make the
    result non-real, so the catalog entry is rejected as corrupt.
    """
    terms = []
    for e, c in f.items():
        res = (e + Fraction(1, 4)) % 1
        if res == Fraction(1, 2):
            terms.append((e, -c))
        elif res == 0:
            terms.append((e, c))
        else:
            raise DataCorrupt(f"quarter twist off-lattice exponent {e}")
    return FracSeries.from_terms(terms, f.cutoff)


@memo
def weight2(ell: int, label: str, variant: str = "F", qcut=30) -> FracSeries:
    """Evaluate the cataloged weight-2 combination for (lambency, class);
    each form is built once, at the deepest cutoff asked (``data.memo``)."""
    rec = _catalog(ell).get((label, variant))
    if rec is None:
        raise UnknownClass(f"no weight-2 form for ({ell}, {label}, {variant})")
    if "twist_of" in rec:
        return quarter_twist(weight2(ell, rec["twist_of"], variant, qcut))
    return _combination(rec["terms"], qcut)


# ---------------------------------------------------------------------------
# twisted series

@dataclass
class TwistedH(jacobi.HVector):
    """Immutable by convention: ``twisted_H`` shares one per (lambency, class)."""
    label: str
    chi: int
    chibar: int
    symbol: tuple               # (n_g, h_g)

    def _offset(self, r: int) -> Fraction:
        # the lambency-4 bridge gives the odd components exact to the cutoff itself
        return 0 if self.lambency == 4 and r % 2 else super()._offset(r)


@memo
def identity_H(ell: int, qcut) -> jacobi.HVector:
    return jacobi.extract_H(ell, qcut)


def _class_info(ell: int, label: str):
    gd = class_table(ell)
    if label not in gd.by_label:
        raise UnknownClass(f"no class {label} at lambency {ell}")
    return gd.by_label[label], gd.pairing[label]


def _parity(r: int) -> int:
    """z acts on component r by +1 for odd r (non-faithful side), -1 for even r."""
    return 1 if r % 2 else -1


def chi_r(ell: int, label: str, r: int) -> int:
    """Shadow multiplicity: the unsigned character for odd r, signed for even."""
    c, _ = _class_info(ell, label)
    return c.chibar if _parity(r) == 1 else c.chi


def _shadow(ell: int, label: str, r: int) -> Fraction:
    """chi_{g,r}/chi with chi = 24/(l-1): the multiple of H_r in H_{g,r}."""
    return Fraction(chi_r(ell, label, r) * (ell - 1), 24)


def pairing(ell: int, label: str):
    """The paired class [zg] and the component sign rule it satisfies:
    (partner_label, signs) with signs[r-1] = ``_parity(r)`` the factor relating
    component r of the partner to component r of ``label``."""
    _, zlab = _class_info(ell, label)
    return zlab, [_parity(r) for r in range(1, ell)]


def _relation(ell: int, variant: str) -> list:
    """(r, j, sign) with F_variant = sum sign * hat H_r * S_j: F pairs r with r,
    F2 pairs r with l - r, signed by the parity of r."""
    return [(r, r, 1) if variant == "F" else (r, ell - r, _parity(r)) for r in range(1, ell)]


def from_stored_column(ell: int, label: str) -> bool:
    """Whether the twisted series of ``label`` is read from its stored table
    columns (lambencies 7 and 13, classes other than 1A and 2A)."""
    return ell in (7, 13) and label not in ("1A", "2A")


@memo
def stored_columns(ell: int) -> dict:
    """The stored tables of a lambency as one HVector of columns per class, at table
    depth: a table ends one row past its last, so exact below its last exponent + 1.
    Each cell is keyed by its integer 4l*d, so a column is built on the lattice
    q^(1/4l) and then reduced to its coarsest one, as ``from_terms`` would."""
    def column(label, r, t):
        if label not in t.columns:
            raise UnknownClass(f"no stored column {label} in table {ell},{r}")
        cells = {k: v for k, v in zip(t.keys, t.columns[label]) if v}
        return FracSeries._reduced(4 * ell, cells, Fraction(max(t.keys), 4 * ell) + 1)
    tables = stored_tables(ell)
    return {c.label: jacobi.HVector(ell, [column(c.label, r, t) for r, t in tables.items()])
            for c in class_table(ell).classes}


@memo
def twisted_H(ell: int, label: str, qcut=31) -> TwistedH:
    """The vector-valued twisted series for a conjugacy class.

    Component r is (chi_{g,r}/chi) H_r + hat H_{g,r} (``_hat_H``) unless the
    lambency-4 route (odd r) or the stored columns give it whole.  It is exact
    below qcut - ``TwistedH._offset(r)``, or a stored column's shallower depth,
    so a deeper value truncated (``data.memo``) equals a fresh build.
    """
    if ell not in LAMBENCIES:
        raise UnknownClass(f"lambency {ell}")
    c, _ = _class_info(ell, label)
    if from_stored_column(ell, label):
        comps = stored_columns(ell)[label].truncate(qcut).components
    else:
        whole, sides = _lambency_4(label, qcut) if ell == 4 else ({}, _sides(ell, label, qcut))
        hat, H = _hat_H(ell, sides, qcut), identity_H(ell, qcut)
        comps = [whole[r] if r in whole else H.component(r).scale(_shadow(ell, label, r))
                 + hat.get(r, 0) for r in range(1, ell)]
    return TwistedH(ell, comps, label, c.chi, c.chibar, c.gamma)


def _sides(ell: int, label: str, qcut) -> dict:
    """{e: {variant: (F_g + e F_zg)/2}}, the relation summed over the r of parity
    e; none at 7 and 13, where hat H vanishes for 1A and 2A."""
    if ell in (7, 13):
        return {}
    zlab, _ = pairing(ell, label)
    variants = ["F"] + (["F2"] if (label, "F2") in _catalog(ell) else [])
    return {e: {v: (weight2(ell, label, v, qcut) + weight2(ell, zlab, v, qcut).scale(e)) / 2
                for v in variants} for e in (1, -1)}


def _hat_H(ell: int, sides: dict, qcut) -> dict:
    """hat H_{g,r} keyed by r (absent is zero), block e of ``sides`` solved by
    Cramer's rule with one row per variant: its ``_relation`` on the r of parity e."""
    # S_j is built 1/3 past qcut: inverting a 1x1 block loses low(S_j) = j^2/4l
    # <= 1/3 when the weight-2 side has no negative powers, a 2x2 block 1/5
    S = {j: unary_theta(ell, j, qcut + Fraction(1, 3)) for j in range(1, ell)}
    hat = {}
    for e, rhs in sides.items():
        rs = [r for r in range(1, ell) if _parity(r) == e]
        if rs:  # lambency 2 has no even r
            rows = [[S[j].scale(sign) for r, j, sign in _relation(ell, v) if r in rs] for v in rhs]
            hat.update(zip(rs, _cramer(rows, list(rhs.values()))))
    return hat


def _det(m: list) -> FracSeries:
    """Determinant of a square matrix of series, expanded along its first row."""
    if len(m) == 1:
        return m[0][0]
    terms = [a.scale((-1) ** j) * _det([row[:j] + row[j + 1:] for row in m[1:]])
             for j, a in enumerate(m[0])]
    return sum(terms[1:], terms[0])


def _cramer(m: list, rhs: list) -> list:
    """The solution x of m x = rhs over the series ring, by Cramer's rule."""
    try:
        inv = _det(m).invert()
    except NotInvertible as exc:
        raise DeterminantNotUnit(str(exc)) from exc
    return [_det([row[:j] + [b] + row[j + 1:] for row, b in zip(m, rhs)]) * inv
            for j in range(len(m))]


def _lambency_4(label: str, qcut) -> tuple:
    """The one route through the stored lambency-4 data: H_{g,1} and H_{g,3} whole,
    split by residue from their difference (the bridge partner's lambency-2 series at
    half argument, or an eta quotient), and the even block's side W_g, if stored."""
    l4 = load_json("l4_reconstruction.json")
    if label in l4["bridge"]:
        # component 1 at lambency 2 reports 2c + 1/8 - 1/8 = 2c, that is c at half argument
        star = twisted_H(2, l4["bridge"][label], 2 * qcut + Fraction(1, 8)).component(1)
        star = star.rescale(Fraction(1, 2))
    else:
        star = _combination(l4["star_eta"][label], qcut)
    terms = l4["h2_hat"].get(label)
    return ({1: star.split(Fraction(-1, 16)), 3: star.split(Fraction(7, 16)).scale(-1)},
            {-1: {"F": _combination(terms, qcut)}} if terms else {})


# ---------------------------------------------------------------------------
# consistency checks

def verify_F_consistency(ell: int, label: str, qcut=20) -> dict:
    """Check the form rebuilt from the stored tables against the cataloged weight-2
    form(s) to ``qcut``, or to the depth the tables reach if that is less: 24 F^tab =
    sum sign 24 hat_r S_j over ``_relation``, in ints on the lattice q^(1/4l), with
    24 hat_r = 24 T_{g,r} - (l-1) chi_{g,r} T_{1A,r} from the int columns T of
    ``stored_tables`` cut at min(table depth, c - r^2/4l).  F2 pairs hat_r with S_(l-r),
    which starts (l-2)/4 below r^2/4l at r = l-1: so c = qcut + (l-2)/4 for F2."""
    cat, qcut, K = _catalog(ell), as_rat(qcut), 4 * ell
    cut = qcut + (Fraction(ell - 2, 4) if (label, "F2") in cat else 0)
    weights = [chi_r(ell, label, r) * (ell - 1) for r in range(1, ell)]  # 24 chi_{g,r}/chi
    kc, tables = ceil(cut * K), stored_tables(ell)
    if missing := [(r, x) for r, t in tables.items() for x in (label, "1A") if x not in t.columns]:
        raise UnknownClass(f"no stored column {missing[0][1]} in table {ell},{missing[0][0]}")
    hats = {r: {k: v for k, g, one in zip(t.keys, t.columns[label], t.columns["1A"])
                if k + r * r < kc and (v := 24 * g - weights[r - 1] * one)}
            for r, t in tables.items()}
    checked = []
    for variant in [v for v in ("F", "F2") if (label, v) in cat]:
        cutoff, total = qcut, defaultdict(int)
        for r, j, sign in _relation(ell, variant):
            hat, S = hats[r], unary_theta(ell, j, qcut + 1)
            # hat_r is exact below c, and the series product hat_r S_j below this cutoff
            c = min(Fraction(max(tables[r].keys), K) + 1, cut - Fraction(r * r, K))
            cutoff = min(cutoff, c + S.low(), S.cutoff + (Fraction(min(hat), K) if hat else c))
            for ks, v in S.coeffs.items():
                for k, h in hat.items():
                    total[k + ks * (K // S.denom)] += sign * v * h
        kcut = ceil(cutoff * K)
        diff = (FracSeries._of(K, {k: v for k, v in total.items() if v and k < kcut}, cutoff, 24)
                - weight2(ell, label, variant, cutoff))
        checked.append({"variant": variant, "order": str(cutoff),
                        "first_mismatch": next((e for e, _ in diff.items()), None)})
    return {"lambency": ell, "class": label, "checked": checked,
            "ok": all(c["first_mismatch"] is None for c in checked)}


# ---------------------------------------------------------------------------
# mock theta identities

# name: (lhs, rhs).  A side is a twisted component (lambency, class, r) or a
# list of terms (coeff, label, argument, e), each coeff * q^e * mock_theta(label)
# at argument q, -q, q2 (for q^2) or -q2.
MOCK_IDENTITIES = {
    # lambency 2
    "2:4B=mu": ((2, "4B", 1), [(-2, "mu2", "q", "-1/8")]),
    "2:8A=U0": ((2, "8A", 1), [(-2, "U0", "q", "-1/8")]),
    # lambency 3
    "3:2B,1=f(q2)": ((3, "2B", 1), [(-2, "f", "q2", "-1/12")]),
    "3:6C,1=chi(q2)": ((3, "6C", 1), [(-2, "chi", "q2", "-1/12")]),
    "3:8CD,1=phi(-q2)": ((3, "8CD", 1), [(-2, "phi", "-q2", "-1/12")]),
    "3:2B,2=omega(-q)": ((3, "2B", 2), [(-4, "omega", "-q", "2/3")]),
    "3:6C,2=rho(-q)": ((3, "6C", 2), [(2, "rho", "-q", "2/3")]),
    # lambency 4
    "4:2C,1=-2S0+4T0": ((4, "2C", 1), [(-2, "S0", "q", "-1/16"), (4, "T0", "q", "-1/16")]),
    "4:2C,3=2S1-4T1": ((4, "2C", 3), [(2, "S1", "q", "7/16"), (-4, "T1", "q", "7/16")]),
    "4:4C,1=-2S0": ((4, "4C", 1), [(-2, "S0", "q", "-1/16")]),
    "4:4C,3=2S1": ((4, "4C", 3), [(2, "S1", "q", "7/16")]),
    # derived inter-identities among the order 2/8 functions
    "8:U0=S0+qS1": ([(1, "U0", "q", "0")], [(1, "S0", "q2", "0"), (1, "S1", "q2", "1")]),
    "8:U1=T0+qT1": ([(1, "U1", "q", "0")], [(1, "T0", "q2", "0"), (1, "T1", "q2", "1")]),
    "8:mu=U0-2U1": ([(1, "mu2", "q", "0")], [(1, "U0", "q", "0"), (-2, "U1", "q", "0")]),
    # lambency 5
    "5:2B,1=X(q2)": ((5, "2B", 1), [(-2, "X", "q2", "-1/20")]),
    "5:2B,3=chi10(q2)": ((5, "2B", 3), [(-2, "chi10", "q2", "-9/20")]),
    "5:2C,2=psi10(-q)": ((5, "2C", 2), [(2, "psi10", "-q", "-1/5")]),
    "5:2C,4=-phi10(-q)": ((5, "2C", 4), [(-2, "phi10", "-q", "1/5")]),
}


def _identity_side(side, qcut) -> FracSeries:
    if isinstance(side, tuple):
        ell, label, r = side
        return twisted_H(ell, label, qcut).component(r)
    terms = []
    for coeff, label, arg, e in side:
        s = mock_theta(label, qcut / 2 if arg.endswith("2") else qcut)
        if arg.startswith("-"):
            s = s.substitute_minus_q()
        if arg.endswith("2"):
            s = s.rescale(2)
        terms.append(s.shift(as_rat(e)).scale(coeff))
    return sum(terms[1:], terms[0])


def mock_identity_check(name: str, qcut=21) -> dict:
    """Expand both sides of a cataloged identity and compare exactly."""
    if name not in MOCK_IDENTITIES:
        raise UnknownClass(f"unknown identity {name!r}")
    lhs, rhs = (_identity_side(side, as_rat(qcut)) for side in MOCK_IDENTITIES[name])
    cut = min(lhs.cutoff, rhs.cutoff)
    diff = lhs.truncate(cut) - rhs.truncate(cut)
    bad = next((e for e, c in diff.items() if c != 0), None)
    return {"identity": name, "order": str(cut), "first_mismatch": bad, "ok": bad is None}


# ---------------------------------------------------------------------------
# multiplier matrices

_V_ELL = {2: 1, 3: 5, 4: 3, 5: 7, 7: 1, 13: 7}


def multiplier_rho(ell: int, n: int, h: int, gamma: tuple):
    """The (l-1)x(l-1) matrix e(x) J^a K^b of the n|h multiplier at gamma in Gamma_0(n).

    J = diag(1, -1, 1, ...), K is the antidiagonal permutation and x = -v c d/(n h).
    If h does not divide n, x is scaled by gcd(n, h)/n (n even) or n/gcd(n, h) (n odd),
    a = floor(c(d+1)/n) mod 2 and b = floor(c/n) mod 2; else a = b = 0.  Entries are
    roots of unity stored as Fraction exponents y meaning e(y), or None for zero.
    """
    a, b, c, d = gamma
    if a * d - b * c != 1 or c % n:
        raise NotInGroup(f"{gamma} not in Gamma_0({n})")
    size = ell - 1
    x = Fraction(-_V_ELL[ell] * c * d, n * h)
    jpow = kpow = 0
    if n % h:
        x *= Fraction(gcd(n, h), n) if n % 2 == 0 else Fraction(n, gcd(n, h))
        jpow, kpow = (c * (d + 1)) // n % 2, c // n % 2
    rows = [[None] * size for _ in range(size)]
    for i in range(size):
        rows[i][size - 1 - i if kpow else i] = (x + Fraction(jpow * (i % 2), 2)) % 1
    return rows
