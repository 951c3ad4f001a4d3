"""Twisted series for every conjugacy class, from the weight-2 form catalogs.

Every computed component follows one formula, H_{g,r} = (chi_{g,r}/chi) H_r +
hat H_{g,r} with chi = 24/(l-1) and H the extracted identity vector.  The
shadow-free part hat H_g solves F_g = sum_r hat H_{g,r} S_r against the unary
thetas (and F2_g = sum_r +-hat H_{g,r} S_(l-r) at lambency 5), one parity block
of r at a time; at lambency 4 the even block reads the stored form W_g, and at
7 and 13 hat H vanishes for 1A and 2A.  Two sources replace whole components:
the lambency-4 bridge (odd r: H_{g,1} - H_{g,3} is the lambency-2 series of the
bridge partner at half argument, or an eta quotient, split by exponent residue)
and the stored coefficient tables of every other class at 7 and 13.  The
weight-2 check reads no computed series: it compares each cataloged form with
the form rebuilt from the stored tables, for every class.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import gcd

from . import jacobi
from .algebra import as_rat
from .data import LAMBENCIES, load_json, memo
from .errors import (CutoffUnderflow, DataCorrupt, DataExhausted,
                     DeterminantNotUnit, NotInGroup, NotInvertible, UnknownClass)
from .groups import class_table
from .qseries import (FracSeries, eta_quotient, lambda_n, mock_theta, newform,
                      unary_theta)
from .reps import row_component, stored_rows


# ---------------------------------------------------------------------------
# weight-2 catalog

def _catalog(ell: int) -> dict:
    recs = load_json(f"weight2_{ell}.json")["records"]
    return {(r["class"], r["variant"]): r for r in recs}


def weight2_classes(ell: int, variant: str = "F") -> list:
    return [c for (c, v) in _catalog(ell) if v == variant]


def _terms(terms):
    """Read catalog terms as (coeff, scale, build): a term is coeff times the
    block series build(cutoff/scale) at q -> q^scale."""
    for term in terms:
        scale = as_rat(term.get("scale", "1"))
        blk = term["block"]
        if blk["type"] == "lambda":
            build = partial(lambda_n, blk["n"])
        elif blk["type"] == "eta":
            build = partial(eta_quotient, [(as_rat(k), m) for k, m in blk["spec"]])
        elif blk["type"] == "newform":
            build = partial(newform, blk["label"])
        else:
            raise UnknownClass(f"unknown block {blk['type']}")
        yield as_rat(term["coeff"]), scale, build


def _combination(terms, cutoff) -> FracSeries:
    """sum coeff * block(scale*tau) over catalog terms, exact below ``cutoff``."""
    total = FracSeries.zero(cutoff)
    for coeff, scale, build in _terms(terms):
        s = build(cutoff / scale)
        if scale != 1:
            s = s.rescale(scale)
        total = total + s.scale(coeff)
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

    def coefficient(self, fourld: int):
        """Coefficient at q^(d/4l) given the integer 4l*d (table row key); past
        its component's cutoff this raises DataExhausted."""
        e = Fraction(fourld, 4 * self.lambency)
        r = row_component(self.lambency, fourld)
        try:
            return self.component(r).coefficient(e)
        except CutoffUnderflow as exc:
            raise DataExhausted(str(exc)) from exc


@memo
def identity_H(ell: int, qcut) -> jacobi.HVector:
    return jacobi.extract_H(ell, qcut)


def _class_info(ell: int, label: str):
    gd = class_table(ell)
    if label not in gd.by_label:
        raise UnknownClass(f"no class {label} at lambency {ell}")
    return gd.by_label[label], gd.pairing[label]


def chi_r(ell: int, label: str, r: int) -> int:
    """Shadow multiplicity: the unsigned character for odd r, signed for even."""
    c, _ = _class_info(ell, label)
    return c.chibar if r % 2 else c.chi


def pairing(ell: int, label: str):
    """The paired class [zg] and the component sign rule it satisfies.

    Returns (partner_label, signs) with signs[r-1] the factor relating
    component r of the partner to component r of ``label``: +1 for odd r
    (non-faithful side), -1 for even r (faithful side).
    """
    _, zlab = _class_info(ell, label)
    return zlab, [1 if r % 2 else -1 for r in range(1, ell)]


def from_stored_column(ell: int, label: str) -> bool:
    """Whether the twisted series of ``label`` is read from its stored table
    columns (lambencies 7 and 13, classes other than 1A and 2A)."""
    return ell in (7, 13) and label not in ("1A", "2A")


def _stored_components(ell: int, label: str, qcut) -> list:
    cols = {r: {} for r in range(1, ell)}
    for (r, k), row in stored_rows(ell).items():
        if label not in row:
            raise UnknownClass(f"no stored column {label} in table {ell},{r}")
        cols[r][Fraction(k, 4 * ell)] = row[label]
    # the table ends one row past its last: exact below the last exponent + 1
    table = [FracSeries.from_terms(col.items(), max(col) + 1) for col in cols.values()]
    return jacobi.HVector(ell, table).truncate(qcut).components


@memo
def twisted_H(ell: int, label: str, qcut=31) -> TwistedH:
    """The vector-valued twisted series for a conjugacy class.

    Component r is (chi_{g,r}/chi) H_r + hat H_{g,r} with chi = 24/(l-1),
    hat H from ``_hat_H``; the lambency-4 bridge (odd r) and the stored
    columns (``from_stored_column``) replace whole components.  Component r
    is exact below qcut - ``TwistedH._offset(r)``, or below a stored column's
    table depth where that is shallower, so a deeper value truncated
    (``data.memo``) equals a fresh build.
    """
    if ell not in LAMBENCIES:
        raise UnknownClass(f"lambency {ell}")
    c, _ = _class_info(ell, label)
    if from_stored_column(ell, label):
        comps = _stored_components(ell, label, qcut)
    else:
        hat = {} if ell in (7, 13) else _hat_H(ell, label, qcut)
        H = identity_H(ell, qcut)
        comps = [H.component(r).scale(Fraction(chi_r(ell, label, r) * (ell - 1), 24))
                 + hat.get(r, 0) for r in range(1, ell)]
        if ell == 4:
            comps[0], comps[2] = _l4_odd(label, qcut)
    return TwistedH(ell, comps, label, c.chi, c.chibar, c.gamma)


def _hat_H(ell: int, label: str, qcut) -> dict:
    """hat H_{g,r} keyed by r, from the weight-2 relations; an absent r is zero.

    The r of one pairing sign e form a block, solved by Cramer's rule over
    the series ring: (F_g + e F_zg)/2 = sum_r hat_r S_r and, where the F2
    catalog has the class, e (F2_g + e F2_zg)/2 = sum_r hat_r S_(l-r).  At
    lambency 4 only the even block is solved, from W_g = hat_2 S_2.
    """
    zlab, signs = pairing(ell, label)
    if ell == 4:
        terms = load_json("l4_reconstruction.json")["h2_hat"].get(label)
        sides = {-1: [_combination(terms, qcut)]} if terms else {}
    else:
        variants = ["F"] + (["F2"] if (label, "F2") in _catalog(ell) else [])
        form = {(lab, v): weight2(ell, lab, v, qcut) for lab in {label, zlab} for v in variants}
        sides = {e: [(form[label, v] + form[zlab, v].scale(e)).scale(
                     Fraction(e if v == "F2" else 1, 2)) for v in variants] for e in (1, -1)}
    # S_r is built 1/3 past qcut: inverting a 1x1 block loses low(S_r) =
    # r^2/4l <= 1/3 when the weight-2 side has no negative powers, and the
    # 2x2 blocks at lambency 5 need 1/5
    S = {r: unary_theta(ell, r, qcut + Fraction(1, 3)) for r in range(1, ell)}
    hat = {}
    for e, rhs in sides.items():
        rs = [r for r in range(1, ell) if signs[r - 1] == e]
        if rs:  # lambency 2 has no even r
            rows = [[S[r] for r in rs], [S[ell - r] for r in rs]][:len(rhs)]
            hat.update(zip(rs, _cramer(rows, rhs)))
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


def _l4_odd(label: str, qcut) -> tuple:
    """H_{g,1} and H_{g,3} at lambency 4, split by exponent residue from their
    difference: the bridge partner's lambency-2 series at half argument, or an
    eta quotient for the classes without one."""
    l4 = load_json("l4_reconstruction.json")
    if label in l4["bridge"]:
        # component 1 at lambency 2 reports 2c + 1/8 - 1/8 = 2c, that is c at half argument
        star = twisted_H(2, l4["bridge"][label], 2 * qcut + Fraction(1, 8)).component(1)
        star = star.rescale(Fraction(1, 2))
    else:
        star = _combination(l4["star_eta"][label], qcut)
    return star.split(Fraction(-1, 16)), star.split(Fraction(7, 16)).scale(-1)


# ---------------------------------------------------------------------------
# consistency checks

def verify_F_consistency(ell: int, label: str, qcut=20) -> dict:
    """Check the form rebuilt from the stored tables against the cataloged weight-2
    form(s) to ``qcut``, or to the depth the tables reach if that is less: F^tab =
    sum_r hat_r S_r with hat_r = H^tab_{g,r} - (chi_{g,r}/chi) H^tab_{1A,r}.  Columns
    cut at c give hat_r exact below c - r^2/4l, and F2 pairs it with S_(l-r), which
    starts (l-2)/4 below r^2/4l at r = l-1: so c = qcut + (l-2)/4 for F2 classes."""
    cat = _catalog(ell)
    qcut = as_rat(qcut)
    cut = qcut + (Fraction(ell - 2, 4) if (label, "F2") in cat else 0)
    one = _stored_components(ell, "1A", cut)
    hats = [h - one[r - 1].scale(Fraction(chi_r(ell, label, r) * (ell - 1), 24))
            for r, h in enumerate(_stored_components(ell, label, cut), 1)]
    checked = []
    for variant in [v for v in ("F", "F2") if (label, v) in cat]:
        total = FracSeries.zero(qcut)
        for r, h in enumerate(hats, 1):
            piece = h * unary_theta(ell, ell - r if variant == "F2" else r, qcut + 1)
            total = total - piece if variant == "F2" and r % 2 == 0 else total + piece
        diff = total - weight2(ell, label, variant, total.cutoff)
        checked.append({"variant": variant, "order": str(total.cutoff),
                        "first_mismatch": next((e for e, c in diff.items() if c != 0), None)})
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
