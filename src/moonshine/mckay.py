"""Twisted series for every conjugacy class, from the weight-2 form catalogs.

Per lambency the reconstruction routes differ:

* 2: one component, H_g = (chi_g/24) H + F_g / eta^3.
* 3: the two components from the paired combinations F_g +- F_zg divided by
  the eta-quotient expressions of the unary theta components.
* 4: H_{g,1} - H_{g,3} comes from the lambency-2 series at half argument (or
  an eta quotient for the three classes without a degree-24 partner) and is
  split by exponent residue; second components from stored weight-2 data.
* 5: two 2x2 linear solves over the series ring per class pair, one per
  parity, using both weight-2 catalogs.
* 7, 13: identity and its pair from the extraction pipeline; the remaining
  classes are served from the stored coefficient tables, with the cataloged
  weight-2 forms acting as consistency checks.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import gcd

from . import jacobi
from .algebra import as_rat
from .data import load_json, memo
from .errors import (CutoffUnderflow, DataExhausted, DeterminantNotUnit,
                     NotInGroup, NotInvertible, UnknownClass)
from .groups import class_table
from .qseries import (_F44_CUT, FracSeries, eta_quotient, lambda_n,
                      mock_theta, newform, unary_theta)
from .reps import row_component


# ---------------------------------------------------------------------------
# weight-2 catalog

def _catalog(ell: int) -> dict:
    recs = load_json(f"weight2_{ell}.json")["records"]
    return {(r["class"], r["variant"]): r for r in recs}


def weight2_classes(ell: int, variant: str = "F") -> list:
    return [c for (c, v) in _catalog(ell) if v == variant]


def _terms(terms):
    """Read catalog terms as (coeff, scale, build, cap): a term is coeff times
    the block series build(cutoff/scale) at q -> q^scale, known only below
    q^cap (f44 is stored data; every other block has cap None)."""
    for term in terms:
        scale = as_rat(term.get("scale", "1"))
        blk = term["block"]
        cap = None
        if blk["type"] == "lambda":
            build = partial(lambda_n, blk["n"])
        elif blk["type"] == "eta":
            build = partial(eta_quotient, [(as_rat(k), m) for k, m in blk["spec"]])
        elif blk["type"] == "newform":
            build = partial(newform, blk["label"])
            if blk["label"] == "f44":
                cap = _F44_CUT * scale
        else:
            raise UnknownClass(f"unknown block {blk['type']}")
        yield as_rat(term["coeff"]), scale, build, cap


def _combination(terms, cutoff) -> FracSeries:
    """sum coeff * block(scale*tau) over catalog terms, exact below ``cutoff``."""
    total = FracSeries.zero(cutoff)
    for coeff, scale, build, _ in _terms(terms):
        s = build(cutoff / scale)
        if scale != 1:
            s = s.rescale(scale)
        total = total + s.scale(coeff)
    return total


def weight2_cap(ell: int, label: str, variant: str, cutoff) -> Fraction:
    """``cutoff`` lowered to the data cap of the catalog entry (f44 is stored data)."""
    rec = _catalog(ell).get((label, variant))
    if rec is None:
        raise UnknownClass(f"no weight-2 form for ({ell}, {label}, {variant})")
    if "twist_of" in rec:
        return weight2_cap(ell, rec["twist_of"], variant, cutoff)
    return min([as_rat(cutoff)] + [cap for *_, cap in _terms(rec["terms"]) if cap is not None])


def quarter_twist(f: FracSeries) -> FracSeries:
    """e(1/4) f(tau+1) for a series on the lattice 1/4 + (1/2)Z.

    The phase at exponent e is e(e + 1/4), which is -1 on e = 1/4 (mod 1)
    and +1 on e = 3/4 (mod 1); anything off that lattice would make the
    result non-real and is rejected.
    """
    terms = []
    for e, c in f.items():
        res = (e + Fraction(1, 4)) % 1
        if res == Fraction(1, 2):
            terms.append((e, -c))
        elif res == 0:
            terms.append((e, c))
        else:
            raise ArithmeticError(f"quarter twist off-lattice exponent {e}")
    return FracSeries.from_terms(terms, f.cutoff)


def weight2(ell: int, label: str, variant: str = "F", cutoff=30) -> FracSeries:
    """Evaluate the cataloged weight-2 combination for (lambency, class)."""
    cutoff = as_rat(cutoff)
    rec = _catalog(ell).get((label, variant))
    if rec is None:
        raise UnknownClass(f"no weight-2 form for ({ell}, {label}, {variant})")
    if "twist_of" in rec:
        return quarter_twist(weight2(ell, rec["twist_of"], variant, cutoff))
    return _combination(rec["terms"], cutoff)


# ---------------------------------------------------------------------------
# twisted series

@dataclass
class TwistedH:
    lambency: int
    label: str
    components: list            # FracSeries for r = 1..l-1
    chi: int
    chibar: int
    symbol: tuple               # (n_g, h_g)

    def component(self, r: int) -> FracSeries:
        return self.components[r - 1]

    def coefficient(self, fourld: int):
        """Coefficient at q^(d/4l) given the integer 4l*d (table row key).

        Past the exact cutoff of a data-limited reconstruction (stored
        columns, the capped newform) this raises DataExhausted.
        """
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


def _stored_components(ell: int, label: str) -> list:
    comps = []
    for r in range(1, ell):
        tab = load_json(f"mt_{ell}_{r}.json")
        if label not in tab["classes"]:
            raise UnknownClass(f"no stored column {label} in table {ell},{r}")
        j = tab["classes"].index(label)
        rows = {int(k): v[j] for k, v in tab["rows"].items()}
        top = max(rows)
        cut = Fraction(top + 4 * ell, 4 * ell)
        comps.append(FracSeries.from_terms(
            ((Fraction(k, 4 * ell), v) for k, v in rows.items()), cut))
    return comps


def _finish(ell, label, comps) -> TwistedH:
    c, _ = _class_info(ell, label)
    return TwistedH(ell, label, comps, c.chi, c.chibar, c.gamma)


def twisted_H(ell: int, label: str, qcut=31) -> TwistedH:
    """The vector-valued twisted series for a conjugacy class.

    Components carry their exact cutoffs; data-limited reconstructions
    (the f44-capped class at lambency 3, the stored classes at 7 and 13)
    return series whose cutoff reports the cap.
    """
    qcut = as_rat(qcut)
    if ell == 2:
        c, _ = _class_info(2, label)
        F = weight2(2, label, "F", qcut)
        h = identity_H(2, qcut).component(1)
        comp = h.scale(Fraction(c.chi, 24)) + F * eta_quotient([(1, -3)], qcut)
        return _finish(2, label, [comp])
    if ell == 3:
        return _twisted_3(label, qcut)
    if ell == 4:
        return _twisted_4(label, qcut)
    if ell == 5:
        return _twisted_5(label, qcut)
    if ell in (7, 13):
        if label in ("1A", "2A"):
            H = identity_H(ell, qcut)
            flip = label == "2A"
            comps = [H.component(r).scale(-1) if (flip and r % 2 == 0) else H.component(r)
                     for r in range(1, ell)]
            return _finish(ell, label, comps)
        return _finish(ell, label, _stored_components(ell, label))
    raise UnknownClass(f"lambency {ell}")


def _twisted_3(label: str, qcut) -> TwistedH:
    c, zlab = _class_info(3, label)
    fcut = weight2_cap(3, zlab, "F", weight2_cap(3, label, "F", qcut))
    Fg = weight2(3, label, "F", fcut)
    Fz = weight2(3, zlab, "F", fcut)
    H = identity_H(3, qcut)
    s1_inv = eta_quotient([(4, 2), (2, -5)], fcut)     # 1/S1
    s2_inv = eta_quotient([(2, 1), (1, -2), (4, -2)], fcut).scale(Fraction(1, 2))
    h1 = H.component(1).scale(Fraction(c.chibar, 12)) + ((Fg + Fz) * s1_inv).scale(Fraction(1, 2))
    h2 = H.component(2).scale(Fraction(c.chi, 12)) + ((Fg - Fz) * s2_inv).scale(Fraction(1, 2))
    return _finish(3, label, [h1, h2])


def _twisted_4(label: str, qcut) -> TwistedH:
    c, _ = _class_info(4, label)
    l4 = load_json("l4_reconstruction.json")
    if label in l4["bridge"]:
        h2cls = l4["bridge"][label]
        star = twisted_H(2, h2cls, 2 * qcut + 1).component(1).rescale(Fraction(1, 2))
    else:
        star = _combination(l4["star_eta"][label], qcut)
    h1 = star.split(Fraction(-1, 16))
    h3 = star.split(Fraction(7, 16)).scale(-1)
    # second component: H_{g,2} = (chi_g/8) H_2 + W_g / S2 with S2 = 2 eta(2t)^3
    H2 = identity_H(4, qcut).component(2)
    h2 = H2.scale(Fraction(c.chi, 8))
    if label in l4["h2_hat"]:
        W = _combination(l4["h2_hat"][label], qcut)
        h2 = h2 + W * eta_quotient([(2, -3)], qcut).scale(Fraction(1, 2))
    return _finish(4, label, [h1, h2, h3])


def _twisted_5(label: str, qcut) -> TwistedH:
    c, zlab = _class_info(5, label)
    fcut = qcut + 2
    Fg = weight2(5, label, "F", fcut)
    Fz = weight2(5, zlab, "F", fcut)
    F2g = weight2(5, label, "F2", fcut)
    F2z = weight2(5, zlab, "F2", fcut)
    S = {r: unary_theta(5, r, fcut) for r in (1, 2, 3, 4)}
    det = S[1] * S[2] - S[3] * S[4]
    try:
        det_inv = det.invert()
    except NotInvertible as exc:
        raise DeterminantNotUnit(str(exc)) from exc
    rhs1 = (Fg + Fz).scale(Fraction(1, 2))
    rhs2 = (F2g + F2z).scale(Fraction(1, 2))
    rhs3 = (Fg - Fz).scale(Fraction(1, 2))
    rhs4 = (F2z - F2g).scale(Fraction(1, 2))
    hat1 = (rhs1 * S[2] - rhs2 * S[3]) * det_inv
    hat3 = (rhs2 * S[1] - rhs1 * S[4]) * det_inv
    hat2 = (rhs3 * S[1] - rhs4 * S[4]) * det_inv
    hat4 = (rhs4 * S[2] - rhs3 * S[3]) * det_inv
    H = identity_H(5, qcut)
    comps = []
    for r, hat in ((1, hat1), (2, hat2), (3, hat3), (4, hat4)):
        mult = c.chibar if r % 2 else c.chi
        comps.append((H.component(r).scale(Fraction(mult, 6)) + hat).truncate(
            min(qcut - Fraction(r * r, 20), hat.cutoff)))
    return _finish(5, label, comps)


# ---------------------------------------------------------------------------
# consistency checks

def hat_components(tw: TwistedH, qcut=None) -> list:
    """hat H_{g,r} = H_{g,r} - (chi_{g,r}/chi) H_r (vanishing-shadow parts)."""
    ell = tw.lambency
    chi = Fraction(24, ell - 1)
    cut = min(c.cutoff for c in tw.components)
    if qcut is not None:
        cut = min(cut, as_rat(qcut))
    H = identity_H(ell, cut)
    out = []
    for r in range(1, ell):
        mult = Fraction(chi_r(ell, tw.label, r), 1) / chi
        out.append((tw.component(r) - H.component(r).scale(mult)).truncate(
            min(cut - Fraction(r * r, 4 * ell), tw.component(r).cutoff)))
    return out


def verify_F_consistency(ell: int, label: str, qcut=20) -> dict:
    """Check sum_r hat H_{g,r} S_r against the cataloged weight-2 form(s)."""
    cat = _catalog(ell)
    report = {"lambency": ell, "class": label, "checked": [], "ok": True}
    tw = twisted_H(ell, label, qcut + 1)
    # F2 pairs hat_r with S_(l-r), which starts up to (l-2)/4 above r^2/4l
    hats = hat_components(tw, as_rat(qcut) + Fraction(ell, 4))
    for variant in ("F", "F2"):
        if (label, variant) not in cat:
            continue
        total = FracSeries.zero(as_rat(qcut))
        for r in range(1, ell):
            s = unary_theta(ell, ell - r if variant == "F2" else r, as_rat(qcut) + 1)
            piece = hats[r - 1] * s
            if variant == "F2" and r % 2 == 0:
                piece = piece.scale(-1)
            total = total + piece
        want_cut = weight2_cap(ell, label, variant, total.cutoff)
        want = weight2(ell, label, variant, want_cut)
        diff = (total.truncate(want_cut) - want)
        first_bad = next((e for e, cc in diff.items() if cc != 0), None)
        entry = {"variant": variant, "order": str(want_cut), "first_mismatch": first_bad}
        report["checked"].append(entry)
        if first_bad is not None:
            report["ok"] = False
    return report


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
