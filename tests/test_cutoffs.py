"""A cutoff oracle over the catalog.

Each builder B below is asked for a cutoff c and for a deeper one c + delta.
B(c) must report exactly the cutoff its rule states, and the deeper build must
agree with it below that cutoff: B(c + delta).truncate(B(c).cutoff) == B(c),
cutoff included.  So an optimistic cutoff anywhere inside a builder (a product,
an inverse, a shift) shows up as a coefficient that the deeper build
contradicts.  The memo is emptied before every build, so neither value is a
truncated copy of the other.
"""
from fractions import Fraction as F

import pytest

from moonshine import jacobi as jb
from moonshine import mckay
from moonshine import qseries as qs
from moonshine.data import load_json, set_data_dir
from moonshine.qseries import FracSeries

CUTS = [7, F(113, 16), F(41, 3)]
DELTAS = [F(1, 8), 1]


def exactly(cut=lambda c: c):
    """The rule of a builder whose cutoff is cut(c), as its docstring says."""
    return cut


def catalog_eta_specs():
    """Every eta-quotient spec the weight-2 and lambency-4 catalogs name."""
    specs = set()

    def walk(node):
        if isinstance(node, dict):
            if node.get("type") == "eta":
                specs.add(tuple((F(k), m) for k, m in node["spec"]))
            node = list(node.values())
        if isinstance(node, list):
            for child in node:
                walk(child)

    for ell in (2, 3, 5, 7, 13):
        walk(load_json(f"weight2_{ell}.json"))
    walk(load_json("l4_reconstruction.json"))
    return sorted(specs)


def shifted(tw):
    """The components of a twisted series, component r times q^(r^2/4l); the
    odd components at lambency 4 come from the bridge, exact below c itself."""
    ell = tw.lambency
    return [s.shift(0 if ell == 4 and r % 2 else F(r * r, 4 * ell))
            for r, s in enumerate(tw.components, 1)]


def spec_id(spec):
    return ",".join(f"{k}^{m}" for k, m in spec)


# eta-quotient coverage only: the quotients equal to 1/S1 and 1/S2 at
# lambency 3, which twisted_H does not build (it inverts S_r itself)
TWISTED_3_INVERSES = [((4, 2), (2, -5)), ((2, 1), (1, -2), (4, -2))]

BUILDERS = [
    *[(f"eta_quotient({spec_id(spec)})", lambda c, s=spec: qs.eta_quotient(s, c), exactly())
      for spec in catalog_eta_specs() + TWISTED_3_INVERSES],
    *[(f"newform({label})", lambda c, lb=label: qs.newform(lb, c), exactly())
      for label in ("f11", "f14", "f15", "f20", "f23a", "f23b", "f44")],
    *[(f"lambda_n({n})", lambda c, n=n: qs.lambda_n(n, c), exactly()) for n in (2, 7, 44)],
    ("eta", qs.eta, exactly()),
    *[(f"unary_theta({m},{r})", lambda c, m=m, r=r: qs.unary_theta(m, r, c), exactly())
      for m, r in ((2, 1), (5, 4), (13, 6), (2, -3))],
    *[(f"index_theta({m},{r})", lambda c, m=m, r=r: jb.index_theta(m, r, c), exactly())
      for m, r in ((1, 0), (4, 1), (13, 6), (3, -5))],
    *[(f"mock_theta({label})", lambda c, lb=label: qs.mock_theta(lb, c), exactly())
      for label in qs._MOCK_THETA],
    *[(f"jacobi_theta({i})", lambda c, i=i: jb.jacobi_theta(i, c), exactly())
      for i in (1, 2, 3, 4)],
    # the theta quotients read only the rows below c of both sides
    *[(f"gritsenko({m},1)", lambda c, m=m: jb.gritsenko(m, 1, c), exactly())
      for m in (4, 5, 7, 13)],
    *[(f"appell_mu({m},{j2},{ann})",
       lambda c, m=m, j2=j2, ann=ann: jb.appell_mu(m, j2, c, 6, ann), exactly())
      for m, j2, ann in ((1, 0, jb.LOWER), (1, 0, jb.UPPER), (3, 1, jb.UPPER))],
    # one record per catalog, an F2 record, a quarter twist and the f44 record
    *[(f"weight2({ell},{label},{var})", lambda c, a=(ell, label, var): mckay.weight2(*a, c),
       exactly()) for ell, label, var in ((2, "3A", "F"), (3, "2B", "F"), (3, "22AB", "F"),
                                          (5, "2B", "F2"), (5, "2C", "F2"), (7, "3AB", "F"),
                                          (13, "2A", "F2"))],
    # one class per route of the solver (22AB reads the f44 newform):
    # component r, shifted by r^2/4l, is exact below c
    *[(f"twisted_H({ell},{label})", lambda c, a=(ell, label): shifted(mckay.twisted_H(*a, c)),
       exactly()) for ell, label in ((2, "3A"), (3, "2B"), (3, "22AB"), (5, "2B"))],
    ("twisted_H(4,3A).component(2)",
     lambda c: shifted(mckay.twisted_H(4, "3A", c))[1], exactly()),
    # the lambency-4 bridge reads the lambency-2 series at 2c + 1/8 at half argument
    *[(f"twisted_H(4,{label})", lambda c, lb=label: shifted(mckay.twisted_H(4, lb, c)),
       exactly()) for label in ("2A", "3A", "4A")],
    # stored columns are cut as computed ones, where the table reaches that deep
    ("twisted_H(7,3AB)", lambda c: shifted(mckay.twisted_H(7, "3AB", c)), exactly()),
    # the structural operations and their cutoff rules
    ("shift", lambda c: qs.mock_theta("f", c).shift(F(-1, 24)),
     exactly(lambda c: c - F(1, 24))),
    ("rescale(2)", lambda c: qs.mock_theta("chi", c).rescale(2), exactly(lambda c: 2 * c)),
    ("rescale(1/2)", lambda c: qs.unary_theta(2, 1, c).rescale(F(1, 2)),
     exactly(lambda c: c / 2)),
    ("split", lambda c: qs.unary_theta(4, 1, c).split(F(1, 16)), exactly()),
    ("invert", lambda c: qs.eta_quotient([(1, 24)], c).invert(), exactly(lambda c: c - 2)),
    ("_clip", lambda c: jb._clip(jb.appell_mu(1, 0, c, 8), 3, jb.LOWER), exactly()),
]


def build(make, c):
    set_data_dir(None)  # empties the memo
    value = make(c)
    return list(value) if isinstance(value, list) else [value]


def cutoff(s):
    return s.cutoff if isinstance(s, FracSeries) else s.qcut


def reported(s):
    if isinstance(s, FracSeries):
        return list(s.items()), s.cutoff
    return list(s.items()), s.qcut, s.ywindow, s.annulus


@pytest.mark.parametrize("make, rule", [b[1:] for b in BUILDERS], ids=[b[0] for b in BUILDERS])
def test_cutoff_is_sound_and_as_stated(make, rule):
    for c in CUTS:
        shallow = build(make, c)
        for delta in DELTAS:
            for s, d in zip(shallow, build(make, c + delta), strict=True):
                assert reported(d.truncate(cutoff(s))) == reported(s), (c, delta)
        for s in shallow:
            assert cutoff(s) == rule(c), c
