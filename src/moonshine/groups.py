"""Signed permutation groups: generation, conjugacy data, Frame shapes.

The five groups at lambency 3, 4, 5, 7, 13 are generated by explicit signed
permutations and enumerated by closure; their conjugacy classes are labelled
by matching (element order, Frame shapes) against the bundled class data.
The degree 24 group at lambency 2 is far too large to enumerate and is
served from stored class data throughout.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from math import lcm

from .data import load_json, memo
from .errors import ClosureOverflow, UnknownClass

# ---------------------------------------------------------------------------
# signed permutations
#
# An element of degree n maps e_i -> sign * e_target; images are packed as
# (target << 1) | (sign < 0) into a tuple for fast hashing and composition.

class SignedPerm:
    __slots__ = ("img",)

    def __init__(self, img: tuple):
        self.img = img

    @classmethod
    def identity(cls, n: int) -> "SignedPerm":
        return cls(tuple(i << 1 for i in range(n)))

    @classmethod
    def from_map(cls, n: int, mapping: dict) -> "SignedPerm":
        """mapping: point -> (target, sign); unmapped points stay fixed."""
        img = [i << 1 for i in range(n)]
        for i, (t, s) in mapping.items():
            img[i] = (t << 1) | (1 if s < 0 else 0)
        return cls(tuple(img))

    @property
    def degree(self) -> int:
        return len(self.img)

    def __mul__(self, other: "SignedPerm") -> "SignedPerm":
        """Composition acting left: (g*h)(e_i) = g(h(e_i))."""
        gi = self.img
        return SignedPerm(tuple(gi[v >> 1] ^ (v & 1) for v in other.img))

    def inverse(self) -> "SignedPerm":
        img = [0] * len(self.img)
        for i, v in enumerate(self.img):
            img[v >> 1] = (i << 1) | (v & 1)
        return SignedPerm(tuple(img))

    def __eq__(self, other):
        return self.img == other.img

    def __hash__(self):
        return hash(self.img)

    def negate(self) -> "SignedPerm":
        """Composition with the central all-signs-flip."""
        return SignedPerm(tuple(v ^ 1 for v in self.img))

    def cycles(self):
        """Underlying cycles with their sign products: [(length, sign), ...]."""
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start]:
                continue
            length, sign, i = 0, 1, start
            while not seen[i]:
                seen[i] = True
                v = self.img[i]
                sign = -sign if (v & 1) else sign
                i = v >> 1
                length += 1
            out.append((length, sign))
        return out

    def order(self) -> int:
        o = 1
        for k, s in self.cycles():
            o = lcm(o, k if s > 0 else 2 * k)
        return o

    def __repr__(self):
        return f"SignedPerm({self.img})"


# ---------------------------------------------------------------------------
# frame shapes

def frame_shapes(g: SignedPerm):
    """(signed, unsigned, total) Frame shapes of a signed permutation.

    A cycle of length k contributes k to the signed shape when its sign
    product is +1 and (2k)/k when it is -1; the unsigned shape collects k
    always; the total shape is their formal product and equals the genuine
    cycle shape on the 2n points +-e_i.
    """
    pi, pibar = {}, {}
    for k, s in g.cycles():
        pibar[k] = pibar.get(k, 0) + 1
        if s > 0:
            pi[k] = pi.get(k, 0) + 1
        else:
            pi[2 * k] = pi.get(2 * k, 0) + 1
            pi[k] = pi.get(k, 0) - 1
    pi = {k: v for k, v in pi.items() if v}
    return pi, pibar, _total_shape(pi, pibar)


def _total_shape(pi: dict, pibar: dict) -> dict:
    """The formal product pi * pibar, zero exponents dropped."""
    total = dict(pibar)
    for k, v in pi.items():
        total[k] = total.get(k, 0) + v
        if not total[k]:
            del total[k]
    return total


def total_frame_direct(g: SignedPerm) -> dict:
    """Cycle shape of g acting as a plain permutation of the 2n points."""
    n = g.degree
    seen = [False] * (2 * n)
    shape = {}
    for start in range(2 * n):
        if seen[start]:
            continue
        length, i = 0, start
        while not seen[i]:
            seen[i] = True
            p, s = i >> 1, i & 1
            v = g.img[p]
            i = ((v >> 1) << 1) | (s ^ (v & 1))
            length += 1
        shape[length] = shape.get(length, 0) + 1
    return shape


def euler_chars(g: SignedPerm):
    """(signed, unsigned) twisted Euler characters: fixed -+ anti-fixed counts."""
    plus = sum(1 for i, v in enumerate(g.img) if v == i << 1)
    minus = sum(1 for i, v in enumerate(g.img) if v == (i << 1) | 1)
    return plus - minus, plus + minus


def frame_str(shape: dict) -> str:
    pos = " ".join(f"{k}^{m}" for k, m in sorted(shape.items()) if m > 0)
    neg = " ".join(f"{k}^{-m}" for k, m in sorted(shape.items()) if m < 0)
    return f"{pos}/{neg}" if neg else pos


def parse_frame(s: str) -> dict:
    out = {}
    num, _, den = s.partition("/")
    for part, sgn in ((num, 1), (den, -1)):
        for tok in part.split():
            k, _, m = tok.partition("^")
            out[int(k)] = out.get(int(k), 0) + sgn * int(m)
    return {k: v for k, v in out.items() if v}


def sign_counts(pi: dict, pibar: dict) -> dict:
    """Per cycle length: (positive-sign cycles, negative-sign cycles).

    Inverts the Frame shape encoding: the exponent of k in the signed shape
    is plus(k) - minus(k) + minus(k/2), solvable from short cycles upward.
    """
    out = {}
    for k in sorted(pibar):
        t = pibar[k]
        e = pi.get(k, 0) - (out.get(k // 2, (0, 0))[1] if k % 2 == 0 else 0)
        minus = (t - e) // 2
        assert 0 <= minus <= t and (t - e) % 2 == 0, (pi, pibar, k)
        out[k] = (t - minus, minus)
    return out


def z_partner_frame(pi: dict, pibar: dict) -> dict:
    """Signed Frame shape of z*g given that of g (z the central sign flip)."""
    counts = sign_counts(pi, pibar)
    out = {}
    for k, (plus, minus) in counts.items():
        if k % 2:  # odd cycles flip sign under z
            plus, minus = minus, plus
        out[k] = out.get(k, 0) + plus - minus
        if minus:
            out[2 * k] = out.get(2 * k, 0) + minus
    return {k: v for k, v in out.items() if v}


def order_from_frames(pi: dict, pibar: dict) -> int:
    counts = sign_counts(pi, pibar)
    o = 1
    for k, (plus, minus) in counts.items():
        if plus:
            o = lcm(o, k)
        if minus:
            o = lcm(o, 2 * k)
    return o


def gamma_symbol_from_frames(ell: int, pi: dict, pibar: dict) -> tuple:
    """(n_g, h_g): n = order of the unsigned image, N = shortest*longest cycle
    of the total shape, h = N/n, halved at lambency 4 for non-split classes."""
    cyc = sorted(k for k, v in _total_shape(pi, pibar).items() if v > 0)
    N = cyc[0] * cyc[-1]
    n = 1
    for k in pibar:
        n = lcm(n, k)
    non_split = order_from_frames(pi, pibar) == 2 * n
    h = N // (2 * n) if (ell == 4 and non_split) else N // n
    return n, h


def gamma_symbol(g: SignedPerm, ell: int) -> tuple:
    pi, pibar, _ = frame_shapes(g)
    return gamma_symbol_from_frames(ell, pi, pibar)


# ---------------------------------------------------------------------------
# class-level data (stored tables + derived pairing)

@dataclass
class ClassData:
    label: str
    gamma: tuple
    chi: int
    chibar: int
    pi: dict
    pibar: dict
    order: int = 0
    size: int = 0           # total size over merged orbits
    merged: int = 1         # number of character-table columns the label covers
    rep: SignedPerm | None = None
    power_map: dict | None = None   # prime p -> label of [g^p]


@dataclass
class GroupData:
    lambency: int
    order: int
    classes: list          # [ClassData]
    pairing: dict          # label -> label of [z g]
    by_label: dict = field(default_factory=dict)
    _by_key: dict = field(default_factory=dict)

    def __post_init__(self):
        self.by_label = {c.label: c for c in self.classes}
        self._by_key = {(c.order, frame_str(c.pi), frame_str(c.pibar)): c.label
                        for c in self.classes}

    @property
    def orbit_count(self) -> int:
        """Number of genuine conjugacy classes (merged labels expanded)."""
        return sum(c.merged for c in self.classes)

    def class_of(self, g: SignedPerm) -> str:
        pi, pibar, _ = frame_shapes(g)
        key = (g.order(), frame_str(pi), frame_str(pibar))
        try:
            return self._by_key[key]
        except KeyError:
            raise UnknownClass(f"no class with invariants {key}") from None


def merged_members(label: str) -> list:
    """Expand a possibly merged label: '8AB' -> ['8A', '8B']."""
    m = re.match(r"^(\d+)([A-Z]+)$", label)
    return [f"{m.group(1)}{c}" for c in m.group(2)]


@memo
def class_table(ell: int) -> GroupData:
    """Class-level data from the stored tables, pairing derived from shapes."""
    d = load_json(f"euler_{ell}.json")
    classes = []
    for i, lab in enumerate(d["classes"]):
        n, _, h = d["gamma"][i].partition("|")
        pi, pibar = parse_frame(d["pi"][i]), parse_frame(d["pibar"][i])
        classes.append(ClassData(
            label=lab, gamma=(int(n), int(h) if h else 1),
            chi=d["chi"][i], chibar=d["chibar"][i],
            pi=pi, pibar=pibar, order=order_from_frames(pi, pibar),
            merged=len(merged_members(lab)),
        ))
    pairing = {}
    for c in classes:
        if ell == 2:
            pairing[c.label] = c.label
            continue
        zpi = frame_str(z_partner_frame(c.pi, c.pibar))
        zbar = frame_str(c.pibar)
        zorder = order_from_frames(parse_frame(zpi), c.pibar)
        for c2 in classes:
            if (frame_str(c2.pi), frame_str(c2.pibar), c2.order) == (zpi, zbar, zorder) \
                    and c2.chi == -c.chi and c2.chibar == c.chibar:
                pairing[c.label] = c2.label
                break
        else:
            raise UnknownClass(f"no z-partner for {c.label} at lambency {ell}")
    ctab = load_json(f"chartab_{ell}.json")
    order = ctab["order"]
    # class sizes from character-table centralizers, summed over merged columns
    cols = {lab: ctab["centralizers"][k] for k, lab in enumerate(ctab["classes"])}
    merged_of = {}
    for c in classes:
        c.size = sum(order // cols[m] for m in merged_members(c.label))
        for m in merged_members(c.label):
            merged_of[m] = c.label
    # class-level power maps from the stored character-table rows
    ix = {lab: k for k, lab in enumerate(ctab["classes"])}
    for c in classes:
        c.power_map = {}
        for p, images in ctab["power_maps"].items():
            targets = {merged_of[images[ix[m]]] for m in merged_members(c.label)}
            if len(targets) != 1:
                raise UnknownClass(f"inconsistent merged power map at {c.label}^{p}")
            c.power_map[int(p)] = targets.pop()
    return GroupData(ell, order, classes, pairing)


# ---------------------------------------------------------------------------
# generation by closure

# lambency: (degree, generators in cycle notation on inf, 0, ..., 9, X = e_1, ..., e_12).
# In cycle (a b c), e_a -> e_b etc.; a prime marks a bar, which negates the image
# landing on its entry, including the wrap-around onto the first entry.
_GENERATORS = {
    3: (12, ["(inf 6)(2' X')(3 5)(7' 8')", "(0 1 2 3 4 5 6 7 8 9 X)"]),
    4: (8, ["(inf 5)(0')(1')(2 4)", "(0 1 2 3 4 5 6)"]),
    5: (6, ["(inf 0')(3 1')(2 4')", "(0 1 2 3 4)"]),
    7: (4, ["(inf 0')(1' 2)", "(0 1 2)"]),
    13: (2, ["(inf 0')"]),
}
_POINTS = "inf 0 1 2 3 4 5 6 7 8 9 X".split()


def _perm_from_cycles(degree: int, cycles: str) -> SignedPerm:
    """The signed permutation written as ``cycles`` (see ``_GENERATORS``)."""
    mapping = {}
    for cyc in re.findall(r"\(([^)]*)\)", cycles):
        pts = [(_POINTS.index(s.rstrip("'")), s.endswith("'")) for s in cyc.split()]
        for i, (p, _) in enumerate(pts):
            t, bar = pts[(i + 1) % len(pts)]
            mapping[p] = (t, -1 if bar else 1)
    return SignedPerm.from_map(degree, mapping)


def generators(ell: int) -> list:
    """The two (one for lambency 13) generating signed permutations."""
    if ell not in _GENERATORS:
        raise UnknownClass(f"no generators at lambency {ell}")
    degree, cycles = _GENERATORS[ell]
    return [_perm_from_cycles(degree, c) for c in cycles]


def enumerate_group(gens: list, bound: int = 400000) -> dict:
    """All elements by breadth-first closure; raises past the safety bound."""
    n = gens[0].degree
    ident = SignedPerm.identity(n)
    seen = {ident.img: ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for g in frontier:
            for h in gens:
                p = g * h
                if p.img not in seen:
                    seen[p.img] = p
                    nxt.append(p)
                    if len(seen) > bound:
                        raise ClosureOverflow(f"closure exceeded {bound} elements")
        frontier = nxt
    return seen


def _conjugation_closure(g: SignedPerm, gens: list, inv: list) -> set:
    """Images of the conjugates of g, by closure under generator conjugation."""
    orbit = {g.img}
    frontier = [g]
    while frontier:
        nxt = []
        for x in frontier:
            for a, ai in zip(gens, inv):
                y = (a * x) * ai
                if y.img not in orbit:
                    orbit.add(y.img)
                    nxt.append(y)
        frontier = nxt
    return orbit


def conjugacy_orbits(elements: dict, gens: list) -> list:
    """Partition into conjugation orbits, each represented by its first element
    in enumeration order: [(representative, orbit size)]."""
    inv = [g.inverse() for g in gens]
    unassigned = dict(elements)
    orbits = []
    while unassigned:
        g = next(iter(unassigned.values()))
        orbit = _conjugation_closure(g, gens, inv)
        for img in orbit:
            del unassigned[img]
        orbits.append((g, len(orbit)))
    return orbits


def generate(ell: int, bound: int = 400000) -> GroupData:
    """Generate the lambency-l umbral group and label its conjugacy classes.

    For lambency 2 the stored class inventory is returned (the degree 24
    group is never enumerated).
    """
    if ell == 2:
        return class_table(2)
    gens = generators(ell)
    elements = enumerate_group(gens, bound)
    orbits = conjugacy_orbits(elements, gens)
    table = class_table(ell)
    found = {}
    for rep, size in orbits:
        pi, pibar, _ = frame_shapes(rep)
        key = (rep.order(), frame_str(pi), frame_str(pibar))
        found.setdefault(key, []).append((rep, size))
    classes = []
    for c in table.classes:
        key = (c.order, frame_str(c.pi), frame_str(c.pibar))
        if key not in found:
            raise UnknownClass(f"class {c.label} not found in generated group")
        orbs = found.pop(key)
        if len(orbs) != c.merged:
            raise UnknownClass(
                f"class {c.label}: found {len(orbs)} orbits, expected {c.merged}")
        cd = ClassData(label=c.label, gamma=c.gamma, chi=c.chi, chibar=c.chibar,
                       pi=c.pi, pibar=c.pibar, order=c.order,
                       size=sum(s for _, s in orbs), merged=c.merged,
                       rep=orbs[0][0], power_map=c.power_map)
        classes.append(cd)
    if found:
        raise UnknownClass(f"unmatched orbits {sorted(found)} at lambency {ell}")
    total = sum(c.size for c in classes)
    if total != len(elements):
        raise ClosureOverflow(f"class equation broken: {total} != {len(elements)}")
    gd = GroupData(ell, len(elements), classes, dict(class_table(ell).pairing))
    # verify the derived pairing against the actual central element
    z = SignedPerm.identity(gens[0].degree).negate()
    if z.img not in elements:
        raise UnknownClass("central sign flip not in group")
    for c in classes:
        zlab = gd.class_of(z * c.rep)
        if zlab != gd.pairing[c.label]:
            raise UnknownClass(f"pairing mismatch at {c.label}: {zlab}")
    return gd


@memo
def umbral_group(ell: int) -> GroupData:
    return generate(ell)


# ---------------------------------------------------------------------------
# derived checks

def conjugation_orbit(ell: int, g: SignedPerm) -> set:
    """The conjugation orbit of g under the lambency-l group, as images."""
    gens = generators(ell)
    return _conjugation_closure(g, gens, [x.inverse() for x in gens])


def squared_class_set(ell: int, label: str) -> set:
    """Labels of the classes meeting T^2 for T the (unmerged) class ``label``.

    Conjugation equivariance makes {g0 h : h in T} enough for a fixed g0;
    for a merged label either constituent orbit gives the same set since the
    two are exchanged by the central element.
    """
    if ell == 2:
        raise UnknownClass("squared classes need a generated group")
    gd = umbral_group(ell)
    if label not in gd.by_label:
        raise UnknownClass(f"no class {label} at lambency {ell}")
    c = gd.by_label[label]
    orbit = conjugation_orbit(ell, c.rep)
    g0 = c.rep
    return {gd.class_of(g0 * SignedPerm(img)) for img in orbit}


def shuffle_group(n: int) -> int:
    """Order of the group generated by the reverse and Mongean shuffles."""
    if 12 % n:
        raise UnknownClass("n must divide 12")
    r = SignedPerm.from_map(n, {t: (n - 1 - t, 1) for t in range(n)})
    s = SignedPerm.from_map(n, {t: (min(2 * t, 2 * n - 1 - 2 * t), 1) for t in range(n)})
    return len(enumerate_group([r, s]))


def check_ell4_to_ell2() -> dict:
    """Genuine-cycle-shape classes of the lambency 4 group have doubled
    partners among the degree 24 classes, except class 4B."""
    g4 = class_table(4)
    g2 = class_table(2)
    report = {"checked": [], "failures": [], "excluded": []}
    m24_shapes = {}
    for c in g2.classes:
        m24_shapes.setdefault(frame_str(c.pi), []).append(c)
    for c in g4.classes:
        if any(v < 0 for v in c.pi.values()):
            continue
        target = dict(c.pibar)
        for k, v in c.pi.items():
            target[2 * k] = target.get(2 * k, 0) + v
        ts = frame_str(target)
        hits = [c2 for c2 in m24_shapes.get(ts, []) if c2.order == 2 * c.order]
        if c.label == "4B":
            report["excluded"].append((c.label, ts, bool(hits)))
            continue
        if hits:
            report["checked"].append((c.label, hits[0].label))
        else:
            report["failures"].append((c.label, ts))
    report["ok"] = not report["failures"] and all(not h for _, _, h in report["excluded"])
    return report
