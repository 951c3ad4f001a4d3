"""Signed permutation groups: generation, conjugacy data, Frame shapes,
class tables and character tables.

The five groups at lambency 3, 4, 5, 7, 13 are generated by explicit signed
permutations and never listed: the group order comes from a stabilizer chain
(Schreier-Sims).  A lazy breadth-first walk and the powers of its elements
supply candidate class representatives, each labelled by its two Frame shapes
against the bundled class data; a backtrack search over a chain whose base
follows the candidate's cycles decides conjugacy to the representatives
found under its label and counts its centralizer, so a class of g has
|G|/|C(g)| elements.  |C(g)| is a product of orbit lengths along the
search's identity branch: the elements of C(g) fixing the first i base
points move the next one b_i to as many points as first-leaf searches reach,
and the orbit-stabilizer theorem multiplies that orbit's length by the order
of its stabilizer, the same count taken one level down with b_i fixed; no
element of C(g) is listed.  z g (z the central sign flip) and the powers g^k
with k prime to the order of g share that centralizer and chain.  The search
stops when the labels hold their stored class counts; the class sizes must
then sum to the order (the class equation).
The degree 24 group at lambency 2 is far too large to enumerate and is
served from stored class data throughout.

``class_table`` derives every class invariant from the class's two stored
Frame shapes, checking the stored columns against them; ``character_table``
is the one reader of the stored character tables.
"""
from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from itertools import islice
from math import gcd, lcm, prod
from operator import mul

from .algebra import QuadValue, squarefree_part
from .data import load_json, memo
from .errors import ClosureOverflow, DataCorrupt, MixedDiscriminant, OutOfRange, UnknownClass

# ---------------------------------------------------------------------------
# signed permutations
#
# A signed permutation of degree n is a permutation of the 2n points +-e_i
# that commutes with negation.  Point 2i is +e_i and 2i+1 is -e_i, so negation
# is p ^ 1.  An element is the bytes of its 2n point images; padded with the
# fixed points 2n..255 it is a translate table, so product, inverse and
# negation are single C calls (and the degree is at most 128).

_IDENTITY = bytes(range(256))
_FLIP = bytes(p ^ 1 for p in range(256))


def _table(perm: bytes) -> bytes:
    """The 256-byte translate table of a point permutation."""
    return perm + _IDENTITY[len(perm):]


def _inverse(perm: bytes) -> bytes:
    """The translate table of the inverse of a point permutation."""
    return bytes.maketrans(_table(perm), _IDENTITY)


class SignedPerm:
    __slots__ = ("perm",)

    def __init__(self, img):
        """``img[i]``: the image of e_i as the point (target << 1) | (sign < 0)."""
        if len(img) > 128:
            raise OutOfRange(f"degree {len(img)} exceeds 128, the most bytes hold")
        self.perm = bytes(p for v in img for p in (v, v ^ 1))

    @classmethod
    def _of(cls, perm: bytes) -> "SignedPerm":
        g = object.__new__(cls)
        g.perm = perm
        return g

    @classmethod
    def identity(cls, n: int) -> "SignedPerm":
        return cls(range(0, 2 * n, 2))

    @classmethod
    def from_map(cls, n: int, mapping: dict) -> "SignedPerm":
        """mapping: point -> (target, sign); unmapped points stay fixed."""
        img = [i << 1 for i in range(n)]
        for i, (t, s) in mapping.items():
            img[i] = (t << 1) | (1 if s < 0 else 0)
        return cls(img)

    @property
    def img(self) -> bytes:
        """Images of the e_i: the even positions of the point permutation."""
        return self.perm[0::2]

    @property
    def degree(self) -> int:
        return len(self.perm) >> 1

    def __mul__(self, other: "SignedPerm") -> "SignedPerm":
        """Composition acting left: (g*h)(e_i) = g(h(e_i))."""
        return SignedPerm._of(other.perm.translate(_table(self.perm)))

    def inverse(self) -> "SignedPerm":
        return SignedPerm._of(_inverse(self.perm)[:len(self.perm)])

    def __eq__(self, other):
        return self.perm == other.perm

    def __hash__(self):
        return hash(self.perm)

    def negate(self) -> "SignedPerm":
        """Composition with the central all-signs-flip."""
        return SignedPerm._of(self.perm.translate(_FLIP))

    def cycles(self):
        """Underlying cycles with their sign products: [(length, sign), ...].

        The walk from +e_i closes after k steps at +e_i (sign +1: with its
        negative, two k-cycles on the 2n points) or at -e_i (sign -1: one
        2k-cycle through both).
        """
        seen = [False] * self.degree
        out = []
        for i in range(self.degree):
            if seen[i]:
                continue
            length, p = 0, 2 * i
            while not seen[p >> 1]:
                seen[p >> 1] = True
                p = self.perm[p]
                length += 1
            out.append((length, -1 if p & 1 else 1))
        return out

    def _cycle_type(self) -> dict:
        """The signed cycle type {k: (plus, minus)}, as ``sign_counts`` gives it."""
        counts = {}
        for k, s in self.cycles():
            plus, minus = counts.get(k, (0, 0))
            counts[k] = (plus + 1, minus) if s > 0 else (plus, minus + 1)
        return counts

    def order(self) -> int:
        return _order(self._cycle_type())

    def __repr__(self):
        return f"SignedPerm({tuple(self.img)})"


# ---------------------------------------------------------------------------
# frame shapes, all read from the signed cycle type {k: (plus, minus)}

def _frames(counts: dict):
    """(signed, unsigned, total) Frame shapes of a signed cycle type.

    A cycle of length k contributes k to the signed shape when its sign
    product is +1 and (2k)/k when it is -1; the unsigned shape collects k
    always; the total shape is their formal product and equals the genuine
    cycle shape on the 2n points +-e_i.
    """
    pi, pibar, total = Counter(), Counter(), Counter()
    for k, (plus, minus) in counts.items():
        pi[k] += plus - minus
        pi[2 * k] += minus
        pibar[k] += plus + minus
        total[k] += 2 * plus
        total[2 * k] += minus
    return tuple({k: v for k, v in s.items() if v} for s in (pi, pibar, total))


def _order(counts: dict) -> int:
    """Element order: a k-cycle of sign -1 has order 2k."""
    o = 1
    for k, (plus, minus) in counts.items():
        if plus:
            o = lcm(o, k)
        if minus:
            o = lcm(o, 2 * k)
    return o


def frame_shapes(g: SignedPerm):
    """(signed, unsigned, total) Frame shapes of a signed permutation."""
    return _frames(g._cycle_type())


def total_frame_direct(g: SignedPerm) -> dict:
    """Cycle shape of g acting as a plain permutation of the 2n points."""
    perm = g.perm
    seen = [False] * len(perm)
    shape = {}
    for start in range(len(perm)):
        if seen[start]:
            continue
        length, p = 0, start
        while not seen[p]:
            seen[p] = True
            p = perm[p]
            length += 1
        shape[length] = shape.get(length, 0) + 1
    return shape


def euler_chars(g: SignedPerm):
    """(signed, unsigned) twisted Euler characters: fixed -+ anti-fixed counts."""
    plus, minus = g._cycle_type().get(1, (0, 0))
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
    """The signed cycle type {k: (plus, minus)} that has these Frame shapes.

    Inverts the Frame shape encoding: the exponent of k in the signed shape
    is plus(k) - minus(k) + minus(k/2), solvable from short cycles upward.
    The shapes come from data files, so a pair that no signed permutation
    has raises ``DataCorrupt``.
    """
    out = {}
    for k in sorted(pibar):
        t = pibar[k]
        e = pi.get(k, 0) - (out.get(k // 2, (0, 0))[1] if k % 2 == 0 else 0)
        minus = (t - e) // 2
        out[k] = (t - minus, minus)
    if any(min(v) < 0 for v in out.values()) or _frames(out)[:2] != (pi, pibar):
        raise DataCorrupt(f"no signed permutation has Frame shapes "
                          f"{frame_str(pi)} and {frame_str(pibar)}")
    return out


# ---------------------------------------------------------------------------
# class-level data: character tables, and class invariants from Frame shapes

@dataclass
class ClassData:
    label: str
    gamma: tuple
    chi: int
    chibar: int
    pi: dict
    pibar: dict
    order: int
    size: int               # total size over merged orbits
    merged: int             # number of character-table columns the label covers
    power_map: dict         # prime p -> label of [g^p]
    rep: SignedPerm | None = None


@dataclass
class GroupData:
    lambency: int
    order: int
    classes: list          # [ClassData]
    pairing: dict          # label -> label of [z g]
    by_label: dict = field(default_factory=dict)
    _by_type: dict = field(default_factory=dict)

    def __post_init__(self):
        self.by_label = {c.label: c for c in self.classes}
        self._by_type = {_type_key(sign_counts(c.pi, c.pibar)): c.label for c in self.classes}

    @property
    def orbit_count(self) -> int:
        """Number of genuine conjugacy classes (merged labels expanded)."""
        return sum(c.merged for c in self.classes)

    def class_of(self, g: SignedPerm) -> str:
        counts = g._cycle_type()
        try:
            return self._by_type[_type_key(counts)]
        except KeyError:
            pi, pibar, _ = _frames(counts)
            raise UnknownClass(f"no class with invariants {(frame_str(pi), frame_str(pibar))}") \
                from None


def _type_key(counts: dict) -> tuple:
    """A class is known by its two Frame shapes, that is by the signed cycle type
    they encode (``sign_counts`` inverts ``_frames``); it fixes the element order."""
    return tuple(sorted(counts.items()))


def merged_members(label: str) -> list:
    """Expand a possibly merged label: '8AB' -> ['8A', '8B']."""
    m = re.match(r"^(\d+)([A-Z]+)$", label)
    return [f"{m.group(1)}{c}" for c in m.group(2)]


@dataclass
class CharacterTable:
    """A stored character table as ints: e*chi_i(K) = R[i][K] + X[i][K]*sqrt(row_disc[i])
    over the common denominator e, col_disc[K] the one discriminant of column K, and A, B
    are R, X times the weights L/|C(K)|, L the lcm of the centralizer orders."""
    lambency: int
    order: int
    classes: list           # unmerged labels, character-table column order
    centralizers: list      # |C(g)| per column
    power_maps: dict        # str(p) -> [labels]
    fs: list                # Frobenius-Schur indicators per irreducible
    e: int
    L: int
    R: list
    X: list
    A: list
    B: list
    row_disc: list
    col_disc: list

    @cached_property
    def values(self) -> list:
        """values[i][k]: chi_{i+1} at column k as a QuadValue, built on first read."""
        return [[QuadValue(Fraction(p, self.e), Fraction(x, self.e), d) for p, x in zip(rats, irrs)]
                for rats, irrs, d in zip(self.R, self.X, self.row_disc)]

    def degree(self, i: int) -> int:
        return self.R[i][0] // self.e

    @property
    def nchars(self) -> int:
        return len(self.R)


def _ratio(s: str) -> tuple:
    """The numerator and denominator of a stored 'p/q' or 'p'."""
    p, _, q = s.partition("/")
    return int(p), int(q or 1)


def _one_disc(discs, where: str) -> int:
    ds = set(discs) - {0}
    if len(ds) > 1:
        raise MixedDiscriminant(f"{where} mixes sqrt({min(ds)}) and sqrt({max(ds)})")
    return ds.pop() if ds else 0


@memo
def character_table(ell: int) -> CharacterTable:
    """The stored character table; no other function reads its file.  Each cell {rat, irr,
    disc} is parsed straight to ints over the lcm e of the table's denominators.  An irr over
    a disc of 0, 1 or with a square factor raises ``DataCorrupt``; a row or column with two
    discs, ``MixedDiscriminant``."""
    d = load_json(f"chartab_{ell}.json")
    cells = [[(*_ratio(v["rat"]), *_ratio(v["irr"]), v["disc"]) for v in row]
             for row in d["values"]]
    e = lcm(*(c[k] for row in cells for c in row for k in (1, 3)))
    R = [[p * (e // q) for p, q, _, _, _ in row] for row in cells]
    X = [[x * (e // y) for _, _, x, y, _ in row] for row in cells]
    D = [[c[4] if x else 0 for c, x in zip(row, xs)] for row, xs in zip(cells, X)]
    for disc in {c[4] for row in cells for c in row if c[2]}:
        if disc in (0, 1) or squarefree_part(disc)[1] != 1:
            raise DataCorrupt(f"chartab_{ell}.json: sqrt({disc}) is not a square-free irrational")
    big_l = lcm(*d["centralizers"])
    w = [big_l // c for c in d["centralizers"]]
    return CharacterTable(
        ell, d["order"], d["classes"], d["centralizers"], d["power_maps"], d["fs"], e, big_l,
        R, X, [list(map(mul, row, w)) for row in R], [list(map(mul, row, w)) for row in X],
        [_one_disc(row, f"chi_{i + 1}") for i, row in enumerate(D)],
        [_one_disc(col, f"column {lab}") for lab, col in zip(d["classes"], zip(*D))])


@memo
def class_table(ell: int) -> GroupData:
    """Class-level data, each invariant read off a class's two stored Frame
    shapes through its signed cycle type: the element order, chi and chibar
    (the exponents of 1 in Pi and Pibar), the symbol n|h (n the order of the
    unsigned image, h = N/n for N the shortest times the longest cycle of the
    total shape, halved at lambency 4 for the non-split classes, of order 2n)
    and the z-partner (z flips the sign of every odd cycle; at lambency 2 each
    class is its own).  The stored chi, chibar and Gamma columns are checked
    against them, and the merged labels must list each character-table column
    once.  Group order, class sizes and power maps come from the character
    table."""
    d, t = load_json(f"euler_{ell}.json"), character_table(ell)
    columns = Counter(t.classes)
    listed = Counter(m for lab in d["classes"] for m in merged_members(lab))
    if listed != columns:
        raise DataCorrupt(f"lambency {ell}: euler_{ell}.json does not list each character-table "
                          f"column once: missing {sorted(columns - listed)}, "
                          f"unknown or repeated {sorted(listed - columns)}")
    centralizer = dict(zip(t.classes, t.centralizers))
    classes = []
    for i, lab in enumerate(d["classes"]):
        pi, pibar = parse_frame(d["pi"][i]), parse_frame(d["pibar"][i])
        counts = sign_counts(pi, pibar)
        order, cyc, n = _order(counts), sorted(_frames(counts)[2]), lcm(*pibar)
        h = cyc[0] * cyc[-1] // (2 * n if ell == 4 and order == 2 * n else n)
        derived = {"chi": pi.get(1, 0), "chibar": pibar.get(1, 0),
                   "gamma": f"{n}|{h}" if h != 1 else str(n)}
        for col, value in derived.items():
            if d[col][i] != value:
                raise DataCorrupt(f"lambency {ell}, class {lab}: stored {col} "
                                  f"{d[col][i]}, its Frame shapes give {value}")
        members = merged_members(lab)
        classes.append(ClassData(lab, (n, h), derived["chi"], derived["chibar"], pi, pibar,
                                 order, sum(t.order // centralizer[m] for m in members),
                                 len(members), {}))
    gd = GroupData(ell, t.order, classes, {})
    for c in classes:
        z = {k: (minus, plus) if k % 2 else (plus, minus)
             for k, (plus, minus) in sign_counts(c.pi, c.pibar).items()}
        partner = c.label if ell == 2 else gd._by_type.get(_type_key(z))
        if partner is None:
            raise DataCorrupt(f"lambency {ell}: no z-partner for {c.label}")
        gd.pairing[c.label] = partner
    merged_of = {m: c.label for c in classes for m in merged_members(c.label)}
    for p, images in t.power_maps.items():
        image = dict(zip(t.classes, images))
        for c in classes:
            targets = {merged_of[image[m]] for m in merged_members(c.label)}
            if len(targets) != 1:
                raise DataCorrupt(f"lambency {ell}: inconsistent merged power map "
                                  f"at {c.label}^{p}")
            c.power_map[int(p)] = targets.pop()
    return gd


# ---------------------------------------------------------------------------
# generation: stabilizer chains, lazy walk, centralizers by backtrack

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


def _orbit(start: bytes, steps: list):
    """The orbit of a point permutation, walked lazily in breadth-first order
    (the orbit algorithm, Holt, Eick and O'Brien 2005, section 4.1); each step
    maps the translate table of an orbit point to a new point."""
    order, seen = [start], {start}
    for x in order:
        yield x
        table = _table(x)
        for step in steps:
            y = step(table)
            if y not in seen:
                seen.add(y)
                order.append(y)


def _conjugations(gens: list) -> list:
    """Orbit steps x -> a x a^-1 on the table of x, one per generator a."""
    return [lambda tx, t=_table(a.perm), ai=a.inverse().perm: ai.translate(tx).translate(t)
            for a in gens]


def _walk(gens: list):
    """All elements as point permutations, walked lazily by the steps x -> x h."""
    return _orbit(SignedPerm.identity(gens[0].degree).perm, [h.perm.translate for h in gens])


def enumerate_group(gens: list, bound: int = 400000) -> set:
    """The images ``img`` of all elements; raises past the safety bound."""
    elements = {p[0::2] for p in islice(_walk(gens), bound + 1)}
    if len(elements) > bound:
        raise ClosureOverflow(f"closure exceeded {bound} elements")
    return elements


def _sift(levels: list, g: bytes, first: int = 0) -> tuple:
    """(residue, dropout level) of g sifted through the chain from level ``first``."""
    for i, (base, _, _, inverses) in enumerate(levels[first:], first):
        if g[base] not in inverses:
            return g, i
        g = g.translate(inverses[g[base]])
    return g, len(levels)


def _chain(gens: list, points=None) -> tuple:
    """(stabilizer chain, order) of the group ``gens`` generate, by
    deterministic Schreier-Sims (Holt, Eick and O'Brien 2005, section 4.4.2).
    A level is [base point, strong generators, transversal, inverses]; the
    transversal maps each orbit point b to a u taking the base point to b,
    where u then s is u.translate(_table(s)), and ``inverses`` maps b to the
    translate table of u^-1.  Down from the last level, each Schreier
    generator u s u'^-1 sifts to 1 through the levels below it, or its residue
    joins their strong generators.  A new level's base point is the first
    point, in the order ``points`` (by default 0, 1, 2, ...), that the new
    strong generator moves."""
    one, levels = _IDENTITY[:len(gens[0].perm)], []
    points = range(len(one)) if points is None else points

    def add(h, first, last):
        if last == len(levels):
            levels.append([next(p for p in points if h[p] != p), [], None, None])
        for level in levels[first:last + 1]:
            level[1].append(h)
            tv, queue, tables = {level[0]: one}, [level[0]], [_table(s) for s in level[1]]
            for b in queue:
                for s, ts in zip(level[1], tables):
                    if s[b] not in tv:
                        tv[s[b]] = tv[b].translate(ts)
                        queue.append(s[b])
            level[2], level[3] = tv, {b: _inverse(u) for b, u in tv.items()}

    for g in gens:
        h, j = _sift(levels, g.perm)
        if h != one:
            add(h, 0, j)
    i = len(levels) - 1
    while i >= 0:
        _, strong, tv, inverses = levels[i]
        residues = (_sift(levels, us.translate(inverses[s[b]]), i + 1)
                    for s, ts in [(s, _table(s)) for s in strong] for b, u in tv.items()
                    if (us := u.translate(ts)) != tv[s[b]])
        h, j = next((r for r in residues if r[0] != one), (one, i - 1))
        if h != one:
            add(h, i + 1, j)
        i = j
    return levels, prod(len(tv) for _, _, tv, _ in levels)


def _cycle_points(g: bytes) -> list:
    """The points +e_i along the cycles of g, longest cycle first: a base order
    adapted to g.  z g and each g^k with k prime to the order of g move the
    same sets {+-e_i}, so the order suits them too."""
    seen, cycles = bytearray(len(g) >> 1), []
    for i in range(len(seen)):
        cycle, p = [], 2 * i
        while not seen[p >> 1]:
            seen[p >> 1] = 1
            cycle.append(p & ~1)
            p = g[p]
        if cycle:
            cycles.append(cycle)
    cycles.sort(key=len, reverse=True)
    return [p for cycle in cycles for p in cycle]


def _conjugators(levels: list, g: bytes, h: bytes, first: bool) -> int:
    """How many x in the group of the chain ``levels`` have x(g(p)) = h(x(p))
    for every point p, that is x g x^-1 = h; with ``first``, 1 at the first
    such x and 0 if there is none.  A backtrack search (Holt, Eick and O'Brien
    2005, section 4.6; Leon 1991): x is the product u_0 ... u_m of one
    transversal element per level, so x maps base point b_i to the partial
    product u_0 ... u_(i-1) of a point of level i's orbit.  Choosing that image
    q fixes x along g's cycle through b_i and its negative, x(g^j b_i) =
    h^j q; a clash with the images fixed so far (h's cycle through q of
    another length among them) prunes the branch, and a later base point
    already fixed has one choice.  Only the base points' images are chosen,
    so each leaf x is checked on every point.  The search is fastest on a
    base adapted to g (``_cycle_points``), where one choice fixes a whole
    long cycle.

    The x with x g x^-1 = h form a coset of C(g), so their count is |C(g)|
    when there is one and 0 otherwise.  |C(g)| is not counted leaf by leaf
    but as a product of orbit lengths along the identity branch (orbit-
    stabilizer, HEO section 4.6): C_i, the elements of C(g) that fix
    b_0, ..., b_(i-1), has |C_i| = |b_i^(C_i)| |C_(i+1)|, as C_(i+1) is the
    stabilizer of b_i in C_i.  Every element of C_i is a product u_i ... u_m,
    so its image of b_i is a point c of level i's orbit, and c lies in the
    orbit exactly when a search from x(b_i) = c, with b_0, ..., b_(i-1) and
    their cycles fixed as themselves, reaches a first leaf; c = b_i always
    does (x = 1) and is not searched."""
    if not first and g != h:
        return _conjugators(levels, g, h, True) and _conjugators(levels, g, g, False)
    th, image, used = _table(h), [-1] * len(g), [False] * len(g)

    def fix(b, q):
        """Fix x along g's cycle through b, from x(b) = q; the points fixed, or
        None on a clash (with nothing fixed)."""
        fixed, p, v = [], b, q
        while True:
            for pp, vv in ((p, v), (p ^ 1, v ^ 1)):
                if image[pp] < 0 and not used[vv]:
                    image[pp], used[vv] = vv, True
                    fixed.append(pp)
                elif image[pp] != vv:
                    release(fixed)
                    return None
            p, v = g[p], h[v]
            if p == b:
                break
        if v != q:
            release(fixed)
            return None
        return fixed

    def release(fixed):
        for p in fixed:
            used[image[p]], image[p] = False, -1

    def search(i, x):
        """Whether a leaf below the partial product x maps g to h."""
        tx = _table(x)
        if i == len(levels):
            return g.translate(tx) == x.translate(th)
        b, _, tv, _ = levels[i]
        if image[b] >= 0:
            u = tv.get(x.index(image[b]))
            return u is not None and search(i + 1, u.translate(tx))
        for c, u in tv.items():
            q = x[c]
            if used[q]:
                continue
            fixed = fix(b, q)
            if fixed is None:
                continue
            found = search(i + 1, u.translate(tx))
            release(fixed)
            if found:
                return True
        return False

    def order(i):
        """|C_i|, with b_0, ..., b_(i-1) and their cycles fixed as themselves."""
        if i == len(levels):
            return 1
        b, _, tv, _ = levels[i]
        if image[b] >= 0:           # on a fixed cycle: b_i^(C_i) = {b_i}
            return order(i + 1)
        orbit = 1
        for c, u in tv.items():
            if c != b and (fixed := fix(b, c)) is not None:
                orbit += search(i + 1, u)
                release(fixed)
        fixed = fix(b, b)
        below = order(i + 1)
        release(fixed)
        return orbit * below

    if first:
        return int(search(0, _IDENTITY[:len(g)]))
    return order(0)


def _power(perm: bytes, k: int) -> bytes:
    """The k-th power of a point permutation, k >= 1."""
    out, table = perm, _table(perm)
    for _ in range(k - 1):
        out = out.translate(table)
    return out


def _class_reps(gens: list, order: int, table: GroupData) -> dict:
    """{label: [(representative, size)]}, one pair per conjugacy class found,
    of the group of ``order`` elements that ``gens`` generate.

    A candidate from the walk starts a new class only when its label has
    fewer classes than the table's ``merged`` count and ``_conjugators`` finds
    it conjugate to none of them.  The class of g then has order / |C(g)|
    elements, or 1 when g commutes with every generator; |C(g)| is the
    product of the orbit lengths of C(g)'s point stabilizers along the
    adapted base, exact by the orbit-stabilizer theorem as each length
    counts the images that a first-leaf search proves.  z g and each g^k
    with k prime to the order of g share that centralizer and g's adapted
    chain, so the new class's whole family is labelled and tested at once.
    The walk stops when every label holds its count or the sizes reach the
    order."""
    gen_tables = [(a.perm, _table(a.perm)) for a in gens]
    found = {c.label: [] for c in table.classes}    # label -> [(rep, levels, size)]
    wanted = {c.label: c.merged for c in table.classes}
    sought, total = sum(wanted.values()), 0

    def meets(label, g):
        """Whether g is conjugate to a representative found under ``label``."""
        return any(g == r if levels is None else _conjugators(levels, r, g, True)
                   for r, levels, _ in found[label])

    def add(label, g, levels, size):
        nonlocal sought, total
        found[label].append((g, levels, size))
        sought, total = sought - 1, total + size

    def family(label, g):
        """Add g, conjugate to no representative found, and then each member of
        its family z^e g^k that starts a class."""
        tg = _table(g)
        if all(g.translate(ta) == a.translate(tg) for a, ta in gen_tables):
            levels, size = None, 1
        else:
            levels = _chain(gens, _cycle_points(g))[0]
            centralizer = _conjugators(levels, g, g, False)
            if order % centralizer:
                raise ClosureOverflow(f"class equation broken: a centralizer of order "
                                      f"{centralizer} does not divide {order}")
            size = order // centralizer
        add(label, g, levels, size)
        powers = [g]
        while powers[-1] != _IDENTITY[:len(g)]:
            powers.append(powers[-1].translate(tg))
        members = dict.fromkeys(m for k, p in enumerate(powers, 1) if gcd(k, len(powers)) == 1
                                for m in (p, p.translate(_FLIP)))
        for m in list(members)[1:]:
            label = table.class_of(SignedPerm._of(m))
            if len(found[label]) < wanted[label] and not meets(label, m):
                add(label, m, levels, size)

    def candidates():
        """The walk's elements w and their powers w^d, d a proper divisor of the
        order (smallest powers first), each with its label.  The signed cycle
        type of w fixes those of its powers, so the labels are found once per
        type."""
        powers = {}
        for w in _walk(gens):
            counts = SignedPerm._of(w)._cycle_type()
            key = _type_key(counts)
            if key not in powers:
                n = _order(counts)
                powers[key] = [(d, table.class_of(SignedPerm._of(_power(w, d))))
                               for d in [d for d in range(n - 1, 0, -1) if n % d == 0] or [1]]
            for d, label in powers[key]:
                yield w, d, label

    for w, d, label in candidates():
        if len(found[label]) < wanted[label]:
            g = _power(w, d)
            if not meets(label, g):
                family(label, g)
                if not sought or total >= order:
                    break
    return {label: [(r, size) for r, _, size in reps] for label, reps in found.items()}


def generate(ell: int, bound: int = 400000) -> GroupData:
    """Generate the lambency-l umbral group and label its conjugacy classes.

    The order comes from a stabilizer chain, checked against ``bound``; the
    chain proves z a member before ``_class_reps`` looks for the classes.
    Their sizes must sum to the order (the class equation) and each label
    must cover as many classes as the table's ``merged`` count; a class is
    represented by the first element found in it.  For lambency 2 the stored
    class inventory is returned (the degree 24 group is never enumerated).
    """
    if ell == 2:
        return class_table(2)
    gens = generators(ell)
    levels, order = _chain(gens)
    if order > bound:
        raise ClosureOverflow(f"group order {order} exceeds the bound {bound}")
    z = SignedPerm.identity(gens[0].degree).negate().perm
    if _sift(levels, z)[0] != _IDENTITY[:len(z)]:
        raise UnknownClass("central sign flip not in group")
    table = class_table(ell)
    found = _class_reps(gens, order, table)
    total = sum(size for reps in found.values() for _, size in reps)
    if total != order:
        raise ClosureOverflow(f"class equation broken: {total} != {order}")
    classes = []
    for c in table.classes:
        reps = found[c.label]
        if len(reps) != c.merged:
            raise DataCorrupt(
                f"class {c.label}: found {len(reps)} orbits, expected {c.merged}")
        classes.append(replace(c, size=sum(s for _, s in reps), rep=SignedPerm._of(reps[0][0])))
    gd = GroupData(ell, order, classes, dict(table.pairing))
    # verify the derived pairing against the actual central element
    for c in classes:
        zlab = gd.class_of(c.rep.negate())
        if zlab != gd.pairing[c.label]:
            raise DataCorrupt(f"pairing mismatch at {c.label}: {zlab}")
    return gd


@memo
def umbral_group(ell: int) -> GroupData:
    return generate(ell)


# ---------------------------------------------------------------------------
# derived checks

def conjugation_orbit(ell: int, g: SignedPerm) -> set:
    """The conjugation orbit of g under the lambency-l group, as images."""
    return {p[0::2] for p in _orbit(g.perm, _conjugations(generators(ell)))}


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
    g0 = gd.by_label[label].rep
    t0, steps = _table(g0.perm), _conjugations(generators(ell))
    return {gd.class_of(SignedPerm._of(h.translate(t0))) for h in _orbit(g0.perm, steps)}


def shuffle_group(n: int) -> int:
    """Order of the group generated by the reverse and Mongean shuffles."""
    if 12 % n:
        raise UnknownClass("n must divide 12")
    return _chain(_shuffles(n))[1]


def _shuffles(n: int) -> list:
    return [SignedPerm.from_map(n, {t: (n - 1 - t, 1) for t in range(n)}),
            SignedPerm.from_map(n, {t: (min(2 * t, 2 * n - 1 - 2 * t), 1) for t in range(n)})]


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
