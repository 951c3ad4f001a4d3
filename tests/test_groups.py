import random
import tracemalloc
from dataclasses import replace

import pytest

from moonshine import groups as gr
from moonshine.data import load_json
from moonshine.errors import ClosureOverflow, DataCorrupt, OutOfRange, UnknownClass

EXPECTED_ORDERS = {3: 190080, 4: 2688, 5: 240, 7: 24, 13: 4}


@pytest.fixture(scope="module")
def generated():
    return {ell: gr.umbral_group(ell) for ell in (3, 4, 5, 7, 13)}


def test_orders_and_class_counts(generated):
    for ell, want in EXPECTED_ORDERS.items():
        gd = generated[ell]
        assert gd.order == want
        assert sum(c.size for c in gd.classes) == want
    assert len(generated[3].classes) == 21
    assert len(generated[13].classes) == 3
    # merged labels expand to the full character-table class counts
    assert generated[3].orbit_count == 26
    assert generated[4].orbit_count == 16
    assert generated[5].orbit_count == 14
    assert generated[7].orbit_count == 7
    assert generated[13].orbit_count == 4


def test_signed_perm_composition_convention():
    # (sigma tau)(e_i) = sigma(tau(e_i))
    s = gr.SignedPerm.from_map(3, {0: (1, -1)})
    t = gr.SignedPerm.from_map(3, {1: (2, 1), 2: (1, 1)})
    st = s * t
    # e_2 -> t -> e_1 -> s -> e_1 (fixed by s)... then check e_1 -> e_2
    assert st.img[1] == (2 << 1)
    assert st.img[0] == (1 << 1) | 1


def test_sample_frame_shapes():
    # the degree 12 generator (inf 6)(2bar Xbar)(3 5)(7bar 8bar)
    sigma = gr.generators(3)[0]
    pi, pibar, total = gr.frame_shapes(sigma)
    assert pi == {1: 4, 2: 4}
    assert pibar == {1: 4, 2: 4}
    assert gr.euler_chars(sigma) == (4, 4)


def test_central_element_shapes():
    z = gr.SignedPerm.identity(12).negate()
    pi, pibar, total = gr.frame_shapes(z)
    assert pi == {2: 12, 1: -12}
    assert pibar == {1: 12}
    assert gr.euler_chars(z) == (-12, 12)


def test_identity_shapes():
    e = gr.SignedPerm.identity(6)
    pi, pibar, _ = gr.frame_shapes(e)
    assert pi == pibar == {1: 6}
    assert gr.euler_chars(e) == (6, 6)


def test_total_frame_is_product(generated):
    # on every class representative, the 2n-point cycle shape equals Pi*Pibar
    for ell in (3, 4, 5, 7, 13):
        for c in generated[ell].classes:
            pi, pibar, total = gr.frame_shapes(c.rep)
            assert gr.total_frame_direct(c.rep) == total
            assert all(v > 0 for v in total.values())


def test_chi_recovered_from_frames(generated):
    for ell in (3, 4, 5, 7, 13):
        for c in generated[ell].classes:
            pi, pibar, _ = gr.frame_shapes(c.rep)
            assert pi.get(1, 0) == c.chi
            assert pibar.get(1, 0) == c.chibar


def test_stored_tables_reproduced(generated):
    for ell in (3, 4, 5, 7, 13):
        stored = gr.class_table(ell)
        gen = generated[ell]
        for a, b in zip(gen.classes, stored.classes):
            assert (a.label, a.gamma, a.chi, a.chibar) == \
                (b.label, b.gamma, b.chi, b.chibar)
            assert (a.pi, a.pibar) == (b.pi, b.pibar)
            assert a.size == b.size
        assert gen.pairing == stored.pairing


def test_gamma_symbol_examples(generated):
    assert generated[3].by_label["4A"].gamma == (2, 8)
    assert gr.class_table(2).by_label["2B"].gamma == (2, 2)
    assert generated[4].by_label["2A"].gamma == (1, 2)
    assert gr.class_table(3).by_label["4A"].gamma == (2, 8)


def test_power_maps_close(generated):
    # generated representatives reproduce the stored power-map columns
    for ell in (3, 4, 5, 7, 13):
        gd = generated[ell]
        for c in gd.classes:
            for p, want in c.power_map.items():
                powered = c.rep
                for _ in range(p - 1):
                    powered = powered * c.rep
                assert gd.class_of(powered) == want, (ell, c.label, p)


def test_z_pairing_involution(generated):
    for ell in (3, 4, 5, 7, 13):
        pairing = generated[ell].pairing
        assert all(pairing[pairing[lab]] == lab for lab in pairing)


def test_squared_class_sets(generated):
    assert gr.squared_class_set(3, "2B") == \
        {"1A", "2B", "3A", "4C", "5A", "6C", "3B", "4B", "2C"}
    assert gr.squared_class_set(4, "2C") == \
        {"1A", "2C", "3A", "4C", "6A", "4A", "2B", "2A"}
    assert gr.squared_class_set(5, "4AB") == {"2A", "2C", "6A"}
    assert gr.squared_class_set(7, "4A") == {"1A", "4A", "2A"}


def test_shuffle_groups():
    want = {2: 2, 4: 12, 6: 120, 12: 95040}
    for n, order in want.items():
        assert gr.shuffle_group(n) == order


def test_ell4_to_ell2_bridge():
    rep = gr.check_ell4_to_ell2()
    assert rep["ok"]
    assert dict(rep["checked"])["3A"] == "6A"
    assert [e[0] for e in rep["excluded"]] == ["4B"]


def _bridge_mismatches(bridge):
    """Entries of a lambency-4 bridge map that are not the doubled-Frame-shape
    partner (``check_ell4_to_ell2``) of their class or, for a class it skips
    (a signed shape with negative exponents), of the class's z-partner."""
    checked = dict(gr.check_ell4_to_ell2()["checked"])
    pairing = gr.class_table(4).pairing
    return [(lab, partner) for lab, partner in bridge.items()
            if partner != checked.get(lab, checked.get(pairing[lab]))]


def test_l4_bridge_map_is_the_doubled_partner():
    bridge = load_json("l4_reconstruction.json")["bridge"]
    assert len(bridge) == 10 and _bridge_mismatches(bridge) == []
    # 2A, 6A and 14AB map as their z-partners 1A, 3A and 7AB do
    assert [bridge[lab] for lab in ("2A", "6A", "14AB")] == ["2A", "6A", "14AB"]
    assert _bridge_mismatches({**bridge, "2B": "4B"}) == [("2B", "4B")]


def test_m24_class_table():
    gd = gr.class_table(2)
    assert gd.order == 244823040
    assert len(gd.classes) == 21
    assert sum(c.size for c in gd.classes) == gd.order
    assert gd.by_label["2B"].chi == 0
    assert gr.frame_str(gd.by_label["2A"].pi) == "1^8 2^8"


def _projective_line_perm(f):
    """The permutation t -> f(t) of the 24 points inf, 0, ..., 22 of the
    projective line over F_23 (inf is point 0 and t is point t + 1), as a
    degree-24 signed permutation with every sign +."""
    point = {None: 0, **{t: t + 1 for t in range(23)}}
    img = [0] * 24
    for t, p in point.items():
        img[p] = point[f(t)] << 1
    return gr.SignedPerm(img)


def _conway_m24():
    """Conway's generators of M24 on the projective line over F_23: alpha:
    t -> t + 1, beta: t -> 2t, gamma: t -> -1/t, and delta: t -> t^3/9 when t
    is a square or 0 and 9t^3 otherwise, delta fixing inf (None)."""
    squares = {t * t % 23 for t in range(23)}
    ninth = pow(9, -1, 23)
    return [_projective_line_perm(f) for f in (
        lambda t: None if t is None else (t + 1) % 23,
        lambda t: None if t is None else 2 * t % 23,
        lambda t: 0 if t is None else None if t == 0 else -pow(t, -1, 23) % 23,
        lambda t: None if t is None else (ninth if t in squares else 9) * t ** 3 % 23)]


def test_m24_generated_from_conways_generators():
    # the first check of stored lambency-2 class sizes against a generated group;
    # a merged label such as 23AB holds the sizes of its two classes
    gens = _conway_m24()
    alpha, beta, gamma, delta = gens
    levels, order = gr._chain(gens)
    assert order == 244823040
    assert gr._chain([alpha, gamma])[1] == 6072   # PSL_2(23): delta is not redundant
    t = gr.class_table(2)
    six = alpha * delta
    elements = {"23AB": alpha, "11A": beta, "2B": gamma, "5A": delta, "6A": six,
                "3A": six * six, "2A": six * six * six, "10A": gamma * delta}
    for label, g in elements.items():
        c = t.by_label[t.class_of(g)]
        assert c.label == label
        adapted = gr._chain(gens, gr._cycle_points(g.perm))[0]
        assert order // gr._conjugators(adapted, g.perm, g.perm, False) == c.size // c.merged
    # the count is the same on the default base, which is not adapted to gamma
    assert gr._conjugators(levels, gamma.perm, gamma.perm, False) == 7680
    # M24 has no central sign flip: its class data knows no such class
    with pytest.raises(UnknownClass, match=r"no class with invariants \('2\^24/1\^24', '1\^24'\)"):
        t.class_of(gr.SignedPerm.identity(24).negate())


def test_closure_overflow_guard():
    with pytest.raises(ClosureOverflow):
        gr.generate(3, bound=1000)
    assert gr.generate(13, bound=4).order == 4
    with pytest.raises(ClosureOverflow, match="exceeds the bound 3"):
        gr.generate(13, bound=3)


def test_chain_order_matches_enumeration():
    for ell, want in EXPECTED_ORDERS.items():
        gens = gr.generators(ell)
        assert gr._chain(gens)[1] == len(gr.enumerate_group(gens)) == want
    for n in (1, 2, 3, 4, 6, 12):
        assert gr.shuffle_group(n) == len(gr.enumerate_group(gr._shuffles(n)))


def _plant_order(monkeypatch, factor):
    """Make the stabilizer chain report ``factor`` times the group order."""
    chain = gr._chain

    def planted(gens, points=None):
        levels, order = chain(gens, points)
        return levels, int(order * factor)
    monkeypatch.setattr(gr, "_chain", planted)


@pytest.mark.parametrize("ell, factor", [*((ell, 2) for ell in sorted(EXPECTED_ORDERS)),
                                         (4, 0.5), (5, 0.5), (7, 0.5)])
def test_class_equation_checked(monkeypatch, ell, factor):
    # twice the order: the walk ends first; half of it: the orbits overshoot
    _plant_order(monkeypatch, factor)
    with pytest.raises(ClosureOverflow, match="class equation broken"):
        gr.generate(ell)


@pytest.mark.parametrize("ell, error, message", [
    # a centralizer order of 2.M12 (384, at 2B) does not divide half the order
    (3, ClosureOverflow, "class equation broken: a centralizer of order 384 does not divide 95040"),
    # every class is central, so the sizes (1 each) reach the half order with 4AB unmet
    (13, DataCorrupt, "class 4AB: found 0 orbits, expected 2")], ids=["3", "13"])
def test_half_order_misses_classes(monkeypatch, ell, error, message):
    _plant_order(monkeypatch, 0.5)
    with pytest.raises(error, match=message):
        gr.generate(ell)


def reference_conjugacy_orbits(elements, gens, order):
    """The conjugation orbits [(representative, size)] of the group, from a
    walk that stores every orbit, z-partners included, so it holds the whole
    group: the reference for the classes ``gr.generate`` finds by
    centralizer orders."""
    steps, held, orbits = gr._conjugations(gens), set(), []
    for p in elements:
        if p in held:
            continue
        orbit = list(gr._orbit(p, steps))
        held.update(orbit)
        orbits.append((gr.SignedPerm._of(p), len(orbit)))
        zp = p.translate(gr._FLIP)
        if zp not in held:  # held is closed under z, so zp is not in orbit(p)
            held.update(x.translate(gr._FLIP) for x in orbit)
            orbits.append((gr.SignedPerm._of(zp), len(orbit)))
        if len(held) >= order:
            break
    if len(held) != order:
        raise ClosureOverflow(f"class equation broken: {len(held)} != {order}")
    return orbits


def test_orbits_match_reference_holding_every_element(generated):
    # per label, the classes found by centralizer orders have the sizes of the
    # conjugation orbits of a walk that holds the whole group
    for ell, order in EXPECTED_ORDERS.items():
        gens, gd = gr.generators(ell), generated[ell]
        want = {}
        for rep, size in reference_conjugacy_orbits(gr._walk(gens), gens, order):
            want.setdefault(gd.class_of(rep), []).append(size)
        found = gr._class_reps(gens, order, gr.class_table(ell))
        assert {lab: sorted(s for _, s in reps) for lab, reps in found.items()} == \
            {lab: sorted(sizes) for lab, sizes in want.items()}, ell
        assert {c.label: (c.merged, c.size) for c in gd.classes} == \
            {lab: (len(sizes), sum(sizes)) for lab, sizes in want.items()}, ell


def _centralizer_order(ell, g):
    gens = gr.generators(ell)
    levels = gr._chain(gens, gr._cycle_points(g.perm))[0]
    return gr._conjugators(levels, g.perm, g.perm, False)


def test_centralizer_times_class_is_the_order(generated):
    # |C(g)| by backtrack against the conjugation orbit of g, walked whole; a
    # central g, whose search would list the group, commutes with the generators
    for ell, order in EXPECTED_ORDERS.items():
        gens = gr.generators(ell)
        for c in generated[ell].classes:
            orbit = len(gr.conjugation_orbit(ell, c.rep))
            if all(a * c.rep == c.rep * a for a in gens):
                assert orbit == 1, (ell, c.label)
            else:
                assert _centralizer_order(ell, c.rep) * orbit == order, (ell, c.label)


def test_eleven_a_is_not_conjugate_to_its_inverse(generated):
    # 11A and 11B = 11A^-1 share their Frame shapes (label 11AB); g^3, a square
    # mod 11, stays in 11A
    g = generated[3].by_label["11AB"].rep
    levels = gr._chain(gr.generators(3), gr._cycle_points(g.perm))[0]
    g3 = g * g * g
    assert gr._conjugators(levels, g.perm, g.inverse().perm, True) == 0
    assert gr._conjugators(levels, g.perm, g3.perm, True) == 1
    assert gr._conjugators(levels, g.perm, g3.perm, False) == _centralizer_order(3, g) == 22


def test_centralizer_count_on_a_base_not_adapted_to_the_element(generated):
    # on the default base 0, 2, 4, ... a base point's image can already be
    # taken by a cycle fixed before it (2B at lambency 5), or lie on a longer
    # cycle than its own (5A), so both prunes run; the count stays exact
    for ell in (4, 5, 7):
        gd, levels = generated[ell], gr._chain(gr.generators(ell))[0]
        for c in gd.classes:
            count = gr._conjugators(levels, c.rep.perm, c.rep.perm, False)
            assert count * c.size == gd.order * c.merged, (ell, c.label)


def test_backtracks_run_on_chains_adapted_to_their_source(monkeypatch):
    # each search in generate runs on a base that follows the cycles of the
    # element it starts from, longest cycle first
    conjugators, seen = gr._conjugators, []

    def checked(levels, g, h, first):
        rank = _cycles_longest_first(g)
        ranks = [rank[b >> 1] for b, *_ in levels]
        seen.append(ranks == sorted(ranks))
        return conjugators(levels, g, h, first)
    monkeypatch.setattr(gr, "_conjugators", checked)
    for ell in EXPECTED_ORDERS:
        gr.generate(ell)
    assert seen and all(seen)


def _cycles_longest_first(g):
    """Index -> rank of its cycle of g, cycles sorted longest first and then by
    their least index."""
    cycles, seen = [], set()
    for i in range(len(g) >> 1):
        cycle, p = set(), 2 * i
        while p >> 1 not in seen:
            seen.add(p >> 1)
            cycle.add(p >> 1)
            p = g[p]
        if cycle:
            cycles.append(cycle)
    cycles.sort(key=lambda c: (-len(c), min(c)))
    return [r for _, r in sorted((i, r) for r, c in enumerate(cycles) for i in c)]


def test_generate_does_not_hold_the_group():
    # generate, not the memoized umbral_group, so the search runs under the
    # trace; holding the 190,080 elements of 2.M12 in a set takes about 19 MiB
    tracemalloc.start()
    try:
        gr.generate(3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_central_flip_checked(monkeypatch):
    # (inf 0) alone generates a group of order 2 without the sign flip
    monkeypatch.setitem(gr._GENERATORS, 13, (2, ["(inf 0)"]))
    with pytest.raises(UnknownClass, match="central sign flip not in group"):
        gr.generate(13)


def _planted_table(monkeypatch, ell, label, **change):
    """Make ``generate`` read a class table whose class ``label`` is changed."""
    t = gr.class_table(ell)
    planted = gr.GroupData(ell, t.order, [replace(c, **change) if c.label == label else c
                                          for c in t.classes], dict(t.pairing))
    monkeypatch.setattr(gr, "class_table", lambda _: planted)
    return planted


@pytest.mark.parametrize("merged, error, message", [
    # the search stops at the stored count, so 4B (10 elements) is never sought
    (1, ClosureOverflow, "class equation broken: 230 != 240"),
    (3, DataCorrupt, "class 4AB: found 2 orbits, expected 3")], ids=["1", "3"])
def test_orbit_count_checked(monkeypatch, merged, error, message):
    _planted_table(monkeypatch, 5, "4AB", merged=merged)
    with pytest.raises(error, match=message):
        gr.generate(5)


def test_pairing_checked(monkeypatch):
    planted = _planted_table(monkeypatch, 5, "1A")
    planted.pairing["1A"] = "1A"
    with pytest.raises(DataCorrupt, match="pairing mismatch at 1A: 2A"):
        gr.generate(5)


def test_unknown_class():
    with pytest.raises(UnknownClass):
        gr.squared_class_set(7, "9Z")


def test_order_from_frames_matches_reps(generated):
    for ell in (3, 5, 7):
        for c in generated[ell].classes:
            # c.order is read off the class's stored Frame shapes
            assert c.rep.order() == c.order


# Reference formulas on tuples of packed images (target << 1) | (sign < 0),
# kept here to check the byte operations of SignedPerm against.

def _tuple_mul(g, h):
    return tuple(g[v >> 1] ^ (v & 1) for v in h)


def _tuple_inverse(g):
    img = [0] * len(g)
    for i, v in enumerate(g):
        img[v >> 1] = (i << 1) | (v & 1)
    return tuple(img)


def _tuple_negate(g):
    return tuple(v ^ 1 for v in g)


def _tuple_cycles(g):
    seen = [False] * len(g)
    out = []
    for start in range(len(g)):
        if seen[start]:
            continue
        length, sign, i = 0, 1, start
        while not seen[i]:
            seen[i] = True
            v = g[i]
            sign = -sign if (v & 1) else sign
            i = v >> 1
            length += 1
        out.append((length, sign))
    return out


def _random_img(rng, n):
    targets = list(range(n))
    rng.shuffle(targets)
    return tuple((t << 1) | rng.randrange(2) for t in targets)


def test_byte_operations_match_tuple_reference():
    rng = random.Random(20120)
    pairs = [(_random_img(rng, n), _random_img(rng, n))
             for n in [*range(1, 25), 128] for _ in range(4)]
    for ell in (3, 4, 5, 7, 13):
        gens = [tuple(g.img) for g in gr.generators(ell)]
        pairs += [(a, b) for a in gens for b in gens]
    for a, b in pairs:
        g, h = gr.SignedPerm(a), gr.SignedPerm(b)
        assert tuple(g.img) == a and g.degree == len(a)
        assert tuple((g * h).img) == _tuple_mul(a, b)
        assert tuple(g.inverse().img) == _tuple_inverse(a)
        assert tuple(g.negate().img) == _tuple_negate(a)
        assert g.cycles() == _tuple_cycles(a)
        assert gr.total_frame_direct(g) == gr.frame_shapes(g)[2]


def test_degree_capped_at_128():
    assert gr.SignedPerm.identity(128).degree == 128
    with pytest.raises(OutOfRange):
        gr.SignedPerm(tuple(range(0, 258, 2)))
    with pytest.raises(OutOfRange):
        gr.SignedPerm.identity(129)
