"""Tests for the pc presentation engine and the subgroup machinery.

The toy group (2**8 elements) is small enough that everything has a brute
force oracle: exhaustive element sets, exhaustive subgroup products,
oracle coset partitions.  The big groups get consistency sweeps plus spot
checks that must agree with structure known from the construction.
"""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixdih import calculus as ca
from mixdih import pcgroup as pc
from mixdih.gf2linalg import echelon_ints, lowbit_index, word_bits


def test_validation_rejects_bad_words():
    with pytest.raises(ValueError):
        pc.PcPresentation(2, [1, 0], {})  # power word not above index 0
    with pytest.raises(ValueError):
        pc.PcPresentation(2, [0, 0], {(0, 1): 2})  # key not j > i
    with pytest.raises(ValueError):
        pc.PcPresentation(2, [0, 0], {(1, 0): 1})  # conj word touches index 0


def test_trivial_conjugates_are_dropped():
    g = pc.PcPresentation(3, [0, 0, 0], {(1, 0): 2, (2, 0): 6})
    assert (1, 0) not in g.conj and (2, 0) in g.conj
    assert g.clash[0] == 4 and g.clash[2] == 1


def test_collector_on_elementary_abelian():
    g = pc.PcPresentation(4, [0] * 4, {})
    for u in range(16):
        for v in range(16):
            assert g.collect_multiply(u, v) == u ^ v


def test_collector_on_dihedral8():
    # <s, t | s^2, t^2 = c, c^2, t^s = t*c> is dihedral of order 8
    g = pc.PcPresentation(3, [0, 4, 0], {(1, 0): 6})
    assert pc.consistency_check(g) == []
    s, t = 1, 2
    assert g.element_order(t) == 4
    assert g.element_order(s) == 2
    assert g.element_order(g.multiply(s, t)) == 2
    # all eight elements distinct
    seen = set()
    for e in range(8):
        seen.add(e)
    assert len({g.collect_multiply(u, v) for u in seen for v in seen}) == 8


def test_collector_width_guard(toy):
    with pytest.raises(ValueError):
        toy.collect_multiply(1 << 8, 0)


def test_consistency_clean(toy, h56, p59):
    assert pc.consistency_check(toy) == []
    assert pc.consistency_check(h56) == []
    assert pc.consistency_check(p59) == []


def test_consistency_catches_mutation(h56):
    # flip one bit in one conjugation word; an overlap test must fail
    conj = dict(h56.conj)
    key = (8, 1)  # c11 ** x2
    assert key in conj
    mutated = dict(conj)
    mutated[key] = conj[key] ^ (1 << 30)
    g = pc.PcPresentation(56, h56.power_tails, mutated)
    assert pc.consistency_check(g) != []


def test_inverse_and_power(toy, p59):
    rng = random.Random(21)
    for g in (toy, p59):
        for _ in range(60):
            u = rng.getrandbits(g.n)
            iu = g.inverse(u)
            assert g.multiply(u, iu) == 0
            assert g.multiply(iu, u) == 0
            # u, u**2, ... up to the identity: element_order is the least
            # such exponent, and the power before it is the inverse
            powers = [u]
            while powers[-1]:
                powers.append(g.multiply(powers[-1], u))
            assert len(powers) == g.element_order(u)
            assert powers[-2 if u else -1] == iu


def test_closed_form_inverse_matches_squaring(toy, h56, p59):
    rng = random.Random(23)
    for g in (toy, h56, p59):
        words = [1 << i for i in range(g.n)] + [rng.getrandbits(g.n) for _ in range(300)]
        for u in [0] + words:
            iu = g.inverse(u)
            assert iu == g.squaring_inverse(u)
            assert g.multiply(u, iu) == 0
            assert g.multiply(iu, u) == 0


def test_clash_mask_is_exact_on_generators(toy, h56, p59):
    # exhaustive: g_i and g_j clash exactly when they fail to commute
    for g in (toy, h56, p59):
        mul = g.collect_multiply
        for i in range(g.n):
            assert g.clash_mask(1 << i) == g.clash[i]
            for j in range(i + 1, g.n):
                commute = mul(1 << i, 1 << j) == mul(1 << j, 1 << i)
                assert commute == (not (g.clash[i] >> j) & 1)
                assert (g.clash[i] >> j) & 1 == (g.clash[j] >> i) & 1


def test_disjoint_clash_commutes(h56, p59):
    # words of few generators, so that many pairs do not clash
    rng = random.Random(24)
    seen = 0
    for g in (h56, p59):
        for _ in range(400):
            u, v = (sum(1 << rng.randrange(g.n) for _ in range(3)) for _ in range(2))
            if not g.clash_mask(u) & v:
                seen += 1
                assert not g.clash_mask(v) & u
                assert g.multiply(u, v) == g.multiply(v, u)
    assert seen > 100


def test_commutator_definition(p59):
    rng = random.Random(22)
    mul = p59.multiply
    for _ in range(40):
        u, v = rng.getrandbits(59), rng.getrandbits(59)
        direct = mul(mul(mul(p59.inverse(u), p59.inverse(v)), u), v)
        assert p59.commutator(u, v) == direct


# ── reference collector and the all-triples overlap check ──────────────────


def reference_collect(pres, u, v):
    """u*v by collection from the left one generator at a time: the
    bit-by-bit collector that collect_multiply must reproduce exactly."""
    if (u | v) >> pres.n or u < 0 or v < 0:
        raise ValueError("exponent vector outside group width")
    stack = word_bits(v)[::-1]
    while stack:
        i = stack.pop()
        bit = 1 << i
        above = u >> (i + 1) << (i + 1)
        ei = u & bit
        if above and (above & pres.clash[i] or ei):
            # g_i passes everything above it: push g_i**2 (if u had g_i),
            # then each g_j**g_i, j ascending, so that they pop in order
            words = [pres.power_tails[i]] if ei else []
            words += [pres.conj.get((j, i), 1 << j) for j in word_bits(above)]
            for word in reversed(words):
                stack.extend(reversed(word_bits(word)))
            u = (u & (bit - 1)) | (0 if ei else bit)
        else:
            if ei:
                stack.extend(reversed(word_bits(pres.power_tails[i])))
            u ^= bit
    return u


def all_triples_check(pres, max_violations):
    """consistency_check without any skip: every associativity overlap,
    then every power overlap, stopping as soon as the cut is reached."""
    n = pres.n
    mul = pres.collect_multiply
    pw = pres.power_tails
    pair = {(j, i): mul(1 << j, 1 << i) for j in range(n) for i in range(j)}
    bad = []

    def full(kind, idx, lhs, rhs):
        if lhs != rhs:
            bad.append((kind, idx, lhs, rhs))
        return len(bad) >= max_violations

    for k in range(n):
        for j in range(k):
            for i in range(j):
                if full("assoc", (k, j, i), mul(pair[(k, j)], 1 << i), mul(1 << k, pair[(j, i)])):
                    return bad
    for j in range(n):
        for i in range(j):
            if full("power_left", (j, i), mul(pw[j], 1 << i), mul(1 << j, pair[(j, i)])):
                return bad
            if full("power_right", (j, i), mul(1 << j, pw[i]), mul(pair[(j, i)], 1 << i)):
                return bad
    for i in range(n):
        if full("power_cube", (i,), mul(pw[i], 1 << i), mul(1 << i, pw[i])):
            return bad
    return bad


def flipped(pres, flips):
    """A copy of pres with bit b flipped in each (key, b) of flips: key (i,)
    is the power word of g_i, key (j, i) the conjugate g_j**g_i."""
    power = list(pres.power_tails)
    conj = dict(pres.conj)
    for key, b in flips:
        if len(key) == 1:
            power[key[0]] ^= 1 << b
        else:
            conj[key] = conj.get(key, 1 << key[0]) ^ (1 << b)
    return pc.PcPresentation(pres.n, power, conj)


def test_collector_matches_reference_on_builders(toy, h56, p59):
    rng = random.Random(51)
    for group in (toy, h56, p59):
        gens = [1 << i for i in range(group.n)]
        pairs = [(rng.getrandbits(group.n), rng.getrandbits(group.n)) for _ in range(150)]
        pairs += [(rng.getrandbits(group.n), rng.choice(gens)) for _ in range(50)]
        pairs += [(rng.choice(gens), rng.choice(gens)) for _ in range(50)]
        for u, v in pairs:
            assert group.collect_multiply(u, v) == reference_collect(group, u, v)


@st.composite
def presentations(draw):
    """Well-formed presentations on 1..8 generators: every power word and
    conjugate supported above its generator, as a pc2 file may hold.
    Some are elementary abelian (tail 0); others get a square and a
    conjugate that push the tail to n.  The "order" shape keeps the tail
    at g_2 with n >= 4 and sets g_2**g_0 = g_3 and g_2**g_1 = g_2 g_3,
    whose actions on the tail do not commute, so conjugating g_2 by
    g_0 g_1 gives g_3 when g_0 acts first and the identity when g_1 does."""
    shape = draw(st.sampled_from(["any", "abelian", "whole", "order"]))
    n = draw(st.integers(4 if shape == "order" else 1, 8))
    full = (1 << n) - 1
    index = st.integers(0, n - 1)
    pair = st.tuples(index, index).filter(lambda ji: ji[0] != ji[1]).map(lambda ji: (max(ji), min(ji)))
    power = [0] * n
    conj = {}
    if shape in ("any", "whole"):
        for i, w in draw(st.dictionaries(index, st.integers(0, full))).items():
            power[i] = (w << (i + 1)) & full
        for (j, i), w in draw(st.dictionaries(pair, st.integers(0, full), max_size=10)).items():
            conj[(j, i)] = (w << (i + 1)) & full
    if shape == "whole" and n >= 3:
        # g_{n-2}**2 = g_{n-1}, and g_{n-1}**g_0 = g_1 g_{n-1}
        power[n - 2] = 1 << (n - 1)
        conj[(n - 1, 0)] = 0b10 | 1 << (n - 1)
    if shape == "order":
        # squares and conjugates of the top g_0, g_1 anywhere above them,
        # conjugates of g_4.. inside the tail; g_3 stays fixed
        top = st.sampled_from([0, 1])
        for i, w in draw(st.dictionaries(top, st.integers(0, full))).items():
            power[i] = (w << (i + 1)) & full
        keys = st.tuples(index, top).filter(lambda ji: ji[0] > ji[1] and ji[0] not in (2, 3))
        for (j, i), w in draw(st.dictionaries(keys, st.integers(0, full), max_size=6)).items():
            conj[(j, i)] = (w << (i + 1)) & full if j < 2 else (w << 2) & full
        conj[(2, 0)] = 0b1000
        conj[(2, 1)] = 0b1100
    g = pc.PcPresentation(n, power, conj)
    if shape == "abelian":
        assert g.tail == 0
    if shape == "whole" and n >= 3:
        assert g.tail == n
    if shape == "order":
        assert g.tail == 2
        # g_2 * g_0 g_1 collects to g_0 g_1 * g_2**(g_0 g_1)
        assert reference_collect(g, 0b100, 0b11) == 0b1011
    return g


@settings(max_examples=80, deadline=None, derandomize=True)
@given(presentations(), st.data())
def test_collector_matches_reference_on_any_presentation(g, data):
    word = st.integers(0, (1 << g.n) - 1)
    for u, v in data.draw(st.lists(st.tuples(word, word), min_size=1, max_size=12)):
        assert g.collect_multiply(u, v) == reference_collect(g, u, v)


def _toy_flip(toy):
    key = st.sampled_from([(i,) for i in range(toy.n - 1)] + [(j, i) for j in range(toy.n) for i in range(j)])
    return key.flatmap(lambda k: st.tuples(st.just(k), st.integers(k[-1] + 1, toy.n - 1)))


def assert_matches_all_triples(g):
    for cut in (1, 16):
        bad = pc.consistency_check(g, cut)
        assert len(bad) <= cut
        assert bad == all_triples_check(g, cut)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(presentations())
def test_consistency_skip_matches_all_triples_on_any_presentation(g):
    assert_matches_all_triples(g)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_consistency_skip_matches_all_triples_on_flipped_toy2(toy, data):
    assert_matches_all_triples(flipped(toy, data.draw(st.lists(_toy_flip(toy), min_size=1, max_size=3))))


def _skipped_by_rule_d(pres):
    """The pairs (j, i) whose power overlaps rule (d) skips: g_j and g_i
    commute and both square to 1."""
    pw = pres.power_tails
    return {(j, i) for j in range(pres.n) for i in range(min(j, pres.tail))
            if not (pw[j] or pw[i] or (pres.clash[j] >> i) & 1)}


def test_consistency_skip_matches_all_triples_on_flipped_h56_p59(h56, p59):
    rng = random.Random(52)
    # (flips, how the tail moves, a violation the flip must cause)
    cases = [
        # rule (a): a tail generator's conjugate by a top one, flipped
        # above the tail
        (h56, [((8, 1), 30)], "same", "assoc"),
        # rules (a)-(c): a conjugate between two tail generators moves
        # the tail up
        (h56, [((30, 10), 40)], "moved", "any"),
        # rule (d): a square of a top generator that commutes with g_0..g_2
        (h56, [((3,), 9)], "same", "commuting power"),
        (p59, [((7,), 20)], "same", "commuting power"),
        # a square in p59's h56 part, and a power word in p59's tail
        (p59, [((5,), 20)], "any", "any"),
        (p59, [((40,), 50)], "moved", "any"),
    ]
    for group in (h56, p59):
        for _ in range(2):
            j = rng.randrange(1, group.n)
            i = rng.randrange(j)
            cases.append((group, [((j, i), rng.randrange(i + 1, group.n))], "any", None))
    for group, flips, tail, caught in cases:
        g = flipped(group, flips)
        assert tail == "any" or (g.tail == group.tail) == (tail == "same")
        assert_matches_all_triples(g)
        bad = pc.consistency_check(g)
        if caught == "assoc":
            assert any(kind == "assoc" for kind, *_ in bad)
        elif caught == "commuting power":
            assert any(kind.startswith("power") and idx in _skipped_by_rule_d(group) for kind, idx, *_ in bad)
        elif caught == "any":
            assert bad


def reference_overlaps(pres):
    """The overlap stream of consistency_check with every side collected:
    the same skips and order as pcgroup._overlaps, but each pair product
    and each side of each overlap from the collector, the tail's too."""
    n, tail = pres.n, pres.tail
    mul = pres.collect_multiply
    clash, power = pres.clash, pres.power_tails
    pair = {(j, i): mul(1 << j, 1 << i) for i in range(tail) for j in range(i + 1, n)}
    for k in range(n):
        for j in range(min(k, tail)):
            pkj = pair[(k, j)]
            lower = (1 << j) - 1 if (clash[k] >> j) & 1 else (clash[k] | clash[j]) & ((1 << j) - 1)
            for i in word_bits(lower):
                yield "assoc", (k, j, i), mul(pkj, 1 << i), mul(1 << k, pair[(j, i)])
    for j in range(n):
        gj = 1 << j
        for i in range(min(j, tail)):
            if not (power[j] or power[i] or (clash[j] >> i) & 1):
                continue
            gi = 1 << i
            if j < tail:
                yield "power_left", (j, i), mul(power[j], gi), mul(gj, pair[(j, i)])
            yield "power_right", (j, i), mul(gj, power[i]), mul(pair[(j, i)], gi)
    for i in range(n):
        if power[i]:
            gi = 1 << i
            yield "power_cube", (i,), mul(power[i], gi), mul(gi, power[i])


def assert_overlaps_match_reference(g):
    """The whole stream, sides and all, not only the violations."""
    assert list(pc._overlaps(g)) == list(reference_overlaps(g))


def test_overlap_stream_matches_reference_on_builders(toy, h56, p59, toy_sylow):
    for group in (toy, h56, p59, toy_sylow):
        assert_overlaps_match_reference(group)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(presentations())
def test_overlap_stream_matches_reference_on_any_presentation(g):
    assert_overlaps_match_reference(g)


def test_overlap_stream_matches_reference_on_flipped_h56_p59(h56, p59):
    """Flips that keep the tail, so the tail overlaps are read from broken
    tables: a tail generator's conjugate by a top one and a top
    generator's square, each flipped in the tail; then flips anywhere."""
    rng = random.Random(53)
    for group in (h56, p59):
        n, tail = group.n, group.tail
        keyed = [key for key in group.conj if key[0] >= tail]
        for _ in range(4):
            flips = [(rng.choice(keyed), rng.randrange(tail, n))]
            flips.append(((rng.randrange(tail),), rng.randrange(tail, n)))
            g = flipped(group, flips)
            assert g.tail == tail
            assert_overlaps_match_reference(g)
            assert pc.consistency_check(g)
        for _ in range(2):
            j = rng.randrange(1, n)
            i = rng.randrange(j)
            assert_overlaps_match_reference(flipped(group, [((j, i), rng.randrange(i + 1, n))]))


def test_consistency_collects_are_pinned(toy, h56, p59):
    for group, collects in ((toy, 1), (h56, 188), (p59, 543)):
        calls = [0]
        engine = group.collect_multiply

        def counted(u, v):
            calls[0] += 1
            return engine(u, v)

        group.collect_multiply = counted
        try:
            assert pc.consistency_check(group) == []
        finally:
            del group.collect_multiply
        assert calls[0] == collects, group.label


# ── subgroups: toy oracles ──────────────────────────────────────────────────


def _leads(s):
    """The leading (lowest set bit) index of each member of s."""
    return tuple(lowbit_index(m) for m in s.members)


def brute_closure(group, gens):
    """Oracle subgroup closure by plain orbit of multiplication."""
    elems = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                w = group.multiply(e, g)
                if w not in elems:
                    elems.add(w)
                    nxt.append(w)
        frontier = nxt
    return elems


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 255), max_size=5))
def test_subgroup_igs_matches_brute_closure(toy, gens):
    s = pc.subgroup_igs(toy, gens)
    brute = brute_closure(toy, gens)
    assert s.order == len(brute)
    assert all(s.contains(e) for e in brute)
    assert set(s.elements()) == brute


def test_igs_generator_order_insensitive(toy):
    rng = random.Random(23)
    gens = [rng.getrandbits(8) for _ in range(4)]
    digests = set()
    for _ in range(10):
        rng.shuffle(gens)
        digests.add(pc.subgroup_igs(toy, gens).digest())
    assert len(digests) == 1


def test_canonical_members_reduced(h56):
    rng = random.Random(24)
    gens = [rng.getrandbits(56) for _ in range(5)]
    s = pc.subgroup_igs(h56, gens)
    # every member has zero exponent at the other members' leading indices
    for lead, m in zip(_leads(s), s.members):
        for d in _leads(s):
            if d != lead:
                assert not (m >> d) & 1


def test_sift_residue_is_coset_canonical(toy):
    rng = random.Random(25)
    gens = [rng.getrandbits(8) for _ in range(3)]
    s = pc.subgroup_igs(toy, gens)
    elems = s.elements()
    # same coset iff same residue; residue lies in the coset
    for _ in range(40):
        u = rng.getrandbits(8)
        r = s.sift(u)
        assert any(toy.multiply(e, u) == r for e in elems)
        v = toy.multiply(elems[rng.randrange(len(elems))], u)
        assert s.sift(v) == r


def test_subgroup_takes_each_lead_once_and_rejects_bad_leads(monkeypatch, toy, p59):
    """Members in ascending lead order are kept as given, members out of
    order are sorted, and either way each lead is computed once; a zero
    member, a repeated lead or tail members unreduced at each other's
    leads raise."""
    calls = []
    monkeypatch.setattr(pc, "lowbit_index", lambda m: calls.append(m) or lowbit_index(m))
    members = [0b11, 0b1100, 0b110000]
    for given in (members, members[::-1], [members[1], members[0], members[2]]):
        calls.clear()
        s = pc.Subgroup(toy, given)
        assert (s.members, _leads(s)) == (tuple(members), (0, 2, 4))
        assert sorted(calls) == sorted(members)
    for bad in ([0, 1], [1, 0], [2, 0, 1], [0b11, 0b1], [0b1, 0b11], [0b10, 0b1, 0b110]):
        with pytest.raises(ValueError, match="distinct leading indices"):
            pc.Subgroup(toy, bad)
    unreduced = [(g, bad) for g in (toy, p59) for bad in unreduced_tail_subgroups(g)]
    assert len(unreduced) > 2
    for group, bad in unreduced:
        with pytest.raises(ValueError, match="reduced at each other's leading indices"):
            pc.Subgroup(group, bad)


def test_coset_partition(toy):
    s = pc.subgroup_igs(toy, [1 << 2, 1 << 3])
    reps = {s.sift(u) for u in range(256)}
    assert len(reps) == 256 // s.order


def test_subgroup_of_p59_stabilizer_shape(p59):
    # <x1..x4, r^2>: the twist square normalizes the x side
    gens = [1 << 1] + [1 << (3 + i) for i in range(4)]
    s = pc.subgroup_igs(p59, gens)
    assert s.order_log == 6
    assert _leads(s) == (1, 2, 3, 4, 5, 6)


def test_derived_subgroup_toy_oracle(toy):
    full = pc.subgroup_igs(toy, [1 << t for t in range(8)])
    der = pc.derived_subgroup(toy, full)
    # oracle: closure of all pairwise commutators of all elements
    comms = set()
    for u in range(256):
        for v in range(0, 256, 5):
            comms.add(toy.commutator(u, v))
    brute = brute_closure(toy, sorted(comms))
    assert der.order == len(brute)
    assert all(der.contains(e) for e in brute)


def test_derived_and_frattini_match_all_commutators_on_toy_subgroups(toy):
    # s' is generated by the commutators of all pairs of elements, and
    # Phi(s) by those and all squares; derived_subgroup and frattini take
    # only the IGS members' commutators and squares, with no normal closure
    rng = random.Random(33)
    nontrivial = 0
    for _ in range(30):
        s = pc.subgroup_igs(toy, [rng.getrandbits(8) for _ in range(rng.randint(1, 3))])
        elems = s.elements()
        comms = {toy.commutator(u, v) for u in elems for v in elems}
        squares = {toy.multiply(u, u) for u in elems}
        derived = pc.derived_subgroup(toy, s)
        assert set(derived.elements()) == brute_closure(toy, comms)
        assert set(pc.frattini(toy, s).elements()) == brute_closure(toy, comms | squares)
        nontrivial += derived.order > 1
    assert nontrivial >= 10


def test_derived_and_frattini_h56(h56):
    full = pc.subgroup_igs(h56, [1 << t for t in range(56)])
    assert full.order_log == 56
    der = pc.derived_subgroup(h56, full)
    assert der.order_log == 48
    assert _leads(der) == tuple(range(8, 56))
    # quotient is elementary abelian, so the Frattini subgroup coincides
    fra = pc.frattini(h56, full)
    assert fra.digest() == der.digest()


def test_frattini_p59(p59):
    full = pc.subgroup_igs(p59, [1 << t for t in range(59)])
    fra = pc.frattini(p59, full)
    # P / Phi(P) has rank 2: the twist and one mixed letter class
    assert full.order_log - fra.order_log == 2


def test_maximal_subgroups_toy(toy):
    full = pc.subgroup_igs(toy, [1 << t for t in range(8)])
    maxes = pc.maximal_subgroups(toy, full)
    # toy/Phi has rank 4, so 15 maximal subgroups
    assert len(maxes) == 15
    assert len({m.digest() for m in maxes}) == 15
    for m in maxes:
        assert m.order_log == 7


def test_maximal_subgroups_match_exhaustive_oracle(toy):
    import itertools

    # index-2 subgroups of <x1, y1, c11>, a dihedral subgroup of order 8
    s = pc.subgroup_igs(toy, [1, 4])
    assert s.order_log == 3
    selems = set(s.elements())
    oracle = set()
    for trio in itertools.combinations(sorted(selems - {0}), 3):
        cand = set(trio) | {0}
        closed = all(toy.multiply(u, v) in cand for u in cand for v in cand)
        if closed:
            oracle.add(pc.subgroup_igs(toy, trio).digest())
    maxes = pc.maximal_subgroups(toy, s)
    for m in maxes:
        assert m.order_log == 2
        assert set(m.elements()) <= selems
    assert {m.digest() for m in maxes} == oracle


def test_coords_are_straight_product_exponents(toy, p59):
    rng = random.Random(31)
    for group, gens in ((toy, [rng.getrandbits(8) for _ in range(3)]), (p59, [3, 1 << 20, 1 << 40])):
        s = pc.subgroup_igs(group, gens)
        for _ in range(30):
            a = rng.getrandbits(s.order_log)
            u = 0
            for t, m in enumerate(s.members):
                if (a >> t) & 1:
                    u = group.multiply(u, m)
            assert s.coords(u) == a
    xonly = pc.subgroup_igs(p59, [1 << (3 + i) for i in range(4)])
    with pytest.raises(pc.NotInSubgroup):
        xonly.coords(1 << 7)


def assert_maximal_match_frattini(group, s):
    """The kernels are the index-2 subgroups over Phi(s), each once."""
    phi = pc.frattini(group, s)
    maxes = pc.maximal_subgroups(group, s)
    assert len(maxes) == (1 << (s.order_log - phi.order_log)) - 1
    assert len({m.members for m in maxes}) == len(maxes)
    for m in maxes:
        assert m.order_log == s.order_log - 1
        assert all(s.contains(w) for w in m.members)
        assert all(m.contains(w) for w in phi.members)
        pc.relation_rows(group, m)  # raises unless the members are an IGS
    return maxes


def test_maximal_subgroups_match_frattini_oracle_toy(toy):
    rng = random.Random(32)
    orders = set()
    for _ in range(60):
        s = pc.subgroup_igs(toy, [rng.getrandbits(8) for _ in range(rng.randint(1, 4))])
        if s.order_log:
            orders.add(s.order_log)
            for m in assert_maximal_match_frattini(toy, s):
                assert m.members == pc.subgroup_igs(toy, m.members).members
    assert len(orders) >= 4


@pytest.fixture(scope="module")
def p59_survivors(p59):
    """The survivors of descent levels 1-5, as Subgroups."""
    from mixdih import search as se

    level = se.root_level(p59, se.stab_subgroup(p59))
    out = []
    for _ in range(5):
        level = se.descend(p59, level, se.SearchConfig())
        out.extend(pc.Subgroup(p59, rows) for rows in level.survivors)
    assert len(out) == 2 + 2 + 12 + 48 + 128
    return out


def test_maximal_subgroups_match_frattini_oracle_p59_survivors(p59, p59_survivors):
    """Levels 1-3 whole, and a seeded sample of 8 survivors from each of
    levels 4 and 5, where survivors share top x tail spans; there the
    homomorphisms through one memo shared by all of them must equal
    those through each survivor's own memo too."""
    rng = random.Random(33)
    sample = rng.sample(p59_survivors[16:64], 8) + rng.sample(p59_survivors[64:192], 8)
    shared = pc.ProductMemo(p59)
    for s in p59_survivors[:16] + sample:
        assert_maximal_match_frattini(p59, s)
        assert pc.c2_homomorphisms(p59, pc.Subgroup(p59, s.members, shared)) == pc.c2_homomorphisms(p59, s)


def reference_canonical_members(group, members):
    """The double loop _canonical_members replaced: from the last member
    down, test every later lead and right-multiply by each one hit."""
    mul = group.multiply
    members = list(members)
    leads = [lowbit_index(m) for m in members]
    for idx in range(len(members) - 2, -1, -1):
        m = members[idx]
        for later in range(idx + 1, len(members)):
            if (m >> leads[later]) & 1:
                m = mul(m, members[later])
        members[idx] = m
    return tuple(members)


def reference_functionals(group, s):
    """The per-f loop c2_homomorphisms replaced, on the reduced echelon
    form of all of relation_rows: free column t from bit t of f, then
    each pivot from the parity of its row."""
    rows, block = pc.relation_rows(group, s)
    basis, pivots = echelon_ints(rows + block)
    free = [t for t in range(len(s.members)) if t not in pivots]
    out = []
    for f in range(1, 1 << len(free)):
        a = sum(1 << col for t, col in enumerate(free) if (f >> t) & 1)
        for row, p in zip(basis, pivots):
            if (row & a).bit_count() & 1:
                a |= 1 << p
        out.append(a)
    return out


def scrambled_igs(group, members, rng):
    """Another IGS of the same subgroup, in general not canonical: each
    member right-multiplied by a random product of about an eighth of
    the later ones."""
    out = list(members)
    for idx in range(len(out) - 1):
        for later in out[idx + 1 :]:
            if rng.getrandbits(3) == 0:
                out[idx] = group.multiply(out[idx], later)
    return out


def assert_fast_loops_match_references(group, s, rng, shared):
    """The homomorphisms, through s's own memo and through the memo
    shared by all cases, and the canonical forms equal their references."""
    homs = pc.c2_homomorphisms(group, s)
    assert homs == reference_functionals(group, s)
    assert pc.c2_homomorphisms(group, pc.Subgroup(group, s.members, shared)) == homs
    lists = [scrambled_igs(group, s.members, rng)]
    for a in homs:  # the member lists kernel_members canonicalizes
        support = [m for t, m in enumerate(s.members) if (a >> t) & 1]
        kept = [m for t, m in enumerate(s.members) if not (a >> t) & 1]
        kept += [group.multiply(u, v) for u, v in zip(support, support[1:])]
        lists.append(sorted(kept, key=lowbit_index))
    for members in lists:
        assert pc._canonical_members(group, members, shared) == reference_canonical_members(group, members)
    assert pc._canonical_members(group, lists[0], s.memo) == s.members


def test_fast_loops_match_references_on_p59_survivors(p59, p59_survivors):
    """The whole group and every survivor of levels 1-5: the functionals
    by doubling equal the per-f loop, and the mask-driven canonical form
    equals the double loop on a scrambled IGS of the survivor and on the
    member list of each of its kernels."""
    rng = random.Random(17)
    shared = pc.ProductMemo(p59)
    full = pc.Subgroup(p59, [1 << t for t in range(p59.n)])
    for s in [full] + p59_survivors:
        assert_fast_loops_match_references(p59, s, rng, shared)


def test_fast_loops_match_references_on_random_subgroups(toy, h56):
    rng = random.Random(18)
    for group, count in ((toy, 40), (h56, 12)):
        shared = pc.ProductMemo(group)
        for _ in range(count):
            s = pc.subgroup_igs(group, [rng.getrandbits(group.n) for _ in range(rng.randint(1, 4))])
            assert_fast_loops_match_references(group, s, rng, shared)


def _sha256(obj) -> str:
    return hashlib.sha256(repr(obj).encode("ascii")).hexdigest()[:16]


# sha256 of the repr of the list of derived_subgroup member tuples, and
# of frattini member tuples, first 16 hex digits; a closure that
# conjugated members again until nothing changed gave the same lists
VERBAL_SHA256 = {
    "toy2": ("9b1ac5ea0112ea29", "9b1ac5ea0112ea29"),
    "h56": ("f7b04f64aab24366", "f7b04f64aab24366"),
    "p59": ("327134660d3f6f00", "ed2a755526697f0d"),
    "p59 survivors of levels 1-3": ("2af012d738300013", "910d9bc184d1dd9e"),
}


def test_derived_and_frattini_members_are_pinned(toy, h56, p59, p59_survivors):
    cases = {g.label: [pc.Subgroup(g, [1 << t for t in range(g.n)])] for g in (toy, h56, p59)}
    cases["p59 survivors of levels 1-3"] = p59_survivors[:16]
    for name, subgroups in cases.items():
        group = subgroups[0].group
        derived = [pc.derived_subgroup(group, s).members for s in subgroups]
        phi = [pc.frattini(group, s).members for s in subgroups]
        assert (_sha256(derived), _sha256(phi)) == VERBAL_SHA256[name], name


def reference_close_igs(group, gens):
    """The multiply-only closure: sift each queued word, and square each
    new member and commute it both ways with each member it clashes
    with, tail members too."""
    mul = group.multiply
    by_lead, inv = {}, {}
    queue = list(gens)
    for g in queue:
        while g and lowbit_index(g) in by_lead:
            g = mul(inv[lowbit_index(g)], g)
        if not g:
            continue
        d = lowbit_index(g)
        by_lead[d] = g
        g_inv = inv[d] = group.squaring_inverse(g)
        queue.append(mul(g, g))
        clash = group.clash_mask(g)
        for e, m in list(by_lead.items()):
            if e != d and clash & m:
                queue.append(mul(mul(g_inv, inv[e]), mul(g, m)))
                queue.append(mul(mul(inv[e], g_inv), mul(m, g)))
    return reference_canonical_members(group, [by_lead[d] for d in sorted(by_lead)])


def reference_verbal_members(group, members, squares):
    """The commutators of every clashing pair of members by the group's
    commutator, and the squares of all members when asked, closed."""
    gens = []
    for i, m in enumerate(members):
        clash = group.clash_mask(m)
        gens += [group.commutator(m, later) for later in members[i + 1 :] if clash & later]
    if squares:
        gens += [group.multiply(m, m) for m in members]
    return reference_close_igs(group, gens)


def test_closure_and_verbal_subgroups_match_multiply_only_reference(toy, h56, p59, toy_sylow):
    """Seeded generator sets: random words, and random tail words before
    a random word, so that a top member meets tail members both as the
    new member and as an old one."""
    rng = random.Random(54)
    for group in (toy, h56, p59, toy_sylow):
        tails = ~group.top_mask & ((1 << group.n) - 1)
        sets = [[1 << t for t in range(group.n)]]
        for _ in range(6):
            sets.append([rng.getrandbits(group.n) for _ in range(rng.randint(1, 3))])
            sets.append([rng.getrandbits(group.n) & tails for _ in range(rng.randint(1, 4))] + sets[-1][:1])
        for gens in sets:
            s = pc.subgroup_igs(group, gens)
            assert s.digest() == s.members == reference_close_igs(group, gens), group.label
            assert pc.derived_subgroup(group, s).digest() == reference_verbal_members(group, s.members, False)
            assert pc.frattini(group, s).digest() == reference_verbal_members(group, s.members, True)


def multiply_only_divide(s, u):
    """Reference for Subgroup.coords and Subgroup.sift: left-divide by
    each member whose lead u hits, scanning every lead in ascending
    order, with the multiply only.  Returns (coordinates, residue)."""
    mul = s.group.multiply
    c = 0
    for t, (d, m) in enumerate(zip(_leads(s), s.members)):
        if (u >> d) & 1:
            u = mul(s.group.squaring_inverse(m), u)
            c |= 1 << t
    return c, u


def all_pairs_relation_rows(group, s):
    """Reference: relation_rows without the clash test, every pair kept,
    every conjugate and coordinate from the multiply."""
    mul = group.multiply
    ms = s.members

    def coords(w):
        c, residue = multiply_only_divide(s, w)
        assert residue == 0
        return c

    rows = []
    for i, mi in enumerate(ms):
        sq = mul(mi, mi)
        if sq:
            rows.append(coords(sq))
        inv = group.squaring_inverse(mi)
        for j in range(i + 1, len(ms)):
            c = mul(mul(inv, ms[j]), mi)
            if c != ms[j]:
                rows.append(coords(c) ^ (1 << j))
    return rows


def reduced_relations(group, s):
    """The reduced echelon form of relation_rows: its top rows reduced
    against its tail block, as c2_homomorphisms reduces them."""
    rows, block = pc.relation_rows(group, s)
    assert echelon_ints(block) == (block, [lowbit_index(b) for b in block])
    return echelon_ints(rows, start=block)


def test_relation_rows_skip_only_commuting_pairs(p59, p59_survivors):
    """relation_rows spans the same relations as every pair's row.

    Its top x tail rows are a reduced echelon block in coordinates
    rather than one row per pair, so the rows differ from the
    reference's; their reduced echelon form, which is all
    c2_homomorphisms reads, must not.  Once through each survivor's own
    memo, and once through one memo shared by all survivors, so later
    survivors hit it.
    """
    shared = pc.ProductMemo(p59)
    for s in p59_survivors:
        reference = echelon_ints(all_pairs_relation_rows(p59, s))
        assert reduced_relations(p59, s) == reference
        assert reduced_relations(p59, pc.Subgroup(p59, s.members, shared)) == reference
    assert len(shared.spans) < len(p59_survivors)


def test_relation_rows_memo_keys_on_the_tail_members(p59):
    """<x1, g_t> for each tail generator g_t: one top part, tail members
    that differ from t to t, so no survivor may reuse another's span."""
    x1 = 1 << p59.names.index("x1")
    memo = pc.ProductMemo(p59)
    for t in range(p59.tail, p59.n):
        s = pc.subgroup_igs(p59, [x1, 1 << t])
        reference = echelon_ints(all_pairs_relation_rows(p59, s))
        assert reduced_relations(p59, s) == reference
        assert reduced_relations(p59, pc.Subgroup(p59, s.members, memo)) == reference
    assert len({heads for heads, _ in memo.spans}) == 1 < len(memo.spans)
    # one image per (top part, tail members) of a block, none shared
    # across tail members, though every block has the same top part
    assert set(memo.images) == {(h, tails) for heads, tails in memo.spans for h in heads}
    assert len({tails for _, tails in memo.images}) == len(memo.images) == len(memo.spans)


def test_relation_rows_raise_on_a_top_tail_conjugate(p59):
    """{x1, g15}: x1 squares to 1 and there is no top x top pair, but
    g15**x1 = g15 * w with w a tail word outside <g15>."""
    a = p59.names.index("x1")
    x1, g15 = 1 << a, 1 << 15
    assert p59.power_tails[a] == 0 and g15 >> p59.tail
    s = pc.Subgroup(p59, [x1, g15])
    assert not s.contains(p59.conjugate(g15, x1))
    for _ in range(2):  # a cold memo, then the next call
        with pytest.raises(pc.NotInSubgroup):
            pc.relation_rows(p59, s)
        assert s.memo.spans == {}  # a block that raised is never stored


# ── the elementary abelian tail ─────────────────────────────────────────────


def test_tail_of_the_builders(tmp_path, toy, h56, p59):
    for group, tail in ((toy, 2), (h56, 8), (p59, 11)):
        assert group.tail == tail
        assert group.top_mask == (1 << tail) - 1
        path = tmp_path / f"{group.label}.pc2"
        pc.save_presentation(group, path)
        assert pc.load_presentation(path).tail == tail


# sha256 of each builder's save_presentation bytes, first 16 hex digits
PRESENTATION_SHA256 = {"toy2": "ec933edb1ea9b4ee", "h56": "074665c0160ca627", "p59": "af7e15a439e722bb"}


def test_presentation_files_are_pinned(tmp_path, toy, h56, p59):
    for group in (toy, h56, p59):
        path = tmp_path / f"{group.label}.pc2"
        pc.save_presentation(group, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == PRESENTATION_SHA256[group.label]


def test_tail_grows_past_power_words_and_inner_conjugates():
    # g0 acts on the elementary abelian <g1, g2, g3>: g1 -> g1 g3, g2 -> g2 g3
    conj = {(1, 0): 0b1010, (2, 0): 0b1100}
    assert pc.PcPresentation(4, [0] * 4, conj).tail == 1
    assert pc.PcPresentation(4, [0] * 4, {}).tail == 0
    # a square inside the would-be tail: g2**2 = g3
    assert pc.PcPresentation(4, [0, 0, 0b1000, 0], conj).tail == 3
    # a noncommuting pair inside it: g2**g1 = g2 g3
    assert pc.PcPresentation(4, [0] * 4, {**conj, (2, 1): 0b1100}).tail == 2
    # and a conjugate that leaves every shorter tail: g3**g0 = g2 g3
    assert pc.PcPresentation(4, [0, 0, 0b1000, 0], {**conj, (3, 0): 0b1100}).tail == 4


def test_tail_generators_multiply_by_xor(toy, h56, p59):
    rng = random.Random(41)
    for group in (toy, h56, p59):
        words = [rng.getrandbits(group.n) for _ in range(12)]
        for j in range(group.tail, group.n):
            for w in words:
                assert group.collect_multiply(w, 1 << j) == w ^ (1 << j)


def test_tail_conjugate_matches_conjugation(toy, h56, p59, toy_sylow):
    rng = random.Random(42)
    for group in (toy, h56, p59, toy_sylow):
        mul = group.multiply
        for _ in range(150):
            g = rng.getrandbits(group.n)
            t = rng.getrandbits(group.n) & ~group.top_mask
            assert group.tail_conjugate(t, g) == mul(mul(group.inverse(g), t), g)


def unreduced_tail_subgroups(group):
    """The member lists of <x1, g_a g_b, g_b> for consecutive tail
    generators g_a, g_b and for the first and last: the member g_a g_b
    has bit b at g_b's lead, so the tail members are not reduced at each
    other's leads."""
    x1 = 1 << group.names.index("x1")
    pairs = [(a, a + 1) for a in range(group.tail, group.n - 1)] + [(group.tail, group.n - 1)]
    return [[x1, 1 << a | 1 << b, 1 << b] for a, b in pairs]


def test_xor_division_matches_multiply_reference(toy, p59, p59_survivors):
    """Canonical subgroups, whose tail members are reduced at each other's
    leads as every Subgroup's must be, divide a tail word in one step,
    which must equal the multiply-only division."""
    rng = random.Random(43)
    cases = [(p59, s) for s in p59_survivors[::24]]
    cases += [(toy, pc.subgroup_igs(toy, [rng.getrandbits(8) for _ in range(3)])) for _ in range(8)]
    for group, s in cases:
        tail = ~group.top_mask
        words = [rng.getrandbits(group.n) for _ in range(20)]
        words += [w & tail for w in words]
        words += [rng.choice(s.elements() if s.order_log <= 8 else s.members)]
        for _ in range(10):
            u = 0
            for m in s.members:
                if rng.getrandbits(1):
                    u = group.multiply(u, m)
            words += [u, u & tail]
        for u in words:
            c, residue = multiply_only_divide(s, u)
            assert s.sift(u) == residue
            if residue:
                with pytest.raises(pc.NotInSubgroup):
                    s.coords(u)
            else:
                assert s.coords(u) == c


def test_kernels_share_the_memo_of_their_subgroup(p59):
    """maximal_subgroups builds the kernels of the whole group through its
    memo and hands it to each; they sift and give coordinates as copies
    with memos of their own do.  Two subgroup_igs calls share none."""
    rng = random.Random(44)
    full = pc.Subgroup(p59, [1 << t for t in range(p59.n)])
    maxes = pc.maximal_subgroups(p59, full)
    assert len(maxes) > 2 and all(m.memo is full.memo for m in maxes)
    words = [rng.getrandbits(p59.n) for _ in range(40)]
    for m in maxes:
        fresh = pc.Subgroup(p59, m.members)
        assert fresh.memo is not full.memo
        inside = [p59.multiply(rng.choice(m.members), rng.choice(m.members)) for _ in range(20)]
        for u in words + inside:
            assert m.sift(u) == fresh.sift(u)
            if not fresh.sift(u):
                assert m.coords(u) == fresh.coords(u)
        assert all(m.contains(u) for u in inside)
    gens = [1 << p59.names.index(nm) for nm in ("x1", "x2", "r2")]
    a, b = pc.subgroup_igs(p59, gens), pc.subgroup_igs(p59, gens)
    assert a.members == b.members and a.memo is not b.memo


def test_sift_and_contains_leave_the_memo_alone(p59):
    """sift and contains divide with the group's multiply, so 1,000 of
    each on distinct words leave the memo as it was: what it holds is
    bounded by the subgroup, not by the words divided.  Their residues
    are the multiply-only division's."""
    stab = pc.subgroup_igs(p59, [1 << p59.names.index(nm) for nm in ("x1", "x2", "x3", "x4", "r2")])
    rng = random.Random(45)
    distinct = dict.fromkeys(stab.elements())  # so that some words are members
    while len(distinct) < 2_000:
        distinct[rng.getrandbits(p59.n)] = None
    words = list(distinct)
    rng.shuffle(words)
    sizes = (len(stab.memo.products), len(stab.memo.inverses))
    for u in words[:1_000]:
        assert stab.sift(u) == multiply_only_divide(stab, u)[1]
    for u in words[1_000:]:
        assert stab.contains(u) == (multiply_only_divide(stab, u)[1] == 0)
    assert any(stab.contains(u) for u in words[1_000:])
    assert (len(stab.memo.products), len(stab.memo.inverses)) == sizes


def test_small_intersection_order(p59):
    stab = pc.subgroup_igs(p59, [1 << 1] + [1 << (3 + i) for i in range(4)])
    assert pc.small_intersection_order(p59, stab, stab) == 64
    xonly = pc.subgroup_igs(p59, [1 << (3 + i) for i in range(4)])
    assert pc.small_intersection_order(p59, xonly, stab) == 16
    big = pc.subgroup_igs(p59, [1 << t for t in range(12)])
    with pytest.raises(pc.SmallTooLarge):
        pc.small_intersection_order(p59, stab, big)


def test_subgroup_elements_guard(h56):
    big = pc.subgroup_igs(h56, [1 << t for t in range(20)])
    with pytest.raises(pc.SmallTooLarge):
        big.elements()


# ── save / load round trip ──────────────────────────────────────────────────


def test_save_load_roundtrip(tmp_path, toy):
    path = tmp_path / "toy.pc2"
    pc.save_presentation(toy, path)
    loaded = pc.load_presentation(path)
    assert loaded.n == toy.n
    assert loaded.power_tails == toy.power_tails
    assert loaded.conj == toy.conj
    for u in range(0, 256, 11):
        for v in range(0, 256, 7):
            assert loaded.multiply(u, v) == toy.multiply(u, v)


def test_save_load_p59(tmp_path, p59):
    path = tmp_path / "p.pc2"
    pc.save_presentation(p59, path)
    loaded = pc.load_presentation(path)
    assert loaded.conj == p59.conj
    rng = random.Random(27)
    for _ in range(25):
        u, v = rng.getrandbits(59), rng.getrandbits(59)
        assert loaded.multiply(u, v) == p59.multiply(u, v)


def test_load_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.pc2"
    path.write_text("nope\n")
    with pytest.raises(ValueError):
        pc.load_presentation(path)


def _write_pc2(tmp_path, body):
    path = tmp_path / "edit.pc2"
    path.write_text("pc2 v1 n=8\n" + body, encoding="ascii")
    return path


@pytest.mark.parametrize("line", ["pow 9 1", "pow 8 0", "pow -1 0", "conj 8 0 1", "conj 3 -1 8"])
def test_load_rejects_index_out_of_range(tmp_path, line):
    path = _write_pc2(tmp_path, line + "\n")
    with pytest.raises(ValueError, match=line):
        pc.load_presentation(path)


@pytest.mark.parametrize("lines", [["pow 2 0", "pow 2 10"], ["conj 3 1 8", "conj 3 1 18"]])
def test_load_rejects_duplicate_lines(tmp_path, lines):
    path = _write_pc2(tmp_path, "\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="duplicate"):
        pc.load_presentation(path)


# fullwidth digits: int() reads them as 2 and 0, but a pc2 file is ASCII
NON_ASCII_PC2 = "pc2 v1 n=\uff12\npow \uff10 \uff12\n"


def test_load_rejects_non_ascii_digits(tmp_path):
    path = tmp_path / "wide-digits.pc2"
    path.write_bytes(NON_ASCII_PC2.encode("utf-8"))
    with pytest.raises(ValueError):
        pc.load_presentation(path)


# numbers that int() reads but save_presentation never writes: a sign,
# digit separators, a hex prefix or spaces, uppercase hex digits
LOOSE_NUMBER_PC2 = [
    "pc2 v1 n=+1_0\npow 0 0\n",
    "pc2 v1 n=8\npow 0_0 +2\n",
    "pc2 v1 n= 0x1f\n",
    "pc2 v1 n=8\npow 0 1_f\n",
    "pc2 v1 n=8\npow 0 0x1f\n",
    "pc2 v1 n=8\nconj 3 +1 8\n",
    "pc2 v1 n=8\npow 0 1F\n",
]


@pytest.mark.parametrize("text", LOOSE_NUMBER_PC2)
def test_load_rejects_loosely_spelled_numbers(tmp_path, text):
    path = tmp_path / "loose.pc2"
    path.write_text(text, encoding="ascii")
    with pytest.raises(ValueError, match="bad number"):
        pc.load_presentation(path)


def test_load_reads_digits_with_leading_zeros(tmp_path):
    path = tmp_path / "digits.pc2"
    path.write_text("pc2 v1 n=08\npow 0 02\npow 1 0\nconj 2 0 6\n", encoding="ascii")
    group = pc.load_presentation(path)
    assert (group.n, group.power_tails[:2], group.conj) == (8, [2, 0], {(2, 0): 6})


def test_load_rejects_oversized_width(tmp_path):
    path = tmp_path / "wide.pc2"
    path.write_text(f"pc2 v1 n={pc.MAX_GENS + 1}\n", encoding="ascii")
    with pytest.raises(ValueError):
        pc.load_presentation(path)
