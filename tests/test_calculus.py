"""Tests for the layered commutator calculus.

The main oracle is an independent string-rewriting normal former: it knows
only the defining rewrite moves (letters sort left by kind, commutators
spin off as new central-ish symbols) and never touches the table-driven
closed form it is checking, nor the collector it also checks.  F(4) is
free_group(), a layered pc presentation; its words are packed ints
a | b << 4 | c << 8 | d << 24 (pack below).
"""

import random
from collections import namedtuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixdih import calculus as ca
from mixdih import morphisms as mo
from mixdih.gf2linalg import echelon_reduce, echelon_start, lowbit_index, sliced_apply
from mixdih.pcgroup import consistency_check


def pack(a=0, b=0, c=0, d=0):
    """An F(4) word from its layer coordinates."""
    return a | b << 4 | c << 8 | d << 24


# ── rewriting oracle ────────────────────────────────────────────────────────
#
# symbols: ("x", i), ("y", j), ("c", i, j), ("dx", i, j, k), ("dy", i, j, l)
# with 0-based subscripts.  Moves, applied leftmost-first until sorted:
#   swap out-of-order adjacent letters, emitting the commutator symbol
#   just right of the swapped pair; cancel equal adjacent involutions;
#   drop collapsed d symbols and sort their outer indices.


def _bracket(a, b):
    """[a, b] for symbols with a sorting after b; None means they commute."""
    if a[0] == "y" and b[0] == "x":
        return ("c", b[1], a[1])
    if a[0] == "c" and b[0] == "x":
        return _dx(a[1], a[2], b[1])
    if a[0] == "c" and b[0] == "y":
        return _dy(a[1], a[2], b[1])
    return None


def _dx(i, j, k):
    if i == k:
        return None
    return ("dx", min(i, k), j, max(i, k))


def _dy(i, j, l):
    if j == l:
        return None
    return ("dy", i, min(j, l), max(j, l))


def _sort_key(sym):
    kind = {"x": 0, "y": 1, "c": 2, "dx": 3, "dy": 4}[sym[0]]
    return (kind,) + sym[1:]


def oracle_normal_form(letters):
    """Normal form of a product of ("x", i) / ("y", j) letters."""
    word = list(letters)
    changed = True
    while changed:
        changed = False
        at = 0
        while at + 1 < len(word):
            a, b = word[at], word[at + 1]
            if a == b:
                del word[at:at + 2]
                changed = True
                at = max(at - 1, 0)
                continue
            if _sort_key(a) > _sort_key(b):
                word[at], word[at + 1] = b, a
                br = _bracket(a, b)
                if br is not None:
                    word.insert(at + 2, br)
                changed = True
                continue
            at += 1
    return word


def d_col(kind, i, j, k):
    """The F(4) column of [[x_i,y_j],x_k] (kind 'x') or [[x_i,y_j],y_k]
    (kind 'y'), read from free_group's layer-3 descriptors, which keep
    all 48 columns, after [[x_i,y_j],x_k] = [[x_k,y_j],x_i] and
    [[x_i,y_j],y_l] = [[x_i,y_l],y_j]; None where the bracket collapses."""
    key = ("x", min(i, k), j, max(i, k)) if kind == "x" else ("y", i, min(j, k), max(j, k))
    cols = ca.free_group().meta.d_desc
    return cols.index(key) if key in cols else None


def oracle_to_layered(word):
    a = b = c = d = 0
    for sym in word:
        if sym[0] == "x":
            a ^= 1 << sym[1]
        elif sym[0] == "y":
            b ^= 1 << sym[1]
        elif sym[0] == "c":
            c ^= 1 << (4 * sym[1] + sym[2])
        elif sym[0] == "dx":
            d ^= 1 << d_col("x", sym[1], sym[2], sym[3])
        else:
            d ^= 1 << d_col("y", sym[1], sym[2], sym[3])
    return pack(a, b, c, d)


def letters_to_layered(letters, mul=None):
    """The product of the letters in F(4), by its multiply unless given one."""
    mul = mul or ca.free_group().multiply
    acc = 0
    for sym in letters:
        acc = mul(acc, pack(a=1 << sym[1]) if sym[0] == "x" else pack(b=1 << sym[1]))
    return acc


_LETTERS = [("x", i) for i in range(4)] + [("y", j) for j in range(4)]


def assert_matches_oracle(letters):
    expected = oracle_to_layered(oracle_normal_form(letters))
    assert letters_to_layered(letters) == expected
    assert letters_to_layered(letters, ca.free_group().collect_multiply) == expected


def test_free_group_multiply_and_collect_match_rewriting_oracle():
    rng = random.Random(2024)
    for _ in range(150):
        assert_matches_oracle([rng.choice(_LETTERS) for _ in range(rng.randint(0, 12))])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(_LETTERS), max_size=10))
def test_free_group_multiply_and_collect_match_oracle_hypothesis(letters):
    assert_matches_oracle(letters)


def test_basic_products():
    f = ca.free_group()
    mul = f.multiply
    y1x1 = mul(ca.parse_word(f, "y1"), ca.parse_word(f, "x1"))
    assert y1x1 == pack(a=1, b=1, c=1)  # x1*y1*c11
    u = ca.parse_word(f, "x1*y1")
    sq = mul(u, u)
    assert sq == pack(c=1)  # (x1 y1)^2 = c11
    assert mul(sq, sq) == 0  # c11^2 = 1


def test_free_group_inverse():
    f = ca.free_group()
    rng = random.Random(5)
    for _ in range(100):
        letters = [rng.choice(_LETTERS) for _ in range(rng.randint(0, 10))]
        u = letters_to_layered(letters)
        assert f.multiply(u, f.inverse(u)) == 0
        assert f.multiply(f.inverse(u), u) == 0


def test_free_group_commutator_against_definition():
    f = ca.free_group()
    rng = random.Random(6)
    for _ in range(60):
        u = letters_to_layered([rng.choice(_LETTERS) for _ in range(rng.randint(0, 6))])
        v = letters_to_layered([rng.choice(_LETTERS) for _ in range(rng.randint(0, 6))])
        lhs = f.multiply(f.multiply(f.inverse(u), f.inverse(v)), f.multiply(u, v))
        assert f.commutator(u, v) == lhs


def test_commutator_product_rule():
    # [uv, w] = [u,w][[u,w],v][v,w]; with [u,w] in layer >= 2 and the triple
    # term central this is exact in the class-3 object
    f = ca.free_group()
    mul, comm = f.multiply, f.commutator
    rng = random.Random(7)
    for _ in range(40):
        u = letters_to_layered([rng.choice(_LETTERS) for _ in range(3)])
        v = letters_to_layered([rng.choice(_LETTERS) for _ in range(3)])
        w = letters_to_layered([rng.choice(_LETTERS) for _ in range(3)])
        lhs = comm(mul(u, v), w)
        uw = comm(u, w)
        rhs = mul(uw, mul(comm(uw, v), comm(v, w)))
        assert lhs == rhs


def test_free_group_is_a_consistent_presentation():
    f = ca.free_group()
    assert (f.n, f.label, f.tail) == (72, "F4", 8)
    assert f.names[:8] == ["x1", "x2", "x3", "x4", "y1", "y2", "y3", "y4"]
    assert consistency_check(f) == []


@pytest.mark.parametrize("build", [ca.free_group, ca.build_h56, ca.build_toy], ids=["F4", "h56", "toy2"])
def test_free_multiply_matches_collector_on_every_letter_cell(build):
    # one pair per letter cell (a2, b1): v's x-word a2 crosses u's y-word
    # b1, so every OUTER and TB entry is read.  Both sides have random c
    # and d layers, u's c layer is nonzero and v's y-word a2 ^ b1 runs
    # over all letter words, so every TA and TC word table is applied
    # too.  toy2 (n = 2, no d layer) runs the tables' doubling on other
    # bounds than the 4+4 groups
    group = build()
    n, d_off = group.meta.n, group.meta.d_off
    c_dim, d_dim = n * n, group.n - d_off
    rng = random.Random(16)
    for a2 in range(1 << n):
        for b1 in range(1 << n):
            u = (rng.getrandbits(n) | b1 << n | (rng.getrandbits(c_dim) | 1 << rng.randrange(c_dim)) << 2 * n
                 | rng.getrandbits(d_dim) << d_off)
            v = a2 | (a2 ^ b1) << n | rng.getrandbits(c_dim) << 2 * n | rng.getrandbits(d_dim) << d_off
            assert group.multiply(u, v) == group.collect_multiply(u, v)


def test_parse_word_rejects_garbage():
    f = ca.free_group()
    with pytest.raises(ValueError):
        ca.parse_word(f, "x5")
    with pytest.raises(ValueError):
        ca.parse_word(f, "z1")
    with pytest.raises(ValueError):
        ca.parse_word(f, "x")


# ── the twist action ────────────────────────────────────────────────────────
#
# The oracle is a hand derivation of the twist r: x_i -> y_i,
# y_i -> x_{sig(i)}: perm1 permutes the eight letters, perm2 and perm3 the
# c and d coordinates of F(4) (entry t is the image of basis vector t),
# each found by rewriting the bracket.  calculus.generator_images finds
# the same images with commutators; the two share only the coordinate
# layout.

HandTwist = namedtuple("HandTwist", "perm1 perm2 perm3")


def oracle_r_action():
    n = 4
    perm1 = tuple(list(range(n, 2 * n)) + [ca.SIG[i] for i in range(n)])
    # c_{ij} = [x_i, y_j] -> [y_i, x_{sigma(j)}] = c_{sigma(j), i}^-1 = c_{sigma(j), i}
    perm2 = [0] * (n * n)
    for i in range(n):
        for j in range(n):
            perm2[n * i + j] = n * ca.SIG[j] + i
    cols = ca.free_group().meta.d_desc
    perm3 = [0] * len(cols)
    for col, (kind, i, j, k) in enumerate(cols):
        if kind == "x":
            # [[x_i,y_j],x_k] -> [[y_i,x_sj],y_k] = [[x_sj,y_i],y_k]^-1 ...
            # which rewrites to the dy coordinate of (sigma j; i, k)
            img = d_col("y", ca.SIG[j], i, k)
        else:
            # [[x_i,y_j],y_l] -> [[y_i,x_sj],x_sl] = [[x_sj,y_i],x_sl]
            img = d_col("x", ca.SIG[j], i, ca.SIG[k])
        assert img is not None
        perm3[col] = img
    return HandTwist(perm1, tuple(perm2), tuple(perm3))


def apply_perm(mask, perm):
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << perm[low.bit_length() - 1]
        mask ^= low
    return out


@pytest.fixture(scope="module")
def twist_images():
    """generator_images of the twist on F(4): 8 letters, 16 c, 48 d."""
    return ca.generator_images(ca.free_group(), ca.TWIST_LETTERS)


def _single_bit_indices(images, off):
    assert all(w and w & (w - 1) == 0 and w >> off << off == w for w in images)
    return tuple((w >> off).bit_length() - 1 for w in images)


def test_twist_letter_action():
    act = oracle_r_action()
    # x_i -> y_i, y_i -> x_{sig(i)}
    assert act.perm1[:4] == (4, 5, 6, 7)
    assert tuple(act.perm1[4 + i] for i in range(4)) == ca.SIG
    assert ca.TWIST_LETTERS == tuple(1 << t for t in act.perm1)
    # a single 8-cycle on the letters
    seen = set()
    at = 0
    for _ in range(8):
        seen.add(at)
        at = act.perm1[at]
    assert at == 0 and len(seen) == 8


def test_twist_generator_images_match_hand_derivation(twist_images):
    # every one of the 16 c and 48 d basis vectors goes exactly where the
    # rewritten brackets send it
    act = oracle_r_action()
    assert twist_images[:8] == list(ca.TWIST_LETTERS)
    assert twist_images[8:24] == [pack(c=1 << t) for t in act.perm2]
    assert twist_images[24:] == [pack(d=1 << t) for t in act.perm3]


def test_rho_generator_images_match_hand_derivation(h56, rho_power):
    # on h56 a d image is the reduction of the lifted image modulo the
    # relation space, in the coordinates of the surviving columns
    act = oracle_r_action()
    basis = ca.relation_space()
    pivots = [lowbit_index(r) for r in basis]
    cols = ca.free_group().meta.d_desc
    d_cols = [col for col in range(48) if col not in pivots]
    assert [cols[col] for col in d_cols] == list(h56.meta.d_desc)

    def reduce_full(mask):
        res = echelon_reduce(echelon_start(basis), mask)
        return sum(1 << t for t, col in enumerate(d_cols) if res >> col & 1)

    d_off = h56.meta.d_off
    images = ca.generator_images(h56, ca.TWIST_LETTERS)
    assert images[:8] == [1 << t for t in act.perm1]
    assert images[8:24] == [1 << (8 + t) for t in act.perm2]
    assert images[24:] == [reduce_full(1 << act.perm3[col]) << d_off for col in d_cols]
    assert [rho_power(1 << t, 1) for t in range(h56.n)] == images


def _perm_order(perm):
    n = 1
    cur = list(perm)
    ident = list(range(len(perm)))
    while cur != ident:
        cur = [perm[t] for t in cur]
        n += 1
    return n


def test_twist_layer_orders(twist_images):
    act = oracle_r_action()
    assert _perm_order(act.perm1) == 8
    assert _perm_order(act.perm2) == 8
    assert _perm_order(act.perm3) == 8
    # and the images generator_images forces permute each layer likewise
    assert _perm_order(_single_bit_indices(twist_images[:8], 0)) == 8
    assert _perm_order(_single_bit_indices(twist_images[8:24], 8)) == 8
    assert _perm_order(_single_bit_indices(twist_images[24:], 24)) == 8


def multiply_route_images(group, letters):
    """Generator images under a letter map with every bracket taken by the
    group's commutator, so by multiplies alone: the reference for
    generator_images, which reads layer 3 with tail_conjugate."""
    n = group.meta.n
    comm = group.commutator
    images = list(letters)
    images += [comm(letters[i], letters[n + j]) for i in range(n) for j in range(n)]
    for kind, i, j, k in group.meta.d_desc:
        images.append(comm(images[2 * n + n * i + j], letters[k] if kind == "x" else letters[n + k]))
    return images


@pytest.mark.parametrize("name", ["toy2", "h56", "F4"])
def test_generator_images_match_the_multiply_route(toy, h56, name):
    group = {"toy2": toy, "h56": h56, "F4": ca.free_group()}[name]
    rng = random.Random(len(name) + group.n)
    bits = 2 * group.meta.n
    maps = [tuple(rng.getrandbits(group.n) for _ in range(bits)) for _ in range(40)]
    maps += [tuple(rng.getrandbits(bits) for _ in range(bits)) for _ in range(40)]
    # inner automorphisms: letters times commutators, so with layer bits
    maps += [tuple(group.conjugate(1 << t, g) for t in range(bits))
             for g in (rng.getrandbits(group.n) for _ in range(20))]
    assert sum(any(w >> bits for w in letters) for letters in maps) >= 60
    for letters in maps:
        assert ca.generator_images(group, letters) == multiply_route_images(group, letters)
    # F(4) and h56 have a layer 3, toy2 none
    assert len(group.meta.d_desc) == {"toy2": 0, "h56": 32, "F4": 48}[name]


def test_twist_respects_multiplication_in_free_object(twist_images):
    # letterwise substitution of the twist is an automorphism of F(4);
    # check on layer 2 + 3 via the c/d permutations and random products,
    # and that the table of the forced generator images agrees
    act = oracle_r_action()
    mul = ca.free_group().multiply
    table = ca.homomorphism_table(mul, twist_images, 8)

    def twist(u: int) -> int:
        a, b, c, d = u & 15, (u >> 4) & 15, (u >> 8) & 0xFFFF, u >> 24
        letters = [("y", i) for i in range(4) if (a >> i) & 1]
        letters += [("x", ca.SIG[j]) for j in range(4) if (b >> j) & 1]
        head = letters_to_layered(letters)
        tail = pack(c=apply_perm(c, act.perm2), d=apply_perm(d, act.perm3))
        return mul(head, tail)

    rng = random.Random(8)
    for _ in range(60):
        u = letters_to_layered([rng.choice(_LETTERS) for _ in range(rng.randint(0, 8))])
        v = letters_to_layered([rng.choice(_LETTERS) for _ in range(rng.randint(0, 8))])
        assert twist(mul(u, v)) == mul(twist(u), twist(v))
        assert sliced_apply(table, u, 8) == twist(u)


# ── relations and the quotients ─────────────────────────────────────────────


def test_relation_rows_are_central_and_nonzero():
    rows = ca.expand_relations()
    assert len(rows) == 2
    assert all(r != 0 for r in rows)


def test_relation_space_rank_16_by_span_enumeration():
    rows = ca.relation_space()
    assert len(rows) == 16
    # the basis is reduced echelon: each row's pivot is its lowest bit,
    # the pivots strictly increase, and each is cleared in every other row
    pivots = [lowbit_index(r) for r in rows]
    assert all(p < q for p, q in zip(pivots, pivots[1:]))
    for p, r in zip(pivots, rows):
        assert all(s >> p & 1 == 0 for s in rows if s != r)
    # independent oracle: the XOR-span really has 2^16 distinct vectors
    span = {0}
    for r in rows:
        span |= {s ^ r for s in span}
    assert len(span) == 1 << 16
    # and the span is invariant under the twist
    act = oracle_r_action()
    for r in rows:
        assert apply_perm(r, act.perm3) in span


def test_relation_space_contains_relation_orbit():
    basis = ca.relation_space()
    act = oracle_r_action()
    for row in ca.expand_relations():
        v = row
        for _ in range(8):
            assert echelon_reduce(echelon_start(basis), v) == 0
            v = apply_perm(v, act.perm3)


def test_h56_shape(h56):
    assert h56.n == 56
    assert h56.names[:8] == ["x1", "x2", "x3", "x4", "y1", "y2", "y3", "y4"]
    assert len(h56.meta.d_desc) == 32


def test_h56_products(h56):
    for i in range(4):
        for j in range(4):
            u = h56.multiply(1 << i, 1 << (4 + j))
            assert h56.multiply(u, u) == 1 << (8 + 4 * i + j)
    # elements have order dividing 4
    rng = random.Random(9)
    for _ in range(50):
        u = rng.getrandbits(56)
        assert h56.element_order(u) in (1, 2, 4)


def test_h56_fast_mul_matches_collector(h56):
    rng = random.Random(10)
    for _ in range(120):
        u, v = rng.getrandbits(56), rng.getrandbits(56)
        assert h56.multiply(u, v) == h56.collect_multiply(u, v)
    # every letter-word pair (a2, b2) of v, so that each word table TA[a2]
    # and TC[b2] meets a nonzero c layer of u
    for a2 in range(16):
        for b2 in range(16):
            u = rng.getrandbits(56) | 1 << (8 + rng.randrange(16))
            v = a2 | b2 << 4 | rng.getrandbits(48) << 8
            assert h56.multiply(u, v) == h56.collect_multiply(u, v)


def test_toy_shape_and_agreement(toy):
    assert toy.n == 8
    for u in range(0, 256, 7):
        for v in range(256):
            assert toy.multiply(u, v) == toy.collect_multiply(u, v)


@pytest.mark.parametrize("name", ["toy2", "h56", "F4"])
def test_multiply_matches_collector_on_full_and_single_c_bits(toy, h56, name):
    # the four inline lookups of TA and TC read the c layer 4 bits at a
    # time: u's c layer with every bit set, and with each bit alone, under
    # every letter word of v (toy2's 4 c-bits padded to 16); v's own c
    # layer is the same word, so the product's c layer cancels to OUTER
    group = {"toy2": toy, "h56": h56, "F4": ca.free_group()}[name]
    n = group.meta.n
    c_dim, letters = n * n, 1 << 2 * n
    rng = random.Random(44)
    for g in [(1 << c_dim) - 1] + [1 << t for t in range(c_dim)]:
        for a2b2 in range(letters):
            u = rng.getrandbits(2 * n) | g << 2 * n | rng.getrandbits(group.n) >> group.meta.d_off << group.meta.d_off
            v = a2b2 | g << 2 * n
            assert group.multiply(u, v) == group.collect_multiply(u, v), (g, a2b2)


def test_closed_form_multiply_refuses_more_than_four_letters():
    with pytest.raises(ValueError, match="n <= 4"):
        ca._make_mul(5, [], [])
    with pytest.raises(ValueError, match="n <= 4"):
        ca._layered_presentation(5, (), "F5")


@pytest.mark.parametrize("name", ["p59", "toy_sylow"])
def test_split_extension_matches_collector_on_each_part_of_s(p59, toy_sylow, name):
    # each S part s of u, and t of v, so that every element's inline
    # table is applied, on random words of the base and on its all-ones
    # word; an inverse is right when the collector sends u * inverse(u)
    # to the identity
    group = {"p59": p59, "toy_sylow": toy_sylow}[name]
    k = group.n - group.meta.base.n
    base = group.meta.base.n
    rng = random.Random(45)
    for s in range(1 << k):
        for w in [(1 << base) - 1] + [rng.getrandbits(base) for _ in range(3)]:
            u = s | w << k
            inv = group.inverse(u)
            assert group.collect_multiply(u, inv) == 0, (s, w)
            for t in range(1 << k):
                v = t | rng.getrandbits(base) << k
                assert group.multiply(u, v) == group.collect_multiply(u, v), (s, t, w)


def test_rho_is_an_order8_automorphism(h56, rho_power):
    for i in range(4):
        assert rho_power(1 << i, 1) == 1 << (4 + i)
        assert rho_power(1 << (4 + i), 1) == 1 << ca.SIG[i]
    rng = random.Random(12)
    for _ in range(80):
        u, v = rng.getrandbits(56), rng.getrandbits(56)
        assert rho_power(h56.multiply(u, v), 1) == h56.multiply(rho_power(u, 1), rho_power(v, 1))
    w = rng.getrandbits(56)
    v = w
    for t in range(8):
        v = rho_power(v, 1)
        assert (v == w) == (t == 7)


def test_rho_power_tables_match_repeated_rho(h56, rho_power):
    # the oracle: powers of the twist extended from catalog's own spelling
    # of its letter images.  Both sides force rho's generator images with
    # generator_images; the powers come from split_extension's table of
    # r**e, reached through p59's multiply and inverse, on one side and
    # from applying the twist e times on the other
    twist = mo.extend(mo.catalog(h56)["twist_conjugation"])
    rng = random.Random(15)
    words = [0] + [1 << t for t in range(56)] + [rng.getrandbits(56) for _ in range(1000)]
    for w in words:
        v = w
        for e in range(8):
            assert rho_power(w, e) == v
            v = twist.apply(v)


def test_p59_shape_and_twist(p59):
    assert p59.n == 59
    assert p59.element_order(1) == 8  # the twist generator
    assert p59.multiply(1, 1) == 1 << 1
    assert p59.multiply(1 << 1, 1 << 1) == 1 << 2
    # x1^r = y1, y1^r = x2, x_i^{r^2} = x_{sig(i)}
    assert p59.conjugate(1 << 3, 1) == 1 << 7
    assert p59.conjugate(1 << 7, 1) == 1 << 4
    r2 = 1 << 1
    for i in range(4):
        assert p59.conjugate(1 << (3 + i), r2) == 1 << (3 + ca.SIG[i])
        assert p59.conjugate(1 << (7 + i), r2) == 1 << (7 + ca.SIG[i])


def test_p59_fast_mul_matches_collector(p59):
    rng = random.Random(13)
    for _ in range(120):
        u, v = rng.getrandbits(59), rng.getrandbits(59)
        assert p59.multiply(u, v) == p59.collect_multiply(u, v)


def test_p59_restriction_to_h_matches_h56(h56, p59):
    rng = random.Random(14)
    for _ in range(80):
        u, v = rng.getrandbits(56), rng.getrandbits(56)
        assert p59.multiply(u << 3, v << 3) == h56.multiply(u, v) << 3


@settings(max_examples=40, deadline=None)
@given(st.integers(0, (1 << 59) - 1), st.integers(0, (1 << 59) - 1), st.integers(0, (1 << 59) - 1))
def test_p59_associative(p59, a, b, c):
    assert p59.multiply(p59.multiply(a, b), c) == p59.multiply(a, p59.multiply(b, c))


# ── split extensions by letter maps ─────────────────────────────────────────


def test_toy_sylow_extension_is_consistent(toy, toy_sylow):
    # the one extension whose S is not abelian, so the only one with
    # conjugates between S generators: tau**sigma = tau**-1 = tau * tau**2
    assert toy_sylow.n == 11
    assert consistency_check(toy_sylow) == []
    assert toy_sylow.names[:3] == ["s", "t", "t2"]
    assert toy_sylow.power_tails[:3] == [0, 1 << 2, 0]
    assert toy_sylow.conj[(1, 0)] == 0b110
    assert (2, 0) not in toy_sylow.conj and (2, 1) not in toy_sylow.conj
    assert toy_sylow.element_order(0b010) == 4
    assert toy_sylow.meta.base is toy
    assert toy_sylow.meta.letter_maps[1:3] == [(4, 8, 1, 2), (4, 8, 2, 1)]
    assert toy_sylow.meta.letter_maps[4] == (2, 1, 8, 4)


def test_toy_sylow_fast_paths_match_the_reference(toy_sylow):
    rng = random.Random(16)
    words = [rng.getrandbits(11) for _ in range(400)]
    for u, v in zip(words, words[1:]):
        assert toy_sylow.multiply(u, v) == toy_sylow.collect_multiply(u, v)
    for u in [0] + [1 << t for t in range(11)] + words:
        assert toy_sylow.inverse(u) == toy_sylow.squaring_inverse(u)


def test_toy_sylow_conjugation_is_the_letter_maps(toy_sylow):
    # conjugation by s on the toy's letters is the letter map of s, for
    # every element of S; S permutes the letters, so the product of two
    # exponent words of S must be the composition of those permutations
    maps = toy_sylow.meta.letter_maps
    for s, letters in enumerate(maps):
        assert tuple(toy_sylow.conjugate(1 << (3 + t), s) >> 3 for t in range(4)) == letters
        for t, after in enumerate(maps):
            assert maps[toy_sylow.multiply(s, t)] == tuple(after[lowbit_index(w)] for w in letters)


def test_split_extension_rejects_a_sequence_that_is_not_pc(toy, h56):
    # sigma, tau without tau**2: four distinct maps, but tau * tau is
    # none of them
    with pytest.raises(ValueError, match="pc sequence"):
        ca.split_extension(toy, [(4, 8, 1, 2), (4, 8, 2, 1)], ["s", "t"], "bad")
    # r twice: the words r and r' are one map
    with pytest.raises(ValueError, match="pc sequence"):
        ca.split_extension(h56, [ca.TWIST_LETTERS, ca.TWIST_LETTERS], ["r", "r'"], "bad")
    # tau**2, tau: four distinct maps closed under composition, but the
    # square of tau is tau**2, which comes before it
    with pytest.raises(ValueError, match="power word"):
        ca.split_extension(toy, [(2, 1, 8, 4), (4, 8, 2, 1)], ["t2", "t"], "bad")


def test_extension_meta_repr_shows_its_letter_maps(p59):
    """A run that changed a meta's letter maps would change its repr,
    which is what test_a_run_leaves_the_presentation_as_it_was reads."""
    meta = ca.ExtensionMeta(p59.meta.base, list(p59.meta.letter_maps))
    before = repr(meta)
    assert before == repr(p59.meta)
    meta.letter_maps.append(ca.TWIST_LETTERS)
    assert repr(meta) != before


def test_p59_extension_meta(h56, p59):
    meta = p59.meta
    assert meta.base is h56
    assert meta.letter_maps[1] == ca.TWIST_LETTERS
    assert [[p59.multiply(e, f) for f in range(8)] for e in range(8)] == [[(e + f) & 7 for f in range(8)] for e in range(8)]
    # r**e is the exponent word e: its letter map is rho applied e times
    letters = tuple(1 << t for t in range(8))
    for e in range(8):
        assert meta.letter_maps[e] == letters
        letters = tuple(ca.TWIST_LETTERS[lowbit_index(w)] for w in letters)

