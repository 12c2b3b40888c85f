"""Automorphism-side tests for the 4+4 layered quotient.

Ground truth used here: orders of the named maps, the closure order 1800,
the single orbit on the thirty nonidentity letter-block elements, the
pointwise stabilizer, and the two deliberate non-examples.
"""

import hashlib
import random

import pytest

from mixdih import calculus as ca
from mixdih import morphisms as mo
from mixdih import pcgroup as pc
from mixdih.cli import CheckRun, _checks_h56
from mixdih.gf2linalg import echelon_ints, sliced_apply


@pytest.fixture(scope="module")
def named(h56):
    return mo.catalog(h56)


@pytest.fixture(scope="module")
def verified(h56, named):
    out = {}
    for name in ("x_singer_generator", "y_singer_generator",
                 "x_companion_cycle", "y_companion_cycle", "twist_conjugation"):
        out[name] = mo.extend(named[name])
    return out


def product_of_images(group, images, w):
    """The image of w under generator images: their product over the set
    bits of w in index order, one multiply per bit.  The reference every
    homomorphism_table is checked against; it shares no table with them."""
    out = 0
    while w:
        low = w & -w
        out = group.multiply(out, images[low.bit_length() - 1])
        w ^= low
    return out


def full_images(f):
    """The images of all generators under f: calculus.generator_images
    of the images of the letters."""
    letters = [f.apply(1 << t) for t in range(2 * f.group.meta.n)]
    return tuple(ca.generator_images(f.group, letters))


def full_identity(group):
    return tuple(1 << t for t in range(group.n))


def full_compose(images, g):
    """Generator images of 'the map with these images, then g', on all
    generators: the reference for the engine's readings on letter tuples."""
    return tuple(g.apply(w) for w in images)


def full_power(f, e):
    acc = full_identity(f.group)
    for _ in range(e):
        acc = full_compose(acc, f)
    return acc


def full_order(f):
    acc, order = full_images(f), 1
    while acc != full_identity(f.group):
        acc = full_compose(acc, f)
        order += 1
    return order


def _sample_words(group, seed):
    rng = random.Random(seed)
    return [0] + [1 << t for t in range(group.n)] + [rng.getrandbits(group.n) for _ in range(500)]


def test_layers_above_the_letters_lie_in_the_tail(toy, h56):
    # the tables XOR the images above the letters, which needs them in the
    # elementary abelian tail
    for group in (toy, h56):
        assert group.tail <= 2 * group.meta.n


def test_apply_matches_product_of_images(h56, toy, verified):
    maps = list(verified.values())
    maps += [mo.extend(gmap) for gmap in mo.toy_catalog(toy).values()]
    for k, f in enumerate(maps):
        images = full_images(f)
        for w in _sample_words(f.group, 40 + k):
            assert f.apply(w) == product_of_images(f.group, images, w)


def test_rejected_maps_read_their_relations_from_exact_tables(monkeypatch, h56, named):
    # extend reads the right side of every relation from the table it
    # builds, so that table must be exact on the non-examples too
    built = []

    def recording(mul, images, bits):
        table = ca.homomorphism_table(mul, images, bits)
        built.append((list(images), table, bits))
        return table

    monkeypatch.setattr(mo, "homomorphism_table", recording)
    for name in ("x_centralizer_candidate", "x_half_turn"):
        with pytest.raises(mo.NotHomomorphism):
            mo.extend(named[name])
    assert len(built) == 2
    for k, (images, table, bits) in enumerate(built):
        assert len(images) == h56.n and bits == 8
        for w in _sample_words(h56, 50 + k):
            assert sliced_apply(table, w, bits) == product_of_images(h56, images, w)


def test_rho_tables_are_products_of_their_generator_images(h56):
    rho_power = ca.make_rho_power(h56)
    for e in (1, 2, 4):
        images = [rho_power(1 << t, e) for t in range(h56.n)]
        for w in _sample_words(h56, 60 + e):
            assert rho_power(w, e) == product_of_images(h56, images, w)


def test_extend_is_homomorphism_on_random_products(h56, verified):
    rng = random.Random(31)
    for f in verified.values():
        for _ in range(40):
            u, v = rng.getrandbits(56), rng.getrandbits(56)
            assert f.apply(h56.multiply(u, v)) == h56.multiply(f.apply(u), f.apply(v))


def test_named_map_orders(verified):
    assert mo.automorphism_order(verified["x_singer_generator"]) == 15
    assert mo.automorphism_order(verified["y_singer_generator"]) == 15
    assert mo.automorphism_order(verified["x_companion_cycle"]) == 5
    assert mo.automorphism_order(verified["y_companion_cycle"]) == 5
    assert mo.automorphism_order(verified["twist_conjugation"]) == 8


def test_order_matches_full_image_compose_loop(toy, verified):
    maps = list(verified.values()) + [mo.extend(gmap) for gmap in mo.toy_catalog(toy).values()]
    for f in maps:
        assert mo.automorphism_order(f) == full_order(f)


def test_order_past_cap_raises(verified):
    f = verified["x_singer_generator"]
    assert mo.automorphism_order(f, cap=15) == 15
    with pytest.raises(mo.ClosureBudgetExceeded):
        mo.automorphism_order(f, cap=14)


def test_letter_power_matches_full_image_power(verified):
    for f in verified.values():
        order = full_order(f)
        for e in range(2 * order):
            assert mo.letter_power(f, e) == full_power(f, e)[: 2 * f.group.meta.n]


def test_twist_conjugation_matches_rho(h56, verified):
    rho_power = ca.make_rho_power(h56)
    f = verified["twist_conjugation"]
    rng = random.Random(33)
    for _ in range(60):
        u = rng.getrandbits(56)
        assert f.apply(u) == rho_power(u, 1)


def test_singer_powers_relate_to_companions(verified):
    # the cube of each singer generator is the inverse companion cycle
    a1 = verified["x_singer_generator"]
    b1 = verified["x_companion_cycle"]
    assert mo.letter_power(a1, 3) == mo.letter_power(b1, 4)
    a2 = verified["y_singer_generator"]
    b2 = verified["y_companion_cycle"]
    assert mo.letter_power(a2, 3) == mo.letter_power(b2, 4)


def test_twist_conjugation_check(verified):
    assert mo.twist_conjugation_check(
        verified["x_singer_generator"], verified["y_singer_generator"], verified["twist_conjugation"]
    )
    # the relations fail with the singer generators exchanged
    assert not mo.twist_conjugation_check(
        verified["y_singer_generator"], verified["x_singer_generator"], verified["twist_conjugation"]
    )


def test_twist_check_matches_full_image_conjugation(verified):
    # the reference conjugates on all generator images: a^rho is rho^-1,
    # then a, then rho, with rho^-1 the power rho**(order - 1)
    maps = list(verified.values())
    images = {f: full_images(f) for f in maps}
    agree = []
    for rho in maps:
        rho_inv = full_power(rho, full_order(rho) - 1)
        for a in maps:
            a_conj = full_compose(full_compose(rho_inv, a), rho)
            for b in maps:
                b_conj = full_compose(full_compose(rho_inv, b), rho)
                want = a_conj == images[b] and b_conj == full_compose(images[a], a)
                assert mo.twist_conjugation_check(a, b, rho) == want
                agree.append(want)
    assert len(agree) == 125 and any(agree)


def test_negative_maps_rejected(named):
    with pytest.raises(mo.NotHomomorphism):
        mo.extend(named["x_centralizer_candidate"])
    with pytest.raises(mo.NotHomomorphism):
        mo.extend(named["x_half_turn"])


def test_letter_swap_rejected(h56):
    # swapping x1 and y1 breaks commutation inside the x block
    gmap = mo._gmap(h56, {"x1": "y1", "y1": "x1"})
    with pytest.raises(mo.NotHomomorphism):
        mo.extend(gmap)


def test_collapse_rejected(h56):
    # killing the y block is a genuine endomorphism (every commutator image
    # collapses) but the image only has order 2**4
    gmap = mo._gmap(h56, {"y1": "1", "y2": "1", "y3": "1", "y4": "1"})
    with pytest.raises(mo.NotBijective):
        mo.extend(gmap)


# ── extend against the full relation sweep ─────────────────────────────────


def reference_extend(gmap):
    """extend as a full sweep: every power relation, every conjugation
    relation, and bijectivity from the subgroup_igs closure of the letter
    images.  The reference for extend's skips and its Burnside test."""
    group = gmap.group
    bits = 2 * group.meta.n
    mul = group.multiply
    images = ca.generator_images(group, gmap.letter_images)
    table = ca.homomorphism_table(mul, images, bits)
    inverses = [group.inverse(w) for w in images]
    for i in range(group.n):
        if mul(images[i], images[i]) != sliced_apply(table, group.power_tails[i], bits):
            raise mo.NotHomomorphism(group.names[i])
    for j in range(group.n):
        for i in range(j):
            lhs = mul(mul(inverses[i], images[j]), images[i])
            if lhs != sliced_apply(table, group.conj.get((j, i), 1 << j), bits):
                raise mo.NotHomomorphism(group.names[j])
    if pc.subgroup_igs(group, list(gmap.letter_images)).order_log != group.n:
        raise mo.NotBijective("letter images do not generate the group")
    return tuple(images)


def _outcome(extender, gmap):
    try:
        result = extender(gmap)
    except (mo.NotHomomorphism, mo.NotBijective) as exc:
        return type(exc)
    return full_images(result) if isinstance(result, mo.VerifiedAutomorphism) else result


def _closure_sample(verified, count, seed):
    k = mo.closure([verified["x_singer_generator"],
                    verified["y_singer_generator"],
                    verified["twist_conjugation"]], cap=4000)
    return random.Random(seed).sample(sorted(k.letter_tuples), count)


def _toy_maps(seed, count):
    """Seeded letter maps of toy2 in four families: arbitrary words, letter
    words, block maps, and block maps followed by the swap of the blocks."""
    rng = random.Random(seed)
    maps = [(0, 0, 2, 12)]
    for _ in range(count):
        maps.append(tuple(rng.getrandbits(8) for _ in range(4)))
        maps.append(tuple(rng.getrandbits(4) for _ in range(4)))
        xs = [rng.getrandbits(2) for _ in range(2)]
        ys = [rng.getrandbits(2) << 2 for _ in range(2)]
        maps.append(tuple(xs + ys))
        maps.append(tuple(ys + xs))
    return maps


def test_extend_matches_full_sweep_on_h56(h56, named, verified):
    gmaps = list(named.values())
    gmaps.append(mo._gmap(h56, {"x1": "y1", "y1": "x1"}))
    gmaps.append(mo._gmap(h56, {"y1": "1", "y2": "1", "y3": "1", "y4": "1"}))
    gmaps += [mo.GeneratorMap(h56, tup) for tup in _closure_sample(verified, 300, 71)]
    outcomes = [_outcome(mo.extend, gmap) for gmap in gmaps]
    assert outcomes == [_outcome(reference_extend, gmap) for gmap in gmaps]
    assert outcomes[5:9] == [mo.NotHomomorphism] * 3 + [mo.NotBijective]
    assert all(isinstance(o, tuple) for o in outcomes[:5] + outcomes[9:])


def test_extend_matches_full_sweep_on_toy_maps(toy):
    maps = _toy_maps(72, 750)
    outcomes = [_outcome(mo.extend, mo.GeneratorMap(toy, tup)) for tup in maps]
    assert outcomes == [_outcome(reference_extend, mo.GeneratorMap(toy, tup)) for tup in maps]
    # the sample meets every outcome; (0, 0, 2, 12) breaks the conjugation
    # of y2 by y1, a pair above toy2's tail start whose image is no tail word
    assert outcomes[0] is mo.NotHomomorphism
    accepted = sum(isinstance(o, tuple) for o in outcomes)
    assert accepted and outcomes.count(mo.NotBijective) and outcomes.count(mo.NotHomomorphism)


# conjugation relations extend checks on an accepted h56 map: the pairs
# (j, i) with i among the 8 letters, 8 * 55 - 28; the 1,128 pairs of
# layer generators hold by construction
CHECKED_CONJUGATIONS = 412


def test_extend_checks_the_pinned_conjugations(monkeypatch, h56, named, verified):
    reads = []

    def counted(table, w, bits):
        reads.append(w)
        return sliced_apply(table, w, bits)

    monkeypatch.setattr(mo, "sliced_apply", counted)
    gmaps = [named[name] for name in verified]
    gmaps += [mo.GeneratorMap(h56, tup) for tup in _closure_sample(verified, 20, 73)]
    for gmap in gmaps:
        reads.clear()
        mo.extend(gmap)
        # one right side per power relation, then one per checked conjugation
        assert len(reads) - h56.n == CHECKED_CONJUGATIONS


def test_letter_steps_read_words_past_the_letters(h56, toy):
    # an inner automorphism sends each letter to a word with commutator
    # bits, which the letter step reads through sliced_apply
    for group, g in ((toy, 0b0110), (h56, 0b1000_0011)):
        images = tuple(group.conjugate(1 << t, g) for t in range(2 * group.meta.n))
        assert any(w >> (2 * group.meta.n) for w in images)
        f = mo.extend(mo.GeneratorMap(group, images))
        order = full_order(f)
        assert mo.automorphism_order(f) == order
        for e in range(order + 1):
            assert mo.letter_power(f, e) == full_power(f, e)[: 2 * group.meta.n]
        assert mo.closure([f]).order == order


# ── block letter maps of the free object ────────────────────────────────────
#
# A block map (g, h) in GL(4,2)^2 sends x_i to the x-word of g's column i
# and y_j to the y-word of h's column j.  Checked here: every such map,
# and every one followed by the twist, extends to an automorphism of
# F(4), so the automorphisms of h56 that keep X and Y are those block
# maps whose layer-3 images keep the relation space.

SINGER = (0b0011, 0b0110, 0b1100, 0b0111)
COMPANION = (0b0010, 0b0100, 0b1000, 0b1111)
TRANSVECTION = (0b0011, 0b0010, 0b0100, 0b1000)  # x1 -> x1*x2
IDENTITY = (0b0001, 0b0010, 0b0100, 0b1000)


def _block_map(g, h):
    return mo.GeneratorMap(ca.free_group(), tuple(g) + tuple(col << 4 for col in h))


def _random_gl42(rng):
    while True:
        cols = tuple(rng.randrange(1, 16) for _ in range(4))
        if len(echelon_ints(cols)[0]) == 4:
            return cols


def test_block_letter_maps_are_endomorphisms_of_the_free_group():
    f = ca.free_group()
    named = mo.catalog(f)
    assert _block_map(SINGER, IDENTITY).letter_images == named["x_singer_generator"].letter_images
    assert _block_map(IDENTITY, COMPANION).letter_images == named["y_companion_cycle"].letter_images
    rng = random.Random(17)
    pairs = [(m, IDENTITY) for m in (SINGER, COMPANION, TRANSVECTION)]
    pairs += [(IDENTITY, m) for m in (SINGER, COMPANION, TRANSVECTION)]
    pairs += [(_random_gl42(rng), _random_gl42(rng)) for _ in range(10)]
    maps = [_block_map(g, h) for g, h in pairs]
    twist = mo.extend(named["twist_conjugation"])
    for g, h in [(SINGER, COMPANION), (TRANSVECTION, SINGER)] + pairs[-2:]:
        block = _block_map(g, h)
        maps.append(mo.GeneratorMap(f, tuple(twist.apply(w) for w in block.letter_images)))
    assert len(maps) == 20
    # extend does check relations on F(4): the x block must commute
    with pytest.raises(mo.NotHomomorphism):
        mo.extend(mo._gmap(f, {"x1": "y1", "y1": "x1"}))
    for gmap in maps:
        phi = mo.extend(gmap)
        for _ in range(5):
            u, v = rng.getrandbits(72), rng.getrandbits(72)
            assert phi.apply(f.multiply(u, v)) == f.multiply(phi.apply(u), phi.apply(v))


# sha256 of the repr of the sorted letter tuples of the 1800 closure,
# first 16 hex digits, as a level-by-level search found them
CLOSURE_SHA256 = "ad5271715d416980"


def test_closure_order_1800(h56, verified):
    k = mo.closure([verified["x_singer_generator"],
                    verified["y_singer_generator"],
                    verified["twist_conjugation"]], cap=4000)
    assert k.order == 1800
    assert hashlib.sha256(repr(sorted(k.letter_tuples)).encode("ascii")).hexdigest()[:16] == CLOSURE_SHA256


def test_closure_budget(verified):
    with pytest.raises(mo.ClosureBudgetExceeded):
        mo.closure([verified["x_singer_generator"],
                    verified["y_singer_generator"]], cap=10)


def test_orbit_and_its_budget():
    def double_mod_7(u):
        return [2 * u % 7]

    assert mo.orbit([1], double_mod_7) == {1, 2, 4}
    assert mo.orbit([3, 5], double_mod_7) == {3, 5, 6}
    assert mo.orbit([1], double_mod_7, cap=3) == {1, 2, 4}
    with pytest.raises(mo.ClosureBudgetExceeded):
        mo.orbit([1], double_mod_7, cap=2)


def test_normality_report(h56_checks):
    aut_order = h56_checks["h56_closure_order"]["actual"]
    orbit_size, orbit_is_letter_set, stab_order, stab_is_y_singer_cycle, excluded, ok = (
        h56_checks["h56_normality_hypotheses"]["actual"]
    )
    assert aut_order == 1800
    assert orbit_size == 30
    assert orbit_is_letter_set
    assert stab_order == 15
    assert stab_is_y_singer_cycle
    assert h56_checks["h56_twist_conjugation_relations"]["actual"] is True
    assert set(h56_checks["h56_negative_maps_rejected"]["actual"]) == {"x_centralizer_candidate", "x_half_turn"}
    assert ok
    # closure order is not divisible by |GL(4,2)|**2, so the closure cannot
    # contain the direct product of both letter-block linear groups
    assert excluded
    assert aut_order % (20160 ** 2) != 0
    assert all(entry["status"] == "pass" for entry in h56_checks.values())


def _half_turn_extends(monkeypatch):
    catalog = mo.catalog

    def with_identity_half_turn(h):
        maps = catalog(h)
        maps["x_half_turn"] = mo._gmap(h, {})
        return maps

    monkeypatch.setattr(mo, "catalog", with_identity_half_turn)
    return "h56_negative_maps_rejected"


def _twist_relations_fail(monkeypatch):
    monkeypatch.setattr(mo, "twist_conjugation_check", lambda a, b, rho: False)
    return "h56_twist_conjugation_relations"


@pytest.mark.parametrize("break_fact", [_twist_relations_fail, _half_turn_extends])
def test_normality_ok_covers_twist_and_negatives(monkeypatch, h56, break_fact):
    # the last hypothesis field reads the twist and negatives checks' results
    broken = break_fact(monkeypatch)
    run = CheckRun()
    _checks_h56(run, h56)
    entries = {entry["name"]: entry for entry in run.entries}
    assert entries[broken]["status"] == "fail"
    hyp = entries["h56_normality_hypotheses"]
    assert hyp["actual"][:5] == [30, True, 15, True, True]
    assert hyp["actual"][-1] is False
    assert hyp["status"] == "fail"


def test_parse_and_format_roundtrip(h56, named):
    text = "# the x singer generator\n\nx1 -> x1*x2\nx2 -> x2*x3\nx3 -> x3*x4\nx4 -> x1*x2*x3\n"
    parsed = mo.parse_generator_map(h56, text)
    assert parsed.letter_images == named["x_singer_generator"].letter_images


def test_parse_rejects_bad_lines(h56):
    with pytest.raises(ValueError):
        mo.parse_generator_map(h56, "x1 -> z9")
    with pytest.raises(ValueError):
        mo.parse_generator_map(h56, "c11 -> c11")
    with pytest.raises(ValueError):
        mo.parse_generator_map(h56, "x1 + x2")
    with pytest.raises(ValueError):
        mo.parse_generator_map(h56, "x1 -> x2\nx1 -> x3")


def test_generator_map_validation(h56, toy):
    with pytest.raises(ValueError):
        mo.GeneratorMap(h56, (1,) * 7)
    with pytest.raises(ValueError):
        mo.GeneratorMap(h56, (1 << 60,) + (1,) * 7)
    # toy group works through the same machinery
    swap = mo._gmap(toy, {"x1": "x2", "x2": "x1", "y1": "y2", "y2": "y1"})
    f = mo.extend(swap)
    assert mo.automorphism_order(f) == 2
