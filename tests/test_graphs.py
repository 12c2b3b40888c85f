import hashlib
import random

import pytest

from mixdih import graphs as gr
from mixdih import morphisms as mo
from mixdih.pcgroup import PcPresentation, consistency_check, derived_subgroup, subgroup_igs


@pytest.fixture(scope="module")
def blocks(toy):
    return gr.letter_subgroups(toy)


@pytest.fixture(scope="module")
def gamma(toy):
    return gr.cayley_graph(toy, gr.letter_connection_set(toy))


@pytest.fixture(scope="module")
def sigma(toy, blocks):
    return gr.bicoset_graph(toy, *blocks)


def c2():
    return PcPresentation(1, [0], {}, names=["g"])


def c4():
    # g0 squares to g1
    return PcPresentation(2, [0b10, 0], {}, names=["s", "ss"])


# ── simple graph container ───────────────────────────────────────────────────


def test_make_graph_rejects_loop():
    with pytest.raises(ValueError):
        gr.make_graph(["a", "b"], [(0, 0)])


def test_graph_rejects_asymmetric_rows():
    with pytest.raises(ValueError):
        gr.SimpleGraph(("a", "b"), ((1,), ()))


@pytest.mark.parametrize("field", ["labels", "neighbors", "bipartition"])
def test_graphs_refuse_field_assignment(gamma, sigma, field):
    for graph in (gamma, sigma):
        with pytest.raises(AttributeError):
            setattr(graph, field, getattr(graph, field))
    with pytest.raises(AttributeError):
        sigma.ends = ()


def test_graph_rejects_edge_inside_part():
    with pytest.raises(ValueError):
        gr.make_graph(["a", "b"], [(0, 1)], bipartition=[0, 0])


def test_action_gens_reject_non_automorphism():
    path = gr.make_graph(["a", "b", "c"], [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        gr.action_gens(path, [(1, 0, 2)])
    with pytest.raises(ValueError):
        gr.action_gens(path, [(0, 0, 2)])


def test_girth_and_connectivity_basics():
    square = gr.make_graph(["a", "b", "c", "d"], [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert square.girth() == 4
    assert square.is_connected()
    forest = gr.make_graph(["a", "b", "c"], [(0, 1)])
    assert forest.girth() is None
    assert not forest.is_connected()


# ── cayley graphs ────────────────────────────────────────────────────────────


def test_cayley_k2_from_c2():
    g = gr.cayley_graph(c2(), [1])
    assert g.vertex_count == 2 and g.edge_count == 1
    assert g.regular_valency() == 1


def test_cayley_requires_inverse_closed():
    with pytest.raises(gr.SNotInverseClosed):
        gr.cayley_graph(c4(), [0b01])  # s has order 4, inverse missing
    gr.cayley_graph(c4(), [0b01, 0b11])  # adding s^-1 repairs it


def test_cayley_rejects_identity_and_large_groups():
    with pytest.raises(ValueError):
        gr.cayley_graph(c2(), [0, 1])
    wide = PcPresentation(21, [0] * 21, {})
    with pytest.raises(gr.TooLarge):
        gr.cayley_graph(wide, [1])


def test_cayley_toy_shape(toy, gamma):
    conn = gr.letter_connection_set(toy)
    assert len(conn) == 6
    assert gamma.vertex_count == 256
    assert gamma.regular_valency() == 6
    assert gamma.is_connected()


def _right_translations(group, gamma, elements):
    """Right translations g -> g*w of a Cayley graph on the whole group."""
    return gr.action_gens(gamma, [[group.multiply(g, w) for g in range(gamma.vertex_count)] for w in elements])


def test_cayley_vertex_transitive_under_translations(toy, gamma):
    acts = _right_translations(toy, gamma, [1 << i for i in range(8)])
    seen = {0}
    frontier = [0]
    while frontier:
        u = frontier.pop()
        for p in acts:
            if p[u] not in seen:
                seen.add(p[u])
                frontier.append(p[u])
    assert len(seen) == 256


# ── coset incidence graph ────────────────────────────────────────────────────


def test_bicoset_toy_shape(sigma):
    assert sigma.vertex_count == 128
    assert sigma.bipartition is not None
    assert sum(sigma.bipartition) == 64
    assert sigma.regular_valency() == 4
    assert sigma.edge_count == 256
    assert sigma.is_connected()
    assert sigma.girth() == 8


def test_bicoset_identity_cosets_adjacent(sigma):
    xi = sigma.labels.index("x:00")
    yi = sigma.labels.index("y:00")
    assert sigma.has_edge(xi, yi)


def test_bicoset_rejects_large_index():
    wide = PcPresentation(21, [0] * 21, {})
    xs = subgroup_igs(wide, [1])
    ys = subgroup_igs(wide, [2])
    with pytest.raises(gr.TooLarge):
        gr.bicoset_graph(wide, xs, ys)


def _cosets_intersect_directly(group, xsub, ysub, h, g):
    xh = {group.multiply(x, h) for x in xsub.elements()}
    yg = {group.multiply(y, g) for y in ysub.elements()}
    return bool(xh & yg)


def test_edge_criterion_matches_intersection_oracle(toy, blocks, sigma):
    xsub, ysub = blocks
    rng = random.Random(3)
    for _ in range(300):
        h = rng.randrange(256)
        g = rng.randrange(256)
        direct = _cosets_intersect_directly(toy, xsub, ysub, h, g)
        xi = sigma.labels.index("x:" + format(xsub.sift(h), "02x"))
        yi = sigma.labels.index("y:" + format(ysub.sift(g), "02x"))
        assert sigma.has_edge(xi, yi) == direct


# ── line graphs ──────────────────────────────────────────────────────────────


def test_line_graph_correspondence(gamma, sigma):
    assert gr.verify_line_graph_correspondence(gamma, sigma)


def test_line_graph_correspondence_breaks_under_swap(gamma, sigma):
    # the Cayley graph with vertices 1 and 2 exchanged
    perm = list(range(gamma.vertex_count))
    perm[1], perm[2] = 2, 1
    rows = [tuple(sorted(perm[w] for w in gamma.neighbors[v])) for v in perm]
    assert gamma.bipartition is None
    swapped = gr.SimpleGraph(gamma.labels, tuple(rows))
    assert not gr.verify_line_graph_correspondence(swapped, sigma)


def test_line_graph_correspondence_breaks_per_dropped_edge(gamma, sigma):
    rng = random.Random(11)
    edge_list = sigma.edges()
    for u, w in rng.sample(edge_list, 10):
        rows = [list(row) for row in sigma.neighbors]
        rows[u].remove(w)
        rows[w].remove(u)
        dropped = gr.BicosetGraph(sigma.labels, tuple(tuple(r) for r in rows), sigma.bipartition, sigma.ends)
        assert not gr.verify_line_graph_correspondence(gamma, dropped)


def test_line_graph_correspondence_breaks_per_missing_cayley_edge(gamma, sigma):
    # every other clause still holds; only the edge count sees the gap
    u, w = random.Random(5).choice(gamma.edges())
    rows = [list(row) for row in gamma.neighbors]
    rows[u].remove(w)
    rows[w].remove(u)
    missing = gr.SimpleGraph(gamma.labels, tuple(tuple(r) for r in rows))
    assert not gr.verify_line_graph_correspondence(missing, sigma)


def test_line_graph_correspondence_needs_a_bijection():
    # both blocks are the same order-2 subgroup of C2 x C2, so each of the
    # two edges of Sigma comes from two elements; against an edgeless
    # Gamma every other clause holds
    v4 = PcPresentation(2, [0, 0], {})
    a = subgroup_igs(v4, [1])
    sigma = gr.bicoset_graph(v4, a, a)
    assert sigma.edge_count == 2
    edgeless = gr.make_graph(["0", "1", "2", "3"], [])
    assert not gr.verify_line_graph_correspondence(edgeless, sigma)


# ── quotients ────────────────────────────────────────────────────────────────


def test_quotient_by_derived_orbits_is_complete_bipartite(toy, sigma):
    full = subgroup_igs(toy, [1 << i for i in range(8)])
    derived = derived_subgroup(toy, full)
    assert derived.order == 16
    translations = gr.bicoset_action(sigma, _translations(toy, derived.members))
    orbits = gr.vertex_orbits(sigma, translations)
    assert sorted(len(b) for b in orbits) == [16] * 8
    q = gr.normal_quotient(sigma, translations)
    assert q.regular_valency() == sigma.regular_valency()
    assert q.vertex_count == 8
    assert q.regular_valency() == 4
    xs = [i for i in range(8) if q.bipartition[i] == 0]
    ys = [i for i in range(8) if q.bipartition[i] == 1]
    assert len(xs) == 4 and len(ys) == 4
    for u in xs:
        for w in ys:
            assert q.has_edge(u, w)


def test_quotient_by_singletons_is_identity():
    square = gr.make_graph(["a", "b", "c", "d"], [(0, 1), (1, 2), (2, 3), (3, 0)])
    q = gr.normal_quotient(square, ())
    assert q.regular_valency() == square.regular_valency()
    assert q.neighbors == square.neighbors


def test_quotient_antipodal_square_is_not_cover():
    square = gr.make_graph(["a", "b", "c", "d"], [(0, 1), (1, 2), (2, 3), (3, 0)])
    q = gr.normal_quotient(square, ((2, 3, 0, 1),))
    assert q.vertex_count == 2
    assert q.edge_count == 1
    assert (q.regular_valency(), square.regular_valency()) == (1, 2)


def test_quotient_keeps_the_bipartition_when_no_orbit_meets_both_parts():
    square = gr.make_graph(["a", "b", "c", "d"], [(0, 1), (1, 2), (2, 3), (3, 0)], [0, 1, 0, 1])
    rotated = gr.normal_quotient(square, ((1, 2, 3, 0),))
    assert (rotated.vertex_count, rotated.edge_count, rotated.bipartition) == (1, 0, None)
    antipodal = gr.normal_quotient(square, ((2, 3, 0, 1),))
    assert (antipodal.edge_count, antipodal.bipartition) == (1, (0, 1))
    with pytest.raises(ValueError):
        gr.normal_quotient(square, ((0, 5, 2, 3),))


# ── orbit counting ───────────────────────────────────────────────────────────


def _translations(group, elements):
    return [lambda z, w=w: group.multiply(z, w) for w in elements]


def _toy_aut_maps(toy):
    return [mo.extend(g).apply for g in mo.toy_catalog(toy).values()]


def _toy_actions(toy, sigma, with_auts):
    perms = gr.bicoset_action(sigma, _translations(toy, [1 << i for i in range(8)]))
    if with_auts:
        perms = perms + gr.bicoset_action(sigma, _toy_aut_maps(toy))
    return perms


def _digest(perms):
    return hashlib.sha256(repr(perms).encode("ascii")).hexdigest()[:16]


# sha256 prefixes of the vertex perms of toy2's generator translations, of
# its catalog automorphisms and of its derived-subgroup translations
TOY_ACTION_SHA256 = {
    "translations": "da8dfe4e62678268",
    "automorphisms": "5a43b0a51b2628b3",
    "derived": "8df7274928cd33cd",
}


def test_bicoset_action_perms_are_pinned(toy, sigma):
    derived = derived_subgroup(toy, subgroup_igs(toy, [1 << i for i in range(8)]))
    maps = {
        "translations": _translations(toy, [1 << i for i in range(8)]),
        "automorphisms": _toy_aut_maps(toy),
        "derived": _translations(toy, derived.members),
    }
    perms = {name: gr.bicoset_action(sigma, m) for name, m in maps.items()}
    assert {name: _digest(p) for name, p in perms.items()} == TOY_ACTION_SHA256


def test_bicoset_action_rejects_map_off_the_block_cosets(sigma):
    with pytest.raises(ValueError, match="letter block cosets"):
        gr.bicoset_action(sigma, [lambda z: (z * 5) & 255])


def two_arc_orbit_count(g, a):
    return gr.two_arc_orbit_counts(g, a, ())[0]


def test_two_arc_count_with_full_generators(toy, sigma):
    assert two_arc_orbit_count(sigma, _toy_actions(toy, sigma, True)) == 1


def test_two_arc_count_translations_only(toy, sigma):
    assert two_arc_orbit_count(sigma, _toy_actions(toy, sigma, False)) > 1


def test_two_arc_count_monotone_under_more_generators(toy, sigma):
    few = two_arc_orbit_count(sigma, _toy_actions(toy, sigma, False))
    more = two_arc_orbit_count(sigma, _toy_actions(toy, sigma, True))
    assert more <= few


def test_two_arc_count_empty_generators(sigma):
    # 128 vertices, valency 4: 128*4*3 ordered 2-arcs, one orbit apiece
    assert two_arc_orbit_count(sigma, ()) == 1536


def test_orbit_counts_reject_maps_that_leave_the_point_set():
    path = gr.make_graph(["a", "b", "c"], [(0, 1), (1, 2)])
    # a map off the vertex set
    with pytest.raises(ValueError):
        gr.vertex_orbits(path, ((0, 5, 2),))
    with pytest.raises(ValueError):
        two_arc_orbit_count(path, ((0, 5, 2),))
    with pytest.raises(ValueError):  # also when only the second set leaves it
        gr.two_arc_orbit_counts(path, (), ((0, 5, 2),))
    # a vertex permutation that sends the 2-arc (0, 1, 2) to a non-arc,
    # and the edge (1, 2) to a non-edge
    swap = ((1, 0, 2),)
    assert gr.vertex_orbits(path, swap) == [[0, 1], [2]]
    with pytest.raises(ValueError):
        two_arc_orbit_count(path, swap)
    with pytest.raises(ValueError):
        gr.edge_regular_check(path, swap, 2)


@pytest.mark.parametrize("images", [(1, 1, 2, 3), (0, 0, 1, 2)])
def test_orbit_counts_reject_maps_that_are_not_permutations(images):
    # both maps keep the 4-cycle's vertex set but send two vertices to one
    square = gr.make_graph(["a", "b", "c", "d"], [(0, 1), (1, 2), (2, 3), (3, 0)])
    for run in (
        lambda: gr.vertex_orbits(square, (images,)),
        lambda: gr.normal_quotient(square, (images,)),
        lambda: gr.two_arc_orbit_counts(square, (), (images,)),
        lambda: gr.edge_regular_check(square, (images,), 4),
    ):
        with pytest.raises(ValueError):
            run()


def test_edge_regular_toy_incidence(toy, sigma):
    acts = _toy_actions(toy, sigma, False)
    assert gr.edge_regular_check(sigma, acts, 256)
    assert not gr.edge_regular_check(sigma, acts, 512)


def test_edge_regular_fails_on_cayley_graph(toy, gamma):
    acts = _right_translations(toy, gamma, [1 << i for i in range(8)])
    # 768 edges, so a group of order 256 cannot be edge-regular
    assert not gr.edge_regular_check(gamma, acts, 256)


def test_edge_regular_single_edge():
    k2 = gr.make_graph(["a", "b"], [(0, 1)])
    assert gr.edge_regular_check(k2, ((0, 1),), 1)


def test_edge_regular_square_under_rotation():
    # the rotation sends the edge (0, 3) to (1, 0), which is the edge (0, 1)
    square = gr.make_graph(["a", "b", "c", "d"], [(0, 1), (1, 2), (2, 3), (3, 0)])
    rotation = gr.action_gens(square, [(1, 2, 3, 0)])
    assert gr.edge_regular_check(square, rotation, 4)
    assert not gr.edge_regular_check(square, gr.action_gens(square, [(0, 3, 2, 1)]), 4)


# ── the orbit counts and girth against their tuple-set references ───────────


def ref_orbits(points, images):
    """Orbits as sets of the points themselves, searched point by point,
    with every image checked against the point set."""
    known = set(points)

    def checked(u):
        imgs = images(u)
        if not known.issuperset(imgs):
            raise ValueError("a map sends a point outside the point set")
        return imgs

    seen, out = set(), []
    for u in points:
        if u not in seen:
            out.append(mo.orbit([u], checked))
            seen |= out[-1]
    return out


def ref_vertex_orbits(g, a):
    return [sorted(o) for o in ref_orbits(range(g.vertex_count), lambda u: [p[u] for p in a])]


def ref_two_arc_orbit_count(g, a):
    arcs = [
        (u, v, w) for v in range(g.vertex_count) for u in g.neighbors[v] for w in g.neighbors[v] if w != u
    ]
    return len(ref_orbits(arcs, lambda arc: [tuple(p[x] for x in arc) for p in a]))


def ref_edge_regular_check(g, a, expected_order):
    edge_list = g.edges()
    if not edge_list:
        return expected_order == 0
    if len(edge_list) != expected_order:
        return False

    def images(edge):
        u, w = edge
        return [(min(p[u], p[w]), max(p[u], p[w])) for p in a]

    return len(ref_orbits(edge_list, images)) == 1


def ref_girth(g):
    """Shortest cycle from a full BFS at every start vertex."""
    best = None
    for s in range(g.vertex_count):
        dist, parent, queue = {s: 0}, {s: -1}, [s]
        for u in queue:
            for w in g.neighbors[u]:
                if w not in dist:
                    dist[w], parent[w] = dist[u] + 1, u
                    queue.append(w)
                elif parent[u] != w and (best is None or dist[u] + dist[w] + 1 < best):
                    best = dist[u] + dist[w] + 1
    return best


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError:
        return ValueError


def test_orbit_counts_match_tuple_set_references(toy, sigma):
    translations = _toy_actions(toy, sigma, False)
    full = _toy_actions(toy, sigma, True)
    off_vertex_set = ((999,) + tuple(range(1, 128)),)
    # a permutation of the vertices that is no automorphism: no two
    # vertices of a girth-8 graph share their neighbors
    swap = list(range(128))
    swap[0], swap[1] = 1, 0
    for a in (translations, full, (), off_vertex_set, (tuple(swap),)):
        for fn, ref, extra in (
            (gr.vertex_orbits, ref_vertex_orbits, ()),
            (two_arc_orbit_count, ref_two_arc_orbit_count, ()),
            (gr.edge_regular_check, ref_edge_regular_check, (256,)),
        ):
            assert _outcome(fn, sigma, a, *extra) == _outcome(ref, sigma, a, *extra)
    assert _outcome(two_arc_orbit_count, sigma, off_vertex_set) is ValueError
    # both counts of one call, as the toy2 check takes them
    auts = full[len(translations):]
    assert gr.two_arc_orbit_counts(sigma, translations, auts) == (
        ref_two_arc_orbit_count(sigma, translations),
        ref_two_arc_orbit_count(sigma, full),
    )
    assert _outcome(gr.vertex_orbits, sigma, (tuple(swap),)) != ValueError
    assert _outcome(gr.edge_regular_check, sigma, (tuple(swap),), 256) is ValueError


def _random_graphs(seed):
    """Seeded random graphs, forests and cycles with and without chords."""
    rng = random.Random(seed)
    graphs = []
    for _ in range(60):
        v = rng.randrange(1, 30)
        p = rng.choice((0.05, 0.1, 0.2, 0.5))
        graphs.append([(u, w) for u in range(v) for w in range(u + 1, v) if rng.random() < p])
        graphs.append([(u, rng.randrange(u)) for u in range(1, v) if rng.random() < 0.8])  # a forest
    for k in range(3, 16):
        cycle = [(u, (u + 1) % k) for u in range(k)]
        graphs.append(cycle)
        graphs.append(cycle + [(0, rng.randrange(2, k - 1))] if k > 3 else cycle)
        graphs.append(cycle + [(k + u, k + u + 1) for u in range(3)])  # a pendant path
    out = []
    for edges in graphs:
        v = 1 + max((max(e) for e in edges), default=0)
        out.append(gr.make_graph([str(u) for u in range(v)], edges))
    return out


def test_girth_matches_full_bfs():
    graphs = _random_graphs(5)
    girths = [g.girth() for g in graphs]
    assert girths == [ref_girth(g) for g in graphs]
    assert None in girths and {3, 5, 7, 9, 11, 13, 15} <= set(girths)


def test_girth_matches_networkx():
    nx = pytest.importorskip("networkx")
    for g in _random_graphs(6):
        want = nx.girth(_nx_graph(nx, g))
        assert g.girth() == (None if want == float("inf") else want)


# orbits of translations (and of translations with the toy automorphisms)
# on toy2's 3-arcs and 4-arcs, counted by brute force
S_ARC_ORBITS = {3: (4_608, 18, 1), 4: (13_824, 54, 3)}


def _s_arcs(g, s):
    arcs = [(u,) for u in range(g.vertex_count)]
    for _ in range(s):
        arcs = [arc + (w,) for arc in arcs for w in g.neighbors[arc[-1]] if len(arc) < 2 or w != arc[-2]]
    return arcs


@pytest.mark.parametrize("s", sorted(S_ARC_ORBITS))
def test_s_arc_orbits_of_toy_incidence(toy, sigma, s):
    arcs = _s_arcs(sigma, s)
    assert len(_s_arcs(sigma, 2)) == 1536

    def image(p, arc):
        return tuple(p[x] for x in arc)

    counts = [
        len(gr._orbit_sets(len(arcs), gr._moves(arcs, _toy_actions(toy, sigma, full), image)))
        for full in (False, True)
    ]
    assert (len(arcs), *counts) == S_ARC_ORBITS[s]


# ── cliques ──────────────────────────────────────────────────────────────────


def maximal_cliques(g):
    """All maximal cliques (pivoting Bron-Kerbosch), the oracle that
    cliques_are_letter_cosets' lemma is checked against.

    The recursion is a module function: a nested one would refer to
    itself and leave each call's sets to the cyclic garbage collector.
    """
    out = []
    _expand([set(row) for row in g.neighbors], set(), set(range(g.vertex_count)), set(), out)
    return out


def _expand(nb, r, p, x, out):
    """One Bron-Kerbosch step: each maximal clique holding r, within r | p
    and avoiding x, onto out."""
    if not p and not x:
        out.append(frozenset(r))
        return
    pivot = max(p | x, key=lambda u: len(p & nb[u]))
    for v in list(p - nb[pivot]):
        _expand(nb, r | {v}, p & nb[v], x & nb[v], out)
        p.discard(v)
        x.add(v)


def _letter_cosets(sigma):
    """The right cosets of the letter blocks, read from sigma's ends."""
    return {frozenset(c) for c in gr._cosets(sigma)}


def test_maximal_cliques_are_letter_cosets(toy, gamma, sigma):
    cliques = maximal_cliques(gamma)
    assert len(cliques) == 128
    assert all(len(c) == 4 for c in cliques)
    assert set(cliques) == _letter_cosets(sigma)
    assert gr.cliques_are_letter_cosets(toy) is True


def test_maximal_cliques_small_oracle():
    # triangle with a pendant vertex: cliques {0,1,2} and {2,3}
    g = gr.make_graph(["a", "b", "c", "d"], [(0, 1), (1, 2), (0, 2), (2, 3)])
    assert set(maximal_cliques(g)) == {frozenset({0, 1, 2}), frozenset({2, 3})}


def test_clique_lemma_and_oracle_reject_a_mixed_connection_element(toy, sigma, monkeypatch):
    """With w = x1*y1 and its inverse added to S, the blocks no longer
    give S, and the cliques are no longer the letter cosets."""
    w = toy.multiply(1, 4)
    conn = gr.letter_connection_set(toy) + (w, toy.inverse(w))
    cliques = maximal_cliques(gr.cayley_graph(toy, conn))
    assert len(cliques) == 384
    assert {len(c) for c in cliques} == {3, 4}
    assert set(cliques) != _letter_cosets(sigma)
    monkeypatch.setattr(gr, "letter_connection_set", lambda group: conn)
    assert gr.cliques_are_letter_cosets(toy) is False


def test_clique_lemma_and_oracle_hold_with_a_trivial_commutator(toy):
    """Dropping toy2's conjugate y1^x1 makes [x1, y1] = 1: the group stays
    consistent and Sigma's girth drops to 4, but the lemma uses no
    commutator, and the cliques are still the letter cosets."""
    conj = {key: word for key, word in toy.conj.items() if key != (2, 0)}
    mutant = PcPresentation(toy.n, toy.power_tails, conj, names=toy.names, meta=toy.meta, label=toy.label)
    assert consistency_check(mutant) == []
    sigma = gr.bicoset_graph(mutant, *gr.letter_subgroups(mutant))
    assert sigma.girth() == 4
    gamma = gr.cayley_graph(mutant, gr.letter_connection_set(mutant))
    assert set(maximal_cliques(gamma)) == _letter_cosets(sigma)
    assert gr.cliques_are_letter_cosets(mutant) is True


def test_clique_lemma_rejects_blocks_that_meet(toy, blocks, monkeypatch):
    xsub, _ = blocks
    monkeypatch.setattr(gr, "letter_subgroups", lambda group: (xsub, xsub))
    assert gr.cliques_are_letter_cosets(toy) is False
    # with S the x block less 1, S = (X | X) - 1 holds and only the meet fails
    monkeypatch.setattr(gr, "letter_connection_set", lambda group: tuple(xsub.elements()[1:]))
    assert gr.cliques_are_letter_cosets(toy) is False


# ── export ───────────────────────────────────────────────────────────────────


def test_format_graph_k2():
    k2 = gr.make_graph(["a", "b"], [(0, 1)])
    assert gr.format_graph(k2) == "2 1\na b\n"


def test_format_graph_stable(toy, blocks):
    one = gr.format_graph(gr.bicoset_graph(toy, *blocks))
    two = gr.format_graph(gr.bicoset_graph(toy, *blocks))
    assert one == two
    assert one.splitlines()[0] == "128 256"
    assert len(one.splitlines()) == 257


def test_write_graph(tmp_path):
    k2 = gr.make_graph(["a", "b"], [(0, 1)])
    path = tmp_path / "k2.txt"
    gr.write_graph(k2, path)
    assert path.read_text(encoding="ascii") == "2 1\na b\n"


# ── networkx oracle ──────────────────────────────────────────────────────────


def _nx_graph(nx, g):
    out = nx.Graph()
    out.add_nodes_from(range(g.vertex_count))
    out.add_edges_from(g.edges())
    return out


def test_toy_graphs_match_networkx(gamma, sigma):
    """Girth, connectivity and maximal cliques of Gamma and Sigma, each
    against networkx's own routine on the same edge list."""
    nx = pytest.importorskip("networkx")
    for g in (gamma, sigma):
        ref = _nx_graph(nx, g)
        assert g.girth() == nx.girth(ref)
        assert g.is_connected() == nx.is_connected(ref)
        assert set(maximal_cliques(g)) == {frozenset(c) for c in nx.find_cliques(ref)}
    assert nx.is_bipartite(_nx_graph(nx, sigma))


def test_toy_line_graph_correspondence_matches_networkx(toy, blocks, gamma, sigma):
    """z -> {xsub*z, ysub*z} is a bijection from the vertices of Gamma onto
    the vertices of networkx's line graph of Sigma, and carries the edges
    of Gamma exactly onto its edges.  The map is derived here from sifts
    and labels, apart from bicoset_graph, and must equal Sigma's ends."""
    nx = pytest.importorskip("networkx")
    xsub, ysub = blocks
    label = gr._element_label

    def edge_of(z):
        x = sigma.labels.index("x:" + label(toy, xsub.sift(z)))
        return x, sigma.labels.index("y:" + label(toy, ysub.sift(z)))

    lg = nx.line_graph(_nx_graph(nx, sigma))
    nodes = {tuple(sorted(e)) for e in lg.nodes}
    lg_edges = {frozenset((tuple(sorted(a)), tuple(sorted(b)))) for a, b in lg.edges}
    image = [edge_of(z) for z in range(gamma.vertex_count)]
    assert image == list(sigma.ends)
    assert len(set(image)) == len(image) == len(nodes)
    assert set(image) == nodes
    assert {frozenset((image[u], image[w])) for u, w in gamma.edges()} == lg_edges
