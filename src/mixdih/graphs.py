"""Desk-scale graphs over the layered two-letter groups.

Two constructions share the letter-block subgroups of a built group: the
Cayley graph on the inverse-closed union of the two blocks, and the
coset incidence graph whose vertices are the right cosets of the two
blocks and whose edges are indexed by group elements.  Everything here
materializes vertex sets, so entry points are capped at desk scale; the
full-size incidence graph is never built and all claims about it are
handled group-theoretically by the search module.

Vertices carry canonical string labels (sift residues in fixed-width
hex) so exported graph files are byte-stable.  Graphs are immutable once
built: construction is a flat sweep over vertices or group elements
followed by a validation pass, and every accessor works on frozen
tuples.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

from .calculus import LayeredMeta
from .morphisms import orbit
from .pcgroup import PcPresentation, Subgroup, subgroup_igs

MAX_EDGES = 1 << 20


class TooLarge(ValueError):
    """The requested construction exceeds the desk-scale caps."""


class SNotInverseClosed(ValueError):
    """Connection set is not closed under inversion."""


# ── graphs ───────────────────────────────────────────────────────────────────


@dataclass(frozen=True)
class SimpleGraph:
    """Immutable simple graph with canonical string labels.

    neighbors[i] is the strictly sorted tuple of vertices adjacent to i;
    the optional bipartition assigns 0/1 to every vertex and every edge
    must cross it.
    """

    labels: Tuple[str, ...]
    neighbors: Tuple[Tuple[int, ...], ...]
    bipartition: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        v = len(self.labels)
        if len(self.neighbors) != v:
            raise ValueError("neighbor table length differs from label count")
        if len(set(self.labels)) != v:
            raise ValueError("labels repeat")
        sets = [set(row) for row in self.neighbors]
        for i, row in enumerate(self.neighbors):
            if list(row) != sorted(set(row)):
                raise ValueError("neighbor rows must be sorted and duplicate-free")
            if i in sets[i]:
                raise ValueError("loop")
            for w in row:
                if not 0 <= w < v:
                    raise ValueError("neighbor index out of range")
                if i not in sets[w]:
                    raise ValueError("adjacency not symmetric")
        if self.bipartition is not None:
            if len(self.bipartition) != v or any(s not in (0, 1) for s in self.bipartition):
                raise ValueError("bipartition must assign 0/1 to every vertex")
            for i, row in enumerate(self.neighbors):
                for w in row:
                    if self.bipartition[i] == self.bipartition[w]:
                        raise ValueError("edge inside one part")

    @property
    def vertex_count(self) -> int:
        return len(self.labels)

    @property
    def edge_count(self) -> int:
        return sum(len(row) for row in self.neighbors) // 2

    @cached_property
    def label_index(self) -> Dict[str, int]:
        return {s: i for i, s in enumerate(self.labels)}

    def regular_valency(self) -> Optional[int]:
        """The common degree, or None if degrees differ (or no vertices)."""
        degs = {len(row) for row in self.neighbors}
        return degs.pop() if len(degs) == 1 else None

    def edges(self) -> List[Tuple[int, int]]:
        return [(u, w) for u, row in enumerate(self.neighbors) for w in row if u < w]

    def has_edge(self, u: int, w: int) -> bool:
        row = self.neighbors[u]
        lo, hi = 0, len(row)
        while lo < hi:
            mid = (lo + hi) // 2
            if row[mid] < w:
                lo = mid + 1
            else:
                hi = mid
        return lo < len(row) and row[lo] == w

    def is_connected(self) -> bool:
        return not self.labels or len(orbit([0], lambda u: self.neighbors[u])) == len(self.labels)

    def girth(self) -> Optional[int]:
        """Shortest cycle length, None for forests.

        One BFS per start vertex; a non-tree edge seen from start s closes
        a walk of length dist[u]+dist[w]+1 that contains a cycle no longer
        than itself, and every shortest cycle is found exactly from any of
        its own vertices, so the minimum over all starts is the girth.

        Each BFS stops at the first u with 2*dist[u]+1 >= best.  The edges
        from u and every later vertex close walks of length at least
        2*dist[u]+1: an edge back to a vertex one level up closes one of
        length 2*dist[u], but that edge was already seen from its upper
        end, when u was its neighbor at the next level.  So the cutoff
        loses no shorter cycle and the result stays exact.
        """
        best: Optional[int] = None
        v = len(self.labels)
        for s in range(v):
            dist = [-1] * v
            parent = [-1] * v
            dist[s] = 0
            queue = [s]
            for u in queue:
                du = dist[u]
                if best is not None and 2 * du + 1 >= best:
                    break
                for w in self.neighbors[u]:
                    if dist[w] < 0:
                        dist[w] = du + 1
                        parent[w] = u
                        queue.append(w)
                    elif parent[u] != w:
                        cand = du + dist[w] + 1
                        if best is None or cand < best:
                            best = cand
        return best


def make_graph(
    labels: Sequence[str],
    edges: Iterable[Tuple[int, int]],
    bipartition: Optional[Sequence[int]] = None,
) -> SimpleGraph:
    adj: List[Set[int]] = [set() for _ in labels]
    for u, w in edges:
        if u == w:
            raise ValueError("loop")
        adj[u].add(w)
        adj[w].add(u)
    return SimpleGraph(
        tuple(labels),
        tuple(tuple(sorted(s)) for s in adj),
        tuple(bipartition) if bipartition is not None else None,
    )


# ── vertex actions ───────────────────────────────────────────────────────────


Perms = Tuple[Tuple[int, ...], ...]


def action_gens(graph: SimpleGraph, perms: Iterable[Sequence[int]]) -> Perms:
    """The perms as image tuples, each checked to be a permutation of the
    vertex set that preserves adjacency; ValueError otherwise."""
    v = graph.vertex_count
    checked = []
    for p in perms:
        p = tuple(p)
        if sorted(p) != list(range(v)):
            raise ValueError("not a permutation of the vertex set")
        for u, row in enumerate(graph.neighbors):
            if {p[w] for w in row} != set(graph.neighbors[p[u]]):
                raise ValueError("permutation does not preserve adjacency")
        checked.append(p)
    return tuple(checked)


# ── constructions ────────────────────────────────────────────────────────────


def _element_label(group: PcPresentation, g: int) -> str:
    return format(g, "0%dx" % ((group.n + 3) // 4))


def cayley_graph(group: PcPresentation, connection: Iterable[int]) -> SimpleGraph:
    """Vertices the group elements, one edge {g, s*g} per element and s."""
    conn = sorted(set(connection))
    if group.n > 20:
        raise TooLarge("group order above 2**20")
    if 0 in conn:
        raise ValueError("identity in connection set")
    cset = set(conn)
    for s in conn:
        if group.inverse(s) not in cset:
            raise SNotInverseClosed(f"inverse of {_element_label(group, s)} missing")
    mul = group.multiply
    labels = [_element_label(group, g) for g in range(1 << group.n)]
    edges = []
    for g in range(1 << group.n):
        for s in conn:
            edges.append((g, mul(s, g)))
    return make_graph(labels, edges)


def letter_subgroups(group: PcPresentation) -> Tuple[Subgroup, Subgroup]:
    """The two letter-block subgroups of a layered group."""
    if not isinstance(group.meta, LayeredMeta):
        raise ValueError("letter blocks only exist on layered groups")
    n = group.meta.n
    xsub = subgroup_igs(group, [1 << i for i in range(n)])
    ysub = subgroup_igs(group, [1 << (n + i) for i in range(n)])
    return xsub, ysub


def letter_connection_set(group: PcPresentation) -> Tuple[int, ...]:
    """Union of the two letter blocks minus the identity.

    Letter products inside one block collect without correction terms, so
    the block elements are exactly the pure bitmasks of that block.
    """
    if not isinstance(group.meta, LayeredMeta):
        raise ValueError("letter blocks only exist on layered groups")
    n = group.meta.n
    xs = list(range(1, 1 << n))
    ys = [b << n for b in range(1, 1 << n)]
    return tuple(xs + ys)


def bicoset_graph(group: PcPresentation, xsub: Subgroup, ysub: Subgroup) -> SimpleGraph:
    """Coset incidence graph: one edge {xsub*z, ysub*z} per group element z.

    Cosets intersect exactly when they arise from a common z, and when the
    two subgroups meet trivially the element-to-edge map is a bijection.
    """
    if group.n > 20:
        raise TooLarge("group order above 2**20")
    if group.n - min(xsub.order_log, ysub.order_log) > 19:
        raise TooLarge("coset side above 2**19 vertices")
    x_of = [xsub.sift(z) for z in range(1 << group.n)]
    y_of = [ysub.sift(z) for z in range(1 << group.n)]
    x_reps = sorted(set(x_of))
    y_reps = sorted(set(y_of))
    x_index = {rep: i for i, rep in enumerate(x_reps)}
    y_index = {rep: len(x_reps) + i for i, rep in enumerate(y_reps)}
    labels = ["x:" + _element_label(group, r) for r in x_reps]
    labels += ["y:" + _element_label(group, r) for r in y_reps]
    edges = {(x_index[a], y_index[b]) for a, b in zip(x_of, y_of)}
    part = [0] * len(x_reps) + [1] * len(y_reps)
    return make_graph(labels, edges, part)


def line_graph(g: SimpleGraph) -> SimpleGraph:
    """Vertices the edges of g, adjacent when they share an endpoint."""
    edge_list = g.edges()
    if len(edge_list) > MAX_EDGES:
        raise TooLarge("edge count above 2**20")
    labels = [f"{g.labels[u]}|{g.labels[w]}" for u, w in edge_list]
    incident: List[List[int]] = [[] for _ in g.labels]
    for e, (u, w) in enumerate(edge_list):
        incident[u].append(e)
        incident[w].append(e)
    edges = set()
    for bundle in incident:
        for a in range(len(bundle)):
            for b in range(a + 1, len(bundle)):
                edges.add((bundle[a], bundle[b]))
    return make_graph(labels, edges)


def verify_line_graph_correspondence(
    group: PcPresentation,
    xsub: Subgroup,
    ysub: Subgroup,
    gamma: SimpleGraph,
    sigma: SimpleGraph,
) -> bool:
    """Check that z -> {xsub*z, ysub*z} identifies gamma, the Cayley graph
    on the letter connection set, with the line graph of sigma, the coset
    incidence graph.

    The check is exact: the map must be a bijection from Cayley vertices
    onto incidence edges and must carry neighborhoods onto neighborhoods.
    """
    lg = line_graph(sigma)
    lg_index = lg.label_index
    images = []
    for z in range(1 << group.n):
        key = "x:%s|y:%s" % (_element_label(group, xsub.sift(z)), _element_label(group, ysub.sift(z)))
        if key not in lg_index:
            return False
        images.append(lg_index[key])
    if len(set(images)) != lg.vertex_count:
        return False
    for g in range(gamma.vertex_count):
        if {images[h] for h in gamma.neighbors[g]} != set(lg.neighbors[images[g]]):
            return False
    return True


# ── quotients ────────────────────────────────────────────────────────────────


@dataclass(frozen=True)
class NormalQuotient:
    graph: SimpleGraph
    cover: bool


def normal_quotient(g: SimpleGraph, orbits: Sequence[Sequence[int]]) -> NormalQuotient:
    """Collapse each orbit to a vertex; cover iff the common valency survives."""
    seen: Set[int] = set()
    blocks = []
    for orbit in orbits:
        block = sorted(set(orbit))
        if not block or seen.intersection(block):
            raise ValueError("orbits must form a partition")
        seen.update(block)
        blocks.append(block)
    if len(seen) != g.vertex_count:
        raise ValueError("orbits must cover every vertex")
    blocks.sort(key=lambda b: b[0])
    block_of = {}
    for t, block in enumerate(blocks):
        for u in block:
            block_of[u] = t
    labels = [g.labels[block[0]] for block in blocks]
    edges = set()
    for u, w in g.edges():
        bu, bw = block_of[u], block_of[w]
        if bu != bw:
            edges.add((min(bu, bw), max(bu, bw)))
    part = None
    if g.bipartition is not None:
        sides = [sorted({g.bipartition[u] for u in block}) for block in blocks]
        if all(len(s) == 1 for s in sides):
            part = [s[0] for s in sides]
    quotient = make_graph(labels, edges, part)
    kq = quotient.regular_valency()
    cover = kq is not None and kq == g.regular_valency()
    return NormalQuotient(quotient, cover)


# ── orbit counting ───────────────────────────────────────────────────────────


def _moves(
    points: Sequence[Hashable], a: Perms, image: Callable[[Sequence[int], Hashable], Hashable]
) -> List[List[int]]:
    """Each vertex permutation p in a as a list over point numbers
    (positions in points): entry k is the number of image(p, points[k]).
    Raises ValueError when an image is not one of the points: the maps do
    not act on them."""
    number = {u: k for k, u in enumerate(points)}
    try:
        return [[number[image(p, u)] for u in points] for p in a]
    except KeyError:
        raise ValueError("a map sends a point outside the point set") from None


def _orbit_sets(count: int, moves: Sequence[Sequence[int]]) -> List[Set[int]]:
    """The orbits on point numbers 0..count-1 of the group generated by
    moves, in the order of their first point."""
    by_point = list(zip(*moves)) if moves else [()] * count
    seen: Set[int] = set()
    out: List[Set[int]] = []
    for k in range(count):
        if k not in seen:
            out.append(orbit([k], by_point.__getitem__))
            seen |= out[-1]
    return out


def _orbits(
    points: Sequence[Hashable], a: Perms, image: Callable[[Sequence[int], Hashable], Hashable]
) -> List[Set[int]]:
    """The orbits of the group generated by a on points, as sets of point
    numbers, in the order of their first point; image(p, u) is the image
    of the point u under the vertex permutation p.  The points are
    numbered once and each permutation becomes a list over point numbers
    (_moves), so the search runs on ints."""
    return _orbit_sets(len(points), _moves(points, a, image))


def vertex_orbits(g: SimpleGraph, a: Perms) -> List[List[int]]:
    """Orbits of the generated group on vertices, each sorted, in the order
    of their least vertex.  ValueError when a map leaves the vertex set."""
    return [sorted(o) for o in _orbits(range(g.vertex_count), a, lambda p, u: p[u])]


def two_arc_orbit_counts(g: SimpleGraph, a: Perms, b: Perms) -> Tuple[int, int]:
    """Orbit counts on ordered paths (u, v, w), u != w, of the group
    generated by a and of the one generated by a and b.  The 2-arcs are
    numbered and each map's move list is built once for both counts.
    ValueError when a map sends a 2-arc to a non-arc."""
    arcs = [
        (u, v, w)
        for v in range(g.vertex_count)
        for u in g.neighbors[v]
        for w in g.neighbors[v]
        if w != u
    ]
    moves = _moves(arcs, list(a) + list(b), lambda p, arc: (p[arc[0]], p[arc[1]], p[arc[2]]))
    return len(_orbit_sets(len(arcs), moves[: len(a)])), len(_orbit_sets(len(arcs), moves))


def edge_regular_check(g: SimpleGraph, a: Perms, expected_order: int) -> bool:
    """True iff the action is transitive on edges and |E| matches the order.

    Transitivity with |E| equal to the acting group's order pins the edge
    stabilizers to be trivial, which is the regularity being certified.
    ValueError when a map sends an edge to a non-edge.
    """
    edge_list = g.edges()
    if not edge_list:
        return expected_order == 0
    if len(edge_list) != expected_order:
        return False

    def image(p, edge):
        u, w = p[edge[0]], p[edge[1]]
        return (u, w) if u < w else (w, u)

    return len(_orbits(edge_list, a, image)) == 1


# ── group actions as vertex permutations ─────────────────────────────────────


def _parse_side_label(label: str) -> Tuple[str, int]:
    side, _, hexpart = label.partition(":")
    if side not in ("x", "y") or not hexpart:
        raise ValueError(f"not a coset label: {label!r}")
    return side, int(hexpart, 16)


def bicoset_translations(
    group: PcPresentation,
    xsub: Subgroup,
    ysub: Subgroup,
    graph: SimpleGraph,
    elements: Iterable[int],
) -> Perms:
    """Right translations on coset vertices of a bicoset graph."""
    mul = group.multiply
    index = graph.label_index
    sides = [_parse_side_label(s) for s in graph.labels]
    perms = []
    for w in elements:
        p = []
        for side, rep in sides:
            sub = xsub if side == "x" else ysub
            p.append(index[f"{side}:" + _element_label(group, sub.sift(mul(rep, w)))])
        perms.append(tuple(p))
    return action_gens(graph, perms)


def bicoset_automorphism_action(
    group: PcPresentation,
    xsub: Subgroup,
    ysub: Subgroup,
    graph: SimpleGraph,
    auts: Iterable,
) -> Perms:
    """Coset action of verified automorphisms that permute the two blocks."""
    index = graph.label_index
    sides = [_parse_side_label(s) for s in graph.labels]
    subs = {"x": xsub, "y": ysub}
    perms = []
    for aut in auts:
        image_side = {}
        for side, sub in subs.items():
            imgs = [aut.apply(m) for m in sub.members]
            if all(xsub.contains(v) for v in imgs):
                image_side[side] = "x"
            elif all(ysub.contains(v) for v in imgs):
                image_side[side] = "y"
            else:
                raise ValueError("automorphism does not permute the letter blocks")
        p = []
        for side, rep in sides:
            tside = image_side[side]
            nxt = subs[tside].sift(aut.apply(rep))
            p.append(index[f"{tside}:" + _element_label(group, nxt)])
        perms.append(tuple(p))
    return action_gens(graph, perms)


# ── cliques ──────────────────────────────────────────────────────────────────


def maximal_cliques(g: SimpleGraph) -> List[frozenset]:
    """All maximal cliques (pivoting Bron-Kerbosch), for desk-scale graphs."""
    nb = [set(row) for row in g.neighbors]
    out: List[frozenset] = []

    def expand(r: Set[int], p: Set[int], x: Set[int]) -> None:
        if not p and not x:
            out.append(frozenset(r))
            return
        pivot = max(p | x, key=lambda u: len(p & nb[u]))
        for v in list(p - nb[pivot]):
            expand(r | {v}, p & nb[v], x & nb[v])
            p.discard(v)
            x.add(v)

    expand(set(), set(range(g.vertex_count)), set())
    return out


def cliques_are_letter_cosets(
    group: PcPresentation, xsub: Subgroup, ysub: Subgroup, gamma: SimpleGraph
) -> bool:
    """Exhaustive check that the maximal cliques of the Cayley graph are
    exactly the right cosets of the two letter blocks."""
    mul = group.multiply
    xs = xsub.elements()
    ys = ysub.elements()
    expected = set()
    for z in range(1 << group.n):
        expected.add(frozenset(mul(x, z) for x in xs))
        expected.add(frozenset(mul(y, z) for y in ys))
    return set(maximal_cliques(gamma)) == expected


# ── export ───────────────────────────────────────────────────────────────────


def format_graph(g: SimpleGraph) -> str:
    """Adjacency text: "v_count e_count" header then one "u v" line per edge."""
    lines = [f"{g.vertex_count} {g.edge_count}"]
    for u, w in g.edges():
        lines.append(f"{g.labels[u]} {g.labels[w]}")
    return "\n".join(lines) + "\n"


def write_graph(g: SimpleGraph, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_graph(g))
