"""Desk-scale graphs over the layered two-letter groups.

Two constructions share the letter-block subgroups of a built group: the
Cayley graph on the inverse-closed union of the two blocks, and the
coset incidence graph whose vertices are the right cosets of the two
blocks and whose edges are indexed by group elements.  The constructions
materialize vertex sets, so they are capped at desk scale; the
full-size incidence graph is never built and all claims about it are
handled group-theoretically by the search module.

Vertices carry canonical string labels (sift residues in fixed-width
hex) so exported graph files are byte-stable.  A coset vertex is
numbered by its side and its sift residue, labelled "x:3c" or "y:1f";
labels are written once, for export, and cosets are read from the
incidence graph's element-to-edge map (BicosetGraph.ends), which
bicoset_graph builds with the only sifts here.  One coset action
(bicoset_action) turns any map on group elements that permutes the
block cosets, a right translation or an automorphism, into a vertex
permutation.  The line-graph claim is checked by counting, with no line
graph built, and the clique claim is proved from the letter blocks
(cliques_are_letter_cosets), with no graph built and no clique search.
Graphs are immutable once built: construction is a flat sweep over
vertices or group elements followed by a validation pass, and every
accessor works on frozen tuples.
"""

from bisect import bisect_left
from typing import Callable, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

from .calculus import LayeredMeta
from .morphisms import orbit
from .pcgroup import PcPresentation, Subgroup, small_intersection_order, subgroup_igs


class TooLarge(ValueError):
    """The requested construction exceeds the desk-scale caps."""


class SNotInverseClosed(ValueError):
    """Connection set is not closed under inversion."""


# ── graphs ───────────────────────────────────────────────────────────────────


class SimpleGraph:
    """Immutable simple graph with canonical string labels.

    neighbors[i] is the strictly sorted tuple of vertices adjacent to i;
    the optional bipartition assigns 0/1 to every vertex and every edge
    must cross it.  Assigning to an attribute raises AttributeError.
    """

    def __init__(
        self,
        labels: Tuple[str, ...],
        neighbors: Tuple[Tuple[int, ...], ...],
        bipartition: Optional[Tuple[int, ...]] = None,
    ):
        vars(self).update(labels=labels, neighbors=neighbors, bipartition=bipartition)
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

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def vertex_count(self) -> int:
        return len(self.labels)

    @property
    def edge_count(self) -> int:
        return sum(len(row) for row in self.neighbors) // 2

    def regular_valency(self) -> Optional[int]:
        """The common degree, or None if degrees differ (or no vertices)."""
        degs = {len(row) for row in self.neighbors}
        return degs.pop() if len(degs) == 1 else None

    def edges(self) -> List[Tuple[int, int]]:
        return [(u, w) for u, row in enumerate(self.neighbors) for w in row if u < w]

    def has_edge(self, u: int, w: int) -> bool:
        row = self.neighbors[u]
        k = bisect_left(row, w)
        return k < len(row) and row[k] == w

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


def _coset_label(group: PcPresentation, side: int, residue: int) -> str:
    """The label of a coset vertex: side 0 is the x block, side 1 the y
    block, and residue the coset's sift residue."""
    return "xy"[side] + ":" + _element_label(group, residue)


class BicosetGraph(SimpleGraph):
    """A coset incidence graph with its element-to-edge map: ends[z] is
    the vertex pair (xsub*z, ysub*z) of the edge that element z indexes.

    The map is kept as built, not validated here;
    verify_line_graph_correspondence checks it against the edges.
    """

    def __init__(
        self,
        labels: Tuple[str, ...],
        neighbors: Tuple[Tuple[int, ...], ...],
        bipartition: Optional[Tuple[int, ...]] = None,
        ends: Tuple[Tuple[int, int], ...] = (),
    ):
        super().__init__(labels, neighbors, bipartition)
        vars(self)["ends"] = ends


def bicoset_graph(group: PcPresentation, xsub: Subgroup, ysub: Subgroup) -> BicosetGraph:
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
    labels = [_coset_label(group, 0, r) for r in x_reps]
    labels += [_coset_label(group, 1, r) for r in y_reps]
    ends = tuple((x_index[a], y_index[b]) for a, b in zip(x_of, y_of))
    g = make_graph(labels, ends, [0] * len(x_reps) + [1] * len(y_reps))
    return BicosetGraph(g.labels, g.neighbors, g.bipartition, ends)


def _cosets(graph: BicosetGraph) -> List[List[int]]:
    """Each vertex's coset: the elements whose edges end at it, ascending."""
    cosets: List[List[int]] = [[] for _ in range(graph.vertex_count)]
    for z, pair in enumerate(graph.ends):
        for v in pair:
            cosets[v].append(z)
    return cosets


def verify_line_graph_correspondence(gamma: SimpleGraph, sigma: BicosetGraph) -> bool:
    """Check that sigma's element-to-edge map z -> {xsub*z, ysub*z}
    identifies gamma, the Cayley graph on the letter connection set, with
    the line graph of sigma, the coset incidence graph, without building
    the line graph.

    The map must be a bijection from the vertices of gamma onto the edges
    of sigma, every edge of gamma must go to two edges of sigma that share
    an endpoint, and |E(gamma)| must equal the sum over the vertices v of
    sigma of C(deg v, 2), the edge count of the line graph.  A vertex
    bijection that carries edges to edges, between graphs with equal edge
    counts, carries the edges onto the edges, so the check is exact.
    """
    ends = sigma.ends
    if gamma.vertex_count != len(ends) or not all(sigma.has_edge(u, w) for u, w in ends):
        return False
    if not len(set(ends)) == len(ends) == sigma.edge_count:
        return False
    for g, h in gamma.edges():
        if not set(ends[g]) & set(ends[h]):
            return False
    return gamma.edge_count == sum(len(row) * (len(row) - 1) // 2 for row in sigma.neighbors)


# ── quotients ────────────────────────────────────────────────────────────────


def normal_quotient(g: SimpleGraph, a: Perms) -> SimpleGraph:
    """The graph on the orbits of the group the vertex permutations a
    generate, each orbit labelled by its least vertex, two orbits adjacent
    when an edge joins them.  The bipartition survives when no orbit meets
    both parts.  ValueError when a map does not permute the vertex set."""
    orbits = vertex_orbits(g, a)
    block_of = {u: t for t, o in enumerate(orbits) for u in o}
    edges = {(block_of[u], block_of[w]) for u, w in g.edges() if block_of[u] != block_of[w]}
    side = g.bipartition
    part = None
    if side is not None and all(side[u] == side[o[0]] for o in orbits for u in o):
        part = [side[o[0]] for o in orbits]
    return make_graph([g.labels[o[0]] for o in orbits], edges, part)


# ── orbit counting ───────────────────────────────────────────────────────────


def _moves(
    points: Sequence[Hashable], a: Perms, image: Callable[[Sequence[int], Hashable], Hashable]
) -> List[List[int]]:
    """Each vertex permutation p in a as a list over point numbers
    (positions in points): entry k is the number of image(p, points[k]).
    Raises ValueError when a list is not a permutation of the point
    numbers, so the map does not permute the points: an image is not one
    of the points, or two points share an image."""
    number = {u: k for k, u in enumerate(points)}
    try:
        moves = [[number[image(p, u)] for u in points] for p in a]
    except KeyError:
        raise ValueError("a map sends a point outside the point set") from None
    if any(len(set(move)) != len(move) for move in moves):
        raise ValueError("a map sends two points to one")
    return moves


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


def vertex_orbits(g: SimpleGraph, a: Perms) -> List[List[int]]:
    """Orbits of the generated group on vertices, each sorted, in the order
    of their least vertex.  ValueError when a map does not permute the
    vertex set."""
    v = g.vertex_count
    return [sorted(o) for o in _orbit_sets(v, _moves(range(v), a, lambda p, u: p[u]))]


def two_arc_orbit_counts(g: SimpleGraph, a: Perms, b: Perms) -> Tuple[int, int]:
    """Orbit counts on ordered paths (u, v, w), u != w, of the group
    generated by a and of the one generated by a and b.  The 2-arcs are
    numbered and each map's move list is built once for both counts.
    ValueError when a map does not permute the 2-arcs."""
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
    ValueError when a map does not permute the edges.
    """
    edge_list = g.edges()
    if not edge_list:
        return expected_order == 0
    if len(edge_list) != expected_order:
        return False

    def image(p, edge):
        u, w = p[edge[0]], p[edge[1]]
        return (u, w) if u < w else (w, u)

    return len(_orbit_sets(len(edge_list), _moves(edge_list, a, image))) == 1


# ── group actions as vertex permutations ─────────────────────────────────────


def bicoset_action(graph: BicosetGraph, maps: Iterable[Callable[[int], int]]) -> Perms:
    """The vertex permutations of a bicoset graph induced by maps on group
    elements, each a right translation z -> z*w or an automorphism's apply.

    The block on side s is the set of elements whose edges share the end
    ends[0][s].  A map f sends it to the side t on which every f(m), m in
    the block, has the same end: the block itself for a translation, f's
    image of it for an automorphism.  The coset vertex v, holding z, then
    goes to ends[f(z)][t].  ValueError when no side fits, or (from
    action_gens) when the result is not an automorphism of the graph.
    """
    ends = graph.ends
    cosets = _cosets(graph)
    blocks = [cosets[v] for v in ends[0]]
    perms = []
    for f in maps:
        side = []
        for block in blocks:
            for t in (0, 1):
                if len({ends[f(m)][t] for m in block}) == 1:
                    side.append(t)
                    break
            else:
                raise ValueError("map does not permute the letter block cosets")
        perms.append(tuple(ends[f(c[0])][side[s]] for s, c in zip(graph.bipartition, cosets)))
    return action_gens(graph, perms)


# ── cliques ──────────────────────────────────────────────────────────────────


def cliques_are_letter_cosets(group: PcPresentation) -> bool:
    """True when the maximal cliques of the Cayley graph on the letter
    connection set S are the right cosets of the letter blocks X and Y.

    Checked are the two facts the proof needs: S = (X | Y) - 1, and X
    meets Y trivially.  Vertices a and b are adjacent when a*b^-1 is in
    S.  Take s in X - 1 and t in Y - 1: were s*t^-1 in X, t would lie in
    X, and were it in Y, s would lie in Y, so it is not in S, and no
    clique through 1 meets both blocks.  Each block is a clique, so the
    maximal cliques through 1 are X and Y.  Right translations are
    automorphisms that act transitively, so those through g are X*g and
    Y*g.
    """
    xsub, ysub = letter_subgroups(group)
    blocks = set(xsub.elements()) | set(ysub.elements())
    if set(letter_connection_set(group)) != blocks - {0}:
        return False
    return small_intersection_order(group, xsub, ysub) == 1


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
