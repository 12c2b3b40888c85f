"""Class-3 commutator calculus over GF(2) and the groups built from it.

The free object F(n) here has involutive generators x_1..x_n, y_1..y_n,
is nilpotent of class 3, and has exponent-2 layers:

  layer 1   x-bits (n) and y-bits (n)
  layer 2   c_{ij} = [x_i, y_j]                       (n*n bits)
  layer 3   [[x_i,y_j], x_k] with i < k, j-major, then
            [[x_i,y_j], y_l] with j < l, i-major      (2n * C(n,2) bits)

_d_columns(n) is that layer-3 column list, and the only statement of it.
Layer-3 identities used throughout: [[x_i,y_j],x_i] = [[x_i,y_j],y_j] = 1,
[[x_i,y_j],x_k] = [[x_k,y_j],x_i] and [[x_i,y_j],y_l] = [[x_i,y_l],y_j].
Elements are packed ints: a-bits, then b-bits (the y exponents), then the
c layer row-major, then whatever survives of layer 3 after reduction.

F(4) itself (free_group), h56 and toy2 are layered pc presentations:
quotients of F(n) by a subspace of the central layer 3, whose complement
coordinates are their layer-3 generators.  For h56 that subspace is
relation_space(), the reduced echelon basis of the twist orbit of the
two defining relations; toy2 kills all of layer 3.  The reduced conjugates
[[x_i,y_j],x_k] and [[x_i,y_j],y_l] fill both the conj table and the
closed-form multiply's tables.

A letter map phi fixes the image of every generator: c_{ij} must go to
[phi x_i, phi y_j] and each layer-3 generator to one more bracket with
phi x_k or phi y_l.  generator_images forces those images, and it is the
only code that does: extend, the split extensions h:S by letter maps
(split_extension, p59 = h56:<r>) and the twist orbit of the relations
(relation_space) all take their images from it.  The c-layer images come
from the group's own commutator.  They are commutators, so they lie in
the tail (see pcgroup), and each layer-3 image is [t, h] = t ^ t**h for
such a t, read by the group's tail_conjugate with no multiply.  The
twist r is the letter map TWIST_LETTERS, x_i -> y_i and y_i ->
x_{sigma(i)} with sigma = SIG, a single 8-cycle on the letters.

Multiplication is closed form.  Writing u = (a1,b1,g1,d1), v = (a2,b2,g2,d2):

  a = a1+a2,  b = b1+b2,  g = g1+g2+(a2 outer b1),
  d = d1+d2 + T_A + T_B + T_C

where the layer-3 corrections come from commuting v's x-part leftwards past
u's c-layer and y-part, and v's y-part past the c-layer it lands under:

  T_A = sum_{(i,j) in g1, k in a2}        [[x_i,y_j],x_k]
  T_B = sum_{k in a2, {j<l} in b1}        [[x_k,y_j],y_l]
      + sum_{{k<k'} in a2, j in b1}       [[x_k,y_j],x_k']
  T_C = sum_{(i,j) in g1+(a2 outer b1), l in b2}  [[x_i,y_j],y_l]

Holt, Eick and O'Brien, Handbook of Computational Group Theory (2005),
ch. 8-9, treat free nilpotent quotients such as F(n) as pc presentations
in this way.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, List, Sequence, Tuple

from .gf2linalg import echelon_ints, echelon_reduce, echelon_start, lowbit_index, sliced_apply, sliced_tables, word_bits
from .pcgroup import PcPresentation

__all__ = [
    "free_group",
    "parse_word",
    "expand_relations",
    "relation_space",
    "build_h56",
    "build_p59",
    "build_toy",
    "generator_images",
    "homomorphism_table",
    "split_extension",
]

# the order-8 cycle acting on generator subscripts, 0-based images
SIG = (1, 3, 0, 2)
# the twist r as a letter map of the 4+4 groups: x_i -> y_i, y_i -> x_sigma(i)
TWIST_LETTERS = tuple(1 << (4 + i) for i in range(4)) + tuple(1 << s for s in SIG)


# ── layer-3 coordinates ─────────────────────────────────────────────────────


@lru_cache(maxsize=None)
def _d_columns(n: int) -> Tuple[Tuple[str, int, int, int], ...]:
    """The layer-3 coordinates of F(n) in column order, 0-based: first
    [[x_i,y_j],x_k] as ('x', i, j, k) with i < k, j-major over the pairs,
    then [[x_i,y_j],y_l] as ('y', i, j, l) with j < l, i-major."""
    pairs = [(p, q) for p in range(n) for q in range(p + 1, n)]
    return tuple(("x", i, j, k) for j in range(n) for i, k in pairs) + tuple(
        ("y", i, j, l) for i in range(n) for j, l in pairs
    )


# ── multiplication tables ───────────────────────────────────────────────────


def _make_mul(n: int, ax: Sequence[Sequence[int]], by: Sequence[Sequence[int]]) -> Callable[[int, int], int]:
    """The closed-form multiply of a layered presentation.

    ax[k][cell] and by[l][cell] are the packed layer-3 words of
    [[x_i,y_j],x_k] and [[x_i,y_j],y_l], cell = n*i + j: the conjugates
    the presentation's conj table holds.  Every correction table is
    indexed by letter words and is an XOR of those entries:

      OUTER[a2][b1]  c-mask of {(i,j) : i in a2, j in b1}
      TB[a2][b1]     a2 crossing b1: by[j_t][n*k + j_s] over k in a2 and
                     j_s < j_t in b1, and ax[a_t][n*a_s + j] over
                     a_s < a_t in a2 and j in b1
      TA[a2], TC[b2] linear in the c layer: the sliced_tables of the
                     c-bit images ax[k] XORed over the letters k of a2
                     (by[l] over l in b2), 16 entries per 4 bits, so the
                     multiply applies each with one sliced_apply
    """
    amask = (1 << n) - 1
    c_dim = n * n
    cmask = (1 << c_dim) - 1
    c_off = 2 * n
    d_off = c_off + c_dim

    def crossing(a2: int, b1: int) -> int:
        ai, bj = word_bits(a2), word_bits(b1)
        m = 0
        for s, js in enumerate(bj):
            for jt in bj[s + 1 :]:
                for k in ai:
                    m ^= by[jt][n * k + js]
        for s, a_s in enumerate(ai):
            for a_t in ai[s + 1 :]:
                for j in bj:
                    m ^= ax[a_t][n * a_s + j]
        return m

    def outer(a2: int, b1: int) -> int:
        return sum(1 << (n * i + j) for i in word_bits(a2) for j in word_bits(b1))

    letter_words = range(1 << n)
    OUTER = [[outer(a2, b1) for b1 in letter_words] for a2 in letter_words]
    TB = [[crossing(a2, b1) for b1 in letter_words] for a2 in letter_words]

    def word_tables(per_letter):
        # c-bit images of each letter word, in index order, by doubling
        words = [[0] * c_dim]
        for letter in per_letter:
            words += [[m ^ x for m, x in zip(w, letter)] for w in words]
        return [sliced_tables(images, 4) for images in words]

    TA, TC = word_tables(ax), word_tables(by)

    def mul(u: int, v: int) -> int:
        a2 = v & amask
        b1 = (u >> n) & amask
        g1 = (u >> c_off) & cmask
        d = (u >> d_off) ^ (v >> d_off)
        if a2:
            q = OUTER[a2][b1]
            corr = TB[a2][b1]
            if g1:
                corr ^= sliced_apply(TA[a2], g1, 4)
        else:
            q = 0
            corr = 0
        gm = g1 ^ q
        b2 = (v >> n) & amask
        if b2 and gm:
            corr ^= sliced_apply(TC[b2], gm, 4)
        return (
            ((u & amask) ^ a2)
            | ((b1 ^ b2) << n)
            | ((gm ^ ((v >> c_off) & cmask)) << c_off)
            | ((d ^ corr) << d_off)
        )

    return mul


# ── the free object on 4+4 generators ───────────────────────────────────────


@lru_cache(maxsize=None)
def free_group() -> PcPresentation:
    """F(4) as a layered pc presentation: no relations, 72 generators.

    Words pack as a | b << 4 | c << 8 | d << 24, with the 48 d bits in
    the layer-3 column order of _d_columns(4), all of which it keeps.
    """
    return _layered_presentation(4, (), "F4")


def parse_word(group: PcPresentation, text: str) -> int:
    """Product of letter generators written like 'x3*y1' in a layered
    group; '1' is the identity."""
    out = 0
    lookup = {name: t for t, name in enumerate(group.names[: 2 * group.meta.n])}
    for token in text.replace(" ", "").split("*"):
        if token == "1":
            continue
        if token not in lookup:
            raise ValueError(f"unknown generator {token!r}")
        out = group.multiply(out, 1 << lookup[token])
    return out


# ── the defining relations ──────────────────────────────────────────────────

_X = "x1*x2*x3*x4"
_Y = "y1*y2*y3*y4"

# each relation is (left factors, right factors), every factor a triple
# commutator [[u, v], w] given by its three words
_RELATION_TRIPLES = (
    (
        [(_X, "y1", "x1"), ("y1", "x1", "y2"), ("x1", "y2", "x3"),
         ("y2", "x3", "y4"), ("x3", "y4", "x2"), ("y4", "x2", "y3")],
        [("x2", "y3", _X), ("y3", _X, "y1")],
    ),
    (
        [("x4", "y2", _X), ("y2", _X, "y3"), (_X, "y3", "x2"),
         ("y3", "x2", _Y), ("x2", _Y, "x1")],
        [(_Y, "x1", "y4"), ("x1", "y4", "x4"), ("y4", "x4", "y2")],
    ),
)


def expand_relations() -> List[int]:
    """The two defining relation vectors, as rows in layer-3 coordinates."""
    f = free_group()
    d_off = f.meta.d_off
    rows = []
    for left, right in _RELATION_TRIPLES:
        def side(factors):
            acc = 0
            for u, v, w in factors:
                t = f.commutator(f.commutator(parse_word(f, u), parse_word(f, v)), parse_word(f, w))
                acc = f.multiply(acc, t)
            return acc

        diff = f.multiply(side(left), f.inverse(side(right)))
        if diff & ((1 << d_off) - 1):
            raise AssertionError("relation difference not in layer 3")
        rows.append(diff >> d_off)
    return rows


# ── relation subspace ───────────────────────────────────────────────────────


@lru_cache(maxsize=None)
def relation_space() -> Tuple[int, ...]:
    """The span of the twist orbit of the defining relations, as its
    reduced echelon basis in layer-3 coordinates: the pivot of a row is
    its lowest bit (lowbit_index), pivots strictly increase, and each is
    cleared in every other row."""
    f = free_group()
    d_off = f.meta.d_off
    twist = sliced_tables([w >> d_off for w in generator_images(f, TWIST_LETTERS)[d_off:]], 4)
    rows = []
    for row in expand_relations():
        v = row
        for _ in range(8):
            rows.append(v)
            v = sliced_apply(twist, v, 4)
        if v != row:
            raise AssertionError("twist on layer 3 does not have order dividing 8")
    return tuple(echelon_ints(rows)[0])


# ── pc presentation builders ────────────────────────────────────────────────


class LayeredMeta:
    """Attached to layered pc presentations; geometry of the coordinates."""

    def __init__(self, n: int, d_desc: Tuple[Tuple[str, int, int, int], ...]):
        self.n = n
        self.d_desc = d_desc

    def __repr__(self) -> str:
        return f"LayeredMeta(n={self.n!r}, d_desc={self.d_desc!r})"

    @property
    def d_off(self) -> int:
        return 2 * self.n + self.n * self.n


def _layered_presentation(n: int, relation_rows: Sequence[int], label: str) -> PcPresentation:
    """Quotient of F(n) by the central subspace spanned by relation_rows.

    ax[k][cell] is reduce_full of [[x_i,y_j],x_k] and by[l][cell] that of
    [[x_i,y_j],y_l], cell = n*i + j, and 0 where the bracket collapses.
    They make the conj table's c-layer entries and the multiply's tables.
    """
    cols = _d_columns(n)
    col_of = {desc: c for c, desc in enumerate(cols)}
    basis, pivots = echelon_ints(list(relation_rows))
    piv_set = set(pivots)
    d_cols = tuple(c for c in range(len(cols)) if c not in piv_set)
    col_pos = {c: t for t, c in enumerate(d_cols)}
    start = echelon_start(basis)

    def reduce_full(mask: int) -> int:
        res = echelon_reduce(start, mask)
        out = 0
        while res:
            low = res & -res
            out |= 1 << col_pos[low.bit_length() - 1]
            res ^= low
        return out

    def bracket(kind: str, i: int, j: int, k: int) -> int:
        # [[x_i,y_j],x_k] = [[x_k,y_j],x_i] and [[x_i,y_j],y_l] = [[x_i,y_l],y_j];
        # a bracket with no column (i == k, or j == l) collapses to 0
        key = ("x", min(i, k), j, max(i, k)) if kind == "x" else ("y", i, min(j, k), max(j, k))
        c = col_of.get(key)
        return 0 if c is None else reduce_full(1 << c)

    c_dim = n * n
    ngen = 2 * n + c_dim + len(d_cols)
    c_off = 2 * n
    d_off = c_off + c_dim
    cells = [divmod(cell, n) for cell in range(c_dim)]
    ax = [[bracket("x", i, j, k) for i, j in cells] for k in range(n)]
    by = [[bracket("y", i, j, l) for i, j in cells] for l in range(n)]
    # y_j ** x_i = y_j * c_ij
    conj: Dict[Tuple[int, int], int] = {
        (n + j, i): (1 << (n + j)) | (1 << (c_off + cell)) for cell, (i, j) in enumerate(cells)
    }
    for cell in range(c_dim):
        cg = c_off + cell
        for k in range(n):
            if ax[k][cell]:
                conj[(cg, k)] = (1 << cg) | (ax[k][cell] << d_off)
            if by[k][cell]:
                conj[(cg, n + k)] = (1 << cg) | (by[k][cell] << d_off)
    names = [f"x{i+1}" for i in range(n)] + [f"y{j+1}" for j in range(n)]
    names += [f"c{i+1}{j+1}" for i in range(n) for j in range(n)]
    d_desc = tuple(cols[c] for c in d_cols)
    names += [f"d_x{i+1}y{j+1}{kind}{k+1}" for kind, i, j, k in d_desc]
    meta = LayeredMeta(n=n, d_desc=d_desc)
    mul = _make_mul(n, ax, by)

    def inv(u: int) -> int:
        # u**2 lies in the elementary abelian layers above the letters,
        # so u**4 = 1 and u**-1 = u**3
        return mul(mul(u, u), u)

    return PcPresentation(
        ngen,
        [0] * ngen,
        conj,
        names=names,
        fast_mul=mul,
        fast_inv=inv,
        meta=meta,
        label=label,
    )


def build_h56() -> PcPresentation:
    """The mixed-dihedral quotient of F(4): order 2**56."""
    return _layered_presentation(4, relation_space(), "h56")


def build_toy() -> PcPresentation:
    """The 2+2 analogue with all of layer 3 killed: order 2**8, class 2."""
    return _layered_presentation(2, [1 << t for t in range(len(_d_columns(2)))], "toy2")


# ── letter maps, automorphism tables, conjugation by the twist ──────────────


def generator_images(group: PcPresentation, letter_images: Sequence[int]) -> List[int]:
    """The image of every generator of a layered group under a letter map.

    letter_images are the images of x_1..x_n, y_1..y_n.  A homomorphism
    must send c_{ij} = [x_i, y_j] to the commutator of the images of x_i
    and y_j, and the layer-3 generator [[x_i,y_j],x_k] (or y_l) to the
    commutator of that image with the image h of x_k (or y_l).  The
    group's own commutator computes the first.  The second brackets a
    commutator t, which has no letter bits and so is a tail word, and
    [t, h] = t^-1 t**h = t ^ tail_conjugate(t, h).  Nothing is verified
    here: extend checks the relations against these images.
    """
    meta: LayeredMeta = group.meta
    n = meta.n
    comm, tail_conjugate = group.commutator, group.tail_conjugate
    images = list(letter_images)
    for i in range(n):
        for j in range(n):
            images.append(comm(images[i], images[n + j]))
    for kind, i, j, k in meta.d_desc:
        c = images[2 * n + n * i + j]
        images.append(c ^ tail_conjugate(c, images[k] if kind == "x" else images[n + k]))
    if len(images) != group.n:
        raise AssertionError("image closure out of step with the presentation")
    return images


def homomorphism_table(mul: Callable[[int, int], int], images: Sequence[int], bits: int) -> List[int]:
    """Lookup tables for the homomorphism sending generator k to images[k],
    applied by sliced_apply(table, w, bits).

    The first `bits` generators are the letters; every image of a later
    generator must lie in the tail, where the map is GF(2)-linear and a
    right factor is XOR.  Slice 0 holds the 2**bits products of the letter
    images in index order, built by one multiply each; the later slices
    are the sliced_tables of the images above the letters.
    """
    letters = [0]
    for image in images[:bits]:
        letters += [mul(x, image) for x in letters]
    return letters + sliced_tables(images[bits:], bits)


class ExtensionMeta:
    """Attached to a split extension h:S: base is h, and letter_maps[s] is
    the letter map of the element of S with exponent word s."""

    def __init__(self, base: PcPresentation, letter_maps: List[Tuple[int, ...]]):
        self.base = base
        self.letter_maps = letter_maps

    def __repr__(self) -> str:
        return f"ExtensionMeta(base={self.base!r}, letter_maps={self.letter_maps!r})"


def split_extension(
    h: PcPresentation, letter_maps: Sequence[Sequence[int]], names: Sequence[str], label: str
) -> PcPresentation:
    """h:S for a layered group h and the group S of letter maps that the
    pc sequence letter_maps = s_1..s_k generates.  The element s * w has
    S's exponent word s at indices 0..k-1 and h's word w shifted by k; with
    alpha_s conjugation by s, (s w)(t v) = st * alpha_t(w) * v and
    (s w)**-1 = s**-1 * alpha_{s**-1}(w**-1).  Each s_i goes through
    generator_images once, doubling over exponent words (alpha_{s s_i} =
    alpha_{s_i} o alpha_s) gives the other elements their images, and each
    nonidentity element has one homomorphism_table.  S's product table
    matches letter maps.  ValueError when the 2**k maps repeat, are not
    closed, or give an s_i a power or conjugate outside s_{i+1}..s_k."""
    k, bits, hmul, hinv = len(letter_maps), 2 * h.meta.n, h.multiply, h.inverse
    gens = [generator_images(h, letters) for letters in letter_maps]
    images, tables = [[1 << t for t in range(h.n)]], [None]
    for gen in gens:
        table = homomorphism_table(hmul, gen, bits)
        new = [gen] + [[sliced_apply(table, w, bits) for w in imgs] for imgs in images[1:]]
        tables += [table] + [homomorphism_table(hmul, imgs, bits) for imgs in new[1:]]
        images += new
    letters = [tuple(imgs[:bits]) for imgs in images]
    word_of = {lt: s for s, lt in enumerate(letters)}
    products = [
        [s] + [word_of.get(tuple(sliced_apply(table, w, bits) for w in lt)) for table in tables[1:]]
        for s, lt in enumerate(letters)
    ]
    if len(word_of) != len(letters) or any(None in row for row in products):
        raise ValueError("the letter maps are not a pc sequence: their words repeat or are not closed")
    inverse = [row.index(0) for row in products]
    ptails = [products[1 << i][1 << i] for i in range(k)] + [w << k for w in h.power_tails]
    conj: Dict[Tuple[int, int], int] = {(j + k, i + k): w << k for (j, i), w in h.conj.items()}
    conj.update({(t + k, i): img << k for i, gen in enumerate(gens) for t, img in enumerate(gen)})
    conj.update({(j, i): products[inverse[1 << i]][products[1 << j][1 << i]] for j in range(k) for i in range(j)})
    smask = (1 << k) - 1

    def mul(u: int, v: int) -> int:
        t = v & smask
        w = sliced_apply(tables[t], u >> k, bits) if t else u >> k
        return products[u & smask][t] | (hmul(w, v >> k) << k)

    def inv(u: int) -> int:
        s, w = inverse[u & smask], hinv(u >> k)
        return s | ((sliced_apply(tables[s], w, bits) if s else w) << k)

    meta = ExtensionMeta(h, letters)
    return PcPresentation(k + h.n, ptails, conj, [*names, *h.names], mul, inv, meta, label)


def build_p59(h: PcPresentation) -> PcPresentation:
    """h56:<r>, order 2**59, by r, r**2 and r**4: r**e * w has e in its low three bits."""
    rho2 = tuple(TWIST_LETTERS[lowbit_index(w)] for w in TWIST_LETTERS)
    rho4 = tuple(rho2[lowbit_index(w)] for w in rho2)
    return split_extension(h, [TWIST_LETTERS, rho2, rho4], ["r", "r2", "r4"], "p59")
