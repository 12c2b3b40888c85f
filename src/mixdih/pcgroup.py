"""Polycyclic presentation engine for finite 2-groups.

Every group here is given by generators g_0..g_{n-1}, each of relative
order 2, with a power word for each square g_i**2 and a conjugate word for
each g_j**g_i (i < j).  Words are exponent bit-vectors: bit k of an int is
the exponent of g_k, and the normal form of an element is the product of
its generators in increasing index order.  Power words are supported on
indices > i; conjugate words may touch any index > i (the conjugating
generator), which is what a permutation-style action needs.

Multiplication is collection from the left with an explicit stack of words.
Builders may install a structure-backed fast multiply and a closed-form
inverse; the collector and repeated squaring stay available as the
reference implementations, and the collector is what the consistency
sweep uses.

The tail of a presentation is its last layers g_k..g_{n-1}, for the
least k at which they have zero power words, commute pairwise and
conjugate into themselves: an elementary abelian normal subgroup.  In
the layered groups it is the c and d layers.  A word w splits as
top(w) * tail(w), its bits below and above k, so the subgroup
arithmetic takes three shortcuts there:

* right-multiplying by a tail word t is XOR, w*t = top(w) * (tail(w) ^ t),
  and a tail word is its own inverse; sifting, once the word being
  divided lies in the tail, is XOR too;
* conjugation by g is linear on the tail and depends only on top(g):
  t -> g^-1 t g reads the conjugation table bit by bit, under each top
  generator of g in turn (PcPresentation.tail_conjugate); a commutator
  with a tail word t is t ^ t**g, and a tail overlap's sides in the
  consistency sweep and the tail blocks of the relations are read the
  same way;
* the multiply stays for products that involve the top.

Holt, Eick and O'Brien, Handbook of Computational Group Theory (2005),
ch. 8, treat each layer of a pc series as a GF(2)-module in this way.
"""

from __future__ import annotations

from itertools import islice
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .gf2linalg import EchelonStart, echelon_extend, echelon_ints, echelon_start, lowbit_index, pivot_reach, word_bits

__all__ = [
    "PcPresentation",
    "Subgroup",
    "ProductMemo",
    "NotInSubgroup",
    "SmallTooLarge",
    "subgroup_igs",
    "derived_subgroup",
    "frattini",
    "relation_rows",
    "c2_homomorphisms",
    "kernel_members",
    "maximal_subgroups",
    "small_intersection_order",
    "consistency_check",
    "save_presentation",
    "load_presentation",
]

MAX_GENS = 128


class NotInSubgroup(ValueError):
    """An element fell outside the subgroup it was claimed to lie in."""


class SmallTooLarge(ValueError):
    """The 'small' side of an intersection is too big to enumerate."""


class PcPresentation:
    """A consistent-by-construction pc presentation plus its arithmetic."""

    def __init__(
        self,
        n: int,
        power_tails: Sequence[int],
        conj: Dict[Tuple[int, int], int],
        names: Optional[Sequence[str]] = None,
        fast_mul: Optional[Callable[[int, int], int]] = None,
        fast_inv: Optional[Callable[[int], int]] = None,
        meta=None,
        label: str = "",
    ):
        if not 1 <= n <= MAX_GENS:
            raise ValueError(f"n {n} outside 1..{MAX_GENS}")
        if len(power_tails) != n:
            raise ValueError("power_tails length != n")
        full = (1 << n) - 1
        for i, t in enumerate(power_tails):
            if t & ~full or t & ((1 << (i + 1)) - 1):
                raise ValueError(f"power word of g{i} not supported above {i}")
        self.n = n
        self.power_tails = list(power_tails)
        self.conj: Dict[Tuple[int, int], int] = {}
        # clash[k]: the generators that do not commute with g_k
        self.clash = [0] * n
        for (j, i), word in conj.items():
            if not 0 <= i < j < n:
                raise ValueError(f"bad conjugation key ({j},{i})")
            if word & ~full or word & ((1 << (i + 1)) - 1):
                raise ValueError(f"conjugate of g{j} by g{i} not supported above {i}")
            if word == 1 << j:
                continue  # trivial action, keep the table sparse
            self.conj[(j, i)] = word
            self.clash[i] |= 1 << j
            self.clash[j] |= 1 << i
        self.names = list(names) if names else [f"g{i}" for i in range(n)]
        if len(self.names) != n:
            raise ValueError("names length != n")
        self.meta = meta
        self.label = label
        self.multiply = fast_mul if fast_mul is not None else self.collect_multiply
        self._inverse = fast_inv if fast_inv is not None else self.squaring_inverse
        self.tail = self._tail_start()
        self.top_mask = (1 << self.tail) - 1

    def _tail_start(self) -> int:
        """The least k such that g_k..g_{n-1} have zero power words,
        commute pairwise, and have every conjugate supported at or above
        k; n when no shorter tail qualifies."""
        k = max(
            [i + 1 for (_, i) in self.conj]
            + [j + 1 for j, word in enumerate(self.power_tails) if word],
            default=0,
        )
        while k < self.n and any(
            j >= k and word & ((1 << k) - 1) for (j, _), word in self.conj.items()
        ):
            k += 1
        return k

    # ── collection ──────────────────────────────────────────────────────

    def collect_multiply(self, u: int, v: int) -> int:
        """Normal form of u*v by collection from the left.

        The stack holds words to multiply onto u, lowest generator first.
        A word off the tail gives up its lowest generator g_i and its rest
        goes beneath the words that appending g_i pushes, so generators
        append in the order of a stack of single generators.  A tail word
        is XORed in whole: tail generators square to 1 and commute with
        every later generator (_tail_start), so each appends as an XOR.
        """
        if (u | v) >> self.n or u < 0 or v < 0:
            raise ValueError("exponent vector outside group width")
        top, clash, conj, power = self.top_mask, self.clash, self.conj, self.power_tails
        stack = [v]
        while stack:
            word = stack.pop()
            if not word & top:
                u ^= word
                continue
            bit = word & -word
            if word != bit:
                stack.append(word ^ bit)
            i = bit.bit_length() - 1
            above = u >> (i + 1) << (i + 1)
            ei = u & bit
            if above and (above & clash[i] or ei):
                # g_i passes everything above position i, conjugating it;
                # push from the highest, so the lowest pops first
                while above:
                    j = above.bit_length() - 1
                    stack.append(conj.get((j, i), 1 << j))
                    above ^= 1 << j
                u = (u & (bit - 1)) | (bit ^ ei)
            else:
                u ^= bit
            if ei and power[i]:
                stack.append(power[i])
        return u

    # ── derived element operations ──────────────────────────────────────

    def clash_mask(self, u: int) -> int:
        """The generators that fail to commute with some generator in the
        support of u.  When clash_mask(u) & v == 0, u and v commute: each
        is a product of its own generators, and those all commute."""
        clash = self.clash
        mask = 0
        while u:
            low = u & -u
            mask |= clash[low.bit_length() - 1]
            u ^= low
        return mask

    def tail_conjugate(self, t: int, h: int) -> int:
        """h^-1 t h for a tail word t, with no table: under each top
        generator g_i of h, lowest first, each bit g_j of t goes to
        g_j ** g_i, read from the conjugation table.  Those are the tail
        words collect_multiply pushes as g_i passes t, and it XORs each
        in whole, so in any presentation t * h collects to
        h ^ tail_conjugate(t, h)."""
        conj, clash = self.conj, self.clash
        for i in word_bits(h & self.top_mask):
            hit = t & clash[i]
            t ^= hit
            while hit:
                low = hit & -hit
                t ^= conj[(low.bit_length() - 1, i)]
                hit ^= low
        return t

    def inverse(self, u: int) -> int:
        return self._inverse(u)

    def squaring_inverse(self, u: int) -> int:
        """u**-1 from the squares of u; needs no closed form."""
        if u == 0:
            return 0
        mul = self.multiply
        squares = []
        t = u
        while t:
            squares.append(t)
            t = mul(t, t)
            if len(squares) > self.n + 2:
                raise RuntimeError("runaway order; presentation inconsistent?")
        # u**(2**k) = 1, so u**-1 = u * u**2 * u**4 * ... * u**(2**(k-1))
        inv = 0
        for s in squares:
            inv = mul(inv, s)
        return inv

    def element_order(self, u: int) -> int:
        mul = self.multiply
        order = 1
        while u:
            u = mul(u, u)
            order <<= 1
            if order > 1 << (self.n + 2):
                raise RuntimeError("runaway order; presentation inconsistent?")
        return order

    def conjugate(self, u: int, g: int) -> int:
        """u**g = g^-1 * u * g."""
        mul = self.multiply
        return mul(mul(self.inverse(g), u), g)

    def commutator(self, u: int, v: int) -> int:
        """[u,v] = u^-1 v^-1 u v."""
        mul = self.multiply
        return mul(self.inverse(mul(v, u)), mul(u, v))

    def __repr__(self) -> str:
        return f"PcPresentation({self.label or 'anon'}, n={self.n})"


class ProductMemo:
    """What the subgroups of one group share, keyed by member and word
    values and never by a subgroup's coordinates, so any subgroups of
    the group may share one (every Subgroup holds one, its own unless
    given one):

    * inverses: the inverse of each top member;
    * products: u * v, for the square of each top member, the two
      products of m_j ** m_i for each clashing pair of top members, each
      top step of a coords division (the inverse of a top member times a
      word) and each product of members that builds a kernel;
    * images: the echelon basis of the tail words [t, h] under (top
      part h, tail members), which tail blocks share (_tail_span);
    * spans: each tail block, with its echelon_start, under its
      _tail_block_key (relation_rows); c2_homomorphisms reduces the top
      rows from that start;
    * tails: the tail half of a Subgroup (_tail_division) under (number
      of top members, tail members).

    A miss calls the group's multiply or inverse, looked up at call
    time.  The survivors of a descent share few top members (p59: 127
    in a run), so most of their products are hits; its 128 level-5
    survivors share 30 tail blocks and 4 tail halves.
    """

    __slots__ = ("group", "inverses", "products", "images", "spans", "tails")

    def __init__(self, group: PcPresentation):
        self.group = group
        self.inverses: Dict[int, int] = {}
        self.products: Dict[Tuple[int, int], int] = {}
        self.images: Dict[Tuple[int, Tuple[int, ...]], List[int]] = {}
        self.spans: Dict[Tuple, Tuple[List[int], EchelonStart]] = {}
        self.tails: Dict[Tuple[int, Tuple[int, ...]], Tuple] = {}

    def inverse(self, u: int) -> int:
        inv = self.inverses.get(u)
        if inv is None:
            inv = self.inverses[u] = self.group.inverse(u)
        return inv

    def multiply(self, u: int, v: int) -> int:
        key = (u, v)
        w = self.products.get(key)
        if w is None:
            w = self.products[key] = self.group.multiply(u, v)
        return w

    def conjugate(self, u: int, g: int) -> int:
        """u**g = g^-1 * u * g."""
        return self.multiply(self.multiply(self.inverse(g), u), g)


class Subgroup:
    """A subgroup held as an echelonized induced generating sequence.

    Members have strictly increasing leading (lowest set bit) indices; the
    subgroup is exactly the set of straight products of members in index
    order.  Canonical form additionally clears, in every member, the bits
    sitting at the other members' leading indices; two equal subgroups then
    hold identical member tuples.

    The tail members must be reduced at each other's leads, as in every
    canonical IGS; _reach and _runs then let _divide divide by them in
    one step.  A zero member, a repeated lead or an unreduced tail
    member raises ValueError.

    The memo attribute is a ProductMemo, the one given or a new one; the
    inverses of the top members, the tail half of the division tables
    (_tail_division), each top step of a coords division and the
    relations of relation_rows come from it.  sift and contains divide
    with the group's multiply and store nothing in it.
    """

    __slots__ = ("group", "members", "memo", "_lead_mask", "_div", "_reach", "_runs")

    def __init__(self, group: PcPresentation, members: Sequence[int], memo: Optional[ProductMemo] = None):
        self.group = group
        leads = [lowbit_index(m) for m in members]
        if any(a >= b for a, b in zip(leads, leads[1:])):
            leads, members = zip(*sorted(zip(leads, members)))
        if 0 in members or len(set(leads)) != len(leads):
            raise ValueError("IGS members need distinct leading indices")
        self.members = members = tuple(members)
        k = sum(1 for d in leads if d < group.tail)  # the top members
        self.memo = memo = memo or ProductMemo(group)
        key = (k, members[k:])
        tail = memo.tails.get(key)
        if tail is None:
            tail = memo.tails[key] = _tail_division(k, leads[k:], members[k:])
        tail_leads, tail_div, self._reach, self._runs = tail
        self._lead_mask = tail_leads | sum(1 << d for d in leads[:k])
        # lead bit -> (inverse of its member, coordinate bit of its member)
        self._div = div = dict(tail_div)
        for t in range(k):
            div[1 << leads[t]] = (memo.inverse(members[t]), 1 << t)

    @property
    def order_log(self) -> int:
        return len(self.members)

    @property
    def order(self) -> int:
        return 1 << len(self.members)

    def _divide(self, u: int, mul: Callable[[int, int], int]) -> Tuple[int, int]:
        """Left-divide u by the members at each leading index, ascending:
        the residue, and the coordinate bits of the members divided by
        (bit t for members[t]).

        Each step jumps to the next leading index above the last one at
        which the current u has exponent 1; the leads in between are
        skipped exactly as a scan over all leads would skip them.  Each
        step off the tail multiplies with mul.  Once u lies in
        the tail, so does every member left to divide by, and the rest
        of the division is XOR by tail members; as they are reduced at
        each other's leads, no XOR moves a later lead, so the hit leads
        give the residue in one step (pivot_reach) and, shifted run by
        run, the coordinates.
        """
        top = self.group.top_mask
        div = self._div
        lead_mask = self._lead_mask
        c = 0
        hits = u & lead_mask
        while hits and u & top:
            low = hits & -hits
            inv, bit = div[low]
            u = mul(inv, u)
            c |= bit
            hits = u & lead_mask & -(low << 1)
        if hits:
            u ^= hits
            for col, pivs in self._reach:
                if (hits & pivs).bit_count() & 1:
                    u ^= col
            for shift, coords in self._runs:
                c |= hits >> shift & coords
        return u, c

    def sift(self, u: int) -> int:
        """Residue of u after left-division at each leading index, ascending.

        Zero iff u is a member, in any presentation.  When conjugate words
        never go below the index of the conjugated generator (true for the
        layered quotients, where corrections move up the layers), the
        residue has zero exponent at every leading index and is the
        canonical representative of the right coset (self)*u.

        It multiplies with the group's multiply, not through the memo, so
        sifting any number of words leaves the memo as it was.
        """
        return self._divide(u, self.group.multiply)[0]

    def contains(self, u: int) -> bool:
        """Whether u is a member; like sift, it leaves the memo alone."""
        return self._divide(u, self.group.multiply)[0] == 0

    def coords(self, u: int) -> int:
        """Exponents of u as a straight product of the members: bit t is
        set when the division divides by members[t].  Raises
        NotInSubgroup when the residue is not the identity.

        Its top steps go through the memo.  Its callers (relation_rows,
        _tail_span, the descent's meet filter) divide squares, conjugates
        and meet members, which the members determine, so what it stores
        is bounded by the subgroups the memo serves.
        """
        u, c = self._divide(u, self.memo.multiply)
        if u:
            raise NotInSubgroup("element does not lie in the subgroup")
        return c

    def digest(self) -> Tuple[int, ...]:
        """Hashable identity: the canonical member tuple.  Members already
        canonical cost no multiply."""
        return _canonical_members(self.group, self.members, self.memo)

    def elements(self) -> List[int]:
        """All elements, as straight products.  Capped at 2**16."""
        if len(self.members) > 16:
            raise SmallTooLarge("refusing to enumerate beyond 2**16 elements")
        mul = self.group.multiply
        elems = [0]
        for m in reversed(self.members):
            elems = elems + [mul(m, e) for e in elems]
        return elems

    def __repr__(self) -> str:
        return f"Subgroup(order=2^{len(self.members)} of {self.group.label or 'anon'})"


def _tail_division(k: int, leads: Sequence[int], tails: Sequence[int]) -> Tuple:
    """The tail half of a Subgroup whose tail members, with leads
    `leads`, start at coordinate k: the mask of their leads, their _div
    entries (a tail member is its own inverse), _reach and _runs.  It
    depends on nothing else, so ProductMemo.tails keeps it under (k,
    tail members).  Raises ValueError, and so is never stored, when the
    tail members are not reduced at each other's leads."""
    tail_leads = sum(1 << d for d in leads)
    if any(m & (m - 1) & tail_leads for m in tails):
        raise ValueError("IGS tail members need to be reduced at each other's leading indices")
    div = {1 << d: (m, 1 << t) for t, (d, m) in enumerate(zip(leads, tails), k)}
    runs: Dict[int, int] = {}  # lead - coordinate -> coordinate bits
    for t, d in enumerate(leads, k):
        runs[d - t] = runs.get(d - t, 0) | 1 << t
    return tail_leads, div, pivot_reach(tails, tail_leads), list(runs.items())


# ── subgroup construction ───────────────────────────────────────────────────


def _canonical_members(group: PcPresentation, members: Sequence[int], memo: ProductMemo) -> Tuple[int, ...]:
    """Canonical form of an IGS given in ascending lead order.

    From the last member down, right-multiply each member by the later
    (already canonical) members whose leading index it touches; a right
    factor from G_d leaves every exponent below d alone.  A tail factor
    is XOR.  As in Subgroup.sift, only the set bits of m at the later
    leads are visited, lowest first, and after each multiply only those
    above its lead, so no test is spent on a lead m does not touch.  A
    top factor multiplies through the memo.
    """
    mul = memo.multiply
    top = group.top_mask
    out = list(members)
    by_lead: Dict[int, int] = {}  # lead bit -> canonical later member
    later = 0
    for idx in range(len(out) - 1, -1, -1):
        m = out[idx]
        hits = m & later
        while hits:
            low = hits & -hits
            t = by_lead[low]
            m = mul(m, t) if t & top else m ^ t
            hits = m & later & -(low << 1)
        out[idx] = m
        low = m & -m
        by_lead[low] = m
        later |= low
    return tuple(out)


def _close_igs(group: PcPresentation, gens: Iterable[int]) -> Dict[int, int]:
    """Echelon closure of <gens> under sifting, squaring and commutation,
    as members keyed by their leads.

    A new member g is commuted with each member m only when their
    supports clash (group.clash_mask): otherwise both commutators are the
    identity, which sifting would drop anyway.  One orientation, [g, m],
    is queued per pair, as [m, g] = [g, m]^-1.  That is enough: with G_i
    the subgroup of words supported at or above i, G_i / G_(i+1) has
    order 2, so [G_i, G_i] <= G_(i+1), and from the bottom up the
    straight products of the members with lead > i are already a
    subgroup, so a commutator lies in it exactly when its inverse does.
    When one of the two is a tail word t and the other h, [g, m] =
    t ^ t**h, read by group.tail_conjugate with no multiply; two tail
    words never clash.  Other commutators come from the inverses already
    held: [g, m] = g^-1 m^-1 g m.  A tail member squares to the identity,
    so only top members' squares are queued.  What is left out would
    sift to the identity, so the members are those of the full closure.
    """
    mul = group.multiply
    top = group.top_mask
    by_lead: Dict[int, int] = {}
    inv: Dict[int, int] = {}
    queue = list(gens)
    at = 0
    while at < len(queue):
        g = queue[at]
        at += 1
        while g:
            d = lowbit_index(g)
            m = by_lead.get(d)
            if m is None:
                break
            g = mul(inv[d], g) if g & top else g ^ m
        if not g:
            continue
        d = lowbit_index(g)
        by_lead[d] = g
        if g & top:
            g_inv = inv[d] = group.inverse(g)
            queue.append(mul(g, g))
        clash = group.clash_mask(g)
        for e, m in list(by_lead.items()):
            if e != d and clash & m:
                if not m & top:
                    queue.append(m ^ group.tail_conjugate(m, g))
                elif not g & top:
                    queue.append(g ^ group.tail_conjugate(g, m))
                else:
                    m_inv = inv[e]
                    queue.append(mul(mul(g_inv, m_inv), mul(g, m)))
    return by_lead


def subgroup_igs(group: PcPresentation, gens: Iterable[int]) -> Subgroup:
    """Canonical echelonized IGS of the subgroup generated by gens, with
    a memo of its own, through which its canonical form was built."""
    by_lead = _close_igs(group, gens)
    memo = ProductMemo(group)
    members = _canonical_members(group, [by_lead[d] for d in sorted(by_lead)], memo)
    return Subgroup(group, members, memo)


def _verbal_subgroup(group: PcPresentation, s: Subgroup, squares: bool) -> Subgroup:
    """The subgroup generated by the commutators of s's IGS members, and by
    their squares when asked: s' or Phi(s).

    It needs no normal closure, because the members m_1..m_k are a pcgs
    of s: s_i = <m_i..m_k> is normal in s_(i-1).  From the bottom up,
    N_i = <[m_a, m_b] : i <= a < b> is s_i'.  Given N_(i+1) = s_(i+1)',
    each conjugate of [m_i, m_j] by an element of s_(i+1) is [m_i, m_j]
    times an element of s_(i+1)', so [m_i, x] lies in N_i for every x in
    s_(i+1), since [a, bc] = [a, c] [a, b]^c.  Then N_i is normal in s_i,
    and s_i / N_i is abelian.  With the squares added this is s' s^2,
    which is Phi(s) in a 2-group.  A pair whose supports do not clash
    (group.clash_mask) commutes, so its commutator is the identity and
    is skipped without multiplying.  The tail members come last, commute
    with each other and square to the identity, so the loop stops at the
    first of them; a top member m and a later tail member t give
    [m, t] = t ^ t**m, read by group.tail_conjugate with no multiply.
    """
    ms = s.members
    top = group.top_mask
    tops = [m for m in ms if m & top]
    gens = []
    for i, m in enumerate(tops):
        clash = group.clash_mask(m)
        gens += [
            group.commutator(m, later) if later & top else later ^ group.tail_conjugate(later, m)
            for later in ms[i + 1 :]
            if clash & later
        ]
    if squares:
        gens += [group.multiply(m, m) for m in tops]
    return subgroup_igs(group, gens)


def derived_subgroup(group: PcPresentation, s: Subgroup) -> Subgroup:
    """[s,s]: the closure of the commutators of the IGS members."""
    return _verbal_subgroup(group, s, squares=False)


def frattini(group: PcPresentation, s: Subgroup) -> Subgroup:
    """Phi(s) = s' * s^2 for a 2-group: squares and commutators, closed."""
    return _verbal_subgroup(group, s, squares=True)


def relation_rows(group: PcPresentation, s: Subgroup) -> Tuple[List[int], List[int]]:
    """The relations of s's induced pcgs, as rows over its IGS coordinates:
    (top rows, tail block), the block a reduced echelon basis.

    A functional a on the coordinates of s is a homomorphism s -> C2
    exactly when parity(row & a) is 0 for every row (von Dyck): the rows
    span coords(m_i**2) and coords(m_i**-1 m_j m_i) + e_j for i < j.
    These are the relations of a pc presentation of s, so they suffice.
    Rows from commutators would only be necessary: the pc series need
    only be subnormal, so coords is not additive on products.  Raises
    NotInSubgroup when the members are not an IGS, that is when their
    straight products are not closed under multiplication.

    A pair whose supports do not clash (group.clash_mask) commutes, so
    its conjugate is m_j itself and its row is zero; it is skipped
    without multiplying.  Members in the tail come last, square to the
    identity and commute with each other, so they add no rows of their
    own.  The squares of the top members and their conjugates of each
    other give one coords row each: the top rows.

    For a top member m_i and a tail member m_j, the conjugate is
    m_j ^ w with w = [m_j, m_i], a tail word, and its row is coords(w).
    The span of these rows is the tail block (_tail_span).  It depends
    only on _tail_block_key(group, s.members), which only this function
    and c2_homomorphisms read.  s.memo holds the block and its
    echelon_start under that key, and the products of the squares and
    the top x top conjugates under their factors.  A block that raises
    is never stored, so a memo hit never skips the raise.
    """
    memo = s.memo
    ms = s.members
    key = _tail_block_key(group, ms)
    k = len(key[0])
    rows = []
    for i in range(k):
        mi = ms[i]
        sq = memo.multiply(mi, mi)
        if sq:
            rows.append(s.coords(sq))
        clash = group.clash_mask(mi)
        for j in range(i + 1, k):
            mj = ms[j]
            if clash & mj:
                c = memo.conjugate(mj, mi)
                if c != mj:
                    rows.append(s.coords(c) ^ (1 << j))
    span = memo.spans.get(key)
    if span is None:
        block = _tail_span(group, s, key)
        span = memo.spans[key] = (block, echelon_start(block))
    return rows, span[0]


def _tail_block_key(group: PcPresentation, members: Sequence[int]) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """What the tail block of the subgroup with IGS members (ascending
    leads) depends on: (top parts m & top of its top members, its tail
    members).  The top members come first, so the tail members are the
    rest."""
    top = group.top_mask
    k = sum(1 for m in members if m & top)
    # tuple of a list: a tuple grown from a generator crept peak RSS run by run
    return tuple([m & top for m in members[:k]]), tuple(members[k:])


def _tail_span(group: PcPresentation, s: Subgroup, key: Tuple) -> List[int]:
    """Reduced echelon basis, in s's coordinates, of the rows coords(w)
    of the tail words w = [t, h] = t ^ t**h, for each top part h in heads
    and tail word t in tails whose supports clash, (heads, tails) = key;
    each conjugate is read by group.tail_conjugate.  The words of each h
    reduce to an echelon basis, its image, which s.memo holds under
    (h, tails); the block reduces the images from the largest one
    (echelon_ints' start).

    The members of s in the tail are its tail members, and on their span
    coords is linear, since division there is XOR by members with
    distinct leads.  So the rows are the coords of an echelon basis of
    the words, and they depend only on (heads, tails): a tail member's
    coordinate is its index, len(heads) plus its place in tails.  Some w
    lies outside s exactly when some basis vector does, and then coords
    raises NotInSubgroup.
    """
    heads, tails = key
    images = s.memo.images
    bases = []
    for h in heads:
        basis = images.get((h, tails))
        if basis is None:
            clash = group.clash_mask(h)
            words = [group.tail_conjugate(t, h) ^ t for t in tails if clash & t]
            basis = images[(h, tails)] = echelon_ints(words)[0]
        bases.append(basis)
    bases.sort(key=len)
    words = echelon_ints([w for basis in bases[:-1] for w in basis], start=bases[-1] if bases else ())[0]
    return echelon_ints([s.coords(b) for b in words])[0]


def c2_homomorphisms(group: PcPresentation, s: Subgroup) -> List[int]:
    """The nonzero homomorphisms s -> C2, as functionals on IGS coordinates.

    By the Burnside basis theorem their kernels are the maximal subgroups
    of s, and there are 2**rank - 1 of them, rank = |s| - |Phi(s)|.  The
    top rows of relation_rows are reduced against its tail block, which
    is already in reduced echelon form, from the block's echelon_start
    that s.memo keeps beside it; the free columns of the result
    sit at the leads outside Phi(s).  Functional number f sets free
    column t from bit t of f and each pivot from the parity of its row,
    for f = 1 .. 2**rank - 1.  The rows are fully reduced, so each meets
    a functional only at free columns and the parity is linear in f: the
    functionals are built by doubling, from one per free column (its bit
    and the pivots of the rows that have it).  The reduced rows depend
    only on the span of the relations, so the memo s holds, shared or
    its own, changes no output.
    """
    rows, _ = relation_rows(group, s)
    basis, pivots = echelon_extend(s.memo.spans[_tail_block_key(group, s.members)][1], rows)
    taken = set(pivots)
    out = [0]
    for col in range(len(s.members)):
        if col in taken:
            continue
        a = 1 << col
        for row, p in zip(basis, pivots):
            if (row >> col) & 1:
                a |= 1 << p
        out += [x ^ a for x in out]
    return out[1:]


def kernel_members(group: PcPresentation, ms: Sequence[int], a: int, memo: ProductMemo) -> Tuple[int, ...]:
    """Canonical IGS of the kernel of the homomorphism a: s -> C2, for s
    given by its IGS members ms in ascending lead order.

    The members of s that a kills, and the products of consecutive
    members in its support, have distinct leads and all lie in the
    kernel, which has index 2.  The products, and those of the canonical
    form, go through the memo.
    """
    mul = memo.multiply
    top = group.top_mask
    support = [m for t, m in enumerate(ms) if (a >> t) & 1]
    members = [m for t, m in enumerate(ms) if not (a >> t) & 1]
    members.extend(
        mul(u, v) if v & top else u ^ v for u, v in zip(support, support[1:])
    )
    return _canonical_members(group, sorted(members, key=lowbit_index), memo)


def maximal_subgroups(group: PcPresentation, s: Subgroup) -> List[Subgroup]:
    """All index-2 subgroups of s, as canonical Subgroups, in the order of
    c2_homomorphisms.  They are built through s.memo and share it."""
    memo = s.memo
    return [Subgroup(group, kernel_members(group, s.members, a, memo), memo) for a in c2_homomorphisms(group, s)]


def small_intersection_order(group: PcPresentation, t: Subgroup, small: Subgroup) -> int:
    """|t meet small| by enumerating the small side (capped at 2**10)."""
    if small.order_log > 10:
        raise SmallTooLarge("small side exceeds 2**10 elements")
    return sum(1 for w in small.elements() if t.contains(w))


# ── consistency ─────────────────────────────────────────────────────────────


def consistency_check(pres: PcPresentation, max_violations: int = 16) -> List[Tuple]:
    """Overlap tests certifying that normal forms are unique.

    Compares the two sides, as the reference collector returns them, of
    the standard associativity overlaps (g_k g_j) g_i = g_k (g_j g_i)
    for k > j > i, then the power overlaps g_j^2 g_i = g_j (g_j g_i)
    (power_left) and g_j g_i^2 = (g_j g_i) g_i (power_right) for j > i,
    then g_i^2 g_i = g_i g_i^2 (power_cube).  Returns the first
    max_violations overlaps whose sides differ, as (kind, index, lhs,
    rhs); an empty result certifies that the presented group has order
    exactly 2**n.

    Overlaps that, by collect_multiply's own code, collect equal on both
    sides in any presentation are skipped, so the violations, their
    order and the cut are those of the full test.  With T = pres.tail
    (_tail_start, read from the tables the collector reads): tail words
    are XORed in, and a tail generator's conjugates are tail words.

    * A triple whose generators commute pairwise (pres.clash): both sides
      collect to g_i g_j g_k without pushing a word.
    * (a) An associativity triple with j >= T: both sides collect to g_i
      followed by the XOR of g_j**g_i and g_k**g_i.
    * (b) power_left with j >= T: g_j^2 is the empty word, and in
      g_j (g_j g_i) the two copies of g_j**g_i cancel, so both sides
      are g_i.
    * (c) Both power overlaps with i >= T: every word is a tail word, so
      both sides are XORs of the same generators.
    * (d) Both power overlaps of a pair that commutes (pres.clash) with
      both power words empty: both sides reduce to g_i or to g_j without
      pushing a power word or a nontrivial conjugate.
    * (e) power_cube with g_i's power word empty: both sides are g_i
      times the empty word, which collects to g_i without a push.

    So the pair products g_j g_i are needed only for i < T.  The sides
    that involve a tail generator are read from the tables without the
    collector (pres.tail_conjugate), equal word for word to what it
    returns in any presentation, because t * h collects to h ^ t**h for
    a tail word t and any word h:

    * g_j g_i with j >= T is g_i | g_j**g_i.
    * An associativity triple with k >= T: with P = g_j g_i, the lhs
      g_j (g_k**g_j) g_i is P ^ (g_k**g_j)**g_i, as g_i passes g_j, whose
      conjugate collects onto g_i as P, and then the tail word g_k**g_j;
      the rhs g_k P is P ^ g_k**P.
    * power_right with j >= T: with W = g_i^2, the lhs is W ^ g_j**W
      and the rhs, g_i (g_j**g_i) g_i, is W ^ (g_j**g_i)**g_i.

    Only overlaps among top generators still collect: toy2 1, h56 188
    and p59 543 collects per check.
    """
    violations = ((kind, idx, lhs, rhs) for kind, idx, lhs, rhs in _overlaps(pres) if lhs != rhs)
    return list(islice(violations, max_violations))


def _overlaps(pres: PcPresentation) -> Iterator[Tuple]:
    """(kind, index, lhs, rhs) for each overlap consistency_check runs, in
    its order, each computed only when it is drawn: collected among top
    generators, read from the tables where a tail generator enters."""
    n, tail = pres.n, pres.tail
    mul, conj_t = pres.collect_multiply, pres.tail_conjugate
    clash, power = pres.clash, pres.power_tails
    pair = {
        (j, i): mul(1 << j, 1 << i) if j < tail else 1 << i | pres.conj.get((j, i), 1 << j)
        for i in range(tail)
        for j in range(i + 1, n)
    }
    for k in range(n):
        gk = 1 << k
        for j in range(min(k, tail)):  # (a)
            pkj = pair[(k, j)]
            # the i < j for which some pair of g_i, g_j, g_k clashes
            lower = (1 << j) - 1 if (clash[k] >> j) & 1 else (clash[k] | clash[j]) & ((1 << j) - 1)
            for i in word_bits(lower):
                p = pair[(j, i)]
                if k < tail:
                    yield "assoc", (k, j, i), mul(pkj, 1 << i), mul(gk, p)
                else:
                    yield "assoc", (k, j, i), p ^ conj_t(pkj ^ 1 << j, 1 << i), p ^ conj_t(gk, p)
    for j in range(n):
        gj = 1 << j
        for i in range(min(j, tail)):  # (c)
            if not (power[j] or power[i] or (clash[j] >> i) & 1):
                continue  # (d)
            gi = 1 << i
            if j < tail:  # (b)
                yield "power_left", (j, i), mul(power[j], gi), mul(gj, pair[(j, i)])
                yield "power_right", (j, i), mul(gj, power[i]), mul(pair[(j, i)], gi)
            else:
                w = power[i]
                yield "power_right", (j, i), w ^ conj_t(gj, w), w ^ conj_t(pair[(j, i)] ^ gi, gi)
    for i in range(n):
        if power[i]:  # (e)
            gi = 1 << i
            yield "power_cube", (i,), mul(power[i], gi), mul(gi, power[i])


# ── file format ─────────────────────────────────────────────────────────────
#
# pc2 v1 n=<count>
# pow <i> <hex>            one line per generator, including zero words
# conj <j> <i> <hex>       only nontrivial conjugates; hex is the full
#                          normal form of g_j ** g_i, little-end bits
#
# The file is ASCII: a byte outside it fails the load with ValueError.
# Each number is spelled as save_presentation writes it: n and the
# indices in decimal digits, the words in lowercase hex digits, with no
# sign, prefix or separator; any other spelling fails the load too.
#


def save_presentation(pres: PcPresentation, path) -> None:
    lines = [f"pc2 v1 n={pres.n}"]
    for i in range(pres.n):
        lines.append(f"pow {i} {format(pres.power_tails[i], 'x')}")
    for j in range(pres.n):
        for i in range(j):
            word = pres.conj.get((j, i))
            if word is not None:
                lines.append(f"conj {j} {i} {format(word, 'x')}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def _number(token: str, base: int, line: str) -> int:
    """token read as written by save_presentation: decimal or lowercase
    hex digits only; ValueError naming the line otherwise."""
    if not token or token.strip("0123456789abcdef"[:base]):
        raise ValueError(f"bad number {token!r} in pc2 file: {line!r}")
    return int(token, base)


def load_presentation(path) -> PcPresentation:
    text = Path(path).read_text(encoding="ascii").splitlines()
    if not text or not text[0].startswith("pc2 v1 n="):
        raise ValueError("not a pc2 v1 file")
    n = _number(text[0][len("pc2 v1 n=") :], 10, text[0])
    if not 1 <= n <= MAX_GENS:
        raise ValueError(f"n {n} outside 1..{MAX_GENS}")
    ptails = [0] * n
    conj: Dict[Tuple[int, int], int] = {}
    seen = set()
    for line in text[1:]:
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "pow" and len(parts) == 3:
            key = (_number(parts[1], 10, line),)
        elif parts[0] == "conj" and len(parts) == 4:
            key = (_number(parts[1], 10, line), _number(parts[2], 10, line))
        else:
            raise ValueError(f"bad line in pc2 file: {line!r}")
        if any(not 0 <= i < n for i in key):
            raise ValueError(f"generator index outside 0..{n - 1} in pc2 file: {line!r}")
        if key in seen:
            raise ValueError(f"duplicate {parts[0]} line in pc2 file: {line!r}")
        seen.add(key)
        word = _number(parts[-1], 16, line)
        if len(key) == 1:
            ptails[key[0]] = word
        else:
            conj[key] = word
    return PcPresentation(n, ptails, conj, label=str(path))
