"""Endomorphisms of the layered quotient groups from generator images.

A map is specified by images of the letter generators (the x and y block).
Extension works in two steps: calculus.generator_images forces the images
of the commutator-layer generators ([phi u, phi v] for layer 2, one more
bracket for layer 3), and then every defining pc relation that can fail
is checked against the forced images (extend says which hold by
construction).  A map that survives the sweep and whose letter images
generate the group, read from their letter bits, is a verified
automorphism.

Application is one calculus.homomorphism_table: the image of a normal
form is the product of the images of its generators in index order, that
is a letter slice of 2**(2n) products from the multiply, times the images
of the layer generators.  Those are commutators, so they lie in the
elementary abelian layers, where the map is linear and the product is
XOR.  extend builds the table once, reads the right side of every
relation from it and hands it to the automorphism it returns.

The letters generate the group, so an automorphism is determined by its
letter images, and everything past extend reads it only on letter
tuples, one _letter_step at a time: the order of f is the orbit of the
identity tuple under f, a power is f applied e times to the letters, and
the twist relations are compared letter by letter.  Every orbit comes from one search,
orbit(seeds, images): the closure and the order run it on letter tuples,
the letter-set check on group elements, and the graph module on
numbered vertices, 2-arcs and edges.

The checks used by the verification targets (twist relations, pointwise
stabilizer) take automorphisms already verified and a closure already
computed; they extend and close nothing themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

from .calculus import TWIST_LETTERS, LayeredMeta, generator_images, homomorphism_table, parse_word
from .gf2linalg import echelon_ints, sliced_apply
from .pcgroup import PcPresentation

__all__ = [
    "NotHomomorphism",
    "NotBijective",
    "ClosureBudgetExceeded",
    "GeneratorMap",
    "VerifiedAutomorphism",
    "extend",
    "automorphism_order",
    "letter_power",
    "AutGroup",
    "orbit",
    "closure",
    "parse_generator_map",
    "catalog",
    "twist_conjugation_check",
    "pointwise_x_stabilizer",
]


class NotHomomorphism(ValueError):
    """The generator images violate a defining relation."""


class NotBijective(ValueError):
    """The images satisfy the relations but do not generate the group."""


class ClosureBudgetExceeded(RuntimeError):
    """An orbit or automorphism closure exceeded its element budget."""


@dataclass(frozen=True)
class GeneratorMap:
    """Intended images of the letter generators x_1..x_n, y_1..y_n."""

    group: PcPresentation
    letter_images: Tuple[int, ...]

    def __post_init__(self):
        meta = self.group.meta
        if not isinstance(meta, LayeredMeta):
            raise ValueError("generator maps need a layered quotient group")
        if len(self.letter_images) != 2 * meta.n:
            raise ValueError("need one image per letter generator")
        for w in self.letter_images:
            if w < 0 or w >> self.group.n:
                raise ValueError("image outside group width")


class VerifiedAutomorphism:
    """An automorphism with verified relations, closed over all generators,
    with the homomorphism_table extend built for it."""

    __slots__ = ("group", "_table")

    def __init__(self, group: PcPresentation, table: List[int]):
        self.group = group
        self._table = table

    def apply(self, u: int) -> int:
        """Image of an element in normal form."""
        return sliced_apply(self._table, u, 2 * self.group.meta.n)


def extend(gmap: GeneratorMap) -> VerifiedAutomorphism:
    """Close a letter map over all generators and verify every relation
    that can fail.

    The images of the layer generators are forced by
    calculus.generator_images.  The right side of each relation is the
    image of a word, read from the map's homomorphism_table.  Every power
    relation is checked, and every conjugation relation (j, i) except
    where i lies in the group's tail and the images of g_i and g_j are
    both tail words.  The tail generators commute pairwise and carry no
    conjugation entries among themselves, so the right side of such a
    relation is the image of g_j; the tail is elementary abelian, so
    conjugating one tail word by another leaves it alone and the left
    side is the image of g_j too.  On h56 that leaves 412 of the 1,540
    conjugation relations.

    Bijectivity is read from the letter parts.  Every layer generator is
    a commutator, so it lies in the Frattini subgroup, and the letter bits
    of a word are its image in the Frattini quotient GF(2)^(2n).  By the
    Burnside basis theorem the letter images generate the group exactly
    when their letter bits have rank 2n; a homomorphism onto the group is
    then a bijection.

    Raises NotHomomorphism at the first violated power or conjugation
    relation, NotBijective if the letter images fail to generate.
    """
    group = gmap.group
    bits = 2 * group.meta.n
    mul = group.multiply
    images = generator_images(group, gmap.letter_images)
    table = homomorphism_table(mul, images, bits)

    for i in range(group.n):
        lhs = mul(images[i], images[i])
        rhs = sliced_apply(table, group.power_tails[i], bits)
        if lhs != rhs:
            raise NotHomomorphism(f"power relation of {group.names[i]} breaks")
    top, tail = group.top_mask, group.tail
    inverses = [group.inverse(w) for w in images]
    for j in range(group.n):
        for i in range(j):
            if i >= tail and not (images[i] | images[j]) & top:
                continue
            lhs = mul(mul(inverses[i], images[j]), images[i])
            rhs = sliced_apply(table, group.conj.get((j, i), 1 << j), bits)
            if lhs != rhs:
                raise NotHomomorphism(
                    f"conjugation relation of {group.names[j]} by {group.names[i]} breaks"
                )
    letter_part = (1 << bits) - 1
    if len(echelon_ints([w & letter_part for w in gmap.letter_images])[0]) != bits:
        raise NotBijective("letter images do not generate the group")
    return VerifiedAutomorphism(group, table)


@dataclass
class AutGroup:
    """Closure of a set of verified automorphisms, keyed by letter images."""

    letter_tuples: Set[Tuple[int, ...]]

    @property
    def order(self) -> int:
        return len(self.letter_tuples)


def orbit(
    seeds: Iterable[Hashable],
    images: Callable[[Hashable], Iterable[Hashable]],
    cap: Optional[int] = None,
) -> Set:
    """Everything reachable from seeds, where images(u) lists u's images.

    Raises ClosureBudgetExceeded rather than grow past cap elements.
    """
    seen = set(seeds)
    frontier = list(seen)
    while frontier:
        for v in images(frontier.pop()):
            if v not in seen:
                if cap is not None and len(seen) >= cap:
                    raise ClosureBudgetExceeded(f"orbit beyond {cap} elements")
                seen.add(v)
                frontier.append(v)
    return seen


def _identity_letters(group: PcPresentation) -> Tuple[int, ...]:
    return tuple(1 << t for t in range(2 * group.meta.n))


def _letter_step(f: VerifiedAutomorphism, tup: Tuple[int, ...]) -> Tuple[int, ...]:
    """f applied to each word of a letter tuple.  A word below 2**(2n) is
    a product of letters, and its image is its entry in slice 0 of f's
    table; longer words go through sliced_apply."""
    table = f._table
    bits = 2 * f.group.meta.n
    letters = 1 << bits
    return tuple(table[w] if w < letters else sliced_apply(table, w, bits) for w in tup)


def closure(gens: Sequence[VerifiedAutomorphism], cap: int = 100_000) -> AutGroup:
    """Closure under composition; automorphisms are determined by their
    letter images, so the orbit of the identity runs on letter tuples."""
    if not gens:
        raise ValueError("need at least one generator")
    start = _identity_letters(gens[0].group)
    return AutGroup(orbit([start], lambda tup: [_letter_step(g, tup) for g in gens], cap))


def automorphism_order(f: VerifiedAutomorphism, cap: int = 10_000) -> int:
    """Order of f: the size of the orbit of the identity letter tuple under
    f.  Raises ClosureBudgetExceeded if the order exceeds cap."""
    start = _identity_letters(f.group)
    return len(orbit([start], lambda tup: [_letter_step(f, tup)], cap))


def letter_power(f: VerifiedAutomorphism, e: int) -> Tuple[int, ...]:
    """Letter images of f**e (e >= 0), by applying f e times."""
    if e < 0:
        raise ValueError("negative powers unsupported; use the order")
    tup = _identity_letters(f.group)
    for _ in range(e):
        tup = _letter_step(f, tup)
    return tup


# ── the named maps ──────────────────────────────────────────────────────────


def _gmap(group: PcPresentation, assignments: Dict[str, str]) -> GeneratorMap:
    letters = group.names[: 2 * group.meta.n]
    return GeneratorMap(group, tuple(parse_word(group, assignments.get(name, name)) for name in letters))


def catalog(h: PcPresentation) -> Dict[str, GeneratorMap]:
    """The named candidate maps on the 4+4 layered quotient.

    The two singer generators and the two companion cycles act on one
    letter block and fix the other; the twist conjugation, TWIST_LETTERS,
    interleaves the blocks (p59 and rho are built from it too).  The last
    two entries are the deliberate non-examples: a centralizing candidate
    on the x block and the half-turn x-reversal.
    """
    return {
        "x_singer_generator": _gmap(h, {
            "x1": "x1*x2", "x2": "x2*x3", "x3": "x3*x4", "x4": "x1*x2*x3"}),
        "y_singer_generator": _gmap(h, {
            "y1": "y1*y2", "y2": "y2*y3", "y3": "y3*y4", "y4": "y1*y2*y3"}),
        "x_companion_cycle": _gmap(h, {
            "x1": "x2", "x2": "x3", "x3": "x4", "x4": "x1*x2*x3*x4"}),
        "y_companion_cycle": _gmap(h, {
            "y1": "y2", "y2": "y3", "y3": "y4", "y4": "y1*y2*y3*y4"}),
        "twist_conjugation": GeneratorMap(h, TWIST_LETTERS),
        "x_centralizer_candidate": _gmap(h, {
            "x2": "x1*x3", "x3": "x2*x3", "x4": "x2*x4"}),
        "x_half_turn": _gmap(h, {
            "x1": "x4", "x2": "x3", "x3": "x2", "x4": "x1"}),
    }


def toy_catalog(h: PcPresentation) -> Dict[str, GeneratorMap]:
    """Named maps for the 2+2-letter group: one full linear cycle per
    block plus the plain block swap.  The swap extends there because the
    toy quotient kills every depth-3 generator."""
    if h.meta.n != 2:
        raise ValueError("toy catalog needs the 2+2-letter group")
    return {
        "x_cycle": _gmap(h, {"x1": "x2", "x2": "x1*x2"}),
        "y_cycle": _gmap(h, {"y1": "y2", "y2": "y1*y2"}),
        "letter_swap": _gmap(h, {"x1": "y1", "x2": "y2", "y1": "x1", "y2": "x2"}),
    }


def parse_generator_map(group: PcPresentation, text: str) -> GeneratorMap:
    """Read a letter map from lines like 'x1 -> x1*x2'."""
    meta: LayeredMeta = group.meta
    letters = group.names[: 2 * meta.n]
    assignments: Dict[str, str] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "->" not in line:
            raise ValueError(f"bad map line {line!r}")
        src, dst = (part.strip() for part in line.split("->", 1))
        if src not in letters:
            raise ValueError(f"unknown generator {src!r}")
        if src in assignments:
            raise ValueError(f"duplicate assignment for {src!r}")
        assignments[src] = dst
    return _gmap(group, assignments)


# ── the checks used by the verification targets ─────────────────────────────


def twist_conjugation_check(
    a: VerifiedAutomorphism, b: VerifiedAutomorphism, rho: VerifiedAutomorphism
) -> bool:
    """The twist conjugates one singer generator to the other.

    With a = x-singer, b = y-singer and rho the twist conjugation, check
    a^rho = b and b^rho = a**2, conjugation acting on the right: a^rho
    sends u to rho(a(rho^-1(u))).  Composed with rho on the right these
    read rho(a(u)) = b(rho(u)) and rho(b(u)) = a(a(rho(u))), which are
    checked on the letters, since those generate the group.
    """
    for u in _identity_letters(rho.group):
        r = rho.apply(u)
        if rho.apply(a.apply(u)) != b.apply(r) or rho.apply(b.apply(u)) != a.apply(a.apply(r)):
            return False
    return True


def pointwise_x_stabilizer(h: PcPresentation, group: AutGroup) -> Set[Tuple[int, ...]]:
    """Letter tuples in the closure fixing every x letter."""
    meta: LayeredMeta = h.meta
    n = meta.n
    fixed = set()
    for tup in group.letter_tuples:
        if all(tup[i] == 1 << i for i in range(n)):
            fixed.add(tup)
    return fixed
