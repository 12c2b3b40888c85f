"""Endomorphisms of the layered quotient groups from generator images.

A map is specified by images of the letter generators (the x and y block).
Extension works in two steps: calculus.generator_images forces the images
of the commutator-layer generators ([phi u, phi v] for layer 2, one more
bracket for layer 3), and then the defining pc relations are checked
against the forced images, all but those whose images visibly satisfy
them (extend says which).  A map that survives the sweep and whose
letter images generate the group, read from their letter bits, is a
verified automorphism.

Application is one calculus.homomorphism_table: the image of a normal
form is the product of the images of its generators in index order, that
is a letter slice of 2**(2n) products from the multiply, times the images
of the layer generators.  Those are commutators, so they lie in the
elementary abelian layers, where the map is linear and the product is
XOR.  extend builds the table once, reads the right side of every
relation from it and hands it to the automorphism it returns.

The letters generate the group, so an automorphism is determined by its
letter images, and everything past extend reads it only on letter
tuples: the order of f is the orbit of the identity tuple under f, a
power is f applied e times to the letters, and the twist relations are
compared letter by letter.  Every orbit comes from one search,
orbit(seeds, images): the closure runs it on letter words and then on
tuples of their byte ids, composed by bytes.translate, the order on
letter tuples, the letter-set check on group elements, and the graph
module on numbered vertices, 2-arcs and edges.

The checks used by the verification targets (twist relations, pointwise
stabilizer) take automorphisms already verified and a closure already
computed; they extend and close nothing themselves.
"""

from __future__ import annotations

from operator import itemgetter
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


class GeneratorMap:
    """Intended images of the letter generators x_1..x_n, y_1..y_n.
    Assigning to an attribute raises AttributeError."""

    def __init__(self, group: PcPresentation, letter_images: Tuple[int, ...]):
        meta = group.meta
        if not isinstance(meta, LayeredMeta):
            raise ValueError("generator maps need a layered quotient group")
        if len(letter_images) != 2 * meta.n:
            raise ValueError("need one image per letter generator")
        for w in letter_images:
            if w < 0 or w >> group.n:
                raise ValueError("image outside group width")
        vars(self).update(group=group, letter_images=letter_images)

    def __setattr__(self, name, value):
        raise AttributeError("GeneratorMap is immutable")


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
    image of a word, read from the map's homomorphism_table.  A relation
    is skipped only where its images visibly satisfy it:

    * a power relation with an empty power word, when the image of g_i
      is a tail word: the tail is elementary abelian, so both sides are
      the identity;
    * a conjugation relation (j, i) with no conj entry, when
      clash_mask(image of g_j) misses the image of g_i: the two images
      commute, so both sides are the image of g_j.

    Every skipped relation holds, so the first broken relation in sweep
    order is the one a full sweep finds.  Where the image of g_j is a
    tail word, the left side of its conjugation relation is read by
    tail_conjugate with no multiply; otherwise it is i'^-1 j' i', and an
    image is inverted only when a kept relation needs its inverse.  On
    h56 the named automorphisms keep 8 of the 56 power relations and 112
    to 128 of the 1,540 conjugation relations.

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

    top, conj = group.top_mask, group.conj
    for i in range(group.n):
        if not group.power_tails[i] and not images[i] & top:
            continue
        lhs = mul(images[i], images[i])
        rhs = sliced_apply(table, group.power_tails[i], bits)
        if lhs != rhs:
            raise NotHomomorphism(f"power relation of {group.names[i]} breaks")
    inverses: Dict[int, int] = {}
    for j in range(group.n):
        image = images[j]
        clash = group.clash_mask(image)
        for i in range(j):
            if not clash & images[i] and (j, i) not in conj:
                continue
            if image & top:
                if i not in inverses:
                    inverses[i] = group.inverse(images[i])
                lhs = mul(mul(inverses[i], image), images[i])
            else:
                lhs = group.tail_conjugate(image, images[i])
            rhs = sliced_apply(table, conj.get((j, i), 1 << j), bits)
            if lhs != rhs:
                raise NotHomomorphism(
                    f"conjugation relation of {group.names[j]} by {group.names[i]} breaks"
                )
    letter_part = (1 << bits) - 1
    if len(echelon_ints([w & letter_part for w in gmap.letter_images])[0]) != bits:
        raise NotBijective("letter images do not generate the group")
    return VerifiedAutomorphism(group, table)


class AutGroup:
    """Closure of a set of verified automorphisms, keyed by letter images."""

    def __init__(self, letter_tuples: Set[Tuple[int, ...]]):
        self.letter_tuples = letter_tuples

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


def closure(gens: Sequence[VerifiedAutomorphism], cap: int = 100_000) -> AutGroup:
    """Closure under composition.  Automorphisms are determined by their
    letter images, and every letter image of the closure lies in the
    orbit of the letters under gens, so that orbit's words are numbered
    as byte ids, each generator becomes a 256-byte bytes.translate table
    on them, and the orbit of the identity runs on byte strings.  Raises
    ClosureBudgetExceeded past 256 letter words or cap elements."""
    if not gens:
        raise ValueError("need at least one generator")
    start = _identity_letters(gens[0].group)
    words = list(orbit(start, lambda w: [g.apply(w) for g in gens], 256))
    ids = {w: b for b, w in enumerate(words)}
    tables = [bytes([ids[g.apply(w)] for w in words] + [0] * (256 - len(words))) for g in gens]
    keys = orbit([bytes(map(ids.get, start))], lambda key: [key.translate(t) for t in tables], cap)
    return AutGroup({itemgetter(*key)(words) for key in keys})  # 2n >= 2 ids: a tuple


def automorphism_order(f: VerifiedAutomorphism, cap: int = 10_000) -> int:
    """Order of f: the size of the orbit of the identity letter tuple under
    f.  Raises ClosureBudgetExceeded if the order exceeds cap."""
    start = _identity_letters(f.group)
    return len(orbit([start], lambda tup: [tuple(map(f.apply, tup))], cap))


def letter_power(f: VerifiedAutomorphism, e: int) -> Tuple[int, ...]:
    """Letter images of f**e (e >= 0), by applying f e times."""
    if e < 0:
        raise ValueError("negative powers unsupported; use the order")
    tup = _identity_letters(f.group)
    for _ in range(e):
        tup = tuple(map(f.apply, tup))
    return tup


# ── the named maps ──────────────────────────────────────────────────────────


def _gmap(group: PcPresentation, assignments: Dict[str, str]) -> GeneratorMap:
    letters = group.names[: 2 * group.meta.n]
    return GeneratorMap(group, tuple(parse_word(group, assignments.get(name, name)) for name in letters))


def catalog(h: PcPresentation) -> Dict[str, GeneratorMap]:
    """The named candidate maps on the 4+4 layered quotient.

    The two singer generators and the two companion cycles act on one
    letter block and fix the other; the twist conjugation, TWIST_LETTERS,
    interleaves the blocks (p59 is built from it too).  The last
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
