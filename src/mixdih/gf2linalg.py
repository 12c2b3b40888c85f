"""Dense linear algebra over GF(2) on short bit-vectors.

Bit convention, fixed across the whole package and all file formats:
bit k of an integer is coordinate (column) k, i.e. column 0 is the lowest
bit.  A vector of width w is an int in range(2**w), and a matrix is a
sequence of such rows.  Nothing here is sparse.

A GF(2)-linear map on words is fixed by the images of its basis bits.
sliced_tables turns those images into lookup tables, one slice of
2**bits entries per `bits` input bits, so that the image of a word is
one lookup per slice, XORed together (sliced_apply).  An automorphism of
the layered groups has the same table shape, with a first slice of
letter products that are not linear (calculus.homomorphism_table), and
sliced_apply applies it too.  Every table in the package is applied by
sliced_apply: the layer-3 corrections of the closed-form multiply, the
twist on layer 3 in relation_space, each element of S in a split
extension h:S (calculus.split_extension) and every verified
automorphism.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

__all__ = [
    "word_bits",
    "lowbit_index",
    "echelon_ints",
    "echelon_start",
    "echelon_extend",
    "pivot_reach",
    "reduce_by_echelon",
    "sliced_tables",
    "sliced_apply",
]


def word_bits(mask: int) -> List[int]:
    """The set bit positions of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def lowbit_index(x: int) -> int:
    """Index of the lowest set bit (the pivot position of a nonzero row)."""
    return (x & -x).bit_length() - 1


def echelon_ints(rows: Sequence[int], start: Sequence[int] = ()) -> Tuple[List[int], List[int]]:
    """Reduced row echelon form of integer rows.

    Returns (basis, pivots) with pivots strictly increasing and every pivot
    column cleared in all other basis rows.  Zero rows are dropped.  A row
    is reduced at the pivots it hits, lowest first, and joins the basis at
    its lowest bit; the basis is reduced once at the end, from its highest
    pivot down.  So a row costs one XOR per pivot it hits.

    start, when given, is a basis already in that form (the basis of an
    earlier echelon_ints call); the result is then that of start + rows,
    which is unique.  Each row is first reduced against start in one
    whole-word pass (pivot_reach): a tail block reaches 2 columns.
    """
    return echelon_extend(echelon_start(start), rows)


EchelonStart = Tuple[Dict[int, int], int, List[Tuple[int, int]]]


def echelon_start(basis: Sequence[int]) -> EchelonStart:
    """What echelon_ints reads of a start basis before its first row: the
    rows by pivot bit, the mask of those bits and their pivot_reach.  A
    caller that reduces many row sets against one basis builds it once
    and hands it to echelon_extend, which leaves it as it was."""
    by_pivot = {b & -b: b for b in basis}
    mask = sum(by_pivot)
    return by_pivot, mask, pivot_reach(basis, mask)


def echelon_extend(start: EchelonStart, rows: Sequence[int]) -> Tuple[List[int], List[int]]:
    """echelon_ints(rows, start=basis), given echelon_start(basis)."""
    by_pivot, start_mask, reached = start
    by_pivot = dict(by_pivot)  # pivot bit -> basis row
    pivmask = start_mask
    for row in rows:
        hits = row & start_mask
        row ^= hits
        for col, pivs in reached:
            if (hits & pivs).bit_count() & 1:
                row ^= col
        hits = row & pivmask
        while hits:
            low = hits & -hits
            row ^= by_pivot[low]
            hits = row & pivmask & -(low << 1)
        if row:
            by_pivot[row & -row] = row
            pivmask |= row & -row
    for low in sorted(by_pivot, reverse=True):
        row = by_pivot[low]
        hits = row & pivmask ^ low
        while hits:
            row ^= by_pivot[hits & -hits]
            hits &= hits - 1
        by_pivot[low] = row
    order = sorted(by_pivot)
    return [by_pivot[bit] for bit in order], [bit.bit_length() - 1 for bit in order]


def pivot_reach(basis: Sequence[int], pivmask: int) -> List[Tuple[int, int]]:
    """Each column bit that rows reduced at each other's pivots reach off
    them, with the pivots of its rows: reducing by the rows at pivots
    `hits` clears them and flips each column by parity(hits & pivots)."""
    reach: Dict[int, int] = {}
    for b in basis:
        off = b & ~pivmask
        while off:
            col = off & -off
            reach[col] = reach.get(col, 0) | (b & -b)
            off ^= col
    return list(reach.items())


def reduce_by_echelon(v: int, basis: Sequence[int], pivots: Sequence[int]) -> int:
    """Residue of v after clearing every pivot column of an echelon basis."""
    for b, p in zip(basis, pivots):
        if (v >> p) & 1:
            v ^= b
    return v


def sliced_tables(images: Sequence[int], bits: int) -> List[int]:
    """Lookup tables for the linear map sending bit k to images[k].

    One flat list: entry (s << bits) | x is the image of x << (bits * s).
    Each entry is an earlier entry XOR one image; a last slice with fewer
    than `bits` images reads the missing bits as mapping to 0.
    """
    size = 1 << bits
    table: List[int] = []
    for s in range(0, len(images), bits):
        row = [0]
        for image in images[s : s + bits]:
            row += [x ^ image for x in row]
        table += row * (size // len(row))
    return table


def sliced_apply(table: Sequence[int], w: int, bits: int) -> int:
    """The image of w under the map whose sliced_tables are `table`."""
    mask = (1 << bits) - 1
    out = 0
    at = 0
    while w:
        out ^= table[at | (w & mask)]
        w >>= bits
        at += mask + 1
    return out
