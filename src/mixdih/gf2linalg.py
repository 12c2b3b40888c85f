"""Dense linear algebra over GF(2) on short bit-vectors.

Bit convention, fixed across the whole package and all file formats:
bit k of an integer is coordinate (column) k, i.e. column 0 is the lowest
bit.  A vector of width w is an int in range(2**w), and a matrix is a
sequence of such rows.  Nothing here is sparse.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

__all__ = [
    "word_bits",
    "lowbit_index",
    "echelon_ints",
    "reduce_by_echelon",
    "rank_ints",
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


def echelon_ints(rows: Sequence[int]) -> Tuple[List[int], List[int]]:
    """Reduced row echelon form of integer rows.

    Returns (basis, pivots) with pivots strictly increasing and every pivot
    column cleared in all other basis rows.  Zero rows are dropped.  The
    basis is kept reduced as it grows, so a row meets each basis row only
    at that row's pivot: reducing it takes one XOR per pivot bit it has.
    """
    by_pivot: Dict[int, int] = {}  # pivot bit -> basis row
    pivmask = 0
    for row in rows:
        hits = row & pivmask
        while hits:
            low = hits & -hits
            row ^= by_pivot[low]
            hits ^= low
        if row == 0:
            continue
        low = row & -row
        for bit, b in by_pivot.items():
            if b & low:
                by_pivot[bit] = b ^ row
        by_pivot[low] = row
        pivmask |= low
    order = sorted(by_pivot)
    return [by_pivot[bit] for bit in order], [bit.bit_length() - 1 for bit in order]


def reduce_by_echelon(v: int, basis: Sequence[int], pivots: Sequence[int]) -> int:
    """Residue of v after clearing every pivot column of an echelon basis."""
    for b, p in zip(basis, pivots):
        if (v >> p) & 1:
            v ^= b
    return v


def rank_ints(rows: Sequence[int]) -> int:
    return len(echelon_ints(rows)[0])

