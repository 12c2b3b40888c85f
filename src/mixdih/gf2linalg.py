"""Dense linear algebra over GF(2) on short bit-vectors.

Bit convention, fixed across the whole package and all file formats:
bit k of an integer is coordinate (column) k, i.e. column 0 is the lowest
bit.  A vector of width w is an int in range(2**w), and a matrix is a
sequence of such rows.  Nothing here is sparse.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

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
    column cleared in all other basis rows.  Zero rows are dropped.
    """
    basis: List[int] = []
    pivots: List[int] = []
    for row in rows:
        for b, p in zip(basis, pivots):
            if (row >> p) & 1:
                row ^= b
        if row == 0:
            continue
        p = lowbit_index(row)
        # insert keeping pivots sorted, then clear column p above
        at = 0
        while at < len(pivots) and pivots[at] < p:
            at += 1
        basis.insert(at, row)
        pivots.insert(at, p)
        for k in range(len(basis)):
            if k != at and (basis[k] >> p) & 1:
                basis[k] ^= row
    return basis, pivots


def reduce_by_echelon(v: int, basis: Sequence[int], pivots: Sequence[int]) -> int:
    """Residue of v after clearing every pivot column of an echelon basis."""
    for b, p in zip(basis, pivots):
        if (v >> p) & 1:
            v ^= b
    return v


def rank_ints(rows: Sequence[int]) -> int:
    return len(echelon_ints(rows)[0])

