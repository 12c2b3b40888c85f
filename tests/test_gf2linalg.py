import random

from hypothesis import example, given, strategies as st

from mixdih.gf2linalg import (
    echelon_extend,
    echelon_ints,
    echelon_reduce,
    echelon_start,
    pivot_reach,
    sliced_apply,
    sliced_tables,
)


def span_of(rows, width):
    """Oracle: the full XOR-span, enumerated element by element."""
    seen = {0}
    for r in rows:
        seen |= {r ^ s for s in seen}
    assert all(v < (1 << width) for v in seen)
    return seen


def reference_echelon(rows):
    """The sorted-list algorithm echelon_ints replaced: reduce each row by
    every basis row, insert it at its pivot, clear that column above."""
    basis, pivots = [], []
    for row in rows:
        for b, p in zip(basis, pivots):
            if (row >> p) & 1:
                row ^= b
        if row == 0:
            continue
        p = (row & -row).bit_length() - 1
        at = 0
        while at < len(pivots) and pivots[at] < p:
            at += 1
        basis.insert(at, row)
        pivots.insert(at, p)
        for k in range(len(basis)):
            if k != at and (basis[k] >> p) & 1:
                basis[k] ^= row
    return basis, pivots


def reference_reduce(v, basis):
    """The per-pivot loop echelon_reduce replaced: XOR each basis row
    whose pivot v has at the time, lowest pivot first."""
    for b in sorted(basis, key=lambda b: b & -b):
        if v & b & -b:
            v ^= b
    return v


@given(st.integers(1, 70).flatmap(
    lambda width: st.lists(st.integers(0, (1 << width) - 1), max_size=40)))
def test_echelon_matches_reference(rows):
    assert echelon_ints(rows) == reference_echelon(rows)


def block_shaped(rng, width, codim):
    """A reduced echelon basis of codimension codim in `width` columns,
    as the tail blocks are: its rows reach at most codim columns off
    their pivots, the free ones."""
    free = set(rng.sample(range(width), codim))
    return [1 << p | sum(1 << f for f in free if f > p and rng.getrandbits(1)) for p in range(width) if p not in free]


def test_echelon_from_a_start_basis_matches_reference():
    """Seeding the pivots from the basis of pre gives the reduced echelon
    form of pre + rows: with new rows, with none, and with new rows that
    all lie in the span of pre; echelon_reduce from it equals the
    per-pivot loop on each row.  The starts are random, of the tail
    blocks' shape (codimension 0-2, at most 2 columns reached off the
    pivots), or of low rank in many columns, so their rows reach many."""
    rng = random.Random(41)
    reached = set()
    for trial in range(600):
        width = rng.randrange(2, 70)
        shape, codim = trial // 3 % 3, trial // 9 % 3  # trial % 3 picks the rows
        if shape == 0:
            pre = [rng.getrandbits(width) for _ in range(rng.randrange(0, 20))]
        elif shape == 1:
            pre = block_shaped(rng, width, codim)
        else:
            pre = [rng.getrandbits(width) for _ in range(rng.randrange(1, 5))]
        start = echelon_ints(pre)[0]
        reach = pivot_reach(start, sum(b & -b for b in start))
        if shape == 1:
            assert start == pre and len(reach) <= codim
        reached.add(len(reach))
        if trial % 3 == 0:
            rows = []
        elif trial % 3 == 1:
            rows = [0] * rng.randrange(1, 20)
            for b in start:  # random combinations of the start basis
                rows = [r ^ b if rng.getrandbits(1) else r for r in rows]
        else:
            rows = [rng.getrandbits(width) for _ in range(rng.randrange(1, 20))]
        assert echelon_extend(echelon_start(start), rows) == reference_echelon(pre + rows)
        # one start state, read twice, is left as it was
        state = echelon_start(start)
        kept = (dict(state[0]), state[1], list(state[2]))
        assert echelon_extend(state, rows) == echelon_extend(state, rows[::-1]) == reference_echelon(pre + rows)
        assert [echelon_reduce(state, v) for v in rows] == [reference_reduce(v, start) for v in rows]
        assert state == kept and state[2] == reach
    assert {0, 1, 2} <= reached and max(reached) > 40
    assert echelon_extend(echelon_start([]), []) == ([], [])


def test_echelonize_example():
    # columns little-end: "110" = cols {0,1} = 3, "011" = cols {1,2} = 6
    basis, pivots = echelon_ints([3, 6])
    assert pivots == [0, 1]
    assert basis == [5, 6]  # "101" and "011"


def test_rank_zero_matrix():
    assert len(echelon_ints([0, 0])[0]) == 0
    assert len(echelon_ints([])[0]) == 0


def test_membership_residue():
    start = echelon_start(echelon_ints([3, 6])[0])
    assert echelon_reduce(start, 5) == 0
    # v=4 has no pivot bits set (pivots 0,1), so residue is v itself
    assert echelon_reduce(start, 4) == 4
    # v=1 hits pivot 0 only; its row 5 reaches column 2
    assert echelon_reduce(start, 1) == 4


def test_rank_against_span_enumeration():
    rng = random.Random(7)
    for _ in range(50):
        width = rng.randrange(1, 12)
        rows = [rng.randrange(1 << width) for _ in range(rng.randrange(0, 7))]
        r = len(echelon_ints(rows)[0])
        assert (1 << r) == len(span_of(rows, width))


def test_echelon_spans_same_space():
    rng = random.Random(11)
    for _ in range(40):
        width = rng.randrange(1, 10)
        rows = [rng.randrange(1 << width) for _ in range(rng.randrange(0, 6))]
        basis, pivots = echelon_ints(rows)
        assert span_of(rows, width) == span_of(basis, width)
        assert pivots == sorted(pivots)
        # RREF: each pivot column is zero in every other row
        for i, p in enumerate(pivots):
            for j, b in enumerate(basis):
                assert ((b >> p) & 1) == (1 if i == j else 0)


@given(
    st.integers(min_value=1, max_value=16).flatmap(
        lambda w: st.tuples(
            st.just(w),
            st.lists(st.integers(min_value=0, max_value=(1 << w) - 1), max_size=8),
            st.integers(min_value=0, max_value=(1 << w) - 1),
        )
    )
)
def test_membership_linear_in_residue(params):
    w, rows, v = params
    basis, pivots = echelon_ints(rows)
    start = echelon_start(basis)
    res = echelon_reduce(start, v)
    assert res == reference_reduce(v, basis)
    # residue is invariant under adding basis rows to v
    for b in basis:
        assert echelon_reduce(start, v ^ b) == res
    # and reduction is idempotent
    assert echelon_reduce(start, res) == res


@given(
    st.sampled_from([4, 8]),
    st.lists(st.integers(0, (1 << 64) - 1), max_size=21),
    st.lists(st.integers(min_value=0), max_size=8),
)
@example(bits=4, images=[3, 5, 6, 9, 17], words=[0b10110, 0b11111])
@example(bits=8, images=list(range(1, 14)), words=[(1 << 13) - 1, 1 << 8, 1 << 7])
def test_sliced_tables_apply_xors_the_images_of_set_bits(bits, images, words):
    table = sliced_tables(images, bits)
    slices = -(-len(images) // bits)
    assert len(table) == slices << bits
    for w in [0] + [w & ((1 << len(images)) - 1) for w in words]:
        expect = 0
        for k, image in enumerate(images):
            if w >> k & 1:
                expect ^= image
        assert sliced_apply(table, w, bits) == expect
