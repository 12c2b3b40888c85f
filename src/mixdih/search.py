"""Descent over the maximal-subgroup lattice ruling out regular subgroups.

The split extension p59 = h56:<r> acts on the right cosets of its vertex
stabilizer (order 2**6), so a subgroup acting regularly on that coset
space would have index 2**6 and trivial meet with the stabilizer.  Every
overgroup of such a subgroup still covers the coset space, and covering
pins the stabilizer meet exactly: a subgroup of index 2**k covers iff
its meet with the stabilizer has order 2**(6-k).  An index-2 step can
only keep the meet or halve it, so any regular subgroup sits at the
bottom of a six-step chain of maximal subgroups whose stabilizer meets
halve at every level.  The run expands those chains breadth-first with
canonical deduplication; an empty sixth level proves that no regular
subgroup exists.  A run goes to the stabilizer's order log, where the
meet is trivial and cannot halve again, unless told to stop sooner.

A survivor's maximal subgroups are the kernels of its homomorphisms to
C2, found as GF(2) functionals on its IGS coordinates
(pcgroup.c2_homomorphisms).  The filter runs on those coordinates: the
stabilizer meet's members are given coordinates once per survivor, a
kernel contains the meet when the functional vanishes on all of them and
halves it otherwise.  Only the kernels that pass are built, as canonical
member tuples (pcgroup.kernel_members).  A halved meet is itself a
kernel, of the functional restricted to the meet, whose bit t is the
functional's parity on the meet's member t; it is built the same way,
and has index 2 in the old meet by construction.

Most of a survivor's relations are top x tail commutators, whose span
in the elementary abelian tail depends only on the survivor's top parts
and tail members, and survivors of one level share a few dozen such
spans at most (p59: 1, 2, 2, 6, 14, 30 per level).  The memo holds one
entry per span, the echelon_start of the reduced echelon form of its
coordinates (gf2linalg.echelon_start), built the first time a survivor
needs it (pcgroup.relation_rows).  A survivor's homomorphisms are read
off the annihilator of that block, its start's `reached` list, which
each of its top rows cuts by at most one functional; no survivor
echelonizes its rows.  Survivors share their tail members even more
(p59's 128 level-5 survivors have 4 sets of them), and the memo holds
the tail half of each Subgroup's division tables under its tail
members (pcgroup._tail_division): their echelon_start, by which a tail
word is reduced in one step (gf2linalg.echelon_reduce).

The survivors of a run also share most of their top members, and so
the products their relations, divisions and kernels need.  Every
pcgroup.Subgroup multiplies through a memo (pcgroup.ProductMemo), its
own unless it is given one, and run_search makes one per process per
run, which the Subgroup of every survivor and its kernels share: the
inverse and the square of each top member, the two products that
conjugate each clashing pair of top members, each top step of a coords
division, each product that builds a kernel, the echelon basis of each
top part's tail words, the spans and the tail halves.  It is keyed by
member and word values, never by a survivor's coordinates, so a memo
hit equals the product it stands for.  The memo is made before the
pool is forked, so each forked worker inherits it empty and fills its
own, while this process keeps filling the run's memo; it is dropped
when the run returns or raises, and no product is kept from one run to
the next.  The presentation holds nothing that a run changes: a span's tail
words are read from its conj table (PcPresentation.tail_conjugate), so
repeated runs in one process each start from the same state.  A descend
called outside a run shares a memo of its own among that call's
survivors.

Levels hold survivors as canonical IGS member tuples (not Subgroup
objects) to keep the per-survivor footprint at a few dozen ints.  The
per-level expansion is an independent map over the survivors.  With
N > 1 workers, run_search forks the one process pool of the run, of
N - 1 processes, before its first level, and this process is the N-th
worker.  Each level of n survivors is cut into shares of ceil(n/N), in
survivor order: the pool gets the trailing shares first, one per
worker (p59 on 2 workers: 1, 1, 6, 24 and 64 survivors at levels 2-6),
and this process expands the leading share with the run's memo while
they run.  A level's children are listed in their parents' order, so
on 2 workers each process keeps expanding the subtree its memo has
seen.  The pool is terminated and joined before run_search returns or
raises; no other code forks, and a descend called outside a run always
expands its whole level in this process.  Each task carries its
survivor and its meet, so the workers need nothing from the parent
past the fork but the group and the empty memo.  The shares come back
in survivor order and the dedup map is merged in that order, so counts
do not depend on the worker count; a span that survivors in two
processes need is built in both.

A checkpoint file is an export of one level's survivors, rewritten after
each level; the engine never reads it back.
"""

import os
import time
from contextlib import contextmanager, suppress
from typing import Callable, Dict, List, Optional, Tuple

from .calculus import ExtensionMeta
from .pcgroup import (
    PcPresentation,
    ProductMemo,
    Subgroup,
    c2_homomorphisms,
    kernel_members,
    subgroup_igs,
)

# Unused here; perfbench/traced.py wraps them under these names.
from .pcgroup import frattini, maximal_subgroups  # noqa: F401

Rows = Tuple[int, ...]


class SearchConfig:
    """levels None runs as many levels as the stabilizer's order log."""

    def __init__(
        self,
        levels: Optional[int] = None,
        checkpoint_path: Optional[str] = None,
        threads: int = 1,
        log: Optional[Callable[[str], None]] = None,
    ):
        if levels is not None and levels < 1:
            raise ValueError(f"levels must be at least 1, got {levels}")
        if threads < 1:
            raise ValueError(f"threads must be at least 1, got {threads}")
        self.levels = levels
        self.checkpoint_path = checkpoint_path
        self.threads = threads
        self.log = log

    def worker_count(self) -> int:
        return self.threads


class SearchLevel:
    """One breadth-first level: all live subgroups of index 2**depth.

    survivors[i] is the canonical IGS of a subgroup and meets[i] the IGS
    of its meet with the vertex stabilizer; the meet order is
    2**required_meet_log for every survivor t, which together with the
    order 2**(n-depth) certifies t * stab = whole group.  Each level
    halves the meet, so required_meet_log is the stabilizer's order log
    less depth.
    """

    def __init__(
        self, depth: int, required_meet_log: int, survivors: List[Rows], meets: List[Rows], candidates: int = 0
    ):
        self.depth = depth
        self.required_meet_log = required_meet_log
        self.survivors = survivors
        self.meets = meets
        self.candidates = candidates


class SearchReport:
    """What run_search found; each list argument left out starts empty."""

    def __init__(
        self,
        required_meet_logs: Optional[List[int]] = None,
        survivor_counts: Optional[List[int]] = None,
        candidate_counts: Optional[List[int]] = None,
        final_survivors: Optional[List[Rows]] = None,
        wall_seconds: float = 0.0,
        no_regular_subgroup: bool = False,
    ):
        self.required_meet_logs = [] if required_meet_logs is None else required_meet_logs
        self.survivor_counts = [] if survivor_counts is None else survivor_counts
        self.candidate_counts = [] if candidate_counts is None else candidate_counts
        self.final_survivors = [] if final_survivors is None else final_survivors
        self.wall_seconds = wall_seconds
        self.no_regular_subgroup = no_regular_subgroup


# ── the acting group's distinguished subgroups ──────────────────────────────


def stab_subgroup(p: PcPresentation) -> Subgroup:
    """Base vertex stabilizer of a split extension h:S: the x block and each
    element of S whose letter map keeps the x block (p59: r**2, r**4 and
    r**6); ValueError unless split_extension built p."""
    meta = p.meta
    if not isinstance(meta, ExtensionMeta):
        raise ValueError(f"the vertex stabilizer needs a split extension, not {p.label or 'this group'}")
    n, k = meta.base.meta.n, p.n - meta.base.n
    fixing = [s for s, letters in enumerate(meta.letter_maps) if s and all(w >> n == 0 for w in letters[:n])]
    return subgroup_igs(p, [1 << t for t in range(k, k + n)] + fixing)


def full_group(p: PcPresentation) -> Subgroup:
    return Subgroup(p, [1 << i for i in range(p.n)])


def root_level(p: PcPresentation, stab: Subgroup) -> SearchLevel:
    return SearchLevel(
        depth=0,
        required_meet_log=stab.order_log,
        survivors=[full_group(p).members],
        meets=[stab.members],
    )


# ── one descent step ─────────────────────────────────────────────────────────


# The run_search in progress: its group, its memo, its worker count and,
# when it forked one, its pool.  A forked worker inherits the group and
# the memo as they were at the fork, the memo still empty, and fills its
# own copy.
_RUN: Dict[str, object] = {}

Expansion = Tuple[int, List[Tuple[Rows, Rows]]]


def _expand_one(group: PcPresentation, memo: ProductMemo, rows: Rows, meet_rows: Rows) -> Expansion:
    """Expand one survivor: the maximal subgroups that halve its meet, plus
    their meets."""
    m = Subgroup(group, rows, memo)
    homs = c2_homomorphisms(group, m)
    meet_coords = [m.coords(w) for w in meet_rows]
    out: List[Tuple[Rows, Rows]] = []
    for a in homs:
        # a restricted to the meet, on the meet's own coordinates
        b = sum(1 << t for t, c in enumerate(meet_coords) if (c & a).bit_count() & 1)
        if b:
            out.append((kernel_members(group, rows, a, memo), kernel_members(group, meet_rows, b, memo)))
    return len(homs), out


def _expand_task(pair: Tuple[Rows, Rows]) -> Expansion:
    """_expand_one in a forked worker, on the run's group and on the
    worker's own copy of the run's memo."""
    return _expand_one(_RUN["group"], _RUN["memo"], *pair)


def descend(group: PcPresentation, level: SearchLevel, config: SearchConfig) -> SearchLevel:
    """All maximal subgroups of the survivors that halve their stabilizer
    meet, deduplicated by canonical IGS.

    Within the run_search in progress for `group`, the survivors are
    expanded with the run's memo.  When the run forked a pool for N
    workers, this process keeps the leading ceil(n/N) of the level's n
    survivors and the pool's N - 1 workers take the rest, in shares of
    that size, in survivor order: the shares go out first, and this
    process expands its own while the workers expand theirs.  A call
    outside a run expands the whole level here with a memo of its own.
    Either way the results come back, and are merged, in survivor
    order.  config is not read; it stays in the signature that
    perfbench/traced.py wraps."""
    pairs = list(zip(level.survivors, level.meets))
    run = _RUN if _RUN.get("group") is group else {"memo": ProductMemo(group), "workers": 1}
    own = -(-len(pairs) // run["workers"])
    shares = run["pool"].map_async(_expand_task, pairs[own:], chunksize=own) if own < len(pairs) else None
    results = [_expand_one(group, run["memo"], rows, meet_rows) for rows, meet_rows in pairs[:own]]
    if shares is not None:
        results += shares.get()
    new: Dict[Rows, Rows] = {}
    candidates = 0
    for seen, kernels in results:
        candidates += seen
        for key, meet_rows in kernels:
            new.setdefault(key, meet_rows)
    return SearchLevel(
        depth=level.depth + 1,
        required_meet_log=level.required_meet_log - 1,
        survivors=list(new.keys()),
        meets=list(new.values()),
        candidates=candidates,
    )


@contextmanager
def _run(group: PcPresentation, workers: int):
    """Make the run's memo for `group` and, for more than one worker, fork
    a pool of workers - 1 processes, which inherit the memo empty: this
    process is the last worker, and keeps the memo.  descend uses both
    for `group` until the block ends.  Then drop the memo, and terminate
    and join the pool, also on an exception."""
    _RUN.update(group=group, memo=ProductMemo(group), workers=workers)
    pool = None
    try:
        if workers > 1:
            import multiprocessing  # only here: serial runs and single-target verify never fork

            pool = _RUN["pool"] = multiprocessing.get_context("fork").Pool(workers - 1)
        yield
    finally:
        _RUN.clear()
        if pool is not None:
            pool.terminate()
            pool.join()


# ── checkpoints ──────────────────────────────────────────────────────────────


def write_checkpoint(path, level: SearchLevel) -> None:
    """Write the level next to path, then move it into place, so a crash
    mid-write leaves the previous checkpoint whole.  A write or move that
    fails removes the file next to path before the error propagates."""
    lines = [f"level {level.depth} count {len(level.survivors)}"]
    for rows in level.survivors:
        lines.append(" ".join(format(m, "x") for m in rows))
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):  # open may have failed before making it
            os.remove(tmp)
        raise


# ── the full run ─────────────────────────────────────────────────────────────


def run_search(p: PcPresentation, config: SearchConfig, stab: Subgroup) -> SearchReport:
    """Breadth-first descent from the whole group, one level per halving
    of the meet with stab, to config.levels or else stab.order_log; an
    empty final level means no subgroup acts regularly on stab's cosets.
    Raises ValueError, before any level runs, past stab.order_log."""
    levels = stab.order_log if config.levels is None else config.levels
    if levels > stab.order_log:
        raise ValueError(f"levels {levels} is past the stabilizer's order 2^{stab.order_log}")
    t0 = time.perf_counter()
    level = root_level(p, stab)
    report = SearchReport()
    with _run(p, config.worker_count()):
        while level.depth < levels:
            level = descend(p, level, config)
            report.required_meet_logs.append(level.required_meet_log)
            report.survivor_counts.append(len(level.survivors))
            report.candidate_counts.append(level.candidates)
            if config.log:
                config.log(
                    f"depth {level.depth}: {len(level.survivors)} survivors "
                    f"of {level.candidates} candidates (meet 2^{level.required_meet_log}) "
                    f"{time.perf_counter() - t0:.2f}s"
                )
            if config.checkpoint_path:
                write_checkpoint(config.checkpoint_path, level)
    report.final_survivors = list(level.survivors)
    report.wall_seconds = time.perf_counter() - t0
    report.no_regular_subgroup = not level.survivors
    return report
