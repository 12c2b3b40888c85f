"""Descent over the maximal-subgroup lattice ruling out regular subgroups.

The chain-extended group acts on the right cosets of its vertex
stabilizer (order 2**6), so a subgroup acting regularly on that coset
space would have index 2**6 and trivial meet with the stabilizer.  Every
overgroup of such a subgroup still covers the coset space, and covering
pins the stabilizer meet exactly: a subgroup of index 2**k covers iff
its meet with the stabilizer has order 2**(6-k).  An index-2 step can
only keep the meet or halve it, so any regular subgroup sits at the
bottom of a six-step chain of maximal subgroups whose stabilizer meets
halve at every level.  The run expands those chains breadth-first with
canonical deduplication; an empty sixth level proves that no regular
subgroup exists.  A run goes no deeper than the stabilizer's order log,
where the meet is trivial and cannot halve again.

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
spans at most (p59: 1, 2, 2, 6, 14, 30 per level).  The memo holds each
span, built as the reduced echelon form of its coordinates the first
time a survivor needs it (pcgroup.relation_rows); each survivor reduces
only its top rows against it.

The survivors of a run also share most of their top members, and so
the products their relations, divisions and kernels need.  Every
pcgroup.Subgroup multiplies through a memo (pcgroup.ProductMemo), its
own unless it is given one, and run_search makes one per process per
run, which the Subgroup of every survivor and its kernels share: the
inverse and the square of each top member, the two products that
conjugate each clashing pair of top members, each top step of a coords
division, each product that builds a kernel, the echelon basis of each
top part's tail words, and the spans.  It is keyed by member and word
values, never by a survivor's coordinates, so a memo hit equals the
product it stands for.  The memo is made before the pool is forked, so
each worker inherits it empty and fills its own, and it is dropped
when the run returns or raises; no product is kept from one run to the
next.  The presentation keeps its conj table and the tail-action table
of each top part whose commutators a span needs
(PcPresentation.tail_action, at most ACTION_CACHE_CAP of them, a cap
p59 does not reach), so repeated runs in one process reuse those tables
and a CLI run builds them once.  A descend called outside a run shares
a memo of its own among that call's survivors.

Levels hold survivors as canonical IGS member tuples (not Subgroup
objects) to keep the per-survivor footprint at a few dozen ints.  The
per-level expansion is an independent map over the survivors.  With
more than one worker, run_search forks the one process pool of the run
before its first level, maps every level with more than one survivor
onto it, one task per survivor in survivor order, and terminates and
joins it before returning or raising; no other code forks, and a
descend called outside a run always expands its level in this process.
Each task carries its survivor and its meet, so the workers need
nothing from the parent past the fork but the group and the empty memo.
The map returns the results in survivor order and the dedup map is
merged in that order, so counts do not depend on the worker count; a
span that survivors in two workers need is built in both.

A checkpoint file is an export of one level's survivors, rewritten after
each level; the engine never reads it back.
"""

import os
import time
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

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


@dataclass
class SearchConfig:
    levels: int = 6
    checkpoint_path: Optional[str] = None
    threads: int = 1
    log: Optional[Callable[[str], None]] = None

    def __post_init__(self):
        if self.levels < 1:
            raise ValueError(f"levels must be at least 1, got {self.levels}")
        if self.threads < 1:
            raise ValueError(f"threads must be at least 1, got {self.threads}")

    def worker_count(self) -> int:
        return self.threads


@dataclass
class SearchLevel:
    """One breadth-first level: all live subgroups of index 2**depth.

    survivors[i] is the canonical IGS of a subgroup and meets[i] the IGS
    of its meet with the vertex stabilizer; the meet order is
    2**required_meet_log for every survivor t, which together with the
    order 2**(n-depth) certifies t * stab = whole group.  Each level
    halves the meet, so required_meet_log is the stabilizer's order log
    less depth.
    """

    depth: int
    required_meet_log: int
    survivors: List[Rows]
    meets: List[Rows]
    candidates: int = 0


@dataclass
class SearchReport:
    required_meet_logs: List[int] = field(default_factory=list)
    survivor_counts: List[int] = field(default_factory=list)
    candidate_counts: List[int] = field(default_factory=list)
    final_survivors: List[Rows] = field(default_factory=list)
    wall_seconds: float = 0.0
    no_regular_subgroup: bool = False


# ── the acting group's distinguished subgroups ──────────────────────────────


def stab_subgroup(p: PcPresentation) -> Subgroup:
    """Stabilizer of the base vertex: the x block joined with the square
    of the chain generator."""
    gens = [1 << p.names.index(nm) for nm in ("x1", "x2", "x3", "x4", "r2")]
    return subgroup_igs(p, gens)


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


# The run_search in progress: its group, its memo and, when it forked one,
# its pool.  A forked worker inherits the group and the memo as they were
# at the fork, the memo still empty, and fills its own copy.
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
    expanded with the run's memo, and a level with more than one
    survivor goes to the run's pool, when it forked one, one task per
    survivor.  Otherwise they are expanded in this process; a call
    outside a run uses a memo of its own.  Either way the results come
    back, and are merged, in survivor order.  config is not read; it
    stays in the signature that perfbench/traced.py wraps."""
    pairs = list(zip(level.survivors, level.meets))
    run = _RUN if _RUN.get("group") is group else {"memo": ProductMemo(group)}
    if "pool" in run and len(pairs) > 1:
        results = run["pool"].map(_expand_task, pairs)
    else:
        results = [_expand_one(group, run["memo"], rows, meet_rows) for rows, meet_rows in pairs]
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
    a pool of `workers` processes, which inherit the memo empty; descend
    uses both for `group` until the block ends.  Then drop the memo, and
    terminate and join the pool, also on an exception."""
    _RUN.update(group=group, memo=ProductMemo(group))
    pool = None
    try:
        if workers > 1:
            import multiprocessing  # only here: serial runs and verify never fork

            pool = _RUN["pool"] = multiprocessing.get_context("fork").Pool(workers)
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


def run_search(
    p: PcPresentation,
    config: Optional[SearchConfig] = None,
    stab: Optional[Subgroup] = None,
) -> SearchReport:
    """Breadth-first descent from the whole group, one level per halving
    of the stabilizer meet; an empty final level means no subgroup acts
    regularly on the stabilizer's coset space.  Raises ValueError, before
    any level runs, for more levels than the stabilizer's order log."""
    config = config or SearchConfig()
    stab = stab if stab is not None else stab_subgroup(p)
    if config.levels > stab.order_log:
        raise ValueError(f"levels {config.levels} is past the stabilizer's order 2^{stab.order_log}")
    t0 = time.perf_counter()
    level = root_level(p, stab)
    report = SearchReport()
    with _run(p, config.worker_count()):
        while level.depth < config.levels:
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
