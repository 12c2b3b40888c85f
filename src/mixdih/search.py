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
and tail members (pcgroup.tail_block_key), and survivors of one level
share a few dozen such spans at most (p59: 1, 2, 2, 6, 14, 30 per
level).  Each level's survivors are grouped by that key, and each group
is expanded with its own memo, which holds the span as the reduced
echelon form of its coordinates (pcgroup.relation_rows); so each span is
built once per run, by the first survivor of its group, and each
survivor reduces only its top rows against it.

Levels hold survivors as canonical IGS member tuples (not Subgroup
objects) to keep the per-survivor footprint at a few dozen ints.  The
per-level expansion is an independent map over the groups.  With more
than one worker, run_search forks the one process pool of the run
before its first level, maps every level with more than one group onto
it, one task per group, largest first, and terminates and joins it
before returning or raising; no other code forks, and a descend called
outside a run always expands its level in this process.  Each task
carries its survivors and their meets, so the workers need nothing from
the parent past the fork.  The results are put back in survivor order
and the dedup map is merged in that order, so counts do not depend on
the worker count.

A checkpoint file is an export of one level's survivors, rewritten after
each level; the engine never reads it back.
"""

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from .pcgroup import (
    PcPresentation,
    Subgroup,
    c2_homomorphisms,
    kernel_members,
    subgroup_igs,
    tail_block_key,
)

# Unused here; perfbench/traced.py wraps them under these names.
from .pcgroup import frattini, maximal_subgroups  # noqa: F401

Rows = Tuple[int, ...]


class MemoryBudgetExceeded(RuntimeError):
    """A level outgrew the configured survivor cap."""

    def __init__(self, depth: int, cap: int):
        super().__init__(f"survivor cap {cap} exceeded at depth {depth}")
        self.depth = depth
        self.cap = cap


@dataclass
class SearchConfig:
    levels: int = 6
    max_survivors: int = 10_000_000
    checkpoint_path: Optional[str] = None
    threads: int = 1
    log: Optional[Callable[[str], None]] = None

    def __post_init__(self):
        if self.levels < 1:
            raise ValueError(f"levels must be at least 1, got {self.levels}")
        if self.threads < 1:
            raise ValueError(f"threads must be at least 1, got {self.threads}")
        if self.max_survivors < 1:
            raise ValueError(f"max_survivors must be at least 1, got {self.max_survivors}")

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


# What _expand_group reads, in this process and in each forked worker: the
# group of the level it is on.
_FORK: Dict[str, object] = {}

# The pool of the run_search in progress, and the group it was forked for.
_RUN: Dict[str, object] = {}

Expansion = Tuple[int, List[Tuple[Rows, Rows]]]


def _expand_one(group: PcPresentation, spans: Dict, rows: Rows, meet_rows: Rows) -> Expansion:
    """Expand one survivor: the maximal subgroups that halve its meet, plus
    their meets."""
    m = Subgroup(group, rows)
    homs = c2_homomorphisms(group, m, spans)
    meet_coords = [m.coords(w) for w in meet_rows]
    out: List[Tuple[Rows, Rows]] = []
    for a in homs:
        # a restricted to the meet, on the meet's own coordinates
        b = sum(1 << t for t, c in enumerate(meet_coords) if (c & a).bit_count() & 1)
        if b:
            out.append((kernel_members(group, rows, a), kernel_members(group, meet_rows, b)))
    return len(homs), out


def _expand_group(payload: Tuple[List[Rows], List[Rows]]) -> List[Expansion]:
    """Expand survivors that share one tail-block key, in order, with one
    tail-block memo that lives as long as this call."""
    survivors, meets = payload
    group: PcPresentation = _FORK["group"]
    spans: Dict = {}
    return [_expand_one(group, spans, rows, meet_rows) for rows, meet_rows in zip(survivors, meets)]


def descend(group: PcPresentation, level: SearchLevel, config: SearchConfig) -> SearchLevel:
    """All maximal subgroups of the survivors that halve their stabilizer
    meet, deduplicated by canonical IGS.

    The survivors are grouped by tail_block_key, and each group is one
    task, expanded with its own tail-block memo, so each block is built
    once.  A level with more than one group is expanded on the pool of
    the run_search in progress when that pool was forked for `group`,
    largest group first.  Otherwise, and always when called outside a
    run, its groups are expanded in this process.  Either way the
    results are merged in survivor order."""
    by_key: Dict[Tuple, List[int]] = {}
    for i, rows in enumerate(level.survivors):
        by_key.setdefault(tail_block_key(group, rows), []).append(i)
    # largest first, so that a pool pulling one task at a time ends even
    groups = sorted(by_key.values(), key=len, reverse=True)
    payload = [([level.survivors[i] for i in idx], [level.meets[i] for i in idx]) for idx in groups]
    if _RUN.get("group") is group and len(payload) > 1:
        done = _RUN["pool"].map(_expand_group, payload, chunksize=1)
    else:
        _FORK["group"] = group
        done = [_expand_group(item) for item in payload]
    results: List[Expansion] = [None] * len(level.survivors)
    for idx, out in zip(groups, done):
        for i, expansion in zip(idx, out):
            results[i] = expansion
    new: Dict[Rows, Rows] = {}
    candidates = 0
    for seen, pairs in results:
        candidates += seen
        for key, meet_rows in pairs:
            if key not in new:
                new[key] = meet_rows
                if len(new) > config.max_survivors:
                    raise MemoryBudgetExceeded(level.depth + 1, config.max_survivors)
    return SearchLevel(
        depth=level.depth + 1,
        required_meet_log=level.required_meet_log - 1,
        survivors=list(new.keys()),
        meets=list(new.values()),
        candidates=candidates,
    )


@contextmanager
def _run_pool(group: PcPresentation, workers: int):
    """Fork a pool of `workers` processes, which inherit `group` in _FORK,
    and make it the one descend uses for `group` until the block ends;
    then terminate and join it, also on an exception.  A single worker
    needs none."""
    if workers < 2:
        yield
        return
    import multiprocessing  # only here: serial runs and verify never fork

    _FORK["group"] = group
    pool = multiprocessing.get_context("fork").Pool(workers)
    _RUN.update(group=group, pool=pool)
    try:
        yield
    finally:
        _RUN.clear()
        pool.terminate()
        pool.join()


# ── checkpoints ──────────────────────────────────────────────────────────────


def write_checkpoint(path, level: SearchLevel) -> None:
    """Write the level next to path, then move it into place, so a crash
    mid-write leaves the previous checkpoint whole."""
    lines = [f"level {level.depth} count {len(level.survivors)}"]
    for rows in level.survivors:
        lines.append(" ".join(format(m, "x") for m in rows))
    tmp = f"{os.fspath(path)}.tmp"
    with open(tmp, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
    os.replace(tmp, path)


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
    with _run_pool(p, config.worker_count()):
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
