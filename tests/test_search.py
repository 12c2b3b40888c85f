import hashlib
import multiprocessing
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from mixdih import calculus, gf2linalg
from mixdih import pcgroup as pc
from mixdih import search as se
from mixdih.graphs import letter_subgroups
from mixdih.pcgroup import (
    Subgroup,
    frattini,
    maximal_subgroups,
    small_intersection_order,
    subgroup_igs,
)


@pytest.fixture(scope="module")
def stab(p59):
    return se.stab_subgroup(p59)


@pytest.fixture(scope="module")
def level1(p59, stab):
    return se.descend(p59, se.root_level(p59, stab), se.SearchConfig())


def test_stab_shape(p59, stab):
    assert stab.order == 64
    assert stab.contains(1 << p59.names.index("x1"))
    assert not stab.contains(1 << p59.names.index("r"))


def test_stab_meets_the_normal_part_in_the_x_block(p59, stab):
    inner = subgroup_igs(p59, [1 << i for i in range(3, p59.n)])
    meet = [w for w in stab.elements() if inner.contains(w)]
    xblock = subgroup_igs(p59, [1 << p59.names.index(f"x{i}") for i in range(1, 5)])
    assert len(meet) == 16
    assert sorted(meet) == sorted(xblock.elements())


def test_level1_counts(level1):
    # rank of the top quotient is 2, so three maximal subgroups; the one
    # containing the whole stabilizer image drops out
    assert level1.candidates == 3
    assert len(level1.survivors) == 2
    assert level1.required_meet_log == 5


def test_level1_survivor_invariants(p59, stab, level1):
    phi_top = frattini(p59, se.full_group(p59))
    for rows, meet_rows in zip(level1.survivors, level1.meets):
        sub = Subgroup(p59, rows)
        assert sub.order_log == 58
        assert all(sub.contains(m) for m in phi_top.members)
        meet = Subgroup(p59, meet_rows)
        assert meet.order_log == 5
        assert small_intersection_order(p59, sub, stab) == 32
        for w in meet.members:
            assert stab.contains(w) and sub.contains(w)


def test_level1_survivors_are_distinct(p59, level1):
    a, b = (Subgroup(p59, rows) for rows in level1.survivors)
    assert a.digest() != b.digest()
    assert not (all(a.contains(m) for m in b.members) and all(b.contains(m) for m in a.members))


def test_descend_is_deterministic(p59, stab, level1):
    again = se.descend(p59, se.root_level(p59, stab), se.SearchConfig())
    assert again.survivors == level1.survivors
    assert again.meets == level1.meets


def test_levels_past_the_stabilizer_are_rejected(p59, pools):
    # each level halves the stabilizer meet, so a trivial stabilizer
    # leaves no level to run; the run refuses before it forks
    cfg = se.SearchConfig(levels=1, threads=2)
    with pytest.raises(ValueError, match="stabilizer"):
        se.run_search(p59, cfg, stab=Subgroup(p59, []))
    assert pools == []


def test_required_meet_sequence(p59, stab, fresh_run):
    assert se.root_level(p59, stab).required_meet_log == 6
    assert fresh_run[0].required_meet_logs == [5, 4, 3, 2, 1, 0]


def _reference_descent(group, stab, levels):
    """Survivor counts per level and the last level's digests, keeping
    each maximal subgroup whose stabilizer meet, counted by enumerating
    the stabilizer, has the required order."""
    level = {se.full_group(group).digest(): se.full_group(group)}
    counts = []
    for k in range(1, levels + 1):
        need = 1 << (stab.order_log - k)
        new = {}
        for s in level.values():
            for m in maximal_subgroups(group, s):
                if small_intersection_order(group, m, stab) == need:
                    new.setdefault(m.digest(), m)
        level = new
        counts.append(len(level))
    return counts, set(level)


@pytest.mark.parametrize("threads", [1, 2])
def test_descent_finds_the_regular_subgroups_of_r(p59, threads):
    """Positive control on p59 itself: against the cyclic <r> of order 8,
    a three-level descent must keep every subgroup of index 8 that meets
    <r> trivially, the normal part H = <g3..g58> among them; a filter that
    prunes too much would empty the last level, as the real run does."""
    r = subgroup_igs(p59, [1 << p59.names.index("r")])
    rep = se.run_search(p59, se.SearchConfig(levels=3, threads=threads), r)
    assert rep.candidate_counts == [3, 10, 82]
    assert rep.survivor_counts == [2, 6, 44]
    assert not rep.no_regular_subgroup
    final = set(rep.final_survivors)
    assert subgroup_igs(p59, [1 << i for i in range(3, p59.n)]).digest() in final
    # <r> is cyclic, so a meet is trivial exactly when it misses r4, its
    # one involution
    r4 = 1 << p59.names.index("r4")
    assert not any(Subgroup(p59, rows).contains(r4) for rows in final)
    assert _reference_descent(p59, r, 3) == ([2, 6, 44], final)


# ── desk-scale runs on the 2+2-letter group ──────────────────────────────────


@pytest.fixture(scope="module")
def toy_stab(toy):
    xsub, _ = letter_subgroups(toy)
    return xsub


def test_toy_descent_finds_regular_subgroups(toy, toy_stab):
    # the toy group acting on its x-block cosets has plenty of regular
    # subgroups, e.g. the y block joined with the derived subgroup, so a
    # two-level descent must keep survivors
    cfg = se.SearchConfig(levels=2)
    rep = se.run_search(toy, cfg, stab=toy_stab)
    assert rep.survivor_counts[-1] > 0
    assert not rep.no_regular_subgroup
    y_and_derived = subgroup_igs(
        toy, [1 << 2, 1 << 3] + [1 << (4 + t) for t in range(4)]
    )
    assert y_and_derived.order_log == 6
    assert y_and_derived.digest() in {
        Subgroup(toy, rows).digest() for rows in rep.final_survivors
    }


def test_toy_descent_matches_brute_filter(toy, toy_stab):
    # oracle: every subgroup of index 2 with halved stabilizer meet
    cfg = se.SearchConfig(levels=1)
    rep = se.run_search(toy, cfg, stab=toy_stab)
    from mixdih.pcgroup import maximal_subgroups

    full = se.full_group(toy)
    keep = []
    for mx in maximal_subgroups(toy, full):
        meet = sum(1 for w in toy_stab.elements() if mx.contains(w))
        if meet == 2:
            keep.append(mx.digest())
    assert sorted(keep) == sorted(rep.final_survivors)


def test_parallel_matches_serial(toy, toy_stab):
    serial = se.run_search(toy, se.SearchConfig(levels=2, threads=1), stab=toy_stab)
    forked = se.run_search(toy, se.SearchConfig(levels=2, threads=2), stab=toy_stab)
    assert serial.survivor_counts == forked.survivor_counts
    assert serial.final_survivors == forked.final_survivors


def test_toy_sylow_descent_keeps_its_regular_subgroups(toy_sylow):
    """Positive control for the verdict's method at toy scale: against the
    vertex stabilizer <X, sigma*tau, tau**2> of P_toy = toy:<sigma, tau>,
    of order 16 and index 128, the descent keeps survivors at every level
    down to the regular subgroups of order 128.  It runs as many levels
    as the stabilizer's order log, 4, when none are given."""
    stab = se.stab_subgroup(toy_sylow)
    assert stab.order == 16
    assert stab.contains(0b011) and stab.contains(0b100)
    assert not stab.contains(0b001) and not stab.contains(0b010)
    rep = se.run_search(toy_sylow, se.SearchConfig(), stab)
    assert rep.candidate_counts == [7, 30, 78, 264]
    assert rep.survivor_counts == [6, 14, 40, 72]
    assert not rep.no_regular_subgroup


def test_stab_subgroup_needs_a_split_extension(tmp_path, toy, h56, p59):
    path = tmp_path / "p59.pc2"
    pc.save_presentation(p59, path)
    for group in (toy, h56, pc.load_presentation(path)):
        with pytest.raises(ValueError, match="split extension"):
            se.stab_subgroup(group)


def test_checkpoint_roundtrip(tmp_path, toy, toy_stab):
    path = tmp_path / "descent.txt"
    one = se.run_search(toy, se.SearchConfig(levels=2, checkpoint_path=path), stab=toy_stab)
    head, *lines = path.read_text(encoding="ascii").splitlines()
    assert head == f"level 2 count {len(one.final_survivors)}"
    assert [tuple(int(tok, 16) for tok in ln.split()) for ln in lines] == one.final_survivors
    assert one.final_survivors  # toy2 keeps survivors, so the rows are checked


def test_write_checkpoint_replaces_whole(tmp_path, toy, toy_stab, monkeypatch):
    path = tmp_path / "ck.txt"
    level1 = se.descend(toy, se.root_level(toy, toy_stab), se.SearchConfig())
    se.write_checkpoint(path, level1)
    before = path.read_bytes()
    assert [p.name for p in tmp_path.iterdir()] == ["ck.txt"]

    def crash(src, dst):
        raise OSError("disk full")

    # a write that fails before the move leaves the previous checkpoint whole
    monkeypatch.setattr(se.os, "replace", crash)
    with pytest.raises(OSError):
        se.write_checkpoint(path, se.descend(toy, level1, se.SearchConfig()))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["ck.txt"]  # ck.txt.tmp removed


# sha256 of each level's checkpoint bytes, first 16 hex digits; the
# Frattini-closure implementation of the descent wrote the same bytes
CHECKPOINT_SHA256 = [
    "622bdba4137c3ef3",
    "72adb6469b612d04",
    "bbc769d3f5227187",
    "4d0eabd061232656",
    "e93e3d6c923340ba",
    "626497dff66ad8fb",
]


# p59 multiply and inverse calls of stab_subgroup and six descend calls
# outside a run, each call with a product memo of its own, through which
# the kernel products of kernel_members go too; a change that loses the
# clash skip in relation_rows, a closed-form inverse, the tail path (XOR
# in the elementary abelian tail, its members as their own inverses,
# conjugates of tail members read by tail_conjugate) or a kind of entry
# in the memo, that builds the halved stabilizer meets by a subgroup
# closure instead of kernel_members, or that changes the generators
# stab_subgroup hands subgroup_igs (the x block, r**2, r**4 and r**6),
# moves them
DESCENT_CALLS = {"multiply": 8_275, "inverse": 227}

# top relation rows that cut a tail block's annihilator, and tail
# blocks built on a memo miss (pcgroup._tail_span), in the same run; a
# change that reduces the top x tail pairs as top rows, or that loses
# the per-key memo of the blocks, moves them
RELATION_WORK = {"top_rows": 7_206, "tail_blocks": 55}

# gf2linalg.echelon_reduce calls in the same run, all from the tail step
# of Subgroup._divide; a change that reduces rows by an empty start, or
# that reduces the top rows by the tail block again to read the
# homomorphisms, moves it
GF2_WORK = {"echelon_reduce": 9_765}


def _counting(calls, name, fn):
    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return counted


def _summing_top_rows(work, name, fn):
    def summed(*args):
        out = fn(*args)
        work[name] += len(out[0])
        return out

    return summed


@pytest.fixture(scope="module")
def counted_descent(p59):
    """Levels 1-6 of the descent as run_search runs it, with the p59
    multiply and inverse calls it made, its relation work and its
    echelon_reduce calls."""
    calls = dict.fromkeys(DESCENT_CALLS, 0)
    work = dict.fromkeys(RELATION_WORK, 0)
    gf2 = dict.fromkeys(GF2_WORK, 0)
    with pytest.MonkeyPatch.context() as mp:
        for name in calls:
            mp.setattr(p59, name, _counting(calls, name, getattr(p59, name)))
        mp.setattr(pc, "relation_rows", _summing_top_rows(work, "top_rows", pc.relation_rows))
        mp.setattr(pc, "_tail_span", _counting(work, "tail_blocks", pc._tail_span))
        reduce = _counting(gf2, "echelon_reduce", gf2linalg.echelon_reduce)
        mp.setattr(pc, "echelon_reduce", reduce)
        mp.setattr(gf2linalg, "echelon_reduce", reduce)
        levels = [se.root_level(p59, se.stab_subgroup(p59))]
        for _ in range(6):
            levels.append(se.descend(p59, levels[-1], se.SearchConfig()))
    return levels[1:], calls, work, gf2


def test_descent_work_is_pinned(counted_descent):
    levels, calls = counted_descent[:2]
    assert [len(level.survivors) for level in levels] == [2, 2, 12, 48, 128, 0]
    assert calls == DESCENT_CALLS


def test_relation_work_is_pinned(counted_descent):
    assert counted_descent[2] == RELATION_WORK


def test_gf2_work_is_pinned(counted_descent):
    assert counted_descent[3] == GF2_WORK


def _assert_same_levels(got, serial):
    for level, want in zip(got, serial, strict=True):
        assert (level.depth, level.required_meet_log) == (want.depth, want.required_meet_log)
        assert (level.survivors, level.meets) == (want.survivors, want.meets)
        assert level.candidates == want.candidates


@pytest.fixture
def pools(monkeypatch):
    """The map_async, terminate and join calls made on each pool
    constructed on the fork context, one dict per pool."""
    ctx = multiprocessing.get_context("fork")
    made = []
    real = ctx.Pool

    def counted(*args, **kwargs):
        pool = real(*args, **kwargs)
        calls = dict.fromkeys(("map_async", "terminate", "join"), 0)
        for name in calls:
            setattr(pool, name, _counting(calls, name, getattr(pool, name)))
        made.append(calls)
        return pool

    monkeypatch.setattr(ctx, "Pool", counted)
    return made


def test_parallel_matches_serial_on_p59(monkeypatch, p59, stab, counted_descent, pools):
    """A run on N = 2 or 3 workers hands the trailing shares of levels 2-6
    (level 1 has a single survivor) to its pool of N - 1 workers, each
    with its own copy of the run's memo, and expands the leading share
    itself with the run's memo; levels 1-6, merged in survivor order,
    equal the serial ones."""
    descend = se.descend
    for threads in (2, 3):
        levels = []

        def recorded(group, level, config):
            levels.append(descend(group, level, config))
            return levels[-1]

        monkeypatch.setattr(se, "descend", recorded)
        se.run_search(p59, se.SearchConfig(threads=threads), stab)
        _assert_same_levels(levels, counted_descent[0])
    assert [pool["map_async"] for pool in pools] == [5, 5]


def test_parallel_run_ships_each_level_in_survivor_order(monkeypatch, p59, stab, counted_descent):
    """A run on N workers forks a pool of N - 1, and each map_async call
    on it ships the level's (survivor, meet) pairs past the leading
    ceil(n/N), which this process expands, in survivor order and in
    chunks of ceil(n/N), one per pool worker: levels 2-6, with 2, 2, 12,
    48 and 128 survivors (level 1 has a single survivor and is expanded
    in this process).  On 2 workers the pool gets 1, 1, 6, 24 and 64."""
    for threads, shares in ((2, [1, 1, 6, 24, 64]), (3, [1, 1, 8, 32, 85])):
        _assert_shipped_shares(monkeypatch, p59, stab, counted_descent[0], threads, shares)


def _assert_shipped_shares(monkeypatch, p59, stab, serial, threads, shares):
    ctx = multiprocessing.get_context("fork")
    shipped, chunks, sizes, real_pool = [], [], [], ctx.Pool

    def recording_pool(processes):
        sizes.append(processes)
        pool = real_pool(processes)
        real_map_async = pool.map_async

        def mapped(fn, tasks, chunksize):
            shipped.append(list(tasks))
            chunks.append(chunksize)
            return real_map_async(fn, shipped[-1], chunksize)

        pool.map_async = mapped
        return pool

    monkeypatch.setattr(ctx, "Pool", recording_pool)
    assert se.run_search(p59, se.SearchConfig(threads=threads), stab).no_regular_subgroup
    assert sizes == [threads - 1]
    pairs = [list(zip(level.survivors, level.meets)) for level in serial[:5]]
    own = [-(-len(level) // threads) for level in pairs]
    assert shipped == [level[k:] for level, k in zip(pairs, own)]
    assert chunks == own
    assert [len(tasks) for tasks in shipped] == shares


def _in_a_fresh_process(code: str) -> str:
    """The stripped stdout of code run by a new interpreter that imports
    mixdih from this checkout."""
    src = str(Path(se.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_importing_the_cli_does_not_import_multiprocessing():
    """Only a run that forks a pool imports multiprocessing, so a serial
    run or a verify does not pay for the import."""
    assert _in_a_fresh_process("import sys, mixdih.cli; print('multiprocessing' in sys.modules)") == "False"


def test_importing_the_engine_loads_no_dataclasses():
    """The engine's records are plain classes: dataclasses and what it
    pulls in (inspect, ast, dis) would add about 20 ms to every process's
    start.  Only modules the import adds count, so a site hook that loads
    them first cannot fail this."""
    code = (
        "import sys; before = set(sys.modules); import mixdih.cli, mixdih.search; "
        "print(sorted({'dataclasses', 'inspect', 'ast', 'dis'} & (set(sys.modules) - before)))"
    )
    assert _in_a_fresh_process(code) == "[]"


def test_descend_outside_a_run_forks_no_pool(p59, counted_descent, pools):
    """Only run_search forks; a direct call expands its level in process,
    whatever its worker count."""
    serial = counted_descent[0]
    level = se.descend(p59, serial[2], se.SearchConfig(threads=2))
    assert pools == []
    _assert_same_levels([level], [serial[3]])


def test_parallel_run_forks_one_pool_and_matches_serial(p59, stab, pools):
    """run_search forks one pool for the whole run (a pool per level forked
    five, one for each of levels 2-6) and reaches the serial run's report."""
    serial = se.run_search(p59, se.SearchConfig(), stab)
    assert pools == []
    forked = se.run_search(p59, se.SearchConfig(threads=2), stab)
    assert len(pools) == 1
    for name in ("required_meet_logs", "survivor_counts", "candidate_counts", "final_survivors"):
        assert getattr(forked, name) == getattr(serial, name)
    assert forked.survivor_counts == [2, 2, 12, 48, 128, 0]
    assert forked.no_regular_subgroup and serial.no_regular_subgroup
    assert multiprocessing.active_children() == []


def _raise_at_depth_3(line):
    if line.startswith("depth 3:"):
        raise RuntimeError(line)


@pytest.mark.parametrize(
    "settings, error, match, maps",
    [
        ({}, None, None, 5),
        ({"log": _raise_at_depth_3}, RuntimeError, "depth 3:", 2),  # after the shares of levels 2 and 3
        ({"checkpoint_path": "missing/ck.txt"}, OSError, "missing", 0),
    ],
    ids=["return", "abort", "checkpoint"],
)
def test_no_worker_outlives_a_run(
    tmp_path, monkeypatch, p59, stab, pools, settings, error, match, maps
):
    """The run's pool is terminated and joined once whether the run
    returns, aborts mid-descent, or fails to write its first
    checkpoint."""
    monkeypatch.chdir(tmp_path)  # which has no directory named missing
    config = se.SearchConfig(threads=2, **settings)
    if error is None:
        assert se.run_search(p59, config, stab).no_regular_subgroup
    else:
        with pytest.raises(error, match=match):
            se.run_search(p59, config, stab)
    assert pools == [{"map_async": maps, "terminate": 1, "join": 1}]
    assert multiprocessing.active_children() == []


def test_a_failure_in_this_process_share_ends_the_pool(monkeypatch, p59, stab, counted_descent, pools):
    """An expansion that raises in this process's own share of level 4,
    while the pool's worker expands the other share, still terminates
    and joins the pool once and leaves no worker behind.  The failing
    expansion is this process's: the forked worker, which inherits the
    patch, runs it as it was."""
    parent, expand = os.getpid(), se._expand_one
    level3 = set(counted_descent[0][2].survivors)

    def failing(group, memo, rows, meet_rows):
        if os.getpid() == parent and rows in level3:
            raise RuntimeError("this process's share of level 4")
        return expand(group, memo, rows, meet_rows)

    monkeypatch.setattr(se, "_expand_one", failing)
    with pytest.raises(RuntimeError, match="share of level 4"):
        se.run_search(p59, se.SearchConfig(threads=2), stab)
    assert pools == [{"map_async": 3, "terminate": 1, "join": 1}]  # levels 2-4 shipped theirs
    assert multiprocessing.active_children() == []


def test_checkpoint_bytes_are_pinned(tmp_path, p59, stab, counted_descent):
    digests = []
    for level in counted_descent[0]:
        se.write_checkpoint(tmp_path / "ck.txt", level)
        digests.append(hashlib.sha256((tmp_path / "ck.txt").read_bytes()).hexdigest()[:16])
    assert digests == CHECKPOINT_SHA256


# p59 multiply and inverse calls of a serial six-level run_search given
# the stabilizer: the misses of the run's one product memo, which all six
# levels share and which the kernel products of kernel_members and
# _canonical_members go through too, and the products the memo does not
# hold
RUN_CALLS = {"multiply": 7_028, "inverse": 138}


def _counted_run(p59, stab):
    """A serial six-level run_search and the p59 calls it made."""
    calls = dict.fromkeys(RUN_CALLS, 0)
    with pytest.MonkeyPatch.context() as mp:
        for name in calls:
            mp.setattr(p59, name, _counting(calls, name, getattr(p59, name)))
        report = se.run_search(p59, se.SearchConfig(), stab)
    return report, calls


@pytest.fixture(scope="module")
def fresh_run(p59, stab):
    return _counted_run(p59, stab)


def test_run_search_work_is_pinned(fresh_run):
    report, calls = fresh_run
    assert report.survivor_counts == [2, 2, 12, 48, 128, 0]
    assert report.no_regular_subgroup
    assert calls == RUN_CALLS


def test_the_memo_does_not_outlive_its_run(p59, stab):
    """Two runs back to back in one process: a memo kept past its run
    would save the second run some of the first run's calls."""
    for _ in range(2):
        assert _counted_run(p59, stab)[1] == RUN_CALLS
        assert se._RUN == {}


def test_a_run_leaves_the_presentation_as_it_was(h56):
    """A presentation holds no state that a run changes: a serial run on
    a p59 built for this test leaves each of its attributes as it was."""
    group = calculus.build_p59(h56)
    before = {name: repr(value) for name, value in vars(group).items()}
    assert se.run_search(group, se.SearchConfig(), se.stab_subgroup(group)).no_regular_subgroup
    assert {name: repr(value) for name, value in vars(group).items()} == before


def test_a_shared_memo_expands_as_a_fresh_one(p59, stab):
    """Every survivor of levels 0-5, expanded with one memo shared across
    its level and with a memo of its own, gives the same kernels and
    meets: the memo holds nothing that depends on a survivor's
    coordinates.  The levels are walked here, from the fresh-memo
    expansions, so a faulty shared memo cannot hide behind them."""
    level = [(se.full_group(p59).members, stab.members)]
    counts = []
    for _ in range(6):
        shared, new = pc.ProductMemo(p59), {}
        for rows, meet_rows in level:
            fresh = se._expand_one(p59, pc.ProductMemo(p59), rows, meet_rows)
            assert se._expand_one(p59, shared, rows, meet_rows) == fresh
            for key, meet in fresh[1]:
                new.setdefault(key, meet)
        level = list(new.items())
        counts.append(len(level))
    assert counts == [2, 2, 12, 48, 128, 0]


def _run_memo(group, stab, levels):
    """The memo of a serial run over `levels` levels, warm from all of
    them, and every survivor it expanded or kept, root first."""
    with se._run(group, 1):
        memo = se._RUN["memo"]
        level = se.root_level(group, stab)
        survivors = list(level.survivors)
        for _ in range(levels):
            level = se.descend(group, level, se.SearchConfig())
            survivors += level.survivors
    return memo, survivors


@pytest.mark.parametrize("target, levels, kept", [("p59", 6, 192), ("toy_sylow", 4, 132)])
def test_a_run_memo_builds_each_survivor_as_a_fresh_one(request, target, levels, kept):
    """Every survivor built as a Subgroup through a run's warm memo, which
    hands it the tail half of its division tables and its tail block's
    echelon start, has the division tables and the homomorphisms of one
    built through a memo of its own.  The memo must have shared both
    kinds of entry among the survivors, or the test shows nothing."""
    group = request.getfixturevalue(target)
    memo, survivors = _run_memo(group, se.stab_subgroup(group), levels)
    assert len(survivors) == 1 + kept
    for rows in survivors:
        warm, fresh = Subgroup(group, rows, memo), Subgroup(group, rows)
        for name in ("_lead_mask", "_div", "_tail", "_runs"):
            assert getattr(warm, name) == getattr(fresh, name), name
        assert pc.c2_homomorphisms(group, warm) == pc.c2_homomorphisms(group, fresh)
    assert len(memo.tails) < len(memo.spans) < len(survivors)


def test_a_run_memo_still_rejects_unreduced_tail_members(p59, stab):
    """A member tuple whose tail members are not reduced at each other's
    leads raises ValueError through a run's warm memo, which holds valid
    tail halves for the same number of top members, and leaves no entry
    behind, so a second try raises too."""
    memo, survivors = _run_memo(p59, stab, 6)
    held = dict(memo.tails)
    tried = 0
    for rows in survivors[-8:]:
        k = sum(1 for m in rows if m & p59.top_mask)
        assert (k, rows[k:]) in held
        bad = list(rows)
        bad[k] ^= bad[k + 1]  # sets bit lead(bad[k + 1]) in bad[k], keeps its lead
        for _ in range(2):
            with pytest.raises(ValueError, match="reduced at each other's leading indices"):
                Subgroup(p59, bad, memo)
        assert memo.tails == held
        tried += 1
    assert tried == 8


def test_levels_are_closed_under_conjugation_by_the_stabilizer(p59, stab, counted_descent):
    """Conjugation by an element of the stabilizer maps a subgroup to one
    of the same index whose meet with the stabilizer has the same order,
    and maps its chain of maximal subgroups to another such chain; so
    each level must hold the conjugates of its survivors.  This catches
    a lost kernel or a faulty dedup even where a count happens to match.
    Every survivor of levels 1-2, and a seeded 8 from each of levels 3-5,
    conjugated by each stabilizer generator and closed by subgroup_igs."""
    rng = random.Random(59)
    gens = [1 << p59.names.index(nm) for nm in ("x1", "x2", "x3", "x4", "r2")]
    levels = counted_descent[0][:5]
    for level in levels:
        survivors = set(level.survivors)
        sample = level.survivors if level.depth <= 2 else rng.sample(level.survivors, 8)
        for rows in sample:
            for g in gens:
                t = subgroup_igs(p59, [p59.conjugate(m, g) for m in rows])
                assert t.members in survivors
                assert small_intersection_order(p59, t, stab) == 1 << level.required_meet_log


def test_worker_count_ignores_the_environment(monkeypatch):
    monkeypatch.setenv("DF_THREADS", "4")
    assert se.SearchConfig().worker_count() == 1
    assert se.SearchConfig(threads=3).worker_count() == 3


def test_search_reports_do_not_share_lists():
    one, two = se.SearchReport(), se.SearchReport()
    for name in ("required_meet_logs", "survivor_counts", "candidate_counts", "final_survivors"):
        assert getattr(one, name) is not getattr(two, name)


@pytest.mark.parametrize("threads", [0, -3])
def test_search_config_rejects_threads_below_one(threads):
    with pytest.raises(ValueError, match="threads"):
        se.SearchConfig(threads=threads)


@pytest.mark.parametrize("levels", [0, -2])
def test_search_config_rejects_levels_below_one(levels):
    with pytest.raises(ValueError, match="levels"):
        se.SearchConfig(levels=levels)
