"""Command line front end for the engine.

Subcommands: build (write a presentation file), verify (run the named
claim checks and emit a JSON report), search (the regular-subgroup
descent), graph (desk-scale graph export), maps (check a letter map
file).  Exit codes: 0 success, 1..63 the number of failed checks (or a
generic failure), 64 survivor-budget abort, 65 I/O error, 66 malformed
checkpoint given to search --resume, or one whose depth is past
--levels.  Usage errors exit 2 before any check runs.
"""

import argparse
import json
import random
import sys
import time
from typing import Callable, Dict, List, Optional

from . import __version__ as ENGINE_VERSION
from . import graphs as gr
from . import morphisms as mo
from . import search as se
from .calculus import SIG, build_h56, build_p59, build_toy
from .pcgroup import (
    PcPresentation,
    consistency_check,
    derived_subgroup,
    frattini,
    load_presentation,
    maximal_subgroups,
    save_presentation,
    small_intersection_order,
    subgroup_igs,
)

DEFAULT_SEED = 7

# the descent's certificate: survivors and candidates per level
DESCENT_SURVIVORS = [2, 2, 12, 48, 128, 0]
DESCENT_CANDIDATES = [3, 6, 14, 84, 336, 896]


def _build_target(name: str) -> PcPresentation:
    if name == "toy2":
        return build_toy()
    if name == "h56":
        return build_h56()
    if name == "p59":
        return build_p59(build_h56())
    raise ValueError(f"unknown target {name!r}")


# ── verification checks ──────────────────────────────────────────────────────


def _jsonable(value):
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


class CheckRun:
    """Collects named checks; each records expected vs actual and timing."""

    def __init__(self):
        self.entries: List[Dict] = []

    def add(
        self, name: str, claim: str, expected, thunk: Callable[[], object], seed: Optional[int] = None
    ) -> None:
        """Run thunk and record its result against expected.  A check
        that draws random words passes the --seed they come from, and its
        entry records it."""
        t0 = time.perf_counter()
        try:
            actual = _jsonable(thunk())
        except Exception as exc:  # a crashed check is a failed check
            actual = f"error: {type(exc).__name__}: {exc}"
        expected = _jsonable(expected)
        self.entries.append({
            "name": name,
            "status": "pass" if actual == expected else "fail",
            "expected": expected,
            "actual": actual,
            "claim": claim,
            "seconds": round(time.perf_counter() - t0, 3),
        })
        if seed is not None:
            self.entries[-1]["seed"] = seed

    @property
    def failures(self) -> int:
        return sum(1 for e in self.entries if e["status"] != "pass")


def _structural_checks(run: CheckRun, group: PcPresentation, label: str, order_log: int) -> None:
    run.add(
        f"{label}_consistency_violations",
        "all pc overlap tests collect consistently",
        0,
        lambda: len(consistency_check(group)),
    )
    run.add(
        f"{label}_order_log",
        f"the built group has order 2^{order_log}",
        order_log,
        lambda: group.n,
    )


def _checks_h56(run: CheckRun, h: PcPresentation) -> None:
    _structural_checks(run, h, "h56", 56)
    derived = derived_subgroup(h, se.full_group(h))
    run.add(
        "h56_derived_order_log",
        "the derived subgroup has order 2^48",
        48,
        lambda: derived.order_log,
    )
    run.add(
        "h56_abelianization_rank",
        "the quotient by the derived subgroup is elementary abelian of rank 8",
        8,
        lambda: h.n - derived.order_log,
    )

    def derived_elementary():
        mul = h.multiply
        for i, a in enumerate(derived.members):
            if mul(a, a) != 0:
                return False
            for b in derived.members[i + 1:]:
                if h.commutator(a, b) != 0:
                    return False
        return True

    run.add(
        "h56_derived_elementary_abelian",
        "the derived subgroup is elementary abelian",
        True,
        derived_elementary,
    )
    xsub, ysub = gr.letter_subgroups(h)
    run.add(
        "h56_letter_block_orders",
        "each letter block is elementary abelian of order 2^4",
        [16, 16],
        lambda: [xsub.order, ysub.order],
    )
    run.add(
        "h56_letter_blocks_meet_trivially",
        "the two letter blocks intersect trivially",
        1,
        lambda: small_intersection_order(h, xsub, ysub),
    )

    named = mo.catalog(h)
    positive = [
        "x_singer_generator", "y_singer_generator",
        "x_companion_cycle", "y_companion_cycle", "twist_conjugation",
    ]
    verified: Dict[str, mo.VerifiedAutomorphism] = {}

    def extend_all():
        for nm in positive:
            verified[nm] = mo.extend(named[nm])
        return sorted(verified)

    run.add(
        "h56_named_maps_extend",
        "the five named letter maps extend to automorphisms",
        sorted(positive),
        extend_all,
    )
    run.add(
        "h56_automorphism_orders",
        "the named automorphisms have orders 15, 15, 5, 5, 8",
        [15, 15, 5, 5, 8],
        lambda: [mo.automorphism_order(verified[nm]) for nm in positive],
    )

    def singer_cube_inverts_companion():
        ok = True
        for blk in ("x", "y"):
            singer = verified[f"{blk}_singer_generator"]
            companion = verified[f"{blk}_companion_cycle"]
            ok = ok and mo.letter_power(singer, 3) == mo.letter_power(companion, 4)
        return ok

    run.add(
        "h56_singer_cube_inverts_companion",
        "the cube of each singer generator is the inverse of its companion cycle",
        True,
        singer_cube_inverts_companion,
    )

    def generators() -> List[mo.VerifiedAutomorphism]:
        return [verified[nm] for nm in ("x_singer_generator", "y_singer_generator", "twist_conjugation")]

    found: Dict[str, object] = {}

    def twist_relations():
        found["twist"] = mo.twist_conjugation_check(*generators())
        return found["twist"]

    run.add(
        "h56_twist_conjugation_relations",
        "conjugation by the twist swaps the singer generators as expected",
        True,
        twist_relations,
    )
    non_examples = ["x_centralizer_candidate", "x_half_turn"]

    def negatives():
        rejected = []
        for nm in non_examples:
            try:
                mo.extend(named[nm])
            except mo.NotHomomorphism:
                rejected.append(nm)
        found["rejected"] = rejected
        return rejected

    run.add(
        "h56_negative_maps_rejected",
        "the two deliberate non-examples fail to extend",
        non_examples,
        negatives,
    )

    def closure_order():
        found["closure"] = mo.closure(generators(), cap=4000)
        return found["closure"].order

    run.add(
        "h56_closure_order",
        "the closure of the two singer generators and the twist has order 1800",
        1800,
        closure_order,
    )

    def hypotheses():
        k = found["closure"]
        letter_set = (set(xsub.elements()) | set(ysub.elements())) - {0}
        gens = generators()
        orbit = mo.orbit([1], lambda u: [g.apply(u) for g in gens])  # orbit of x1
        stab = mo.pointwise_x_stabilizer(h, k)
        y_cycle = mo.closure([verified["y_singer_generator"]], cap=100)
        # a closure containing the full product of both letter-block linear
        # groups would have order divisible by |GL(4,2)|**2
        fields = [
            len(orbit), orbit == letter_set, len(stab),
            stab == y_cycle.letter_tuples, k.order % (20160 ** 2) != 0,
        ]
        ok = (
            fields == [30, True, 15, True, True]
            and k.order == 1800
            and found.get("twist") is True
            and found.get("rejected") == non_examples
        )
        return fields + [ok]

    run.add(
        "h56_normality_hypotheses",
        "single orbit of size 30 on the letter set, pointwise stabilizer of "
        "order 15 equal to the y-singer cycle, and closure order not divisible "
        "by 20160^2; the last field also needs closure order 1800, the twist "
        "relations and both non-examples rejected",
        [30, True, 15, True, True, True],
        hypotheses,
    )


def _checks_p59(run: CheckRun, p: PcPresentation, seed: int) -> None:
    _structural_checks(run, p, "p59", 59)
    r = 1 << p.names.index("r")
    r2 = 1 << p.names.index("r2")
    run.add(
        "p59_chain_generator_order",
        "the chain generator has order 8",
        8,
        lambda: p.element_order(r),
    )
    inner = subgroup_igs(p, [1 << i for i in range(3, p.n)])
    run.add(
        "p59_normal_part_order_log",
        "the image of the layered group has order 2^56 and index 8",
        56,
        lambda: inner.order_log,
    )
    run.add(
        "p59_normal_part_closed_under_chain",
        "conjugation by the chain generator preserves the layered part",
        True,
        lambda: all(inner.contains(p.conjugate(m, r)) for m in inner.members),
    )

    def square_twist():
        base = p.names.index("x1")
        for i in range(4):
            xi = 1 << (base + i)
            if p.conjugate(xi, r2) != 1 << (base + SIG[i]):
                return False
        return True

    run.add(
        "p59_square_twist_images",
        "the square of the chain generator permutes the x letters by the "
        "order-4 cycle of the twist",
        True,
        square_twist,
    )

    def embedding(seed=seed):
        h = p.meta.base
        rng = random.Random(seed)
        for _ in range(200):
            a = rng.getrandbits(h.n)
            b = rng.getrandbits(h.n)
            if p.multiply(a << 3, b << 3) != h.multiply(a, b) << 3:
                return False
        return True

    run.add(
        "p59_embedding_agreement",
        "products of layered elements agree with the layered group",
        True,
        embedding,
        seed=seed,
    )
    full = se.full_group(p)
    run.add(
        "p59_top_rank",
        "the quotient by the Frattini subgroup has rank 2",
        2,
        lambda: p.n - frattini(p, full).order_log,
    )
    run.add(
        "p59_maximal_count",
        "there are exactly 3 maximal subgroups",
        3,
        lambda: len(maximal_subgroups(p, full)),
    )
    stab = se.stab_subgroup(p)
    run.add(
        "p59_stab_order",
        "the base vertex stabilizer has order 2^6",
        64,
        lambda: stab.order,
    )
    run.add(
        "p59_stab_meets_normal_part_in_x_block",
        "the stabilizer meets the layered part in the x block",
        16,
        lambda: small_intersection_order(p, inner, stab),
    )


def _right_translations(group: PcPresentation, elements) -> List[Callable[[int], int]]:
    """The maps z -> z*w, one per element w."""
    return [lambda z, w=w: group.multiply(z, w) for w in elements]


def _toy_quotient(toy: PcPresentation, xsub, ysub, sigma: gr.SimpleGraph) -> gr.NormalQuotient:
    """The incidence graph modulo the orbits of the derived subgroup."""
    derived = derived_subgroup(toy, se.full_group(toy))
    translations = gr.bicoset_action(toy, xsub, ysub, sigma, _right_translations(toy, derived.members))
    return gr.normal_quotient(sigma, gr.vertex_orbits(sigma, translations))


def _checks_toy2(run: CheckRun, toy: PcPresentation) -> None:
    _structural_checks(run, toy, "toy2", 8)
    xsub, ysub = gr.letter_subgroups(toy)
    gamma = gr.cayley_graph(toy, gr.letter_connection_set(toy))
    sigma = gr.bicoset_graph(toy, xsub, ysub)
    run.add(
        "toy2_cayley_shape",
        "the Cayley graph has 256 vertices, valency 6, and is connected",
        [256, 6, True],
        lambda: [gamma.vertex_count, gamma.regular_valency(), gamma.is_connected()],
    )
    run.add(
        "toy2_incidence_shape",
        "the coset incidence graph has 64+64 vertices, valency 4, 256 edges",
        [128, 64, 4, 256, True],
        lambda: [
            sigma.vertex_count,
            sum(sigma.bipartition),
            sigma.regular_valency(),
            sigma.edge_count,
            sigma.is_connected(),
        ],
    )
    run.add(
        "toy2_incidence_girth",
        "the coset incidence graph has girth 8",
        8,
        sigma.girth,
    )
    run.add(
        "toy2_line_graph_correspondence",
        "element-to-edge identifies the Cayley graph with the line graph",
        True,
        lambda: gr.verify_line_graph_correspondence(toy, xsub, ysub, gamma, sigma),
    )

    def quotient_shape():
        quo = _toy_quotient(toy, xsub, ysub, sigma)
        q = quo.graph
        xs = [i for i in range(q.vertex_count) if q.bipartition[i] == 0]
        ys = [i for i in range(q.vertex_count) if q.bipartition[i] == 1]
        complete = all(q.has_edge(u, w) for u in xs for w in ys)
        return [q.vertex_count, q.regular_valency(), complete, quo.cover]

    run.add(
        "toy2_quotient_complete_bipartite_cover",
        "the quotient by derived-subgroup orbits is complete bipartite on "
        "4+4 vertices and the map is a cover",
        [8, 4, True, True],
        quotient_shape,
    )
    translations = gr.bicoset_action(
        toy, xsub, ysub, sigma, _right_translations(toy, [1 << i for i in range(toy.n)])
    )

    def arc_counts():
        auts = [mo.extend(g) for g in mo.toy_catalog(toy).values()]
        aut_maps = gr.bicoset_action(toy, xsub, ysub, sigma, [aut.apply for aut in auts])
        translations_only, with_auts = gr.two_arc_orbit_counts(sigma, translations, aut_maps)
        return [with_auts, translations_only > 1]

    run.add(
        "toy2_two_arc_orbits",
        "one orbit on ordered 2-arcs with the full generators, several with "
        "translations alone",
        [1, True],
        arc_counts,
    )
    run.add(
        "toy2_edge_regular_translation_action",
        "right translations act regularly on the 256 incidence edges",
        True,
        lambda: gr.edge_regular_check(sigma, translations, 256),
    )
    run.add(
        "toy2_cliques_are_letter_cosets",
        "the maximal cliques of the Cayley graph are the letter-block cosets",
        True,
        lambda: gr.cliques_are_letter_cosets(toy, xsub, ysub, gamma),
    )


def _checks_properties(run: CheckRun, groups: Dict[str, PcPresentation], seed: int) -> None:
    def associativity(group, label):
        rng = random.Random(seed ^ sum(map(ord, label)))
        mul = group.multiply
        for _ in range(10_000):
            u = rng.getrandbits(group.n)
            v = rng.getrandbits(group.n)
            w = rng.getrandbits(group.n)
            if mul(mul(u, v), w) != mul(u, mul(v, w)):
                return False
        return True

    for label, group in groups.items():
        run.add(
            f"property_associativity_{label}",
            "collection is associative on 10^4 random triples",
            True,
            lambda group=group, label=label: associativity(group, label),
            seed=seed,
        )

    def fast_matches_collect(group):
        rng = random.Random(seed + 13)
        for _ in range(300):
            u = rng.getrandbits(group.n)
            v = rng.getrandbits(group.n)
            if group.multiply(u, v) != group.collect_multiply(u, v):
                return False
        return True

    for label, group in groups.items():
        run.add(
            f"property_fast_mul_matches_collection_{label}",
            "the closed-form product agrees with the collector on samples",
            True,
            lambda group=group: fast_matches_collect(group),
            seed=seed,
        )

    def igs_canonical(group):
        gens = [1 << i for i in range(0, group.n, 2)]
        rng = random.Random(seed)
        base = subgroup_igs(group, gens).digest()
        for _ in range(5):
            shuffled = gens[:]
            rng.shuffle(shuffled)
            extra = [group.multiply(shuffled[0], shuffled[-1])] + shuffled
            if subgroup_igs(group, extra).digest() != base:
                return False
        return True

    for label, group in groups.items():
        run.add(
            f"property_igs_canonical_{label}",
            "shuffled and redundant generators give the same canonical IGS",
            True,
            lambda group=group: igs_canonical(group),
            seed=seed,
        )

    def maximal_counts():
        out = []
        for group in groups.values():
            full = se.full_group(group)
            rank = group.n - frattini(group, full).order_log
            out.append(len(maximal_subgroups(group, full)) == (1 << rank) - 1)
        return all(out)

    run.add(
        "property_maximal_counts_match_rank",
        "each group has 2^rank - 1 maximal subgroups",
        True,
        maximal_counts,
    )


def _check_search(run: CheckRun, p: PcPresentation, threads: int) -> None:
    def descent():
        rep = se.run_search(p, se.SearchConfig(threads=threads))
        return [rep.survivor_counts, rep.candidate_counts, rep.no_regular_subgroup]

    run.add(
        "p59_no_regular_subgroup",
        f"the six-level descent keeps {DESCENT_SURVIVORS} survivors of "
        f"{DESCENT_CANDIDATES} candidates, so no subgroup acts regularly "
        "on the stabilizer cosets",
        [DESCENT_SURVIVORS, DESCENT_CANDIDATES, True],
        descent,
    )


# ── subcommands ──────────────────────────────────────────────────────────────


def cmd_build(args) -> int:
    group = _build_target(args.target)
    violations = consistency_check(group)
    if violations:
        print(f"consistency check failed: {len(violations)} violations", file=sys.stderr)
        for v in violations[:5]:
            print(f"  {v}", file=sys.stderr)
        return 1
    save_presentation(group, args.out)
    print(f"wrote {args.target} (n={group.n}) to {args.out}")
    return 0


def cmd_verify(args) -> int:
    run = CheckRun()
    t0 = time.perf_counter()
    built: Dict[str, PcPresentation] = {}
    if args.from_file:
        expected_n = {"toy2": 8, "h56": 56, "p59": 59}[args.target]

        def parse():
            built[args.target] = load_presentation(args.from_file)
            return True

        run.add(f"{args.target}_file_parses", "the presentation file parses", True, parse)
        if run.failures == 0:
            _structural_checks(run, built[args.target], args.target, expected_n)
    else:
        targets = ["h56", "p59", "toy2"] if args.target == "all" else [args.target]
        if "h56" in targets or "p59" in targets:
            built["h56"] = build_h56()
        if "p59" in targets:
            built["p59"] = build_p59(built["h56"])
        if "toy2" in targets:
            built["toy2"] = build_toy()
        if "h56" in targets:
            _checks_h56(run, built["h56"])
        if "p59" in targets:
            _checks_p59(run, built["p59"], args.seed)
        if "toy2" in targets:
            _checks_toy2(run, built["toy2"])
        if args.target == "all":
            _checks_properties(run, built, args.seed)
            _check_search(run, built["p59"], args.threads)
    report = {
        "engine_version": ENGINE_VERSION,
        "target": args.target,
        "checks": run.entries,
        "timings": {"total_seconds": round(time.perf_counter() - t0, 3)},
    }
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.report:
        with open(args.report, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    failed = [e["name"] for e in run.entries if e["status"] != "pass"]
    if failed:
        print(f"{len(failed)} checks failed: {', '.join(failed)}", file=sys.stderr)
    return min(run.failures, 63)


def cmd_search(args) -> int:
    p = _build_target("p59")
    cfg = se.SearchConfig(
        levels=args.levels,
        max_survivors=args.max_survivors,
        checkpoint_path=args.checkpoint,
        resume_path=args.resume,
        threads=args.threads,
        log=lambda msg: print(msg, flush=True),
    )
    try:
        rep = se.run_search(p, cfg)
    except se.MemoryBudgetExceeded as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return 64
    except se.BadCheckpoint as exc:
        print(f"bad checkpoint: {exc}", file=sys.stderr)
        return 66
    print(f"survivors per level: {rep.survivor_counts}")
    print(f"wall seconds: {rep.wall_seconds:.2f}")
    if rep.no_regular_subgroup:
        print("verdict: no regular subgroup")
        return 0
    print("verdict: survivors remain", file=sys.stderr)
    return 1


def cmd_graph(args) -> int:
    toy = _build_target("toy2")
    xsub, ysub = gr.letter_subgroups(toy)
    if args.which == "cayley":
        graph = gr.cayley_graph(toy, gr.letter_connection_set(toy))
    elif args.which == "incidence":
        graph = gr.bicoset_graph(toy, xsub, ysub)
    else:
        graph = _toy_quotient(toy, xsub, ysub, gr.bicoset_graph(toy, xsub, ysub)).graph
    if args.emit_graph:
        gr.write_graph(graph, args.emit_graph)
        print(f"wrote {graph.vertex_count} vertices, {graph.edge_count} edges")
    else:
        sys.stdout.write(gr.format_graph(graph))
    return 0


def cmd_maps(args) -> int:
    group = _build_target(args.target)
    try:
        if args.file == "-":
            text = sys.stdin.read()
        else:
            with open(args.file, "r", encoding="ascii") as fh:
                text = fh.read()
        gmap = mo.parse_generator_map(group, text)
    except ValueError as exc:  # also undecodable bytes
        print(f"bad map file: {exc}", file=sys.stderr)
        return 1
    try:
        aut = mo.extend(gmap)
    except (mo.NotHomomorphism, mo.NotBijective) as exc:
        print(f"not an automorphism: {exc}")
        return 1
    print(f"automorphism of order {mo.automorphism_order(aut)}")
    return 0


# ── argument parsing ─────────────────────────────────────────────────────────


def _positive_int(text: str) -> int:
    """--threads, --levels and --max-survivors: an int of at least 1, else a
    usage error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="mixdih", description=__doc__)
    ap.add_argument("--version", action="version", version=ENGINE_VERSION)
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build a group and write its presentation file")
    b.add_argument("target", choices=["h56", "p59", "toy2"])
    b.add_argument("out", help="output path for the presentation file")
    b.set_defaults(func=cmd_build)

    v = sub.add_parser("verify", help="run the named checks and write a JSON report")
    v.add_argument("target", choices=["h56", "p59", "toy2", "all"])
    v.add_argument("--report", help="write the JSON report here instead of stdout")
    v.add_argument("--from-file", help="check a presentation file instead of building")
    v.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help="seed of p59_embedding_agreement and the verify all property suites,"
        f" recorded in their report entries; other checks ignore it (default {DEFAULT_SEED})",
    )
    v.add_argument("--threads", type=_positive_int, default=1, help="descent workers, for target all only (default 1)")
    v.set_defaults(func=cmd_verify)

    s = sub.add_parser("search", help="run the regular-subgroup descent")
    s.add_argument("--levels", type=_positive_int, default=6, help="descent levels, at least 1 (default 6)")
    s.add_argument("--max-survivors", type=_positive_int, default=10_000_000, help="survivors per level before exit 64, at least 1")
    s.add_argument("--checkpoint", help="write each completed level here")
    s.add_argument("--resume", help="resume from a checkpoint file")
    s.add_argument("--threads", type=_positive_int, default=1, help="descent workers (default 1)")
    s.set_defaults(func=cmd_search)

    g = sub.add_parser("graph", help="export a desk-scale graph")
    g.add_argument("which", choices=["cayley", "incidence", "quotient"])
    g.add_argument("--emit-graph", help="write the adjacency text here")
    g.set_defaults(func=cmd_graph)

    m = sub.add_parser("maps", help="check a letter map file against a group")
    m.add_argument("target", choices=["h56", "toy2"])
    m.add_argument("file", help="map file with lines like 'x1 -> x1*x2', or -")
    m.set_defaults(func=cmd_maps)
    return ap


def main(argv=None) -> int:
    ap = _parser()
    args = ap.parse_args(argv)
    if args.command == "verify" and args.target == "all" and args.from_file:
        ap.error("verify all builds its groups; --from-file needs h56, p59 or toy2")
    if args.command == "verify" and args.target != "all" and args.threads != 1:
        ap.error("only verify all runs the descent, so only it takes --threads")
    try:
        return args.func(args)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 65


if __name__ == "__main__":
    sys.exit(main())
