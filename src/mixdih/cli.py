"""Command line front end for the engine.

Subcommands: build (write a presentation file), verify (run the named
claim checks and emit a JSON report), search (the regular-subgroup
descent), graph (desk-scale graph export), maps (check a letter map
file).  The targets h56, p59 and toy2 come from one table, TARGETS,
which gives each its order log and its claim battery.  Exit codes: 0
success, 1..63 the number of failed checks (or a generic failure), 65
I/O error.  A --report path that cannot be written exits 65 before the
first check.  A --from-file path that is missing or unreadable is a
failed <target>_file_parses check, so verify exits 1 and still writes
its report; maps exits 65 on a missing file.  Usage errors, --levels
past the stabilizer's six halvings among them, exit 2 before any check
runs.
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


def _build_target(name: str, built: Optional[Dict[str, PcPresentation]] = None) -> PcPresentation:
    """Build target name into built and return it; p59 extends the h56
    already in built, which is built first if it is missing."""
    built = {} if built is None else built
    if name == "p59":
        built[name] = build_p59(built["h56"] if "h56" in built else _build_target("h56", built))
    else:
        built[name] = build_h56() if name == "h56" else build_toy()
    return built[name]


# ── verification checks ──────────────────────────────────────────────────────


def _jsonable(value):
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


class CheckRun:
    """Collects named checks; each records expected vs actual and timing.
    seed is the run's --seed, from which every random word is drawn."""

    def __init__(self, seed: int = DEFAULT_SEED):
        self.seed = seed
        self.entries: List[Dict] = []

    def add(self, name: str, claim: str, expected, thunk: Callable[[], object], seeded: bool = False) -> None:
        """Run thunk and record its result against expected.  A check
        that draws random words from run.seed is seeded, and its entry
        records the seed."""
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
        if seeded:
            self.entries[-1]["seed"] = self.seed


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


def _checks_p59(run: CheckRun, p: PcPresentation) -> None:
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

    def embedding():
        h = p.meta.base
        rng = random.Random(run.seed)
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
        seeded=True,
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


def _toy_quotient(toy: PcPresentation, sigma: gr.BicosetGraph) -> gr.NormalQuotient:
    """The incidence graph modulo the orbits of the derived subgroup."""
    derived = derived_subgroup(toy, se.full_group(toy))
    translations = gr.bicoset_action(sigma, _right_translations(toy, derived.members))
    return gr.normal_quotient(sigma, gr.vertex_orbits(sigma, translations))


def _checks_toy2(run: CheckRun, toy: PcPresentation) -> None:
    gamma = gr.cayley_graph(toy, gr.letter_connection_set(toy))
    sigma = gr.bicoset_graph(toy, *gr.letter_subgroups(toy))
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
        lambda: gr.verify_line_graph_correspondence(gamma, sigma),
    )

    def quotient_shape():
        quo = _toy_quotient(toy, sigma)
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
    translations = gr.bicoset_action(sigma, _right_translations(toy, [1 << i for i in range(toy.n)]))

    def arc_counts():
        auts = [mo.extend(g) for g in mo.toy_catalog(toy).values()]
        aut_maps = gr.bicoset_action(sigma, [aut.apply for aut in auts])
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
        lambda: gr.cliques_are_letter_cosets(gamma, sigma),
    )


def _checks_properties(run: CheckRun, groups: Dict[str, PcPresentation]) -> None:
    def associativity(group, label):
        rng = random.Random(run.seed ^ sum(map(ord, label)))
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
            seeded=True,
        )

    def fast_matches_collect(group):
        rng = random.Random(run.seed + 13)
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
            seeded=True,
        )

    def igs_canonical(group):
        gens = [1 << i for i in range(0, group.n, 2)]
        rng = random.Random(run.seed)
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
            seeded=True,
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


# each verify target in `verify all` order, its group's order log and its
# battery; never a builder, which _build_target looks up when it calls it
TARGETS = {"h56": (56, _checks_h56), "p59": (59, _checks_p59), "toy2": (8, _checks_toy2)}


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
    if args.report:
        # fail an unwritable path before the first check; appending creates
        # the file without truncating a --from-file path that is also the
        # report path, which is read before the report replaces it
        open(args.report, "a", encoding="ascii").close()
    run = CheckRun(args.seed)
    t0 = time.perf_counter()
    built: Dict[str, PcPresentation] = {}
    for name in TARGETS if args.target == "all" else [args.target]:
        order_log, battery = TARGETS[name]
        if args.from_file:

            def parse():
                built[name] = load_presentation(args.from_file)
                return True

            run.add(f"{name}_file_parses", "the presentation file parses", True, parse)
        else:
            _build_target(name, built)
        if name not in built:
            break
        _structural_checks(run, built[name], name, order_log)
        if not args.from_file:
            battery(run, built[name])
    if args.target == "all":
        _checks_properties(run, built)
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
    return min(len(failed), 63)


def cmd_search(args) -> int:
    p = _build_target("p59")
    cfg = se.SearchConfig(
        levels=args.levels,
        checkpoint_path=args.checkpoint,
        threads=args.threads,
        log=lambda msg: print(msg, flush=True),
    )
    rep = se.run_search(p, cfg)
    print(f"survivors per level: {rep.survivor_counts}")
    print(f"wall seconds: {rep.wall_seconds:.2f}")
    if rep.no_regular_subgroup:
        print("verdict: no regular subgroup")
        return 0
    print("verdict: survivors remain", file=sys.stderr)
    return 1


def cmd_graph(args) -> int:
    toy = _build_target("toy2")
    if args.which == "cayley":
        graph = gr.cayley_graph(toy, gr.letter_connection_set(toy))
    else:
        graph = gr.bicoset_graph(toy, *gr.letter_subgroups(toy))
        if args.which == "quotient":
            graph = _toy_quotient(toy, graph).graph
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
    """--threads and --levels: an int of at least 1, else a usage error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _path(text: str) -> str:
    """--report, --from-file, --checkpoint and --emit-graph: a non-empty
    path, else a usage error; an empty one would be read as not given."""
    if not text:
        raise argparse.ArgumentTypeError("must be a non-empty path")
    return text


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="mixdih", description=__doc__)
    ap.add_argument("--version", action="version", version=ENGINE_VERSION)
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build a group and write its presentation file")
    b.add_argument("target", choices=list(TARGETS))
    b.add_argument("out", help="output path for the presentation file")
    b.set_defaults(func=cmd_build)

    v = sub.add_parser("verify", help="run the named checks and write a JSON report")
    v.add_argument("target", choices=[*TARGETS, "all"])
    v.add_argument("--report", type=_path, help="write the JSON report here instead of stdout")
    v.add_argument("--from-file", type=_path, help="check a presentation file instead of building")
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
    s.add_argument("--levels", type=_positive_int, default=6, help="descent levels, 1 to 6 (default 6)")
    s.add_argument("--checkpoint", type=_path, help="write each completed level here")
    s.add_argument("--threads", type=_positive_int, default=1, help="descent workers (default 1)")
    s.set_defaults(func=cmd_search)

    g = sub.add_parser("graph", help="export a desk-scale graph")
    g.add_argument("which", choices=["cayley", "incidence", "quotient"])
    g.add_argument("--emit-graph", type=_path, help="write the adjacency text here")
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
        ap.error("verify all builds its groups; --from-file needs a single target")
    if args.command == "verify" and args.target != "all" and args.threads != 1:
        ap.error("only verify all runs the descent, so only it takes --threads")
    if args.command == "search" and args.levels > len(DESCENT_SURVIVORS):
        ap.error(f"--levels must be at most {len(DESCENT_SURVIVORS)}, the stabilizer's order log")
    try:
        return args.func(args)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 65


if __name__ == "__main__":
    sys.exit(main())
