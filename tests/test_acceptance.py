"""Acceptance gate: the ten headline checks, each with its time budget.

Every test here states one deliverable claim about the built objects and
fails hard on any mismatch.  Criteria needing expensive shared state
(the automorphism closure, the full descent) compute it once per module
and split the assertions.
"""

import random
import time

import pytest

from mixdih import graphs as gr
from mixdih import morphisms as mo
from mixdih import search as se
from mixdih.calculus import build_h56, build_p59, build_toy
from mixdih.pcgroup import (
    Subgroup,
    consistency_check,
    derived_subgroup,
    frattini,
    maximal_subgroups,
    small_intersection_order,
    subgroup_igs,
)

SEED = 7


class _Budget:
    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        if exc[0] is None:
            assert self.elapsed < self.seconds, (
                f"check exceeded its {self.seconds}s budget: {self.elapsed:.1f}s"
            )
        return False


def test_01_group_orders():
    with _Budget(5):
        h = build_h56()
        p = build_p59(h)
        assert consistency_check(h) == []
        assert consistency_check(p) == []
        assert h.n == 56
        assert p.n == 59


def test_02_structure(h56, p59):
    with _Budget(5):
        full = subgroup_igs(h56, [1 << i for i in range(h56.n)])
        derived = derived_subgroup(h56, full)
        assert derived.order_log == 48
        assert h56.n - derived.order_log == 8  # rank of the top quotient
        mul = h56.multiply
        assert all(mul(m, m) == 0 for m in derived.members)
        assert all(
            h56.commutator(a, b) == 0
            for i, a in enumerate(derived.members)
            for b in derived.members[i + 1:]
        )
        xsub, ysub = gr.letter_subgroups(h56)
        assert xsub.order == 16 and ysub.order == 16
        assert all(h56.multiply(w, w) == 0 for w in xsub.elements())
        assert all(h56.multiply(w, w) == 0 for w in ysub.elements())
        assert small_intersection_order(h56, xsub, ysub) == 1

        r = 1 << p59.names.index("r")
        r2 = 1 << p59.names.index("r2")
        inner = subgroup_igs(p59, [1 << i for i in range(3, p59.n)])
        assert inner.order_log == 56
        assert all(inner.contains(p59.conjugate(m, r)) for m in inner.members)
        assert p59.element_order(r) == 8
        sig = (1, 3, 0, 2)
        base = p59.names.index("x1")
        for i in range(4):
            assert p59.conjugate(1 << (base + i), r2) == 1 << (base + sig[i])


def test_03_consistency(h56, p59, toy):
    with _Budget(60):
        assert consistency_check(toy) == []
        assert consistency_check(h56) == []
        assert consistency_check(p59) == []


@pytest.fixture(scope="module")
def verified(h56):
    named = mo.catalog(h56)
    keep = (
        "x_singer_generator", "y_singer_generator",
        "x_companion_cycle", "y_companion_cycle", "twist_conjugation",
    )
    return {nm: mo.extend(named[nm]) for nm in keep}


def test_04_automorphisms(h56, verified):
    with _Budget(30):
        orders = [mo.automorphism_order(verified[nm]) for nm in (
            "x_singer_generator", "y_singer_generator",
            "x_companion_cycle", "y_companion_cycle", "twist_conjugation",
        )]
        assert orders == [15, 15, 5, 5, 8]
        for blk in ("x", "y"):
            cube = mo.letter_power(verified[f"{blk}_singer_generator"], 3)
            inverse = mo.letter_power(verified[f"{blk}_companion_cycle"], 4)
            assert cube == inverse
        assert mo.twist_conjugation_check(
            verified["x_singer_generator"], verified["y_singer_generator"], verified["twist_conjugation"]
        )


def test_05_negative_checks(h56):
    with _Budget(10):
        named = mo.catalog(h56)
        for nm in ("x_centralizer_candidate", "x_half_turn"):
            with pytest.raises(mo.NotHomomorphism):
                mo.extend(named[nm])


@pytest.fixture(scope="module")
def normality(h56_checks):
    """The closure order and the named fields of h56_normality_hypotheses."""
    fields = (
        "orbit_size", "orbit_is_letter_set", "stabilizer_order",
        "stabilizer_is_y_singer_cycle", "full_product_excluded", "ok",
    )
    hypotheses = h56_checks["h56_normality_hypotheses"]["actual"]
    assert len(hypotheses) == len(fields)
    return {"aut_order": h56_checks["h56_closure_order"]["actual"], **dict(zip(fields, hypotheses))}


def _within_recorded_budget(entry, seconds):
    """The budget of a check the h56 battery already ran, on the seconds
    its CheckRun recorded."""
    assert entry["seconds"] < seconds, (
        f"{entry['name']} exceeded its {seconds}s budget: {entry['seconds']:.1f}s"
    )


def test_06_closure_orbit_stabilizer(normality, h56_checks):
    _within_recorded_budget(h56_checks["h56_closure_order"], 60)
    assert normality["aut_order"] == 1800
    assert normality["orbit_size"] == 30 and normality["orbit_is_letter_set"]
    assert normality["stabilizer_order"] == 15
    assert normality["stabilizer_is_y_singer_cycle"]


def test_07_hypothesis_report(normality, h56_checks):
    _within_recorded_budget(h56_checks["h56_normality_hypotheses"], 1)
    assert normality["orbit_is_letter_set"] and normality["orbit_size"] == 30
    assert normality["stabilizer_order"] > 1
    assert normality["full_product_excluded"]
    assert normality["ok"]


def test_08_non_cayley_search(p59):
    with _Budget(1800):
        report = se.run_search(p59, se.SearchConfig(), se.stab_subgroup(p59))
        assert report.survivor_counts == [2, 2, 12, 48, 128, 0]
        assert report.candidate_counts == [3, 6, 14, 84, 336, 896]
        assert report.no_regular_subgroup


def test_09_toy_graph_suite(toy):
    with _Budget(30):
        gamma = gr.cayley_graph(toy, gr.letter_connection_set(toy))
        assert gamma.vertex_count == 256
        assert gamma.regular_valency() == 6
        assert gamma.is_connected()

        sigma = gr.bicoset_graph(toy, *gr.letter_subgroups(toy))
        assert sigma.vertex_count == 128
        assert sigma.bipartition is not None and sum(sigma.bipartition) == 64
        assert sigma.regular_valency() == 4
        assert sigma.edge_count == 256

        def right_translations(elements):
            return [lambda z, w=w: toy.multiply(z, w) for w in elements]

        translations = gr.bicoset_action(sigma, right_translations([1 << i for i in range(toy.n)]))
        assert gr.edge_regular_check(sigma, translations, 256)
        assert gr.verify_line_graph_correspondence(gamma, sigma)

        full = subgroup_igs(toy, [1 << i for i in range(toy.n)])
        derived = derived_subgroup(toy, full)
        quo = gr.normal_quotient(sigma, gr.bicoset_action(sigma, right_translations(derived.members)))
        assert quo.regular_valency() == sigma.regular_valency()
        assert quo.vertex_count == 8 and quo.regular_valency() == 4
        xs = [i for i in range(8) if quo.bipartition[i] == 0]
        ys = [i for i in range(8) if quo.bipartition[i] == 1]
        assert all(quo.has_edge(u, w) for u in xs for w in ys)

        auts = [mo.extend(g) for g in mo.toy_catalog(toy).values()]
        aut_maps = gr.bicoset_action(sigma, [aut.apply for aut in auts])
        translations_only, with_auts = gr.two_arc_orbit_counts(sigma, translations, aut_maps)
        assert with_auts == 1 < translations_only


def test_10_property_suites(h56, p59, toy):
    with _Budget(60):
        # collection associativity, 10^4 random triples per group
        for group in (toy, h56, p59):
            rng = random.Random(SEED ^ group.n)
            mul = group.multiply
            for _ in range(10_000):
                u, v, w = (rng.getrandbits(group.n) for _ in range(3))
                assert mul(mul(u, v), w) == mul(u, mul(v, w))

        # IGS canonical under generator shuffles and redundancy
        for group in (toy, h56, p59):
            gens = [1 << i for i in range(0, group.n, 2)]
            base = subgroup_igs(group, gens).digest()
            rng = random.Random(SEED)
            for _ in range(5):
                shuffled = gens[:]
                rng.shuffle(shuffled)
                extra = [group.multiply(shuffled[0], shuffled[-1])] + shuffled
                assert subgroup_igs(group, extra).digest() == base

        # maximal-subgroup counts are 2^rank - 1
        for group in (toy, h56, p59):
            full = subgroup_igs(group, [1 << i for i in range(group.n)])
            rank = group.n - frattini(group, full).order_log
            assert len(maximal_subgroups(group, full)) == (1 << rank) - 1

        # dedup soundness: equal digests exactly for equal subgroups
        level1 = se.descend(p59, se.root_level(p59, se.stab_subgroup(p59)), se.SearchConfig())
        subs = [Subgroup(p59, rows) for rows in level1.survivors]
        assert len({s.digest() for s in subs}) == len(subs)
        for a in subs:
            for b in subs:
                same = a.digest() == b.digest()
                mutual = all(a.contains(m) for m in b.members) and all(b.contains(m) for m in a.members)
                assert same == mutual
