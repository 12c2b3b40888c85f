"""Traced pass: the per-layer numbers, in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/traced.py --workload W --seed N --out DIR

Spans are recorded from outside the program: wrappers replace, for the
length of one operation, the names the program looks up at call time,
and the originals are put back afterwards.

    search     descend, as a module attribute of mixdih.search
    pcgroup    frattini, maximal_subgroups, subgroup_igs as imported by
               mixdih.search and mixdih.cli; Subgroup.__init__ and
               Subgroup.sift; cli.consistency_check; collect_multiply
               (counted)
    calculus   multiply and inverse of the p59 instance (counted);
               the builders as imported by mixdih.cli
    morphisms  extend and closure
    graphs     the public functions of mixdih.graphs and SimpleGraph

Every traced run reports every per-layer metric:

    * primitives are timed, untraced, on inputs drawn from the seed;
    * an untraced and then a fully traced serial descent, back to back,
      give trace.overhead_ratio (traced over untraced wall time), and the
      traced one gives the search, pcgroup and calculus figures.  Counts
      do not depend on the worker count, and forked workers' counters
      never reach this process, so the parallel workload takes its counts
      from this pass too;
    * three traced claim batteries give the morphisms, graphs, cli,
      consistency and build figures (medians);
    * on descent-parallel, a parallel descent traced at `descend` only
      gives the per-level seconds and the pool's CPU, idle time and
      efficiency, from getrusage(RUSAGE_CHILDREN) deltas around each
      `descend` call.  A level with a single survivor runs without the
      pool, in this process, and counts as one worker.

Seconds are nominal (see speed.py), each scaled by the host speed seen
while it was measured.  Spans, and each level's CPU split between this
process and its pool, stay in memory and are written to
DIR/trace-W-seedN.json at the end.
"""

import argparse
import inspect
import itertools
import json
import os
import random
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List

import ops
from mixdih import cli, graphs, morphisms, search
from mixdih.pcgroup import Subgroup, maximal_subgroups
from speed import HostSpeed

BATTERIES = 3


class Tracer:
    """Spans and counts at layer boundaries, kept in memory.

    A span's name is "layer.operation".  Its self time is its duration
    minus the part its child spans cover.  Names in `fold` are too
    frequent to keep one by one; they still add to the totals and to
    their parent's covered time.
    """

    def __init__(self, fold=()):
        self.fold = set(fold)
        self.spans: List[tuple] = []  # (id, parent id, name, start, end)
        self.stack: List[list] = []  # open frames: [id, name, layer, start, covered]
        self.ids = itertools.count()
        self.calls: Counter = Counter()
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.outer: Dict[str, float] = defaultdict(float)  # per layer, not nested in itself
        self.counts: Counter = Counter()

    def span(self, name: str, fn: Callable) -> Callable:
        layer = name.split(".", 1)[0]
        keep = name not in self.fold
        stack, clock, ids = self.stack, time.perf_counter, self.ids

        def wrapper(*args, **kwargs):
            frame = [next(ids), name, layer, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self._close(frame, end, keep)

        return wrapper

    def _close(self, frame: list, end: float, keep: bool) -> None:
        sid, name, layer, start, covered = frame
        dur = end - start
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[4] += dur
        if parent is None or parent[2] != layer:
            self.outer[layer] += dur
        self.calls[name] += 1
        self.total[name] += dur
        self.self_time[name] += dur - covered
        if keep:
            self.spans.append((sid, parent[0] if parent else None, name, start, end))

    def counter(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    def durations(self, name: str) -> List[float]:
        return [end - start for _, _, nm, start, end in self.spans if nm == name]


_ABSENT = object()


@contextmanager
def patched(patches):
    """Set each (owner, attribute, value); restore the originals on exit."""
    saved = [(owner, attr, vars(owner).get(attr, _ABSENT)) for owner, attr, _ in patches]
    try:
        for owner, attr, value in patches:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            if old is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)


# ── descent ──────────────────────────────────────────────────────────────────


def level_probe(tr: Tracer, levels: List[dict], descend: Callable, speed: HostSpeed) -> Callable:
    """Per-level wall time, counts, and CPU of this process and of its pool."""

    def wrapper(group, level, config):
        # search.descend's rule for running its fork pool
        workers = config.worker_count() if config.worker_count() > 1 and len(level.survivors) > 1 else 1
        before = (tr.counts["calculus.mul"], tr.calls["pcgroup.sift"])
        w0, (own0, kids0) = time.perf_counter(), ops.cpu_times()
        out = descend(group, level, config)
        w1, (own1, kids1) = time.perf_counter(), ops.cpu_times()
        scale = speed.scale(w0, w1)
        levels.append({
            "depth": out.depth,
            "wall_s": (w1 - w0) * scale,
            "own_cpu_s": (own1 - own0) * scale,
            "pool_cpu_s": (kids1 - kids0) * scale,
            "workers": workers,
            "candidates": out.candidates,
            "survivors": len(out.survivors),
            "mul_calls": tr.counts["calculus.mul"] - before[0],
            "sift_calls": tr.calls["pcgroup.sift"] - before[1],
        })
        return out

    return wrapper


def descent_layers(tr: Tracer, p) -> list:
    return [
        (search, "frattini", tr.span("pcgroup.frattini", search.frattini)),
        (search, "maximal_subgroups", tr.span("pcgroup.maximal_subgroups", search.maximal_subgroups)),
        (search, "subgroup_igs", tr.span("pcgroup.subgroup_igs", search.subgroup_igs)),
        (Subgroup, "__init__", tr.span("pcgroup.subgroup_new", Subgroup.__init__)),
        (Subgroup, "sift", tr.span("pcgroup.sift", Subgroup.sift)),
        (p, "multiply", tr.counter("calculus.mul", p.multiply)),
        (p, "inverse", tr.counter("calculus.inverse", p.inverse)),
    ]


def traced_descent(p, stab, workers: int, layers: bool, speed: HostSpeed):
    """One descent traced at `descend`, and below it when `layers` is set."""
    tr = Tracer(fold={"pcgroup.sift"})
    levels: List[dict] = []
    patches = [(search, "descend", level_probe(tr, levels, tr.span("search.descend", search.descend), speed))]
    if layers:
        patches += descent_layers(tr, p)
    with patched(patches):
        record = ops.attempt(lambda: ops.descent(p, stab, workers), ops.descent_ok, speed)
    return tr, levels, record


def search_metrics(levels: List[dict]) -> Dict[str, float]:
    """Level seconds, and the work of whoever expanded each level: the pool
    when one ran, this process otherwise."""
    out = {f"search.level{lv['depth']}_s": lv["wall_s"] for lv in levels}
    cpu = sum(lv["pool_cpu_s"] if lv["workers"] > 1 else lv["own_cpu_s"] for lv in levels)
    slots = sum(lv["workers"] * lv["wall_s"] for lv in levels)
    out["search.worker_cpu_s"] = cpu
    out["search.idle_s"] = slots - cpu
    out["search.par_efficiency"] = cpu / slots
    return out


def layer_metrics(tr: Tracer, levels: List[dict], scale: float) -> Dict[str, float]:
    candidates = sum(lv["candidates"] for lv in levels)
    survivors = sum(lv["survivors"] for lv in levels)
    return {
        "search.candidates": candidates,
        "search.survivors": survivors,
        "search.keep_ratio": survivors / candidates,
        "search.self_s": tr.self_time["search.descend"] * scale,
        "pcgroup.frattini_calls": tr.calls["pcgroup.frattini"],
        "pcgroup.frattini_s": tr.total["pcgroup.frattini"] * scale,
        "pcgroup.maximal_subgroups_calls": tr.calls["pcgroup.maximal_subgroups"],
        "pcgroup.maximal_subgroups_s": tr.total["pcgroup.maximal_subgroups"] * scale,
        "pcgroup.subgroup_igs_calls": tr.calls["pcgroup.subgroup_igs"],
        "pcgroup.subgroup_igs_s": tr.total["pcgroup.subgroup_igs"] * scale,
        "pcgroup.subgroup_new": tr.calls["pcgroup.subgroup_new"],
        "pcgroup.sift_calls": tr.calls["pcgroup.sift"],
        "calculus.mul_calls": tr.counts["calculus.mul"],
        "calculus.inverse_calls": tr.counts["calculus.inverse"],
    }


# ── claim battery ────────────────────────────────────────────────────────────


def battery_layers(tr: Tracer) -> list:
    def builder(label: str, build: Callable) -> Callable:
        timed = tr.span(f"calculus.build_{label}", build)

        def wrapper(*args):
            group = timed(*args)
            group.collect_multiply = tr.counter("pcgroup.collect", group.collect_multiply)
            return group

        return wrapper

    closure = tr.span("morphisms.closure", morphisms.closure)

    def closure_sized(*args, **kwargs):
        group = closure(*args, **kwargs)
        tr.counts["morphisms.closure_elements"] = max(tr.counts["morphisms.closure_elements"], group.order)
        return group

    patches = [
        (cli, "build_h56", builder("h56", cli.build_h56)),
        (cli, "build_p59", builder("p59", cli.build_p59)),
        (cli, "build_toy", builder("toy2", cli.build_toy)),
        (cli, "consistency_check", tr.span("pcgroup.consistency", cli.consistency_check)),
        (cli, "frattini", tr.span("pcgroup.frattini", cli.frattini)),
        (cli, "maximal_subgroups", tr.span("pcgroup.maximal_subgroups", cli.maximal_subgroups)),
        (cli, "subgroup_igs", tr.span("pcgroup.subgroup_igs", cli.subgroup_igs)),
        (morphisms, "extend", tr.span("morphisms.extend", morphisms.extend)),
        (morphisms, "closure", closure_sized),
    ]
    for owner, prefix in ((graphs, "graphs"), (graphs.SimpleGraph, "graphs.SimpleGraph")):
        for name, fn in list(vars(owner).items()):
            if inspect.isfunction(fn) and not name.startswith("_") and fn.__module__ == graphs.__name__:
                patches.append((owner, name, tr.span(f"{prefix}.{name}", fn)))
    return patches


def traced_battery(out_dir: str, seed: int, speed: HostSpeed):
    tr = Tracer(fold={"graphs.SimpleGraph.has_edge", "graphs.SimpleGraph.degree"})
    timings: Dict[str, float] = {}
    with patched(battery_layers(tr)):
        record = ops.attempt(lambda: ops.certify(out_dir, seed, timings), ops.certify_ok, speed)
    return tr, timings, record


def battery_metrics(runs) -> Dict[str, float]:
    """Medians over the batteries, each scaled by its own host speed."""

    def med(seconds: Callable) -> float:
        return statistics.median(seconds(tr, timings) * record["scale"] for tr, timings, record in runs)

    out = {
        "pcgroup.consistency_s": med(lambda tr, _: tr.total["pcgroup.consistency"]),
        "pcgroup.collect_calls": statistics.median(tr.counts["pcgroup.collect"] for tr, _, _ in runs),
        "morphisms.extend_s": med(lambda tr, _: tr.total["morphisms.extend"]),
        "morphisms.closure_s": med(lambda tr, _: tr.total["morphisms.closure"]),
        "morphisms.closure_elements": max(tr.counts["morphisms.closure_elements"] for tr, _, _ in runs),
        "graphs.toy_suite_s": med(lambda tr, _: tr.outer["graphs"]),
    }
    for label in ("h56", "p59", "toy2"):
        out[f"calculus.build_s.{label}"] = med(
            lambda tr, _: statistics.median(tr.durations(f"calculus.build_{label}"))
        )
    for target in ops.CERTIFY_TARGETS:
        out[f"cli.verify_s.{target}"] = med(lambda _, timings: timings[target])
    return out


# ── primitives ───────────────────────────────────────────────────────────────


def per_call_us(fn: Callable, inputs: List[tuple], repeats: int, speed: HostSpeed) -> float:
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for args in inputs:
            fn(*args)
        t1 = time.perf_counter()
        samples.append((t1 - t0) * speed.scale(t0, t1) / len(inputs) * 1e6)
    return statistics.median(samples)


def primitive_metrics(h, p, seed: int, speed: HostSpeed) -> Dict[str, float]:
    """Untraced per-call times on inputs drawn from the benchmark's seed."""
    rng = random.Random(seed)

    def draw(bits: int, arity: int, k: int) -> List[tuple]:
        return [tuple(rng.getrandbits(bits) for _ in range(arity)) for _ in range(k)]

    mx = maximal_subgroups(p, search.full_group(p))[0]  # index 2, like a descent candidate
    # each timed loop takes some 40 ms; the median of nine damps a change
    # of CPU, or of host speed, during one of them
    return {
        "calculus.mul_us.h56": per_call_us(h.multiply, draw(h.n, 2, 16000), 9, speed),
        "calculus.mul_us.p59": per_call_us(p.multiply, draw(p.n, 2, 4000), 9, speed),
        "calculus.inverse_us.h56": per_call_us(h.inverse, draw(h.n, 1, 6000), 9, speed),
        "calculus.inverse_us.p59": per_call_us(p.inverse, draw(p.n, 1, 1000), 9, speed),
        "pcgroup.collect_mul_us.p59": per_call_us(p.collect_multiply, draw(p.n, 2, 30), 9, speed),
        "pcgroup.sift_us": per_call_us(mx.sift, draw(p.n, 1, 500), 9, speed),
    }


# ── the pass ─────────────────────────────────────────────────────────────────


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=ops.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    wl, seed = args.workload, args.seed
    workers = ops.DESCENT_WORKERS.get(wl, 1)

    with HostSpeed(pin_caller=True) as speed:
        p, stab = ops.descent_setup()
        metrics = primitive_metrics(p.meta.base, p, seed, speed)

        untraced = ops.attempt(lambda: ops.descent(p, stab, 1), ops.descent_ok, speed)
        tr, levels, serial = traced_descent(p, stab, 1, True, speed)
        metrics["trace.overhead_ratio"] = serial["wall_s"] / untraced["wall_s"]
        metrics.update(layer_metrics(tr, levels, serial["scale"]))
        metrics.update(search_metrics(levels))
        traces = {"serial": {"levels": levels, "spans": tr.spans}}

        batteries = [traced_battery(args.out, seed, speed) for _ in range(BATTERIES)]
        metrics.update(battery_metrics(batteries))
        traces["batteries"] = [{"seconds": timings, "spans": t.spans} for t, timings, _ in batteries]
    records = [untraced, serial] + [record for _, _, record in batteries]

    if wl == "descent-parallel":
        # a fork pool must not inherit a pinned CPU
        with HostSpeed(pin_caller=False) as speed:
            tr_par, levels_par, parallel = traced_descent(p, stab, workers, False, speed)
        metrics.update(search_metrics(levels_par))
        traces["parallel"] = {"levels": levels_par, "spans": tr_par.spans}
        records.append(parallel)

    with open(os.path.join(args.out, f"trace-{wl}-seed{seed}.json"), "w", encoding="ascii") as fh:
        json.dump(traces, fh)
    print(json.dumps({
        "metrics": metrics, "records": records, "workers": workers,
        "engine_version": ops.ENGINE_VERSION,
    }))


if __name__ == "__main__":
    main()
