"""The benchmark's operations, their certificate checks and the timed loop.

Each operation produces one of the paper's certificates through the
public API of `mixdih`; each check compares the certificate with the
paper's fixed result.  A fast operation with a wrong certificate is a
failed operation.
"""

import json
import os
import resource
import statistics
import sys
import time
import traceback
from typing import Callable, Dict, List, Optional, Tuple

from mixdih import __version__ as ENGINE_VERSION
from mixdih import cli
from mixdih.calculus import build_h56, build_p59
from mixdih.search import SearchConfig, run_search, stab_subgroup
from speed import HostSpeed

WORKLOADS = ("descent-serial", "descent-parallel", "certify")

# Worker counts are pinned here: SearchConfig(threads=None) would read
# DF_THREADS from the environment.
DESCENT_WORKERS = {"descent-serial": 1, "descent-parallel": 2}

DESCENT_SURVIVORS = [2, 2, 12, 48, 128, 0]
DESCENT_CANDIDATES = [3, 6, 14, 84, 336, 896]

# `verify all` is not used: it reruns the descent and drops --threads.
CERTIFY_TARGETS = ("h56", "p59", "toy2")
CLOSURE_ORDER, CLOSURE_ORBIT, CLOSURE_STABILIZER = 1800, 30, 15


def cpu_times() -> Tuple[float, float]:
    """CPU seconds of this process, and of every child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


def cpu_seconds() -> float:
    return sum(cpu_times())


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0  # ru_maxrss is in KiB on Linux


# ── descent ──────────────────────────────────────────────────────────────────


def descent_setup():
    """The p59 group and its vertex stabilizer: the descent's inputs."""
    p = build_p59(build_h56())
    return p, stab_subgroup(p)


def descent(p, stab, workers: int, levels: int = 6):
    return run_search(p, SearchConfig(levels=levels, threads=workers), stab)


def descent_ok(report) -> bool:
    return (
        report.survivor_counts == DESCENT_SURVIVORS
        and report.candidate_counts == DESCENT_CANDIDATES
        and report.no_regular_subgroup is True
    )


# ── claim battery ────────────────────────────────────────────────────────────


def certify(out_dir: str, seed: int, timings: Optional[Dict[str, float]] = None) -> Dict[str, object]:
    """`mixdih verify` on each target, with a report file; exit codes by target.

    The seed drives the sampled embedding check of `verify p59`.
    """
    codes = {}
    for target in CERTIFY_TARGETS:
        path = os.path.join(out_dir, f"verify-{target}.json")
        t0 = time.perf_counter()
        codes[target] = cli.main(["verify", target, "--report", path, "--seed", str(seed)])
        if timings is not None:
            timings[target] = time.perf_counter() - t0
    return {"out_dir": out_dir, "codes": codes}


def certify_ok(result) -> bool:
    actual = {}
    for target, code in result["codes"].items():
        if code != 0:
            return False
        with open(os.path.join(result["out_dir"], f"verify-{target}.json"), encoding="ascii") as fh:
            report = json.load(fh)
        if report["target"] != target or not report["checks"]:
            return False
        for entry in report["checks"]:
            if entry["status"] != "pass":
                return False
            actual[entry["name"]] = entry["actual"]
    hyp = actual.get("h56_normality_hypotheses") or [None] * 3
    return (
        actual.get("h56_closure_order") == CLOSURE_ORDER
        and hyp[0] == CLOSURE_ORBIT
        and hyp[2] == CLOSURE_STABILIZER
    )


# ── the closed loop ──────────────────────────────────────────────────────────


def attempt(op: Callable[[], object], check: Callable[[object], bool], speed: HostSpeed) -> Dict[str, object]:
    """Time one operation, then check its certificate outside the timing.

    An operation that raises, or whose output fails its check, is failed.
    `wall_s` and `cpu_s` are nominal seconds (see speed.py); the raw
    seconds and the scale between them are kept alongside.
    """
    w0, c0 = time.perf_counter(), cpu_seconds()
    elapsed = None
    ok = False
    try:
        result = op()
        elapsed = (time.perf_counter(), cpu_seconds())
        ok = bool(check(result))
    except Exception:
        traceback.print_exc(file=sys.stderr)
    w1, c1 = elapsed or (time.perf_counter(), cpu_seconds())
    scale = speed.scale(w0, w1)
    return {
        "wall_s": (w1 - w0) * scale, "cpu_s": (c1 - c0) * scale, "ok": ok,
        "raw_wall_s": w1 - w0, "raw_cpu_s": c1 - c0, "scale": scale,
    }


def closed_loop(op, check, seconds: float, speed: HostSpeed) -> List[Dict[str, object]]:
    """One client: the next operation starts when the previous one ends.

    An operation starts only if, taking as long as the median one so far,
    it would end within `seconds`; the first one always runs.  So a run
    lasts about `seconds` whatever the length of one operation.
    """
    records = []
    start = time.perf_counter()
    while True:
        records.append(attempt(op, check, speed))
        typical = statistics.median(r["raw_wall_s"] for r in records)
        if time.perf_counter() - start + typical > seconds:
            return records
