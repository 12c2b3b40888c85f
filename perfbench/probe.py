"""Cold set-up probe: run once per fresh interpreter.

    PYTHONPATH=src python3 perfbench/probe.py WORKLOAD CPU_INDEX

Prints, as JSON, the seconds taken to import `mixdih` and build what the
workload uses, raw and nominal (see speed.py).  Only a fresh interpreter
measures this honestly: `calculus` keeps module-level caches, so a
rebuild inside a warm process reads lower.  The probe pins itself to the
CPU_INDEX-th allowed CPU first, so that a series of probes samples every
CPU alike, and times the reference work on that CPU just before and just
after the set-up.
"""

import json
import os
import statistics
import sys
import time

from speed import REFERENCE_S, reference_seconds

REFERENCE_SAMPLES = 5  # before the set-up, and as many after

cpus = sorted(os.sched_getaffinity(0))
os.sched_setaffinity(0, {cpus[int(sys.argv[2]) % len(cpus)]})
reference = [reference_seconds() for _ in range(REFERENCE_SAMPLES)]
t0 = time.perf_counter()

from mixdih.calculus import build_h56, build_p59, build_toy  # noqa: E402
from mixdih.search import stab_subgroup  # noqa: E402

if sys.argv[1] == "certify":
    from mixdih import cli  # noqa: E402,F401  the workload drives cli.main

    build_p59(build_h56())
    build_toy()
else:
    stab_subgroup(build_p59(build_h56()))
raw = time.perf_counter() - t0
reference += [reference_seconds() for _ in range(REFERENCE_SAMPLES)]
print(json.dumps({"setup_s": raw * REFERENCE_S / statistics.median(reference), "raw_setup_s": raw}))
