"""Timed phase of one untraced run, in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/measure.py --workload W --seconds S --seed N --out DIR

Prints one JSON line: a record per operation (nominal and raw wall and
CPU seconds, certificate verdict), the worker count, and the peak RSS of
this process plus its largest child.  Running in its own process keeps
the benchmark driver and the set-up probes out of the RSS and CPU figures.
"""

import argparse
import json

import ops
from speed import HostSpeed


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=ops.WORKLOADS, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    if args.workload == "certify":
        workers = 1
        op = lambda: ops.certify(args.out, args.seed)  # noqa: E731
        check = ops.certify_ok
    else:
        workers = ops.DESCENT_WORKERS[args.workload]
        p, stab = ops.descent_setup()
        op = lambda: ops.descent(p, stab, workers)  # noqa: E731
        check = ops.descent_ok
    with HostSpeed(pin_caller=workers == 1) as speed:
        if args.workload == "certify":
            ops.attempt(op, check, speed)  # warm-up: fill calculus's caches before timing
        records = ops.closed_loop(op, check, args.seconds, speed)
    print(json.dumps({
        "records": records,
        "workers": workers,
        "peak_rss_mb": ops.peak_rss_mb(),
        "engine_version": ops.ENGINE_VERSION,
    }))


if __name__ == "__main__":
    main()
