"""Benchmark of the mixdih certificates, end to end and layer by layer.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; the engine is imported from its src/.
Workloads (a closed loop with one client; every input is fixed by the
paper, and the seed drives only sampled inputs):

    descent-serial    run_search on p59 with 1 worker: the headline
                      certificate, nearly all of `verify all`
    descent-parallel  the same descent on a fork pool of 2 workers: adds
                      pickling, the ordered merge and load balance
    certify           `mixdih verify h56|p59|toy2 --report` through
                      cli.main, repeated: consistency, extend, closure and
                      the toy2 graph suite, none of which the descent runs

--trace 0 times the workload and prints the end-to-end metrics:

    wall_s        median seconds of one operation (time to the certificate)
    cpu_s         median CPU seconds of one operation, process plus children
    setup_s       median of SETUP_PROBES cold set-ups, each in a fresh
                  interpreter
    peak_rss_mb   peak RSS of the timing process plus its largest child
    success_rate  operations whose certificate matched, over those attempted

The host's CPUs slow down and speed up independently of each other, by
up to a factor of two for a minute or more.  So every second reported is
a nominal second: raw seconds scaled by the speed of fixed reference work
timed on the same CPU at the same moments (perfbench/speed.py).  The
medians of raw seconds are printed too, on a line of their own.

--trace 1 runs perfbench/traced.py and prints the per-layer metrics.
Metric names and units come from BENCHMARK.json.  The last line of
standard output is the result; the line before it records the
environment, which is also written with every record to .perfbench_out/.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 24
RUN_LIMIT_S = 170.0  # a run must end within 180 s


def run_child(args, env, deadline: float):
    """Run a Python child in its own process group; its last stdout line is JSON."""
    proc = subprocess.Popen(
        [sys.executable, *map(str, args)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {args[0]} passed the run's time limit")
    finally:
        try:  # also ends any pool worker the child left behind
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"perfbench: {args[0]} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def git_sha() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    # a checkout without git metadata makes git fail
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]], required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (ROOT / "src" / "mixdih" / "__init__.py").is_file():
        sys.exit(f"perfbench: no engine sources at {ROOT / 'src' / 'mixdih'}")
    OUT.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    common = ["--workload", args.workload, "--seed", args.seed, "--out", OUT]

    if args.trace:
        child = run_child([HERE / "traced.py", *common], env, deadline)
        records, probes = child["records"], None
        declared, values = spec["per_layer"], child["metrics"]
    else:
        def probe(i):
            return run_child([HERE / "probe.py", args.workload, i], env, deadline)

        probe(0)  # may compile bytecode; not counted
        # half the probes before the timed phase and half after, so that
        # they span the run; each half alternates CPUs
        probes = [probe(i) for i in range(SETUP_PROBES // 2)]
        child = run_child([HERE / "measure.py", *common, "--seconds", args.seconds], env, deadline)
        probes += [probe(i) for i in range(SETUP_PROBES - SETUP_PROBES // 2)]
        records = child["records"]
        med = statistics.median
        declared, values = spec["end_to_end"], {
            "wall_s": med(r["wall_s"] for r in records),
            "cpu_s": med(r["cpu_s"] for r in records),
            "setup_s": med(p["setup_s"] for p in probes),
            "peak_rss_mb": child["peak_rss_mb"],
            "success_rate": sum(1 for r in records if r["ok"]) / len(records),
        }
        print("raw seconds " + json.dumps({
            "wall_s": med(r["raw_wall_s"] for r in records),
            "cpu_s": med(r["raw_cpu_s"] for r in records),
            "setup_s": med(p["raw_setup_s"] for p in probes),
        }))
    attempted = len(records)
    failed = sum(1 for r in records if not r["ok"])

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    environment = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "workers": child["workers"], "git_sha": git_sha(),
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "engine_version": child["engine_version"],
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w", encoding="ascii") as fh:
        json.dump({"environment": environment, "records": records, "metrics": metrics,
                   "setup_samples": probes}, fh, indent=1)
    print("environment " + json.dumps(environment))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
