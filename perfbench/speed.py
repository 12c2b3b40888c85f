"""The host's speed, sampled while the benchmark runs.

The host's CPUs slow down and speed up independently of each other, by
up to a factor of two for a minute or more, because of load this process
does not see.  Raw seconds from two runs minutes apart then differ by
more than any change worth measuring.  So every timing is also given in
nominal seconds: raw seconds times REFERENCE_S over the CPU time that a
fixed piece of reference work took on the same CPU at the same moments.

The reference work shares no code with mixdih, so a change to the
program moves nominal seconds exactly as it moves raw ones.  This module
imports only the standard library: the cold set-up probe uses it before
it imports mixdih.
"""

import os
import statistics
import threading
import time
from typing import List, Tuple

REFERENCE_S = 0.002  # CPU seconds of reference_work at the nominal speed
SAMPLE_PERIOD_S = 0.2
MIN_WINDOW_S = 2.0  # shorter intervals are scaled by the samples of the last MIN_WINDOW_S


def reference_work() -> int:
    """Fixed pure-Python work of the kinds the engine's inner loops do:
    bit operations on wide ints, tuple keys and small-dict updates."""
    table = {}
    x = 0x9E3779B97F4A7C15
    for i in range(1000):
        x = ((x << 1) ^ (x >> 3) ^ i) & ((1 << 120) - 1)
        key = (x & 255, i & 7)
        table[key] = table.get(key, 0) + bin(x).count("1")
    return x


def reference_seconds() -> float:
    """CPU seconds the calling thread spends on one reference_work."""
    c0 = time.thread_time()
    reference_work()
    return time.thread_time() - c0


class HostSpeed:
    """Samples the host's speed on every CPU while operations run.

    Every SAMPLE_PERIOD_S a thread moves to the next allowed CPU and times
    reference_work there.  With `pin_caller` it first moves the calling
    thread to that CPU too, so that a single-threaded operation spends
    equal time on every CPU and the samples come from the CPU it runs on.
    A fork pool must not be pinned, because its workers would inherit a
    single CPU; its CPUs are sampled in turn all the same.
    """

    def __init__(self, pin_caller: bool):
        self.pin_caller = pin_caller
        self.cpus = sorted(os.sched_getaffinity(0))
        self.tid = threading.get_native_id()
        self.samples: List[Tuple[float, float]] = []  # (perf_counter, reference seconds)
        self.done = threading.Event()
        self.thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        step = 0
        while not self.done.wait(SAMPLE_PERIOD_S):
            step += 1
            cpu = {self.cpus[step % len(self.cpus)]}
            if self.pin_caller:
                os.sched_setaffinity(self.tid, cpu)
            os.sched_setaffinity(0, cpu)  # pid 0: this sampling thread
            self.samples.append((time.perf_counter(), reference_seconds()))

    def scale(self, t0: float, t1: float) -> float:
        """Nominal over raw seconds for the perf_counter interval [t0, t1]."""
        t0 = min(t0, t1 - MIN_WINDOW_S)
        inside = [s for t, s in self.samples if t0 <= t <= t1] or [self.samples[-1][1]]
        return REFERENCE_S / statistics.median(inside)

    def __enter__(self):
        if self.pin_caller:
            os.sched_setaffinity(self.tid, {self.cpus[0]})
        self.samples.append((time.perf_counter(), reference_seconds()))
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.done.set()
        self.thread.join()
        if self.pin_caller:
            os.sched_setaffinity(self.tid, set(self.cpus))
