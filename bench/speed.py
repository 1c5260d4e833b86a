"""Interpreter-speed probe for a shared, noisy machine.

On a machine whose other tenants come and go, the same pure-Python work
can take from 1x to 2x as long from one second to the next, and how much
it slows depends on the kind of work.  The probe runs a fixed loop of the
workload's kind (``Fraction`` arithmetic, or bitmask integer work) from a
timer signal every ``INTERVAL`` seconds while the benchmark runs.  Each
task's wall time excludes the time spent in the probe, and the mean
duration of the probes taken during a task, or of the ten taken nearest
to it, tells how fast the interpreter ran then.  ``scale`` turns a
duration measured at that speed into one at a fixed reference speed.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

INTERVAL = 0.03
NEAREST = 10  # probes a task's speed is read from when it holds fewer


def fraction_loop() -> int:
    """Rational arithmetic and small dicts, like lp, search and intervals."""
    acc = Fraction(0)
    table: dict = {}
    for i in range(1, 40):
        acc += Fraction(i, i % 7 + 2)
        table[i % 11] = table.get(i % 11, 0) + (i * i) % 13
    return acc.numerator + len(table)


_MASKS = [(1 << a) | (1 << (a * 7 % 61)) | (1 << (a * 3 % 59)) for a in range(1, 60)]


def bitmask_loop() -> int:
    """Masks tested against a live set, like discrete's bound()."""
    live = (1 << 61) - 2
    count = 0
    for _ in range(6):
        used = 0
        for tm in _MASKS:
            if tm & ~live:
                continue
            inside = tm & live
            if inside and not inside & used:
                used |= inside
                count += 1
    return count + live.bit_count()


# Loop, and its duration at the reference speed: about its median on an
# idle 2-core x86-64 machine under CPython 3.11, measured inside the
# benchmark.  Normalized times are seconds at that speed.
LOOPS = {
    "fraction": (fraction_loop, 0.00013),
    "bitmask": (bitmask_loop, 0.00008),
}


class SpeedProbe:
    def __init__(self, kind: str):
        self.loop, self.reference_s = LOOPS[kind]
        self.samples: list[float] = []
        self.times: list[float] = []  # when each sample was taken
        self.spent = 0.0  # wall time inside the probe
        self.cpu_spent = 0.0  # process CPU time inside the probe
        self._previous = None

    def _tick(self, signum, frame) -> None:
        # The first loop warms the caches the workload just cooled, so the
        # timed second loop sees the machine, not the workload's footprint.
        t0, c0 = time.perf_counter(), time.process_time()
        self.loop()
        t1 = time.perf_counter()
        self.loop()
        t2 = time.perf_counter()
        self.samples.append(t2 - t1)
        self.times.append(t2)
        self.spent += t2 - t0
        self.cpu_spent += time.process_time() - c0

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, start: float, end: float) -> float:
        """Reference speed over the speed seen between start and end.

        Uses the samples taken in that interval, or the ``NEAREST``
        samples nearest to its middle when it holds fewer.
        """
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        if hi - lo < NEAREST:
            mid = bisect.bisect_left(self.times, (start + end) / 2)
            hi = min(len(self.times), max(mid + NEAREST // 2, NEAREST))
            lo = max(0, hi - NEAREST)
        window = self.samples[lo:hi]
        return self.reference_s / statistics.fmean(window) if window else 1.0
