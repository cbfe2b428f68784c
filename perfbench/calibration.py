"""Machine-speed calibration for the benchmark's timings.

On a shared machine the speed of a core changes by up to 2x, within seconds
or for minutes at a time, whatever runs on it.  While a pass runs, a
SIGVTALRM handler times a fixed pure-Python loop shaped like the tower
multiply (schoolbook products of small-int lists, reduced mod p^k) every
EVERY_S of CPU time.  A query's time, less the time spent in those samples,
is scaled by REFERENCE_S / (the mean loop time of the samples taken during
it and the nearest one on each side).  Reported times are therefore seconds
at the speed where the loop takes REFERENCE_S, and a change of machine speed
cancels out.  Raw times are reported alongside.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time

REFERENCE_S = 0.018  # the loop's time on a 2-core x86-64 VM, CPython 3.11.7, unloaded
EVERY_S = 0.25  # CPU seconds between samples


def calibrate():
    """(wall seconds, CPU seconds) of the fixed loop."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    mod = 3**20
    a, b = list(range(1, 33)), list(range(7, 39))
    for _ in range(160):
        acc = [0] * 63
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                acc[i + j] += x * y
        a = [c % mod for c in acc[:32]]
    return time.perf_counter() - wall0, time.process_time() - cpu0


class Sampler:
    """Calibration samples taken every EVERY_S of CPU time while active."""

    def __init__(self):
        self.starts, self.walls, self.cpus = [], [], []

    def _take(self, *signal_args):
        # The loop's lists would shift the collector's schedule, and with it
        # the program's peak memory; with the collector off they come and go
        # without moving its allocation count.
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            wall, cpu = calibrate()
        finally:
            if enabled:
                gc.enable()
        self.starts.append(start)
        self.walls.append(wall)
        self.cpus.append(cpu)

    def __enter__(self):
        self._take()
        signal.signal(signal.SIGVTALRM, self._take)
        signal.setitimer(signal.ITIMER_VIRTUAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, signal.SIG_DFL)
        self._take()

    def scaled(self, start, end, seconds, cpu):
        """(wall, CPU) seconds of work measured over [start, end], less the
        samples taken inside it, at the reference speed."""
        lo = max(bisect.bisect_left(self.starts, start) - 1, 0)
        hi = bisect.bisect_left(self.starts, end)
        inside = range(lo + 1, hi)
        seconds -= sum(self.walls[i] for i in inside)
        cpu -= sum(self.cpus[i] for i in inside)
        near = range(lo, min(hi + 1, len(self.starts)))
        wall_ref = sum(self.walls[i] for i in near) / len(near)
        cpu_ref = sum(self.cpus[i] for i in near) / len(near)
        return seconds * REFERENCE_S / wall_ref, cpu * REFERENCE_S / cpu_ref
