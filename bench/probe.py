"""Host speed probe, sampled all through a run on the CPU the jobs use.

The shared hosts this benchmark runs on change speed by up to 1.6x
within seconds and drift over minutes, and CPU time swings as much as
wall time.  A thread in the benchmark process wakes every INTERVAL_S,
times a fixed pure-Python kernel by its own thread CPU time, and records
the reading.  The kernel adds rows of a 700 x 700 list-of-lists matrix,
chosen at random, like the program's dense Smith reduction: a working
set of a few MB tracks the host's cache contention better than a small
one.  A job's times are scaled by REFERENCE_S over the median of the
readings taken while it ran, padded by PAD_S on both sides.  The kernel
never changes, and `probe_check.py` shows that the job it runs beside
does not move its readings, so the scaling removes the host's speed and
not the program's.  The probe takes about 2.5% of the CPU, the same on
every commit.
"""

import bisect
import os
import random
import statistics
import threading
from time import perf_counter, thread_time

# Kernel time on the host the bounds were set on (2 vCPUs, Python 3.11).
REFERENCE_S = 0.0007
INTERVAL_S = 0.2
SAMPLE_S = 0.005
PAD_S = 0.5
N = 700


def pin_to_last_cpu() -> None:
    """Keep this process, its threads and the children it starts on one
    CPU, so the probe reads the speed of the CPU the jobs run on; the last
    one, since the first tends to take the host's interrupts and other work."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class Kernel:
    def __init__(self):
        self.rows = [[(i * 7 + j * 13) % 11 - 5 for j in range(N)] for i in range(N)]
        rng = random.Random(0)
        self.pairs = [(rng.randrange(N), rng.randrange(N)) for _ in range(4096)]
        self.next = 0

    def __call__(self) -> None:
        for _ in range(8):
            a, b = self.pairs[self.next % 4096]
            self.next += 1
            ra, rb = self.rows[a], self.rows[b]
            for j in range(N):
                ra[j] = (ra[j] - 3 * rb[j]) % 11 - 5


class SpeedProbe:
    """Background readings of the kernel time; use as a context manager."""

    def __init__(self):
        self.kernel = Kernel()
        self.times: list[float] = []
        self.readings: list[float] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self) -> "SpeedProbe":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        start = thread_time()
        runs = 0
        while thread_time() - start < SAMPLE_S:
            self.kernel()
            runs += 1
        with self._lock:
            self.readings.append((thread_time() - start) / runs)
            self.times.append(perf_counter())

    def _loop(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            self._sample()

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the median reading near [start, end]."""
        with self._lock:
            lo = bisect.bisect_left(self.times, start - PAD_S)
            hi = bisect.bisect_right(self.times, end + PAD_S)
            lo, hi = max(0, min(lo, hi - 1, len(self.times) - 2)), max(hi, lo + 2)
            return REFERENCE_S / statistics.median(self.readings[lo:hi])
