#!/usr/bin/env python3
"""Does the speed probe read the job it runs beside?

    python3 bench/probe_check.py [--cycles 60]

Run from the root of a source checkout.  Pinned to one CPU like a
benchmark run, the probe samples while a child process cycles through
one-second phases: asleep, a small busy loop, random reads over an
80 MB list, and in-process sncweight work (the weight table of
torus:4).  For every cycle it divides the median reading of each busy
phase by that of the idle phase just before it, and prints the median
and quartiles of each ratio over the cycles.  A ratio of 1 means the
job's working set does not move the scale factor; the host's own speed
swings make the single ratios spread.
"""

import argparse
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import SpeedProbe, pin_to_last_cpu

SRC = Path(__file__).resolve().parent.parent / "src"
PHASE_S = 1.0
MARGIN_S = 0.15
BUSY = ("small", "big", "sncweight")


def child(cycles: int) -> None:
    sys.path.insert(0, str(SRC))
    from sncweight import builders, weight

    n = 10_000_000  # about 80 MB of list slots
    data = list(range(n))
    random.Random(0).shuffle(data)
    rng = random.Random(1)
    picks = [rng.randrange(n) for _ in range(1 << 14)]
    torus = builders.torus_snc(4)

    def asleep(end):
        time.sleep(max(0.0, end - time.perf_counter()))

    def small(end):
        x = 0
        while time.perf_counter() < end:
            x += 1

    def big(end):
        s = 0
        while time.perf_counter() < end:
            for i in picks:
                s += data[i]

    def sncweight(end):
        while time.perf_counter() < end:
            weight.weight_cohomology_table(torus)

    phases = (("idle", asleep), ("small", small), ("big", big), ("sncweight", sncweight))
    print("ready", flush=True)
    for cycle in range(cycles):
        for name, work in phases:
            t0 = time.perf_counter()
            work(t0 + PHASE_S)
            print(name, cycle, t0, time.perf_counter(), flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cycles", type=int, default=60)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        child(args.cycles)
        return 0
    pin_to_last_cpu()
    with SpeedProbe() as probe:
        out = subprocess.run([sys.executable, __file__, "--child", "--cycles", str(args.cycles)],
                             stdout=subprocess.PIPE, text=True, check=True).stdout
        samples = list(zip(probe.times, probe.readings))
    medians: dict[int, dict[str, float]] = {}
    for line in out.splitlines()[1:]:
        name, cycle, t0, t1 = line.split()
        inside = [r for t, r in samples if float(t0) + MARGIN_S < t < float(t1)]
        if inside:
            medians.setdefault(int(cycle), {})[name] = statistics.median(inside)
    for name in BUSY:
        ratios = [m[name] / m["idle"] for m in medians.values() if name in m and "idle" in m]
        q1, _, q3 = statistics.quantiles(ratios, n=4)
        print(f"{name + '/idle':<16} median {statistics.median(ratios):.3f}  "
              f"quartiles {q1:.3f}-{q3:.3f}  cycles {len(ratios)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
