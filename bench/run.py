#!/usr/bin/env python3
"""Benchmark of the sncweight command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --record-golden

Run from the root of a source checkout: the jobs run `python -m
sncweight.cli` with PYTHONPATH set to the checkout's `src`.  One client
runs the workload's job list in a closed loop, one job at a time,
repeating the list while another pass still fits in S seconds.  Every
job's stdout is checked against an answer the benchmark derives without
the package, and, for the default seed, against the SHA-256 recorded in
golden.json.

With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of
traced in-process passes over the same job list.  See README.md.
"""

import argparse
import hashlib
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import tracer as tracing
from probe import SpeedProbe, pin_to_last_cpu
from workloads import WORKLOADS, Job

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
GOLDEN = BENCH / "golden.json"

DEFAULT_SEED = 1
SETUP_REPEATS = 9
JOB_TIMEOUT_S = 120.0
# Every run must exit within 180 s.  At this point an end-to-end run kills
# the job it is running and a traced run interrupts its pass; either fails.
DEADLINE_S = 165.0
WARMUP = ["compute", "--builder", "affine:1"]
SLOC_MODULES = tracing.LAYERS + ("reports",)


@dataclass
class Outcome:
    wall: float
    cpu: float
    code: int
    stdout: str
    timed_out: bool


def run_job(argv: list[str], cwd: Path, timeout: float) -> Outcome:
    """One CLI process: wall time from spawn to exit, CPU time from the
    rusage of the children this process has waited for."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "sncweight.cli", *argv], cwd=cwd, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              timeout=max(timeout, 0.0))
        code, stdout, timed_out = proc.returncode, proc.stdout, False
    except subprocess.TimeoutExpired:  # run() has killed and reaped the job
        code, stdout, timed_out = -signal.SIGKILL, b"", True
    wall = perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
    return Outcome(wall, cpu, code, stdout.decode("utf-8", "replace"), timed_out)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def verdict(job: Job, code: int, stdout: str, golden: dict | None) -> str | None:
    """None when the job's output is right, else the reason it is wrong."""
    if code != 0:
        return f"exit code {code}"
    reason = job.check(stdout)
    if reason:
        return reason
    if golden is not None and golden.get(job.key) != sha256(stdout):
        return "stdout differs from the recorded SHA-256"
    return None


def set_up(workload, seed: int) -> tuple[list[Job], Path]:
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    jobs = workload.make(random.Random(f"{workload.name}:{seed}"), work)
    return jobs, work


def load_golden(workload, seed: int) -> dict | None:
    if seed != DEFAULT_SEED:
        return None
    return json.loads(GOLDEN.read_text()).get(workload.name, {})


def high_percentile(values: list[float]) -> tuple[int, float] | None:
    """(p, value) for the highest whole percentile p >= 50 with ten samples beyond it."""
    p = 100 - -(-1000 // len(values)) if values else 0
    if p < 50:
        return None
    return p, statistics.quantiles(values, n=100)[p - 1]


def report(metrics: dict, samples: dict | None = None) -> None:
    for name, m in metrics.items():
        count = f"n={samples[name]}" if samples else ""
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']:<8} {count}")


def median(values) -> float:
    """The median, or 0.0 when a run that failed early left no samples."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(workload, seed: int, seconds: float, started: float) -> dict:
    pin_to_last_cpu()
    with SpeedProbe() as probe:
        m = measure(workload, seed, seconds, started, probe)
    # A pass that could not start every job before the deadline gives no
    # time, unless no pass got that far; such a run has failed anyway.
    passes = [p for p in m.passes if p.complete] or m.passes
    series = {"setup_s": m.setups, "run_s": [p.wall for p in passes],
              "cpu_s": [p.cpu for p in passes], "job_p50_s": m.walls}
    metrics = {name: {"value": median(s for _, s in pairs), "unit": "s"}
               for name, pairs in series.items()}
    metrics["peak_rss_mb"] = {
        "value": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "unit": "MB"}
    counts = {name: len(pairs) for name, pairs in series.items()}
    counts["peak_rss_mb"] = len(m.walls) + SETUP_REPEATS
    print(f"workload {workload.name} ({workload.why}), seed {seed}: {len(m.jobs)} jobs "
          f"per pass, {len(passes)} passes, one client, closed loop")
    report(metrics, counts)
    for name, pairs in series.items():
        print(f"  {name + ' (unscaled)':<44} {median(u for u, _ in pairs):>14.6g} {'s':<8} "
              f"n={len(pairs)}")
    high = high_percentile([s for _, s in m.walls])
    if high:
        print(f"  {f'job_p{high[0]}_s':<44} {high[1]:>14.6g} {'s':<8} n={len(m.walls)}")
    failed = m.wrong + m.timeouts
    print(f"  {'failed_ratio':<44} {failed / m.attempted:>14.6g} {'':<8} "
          f"{failed} of {m.attempted} jobs")
    return {"correct": failed == 0, "attempted": m.attempted, "failed": failed,
            "metrics": metrics}


@dataclass
class Pass:
    """One pass over the job list; times are (unscaled, scaled) seconds."""

    wall: tuple = (0.0, 0.0)
    cpu: tuple = (0.0, 0.0)
    complete: bool = True


@dataclass
class Measured:
    """Times are (unscaled, scaled) pairs of seconds."""

    jobs: list
    setups: list  # one pair per set-up
    walls: list = field(default_factory=list)  # one pair per job run
    passes: list = field(default_factory=list)
    attempted: int = 0
    wrong: int = 0
    timeouts: int = 0


def add(pair: tuple, seconds: float, scale: float) -> tuple:
    return pair[0] + seconds, pair[1] + seconds * scale


def measure(workload, seed: int, seconds: float, started: float, probe) -> Measured:
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        jobs, work = set_up(workload, seed)
        warm = run_job(WARMUP, work, JOB_TIMEOUT_S)
        t1 = perf_counter()
        setups.append((t1 - t0, (t1 - t0) * probe.scale(t0, t1)))
        if warm.code != 0:
            raise SystemExit(f"warm-up job failed with exit code {warm.code}")
    golden = load_golden(workload, seed)

    m = Measured(jobs, setups)
    begin = perf_counter()
    while True:
        p = Pass()
        for job in jobs:
            left = DEADLINE_S - (perf_counter() - started)
            m.attempted += 1
            if left <= 0:
                print(f"NOT STARTED {job.key}: past the run's deadline")
                m.timeouts += 1
                p.complete = False
                continue
            t0 = perf_counter()
            o = run_job(job.argv, work, min(JOB_TIMEOUT_S, left))
            scale = probe.scale(t0, perf_counter())
            if o.timed_out:
                m.timeouts += 1
                print(f"TIMEOUT {job.key}: killed after {o.wall:.1f} s")
            else:
                reason = verdict(job, o.code, o.stdout, golden)
                if reason:
                    m.wrong += 1
                    print(f"WRONG {job.key}: {reason}")
            # A killed job is charged the time it ran.
            m.walls.append((o.wall, o.wall * scale))
            p.wall = add(p.wall, o.wall, scale)
            p.cpu = add(p.cpu, o.cpu, scale)
        m.passes.append(p)
        elapsed = perf_counter() - begin
        typical = statistics.median(q.wall[0] for q in m.passes)
        if m.timeouts or elapsed + typical > seconds:
            return m


# ---------------------------------------------------------------------------
# Traced run


def in_process(main, argv: list[str], cwd: Path) -> tuple[int, str]:
    out = io.StringIO()
    old = os.getcwd()
    os.chdir(cwd)
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            try:
                code = main(list(argv))
            except SystemExit as e:
                code = e.code if isinstance(e.code, int) else 2
    finally:
        os.chdir(old)
    return code, out.getvalue()


def sloc(path: Path) -> int:
    """Lines that are neither blank nor comments only."""
    lines = path.read_text().splitlines()
    return sum(1 for line in lines if line.strip() and not line.strip().startswith("#"))


def startup_seconds(work: Path) -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(5):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import sncweight.cli"], cwd=work, env=env,
                       check=True)
        times.append(perf_counter() - t0)
    return statistics.median(times)


class Deadline(BaseException):
    """Raised in the traced run's main thread when the run's deadline passes.

    A BaseException, so the program's own `except Exception` cannot catch it.
    """


def _deadline(signum, frame):
    raise Deadline


def traced(workload, seed: int, started: float) -> dict:
    pin_to_last_cpu()
    jobs, work = set_up(workload, seed)
    golden = load_golden(workload, seed)
    startup = startup_seconds(work)
    sys.path.insert(0, str(SRC))
    from sncweight import cli

    wrong = 0
    out_bytes = 0

    def run_pass(main, tracer=None) -> float:
        nonlocal wrong, out_bytes
        total, out_bytes = 0.0, 0
        for k, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = k
            t0 = perf_counter()
            try:
                code, stdout = in_process(main, job.argv, work)
            except Exception as e:  # the program raised: a wrong result, not a crash here
                code, stdout = -1, f"{type(e).__name__}: {e}"
            total += perf_counter() - t0
            reason = verdict(job, code, stdout, golden)
            if reason:
                wrong += 1
                print(f"WRONG {job.key}: {reason}")
            out_bytes += len(stdout.encode())
        return total

    def process_pass() -> tuple[float, float]:
        """One end-to-end pass, unscaled: its wall and CPU seconds."""
        nonlocal wrong
        wall = cpu = 0.0
        for job in jobs:
            left = DEADLINE_S - (perf_counter() - started)
            o = run_job(job.argv, work, min(JOB_TIMEOUT_S, left))
            reason = "timed out" if o.timed_out else verdict(job, o.code, o.stdout, golden)
            if reason:
                wrong += 1
                print(f"WRONG {job.key}: {reason}")
            wall, cpu = wall + o.wall, cpu + o.cpu
        return wall, cpu

    # In-process jobs cannot be killed, so a timer interrupts the run when
    # its deadline passes; the passes not finished by then fail it.
    unscaled, plain, passes, late = (0.0, 0.0), 0.0, [], False
    signal.signal(signal.SIGALRM, _deadline)
    signal.setitimer(signal.ITIMER_REAL, max(DEADLINE_S - (perf_counter() - started), 1e-3))
    try:
        unscaled = process_pass()
        plain = run_pass(cli.main)
        for _ in range(2):
            tracer = tracing.Tracer()
            tracer.install()
            try:
                passes.append((tracer, run_pass(tracer.wrap("cli.main", cli.main), tracer)))
            finally:
                tracer.uninstall()
    except Deadline:
        late = True
        print(f"TIMEOUT traced run: past {DEADLINE_S:.0f} s after {len(passes)} traced passes")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    while len(passes) < 2:
        passes.append((tracing.Tracer(), 0.0))
    (first, wall1), (second, wall2) = passes
    repeat_ok = first.counts == second.counts
    if not repeat_ok and not late:
        diff = sorted(k for k in first.counts.keys() | second.counts.keys()
                      if first.counts[k] != second.counts[k])
        print(f"WRONG counters differ between two traced passes: {', '.join(diff[:8])}")
    second.write_spans(work / "spans.jsonl")

    counts = first.counts
    self_s = {k: (first.self_time[k] + second.self_time[k]) / 2
              for k in first.self_time.keys() | second.self_time.keys()}
    modules = {k: (a + b) / 2 for (k, a), b in zip(first.module_self_time().items(),
                                                    second.module_self_time().values())}
    metrics = layer_metrics(counts, self_s, modules, len(jobs))
    metrics["cli.startup_s"] = {"value": startup, "unit": "s"}
    metrics["run_unscaled_s"] = {"value": unscaled[0], "unit": "s"}
    metrics["cpu_unscaled_s"] = {"value": unscaled[1], "unit": "s"}
    metrics["cli.stdout_bytes"] = {"value": out_bytes, "unit": "bytes"}
    for mod in SLOC_MODULES:
        metrics[f"{mod}.sloc"] = {"value": sloc(SRC / "sncweight" / f"{mod}.py"),
                                  "unit": "lines"}
    overhead = (wall1 + wall2) / 2 / plain if plain and not late else 0.0
    metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
    metrics = {name: metrics[name] for name, _, _ in PER_LAYER}
    print(f"workload {workload.name}, seed {seed}: traced in-process pass over "
          f"{len(jobs)} jobs, {len(second.spans)} spans, counters repeat: {repeat_ok}, "
          f"{perf_counter() - started:.1f} s in all")
    report(metrics)
    return {"correct": wrong == 0 and repeat_ok and not late, "attempted": 4 * len(jobs),
            "failed": wrong + late, "metrics": metrics}


# (metric, unit, better); the per_layer list of BENCHMARK.json.
PER_LAYER = [(f"{m}.self_s", "s", "lower") for m in tracing.LAYERS] + [
    ("intmat.snf.calls", "count", "lower"),
    ("intmat.snf.self_s", "s", "lower"),
    ("intmat.snf.entries", "count", "lower"),
    ("intmat.snf.nnz", "count", "lower"),
    ("intmat.snf.max_bits", "bits", "lower"),
    ("intmat.matmul.calls", "count", "lower"),
    ("intmat.matmul.self_s", "s", "lower"),
    ("abgroup.subquotient_cohomology.calls", "count", "lower"),
    ("abgroup.subquotient_cohomology.self_s", "s", "lower"),
    ("abgroup.canonical_form.calls", "count", "lower"),
    ("abgroup.canonical_form.self_s", "s", "lower"),
    ("abgroup.hom_checks.calls", "count", "lower"),
    ("abgroup.hom_checks.self_s", "s", "lower"),
    ("abgroup.reductions_per_differential", "ratio", "lower"),
    ("chain.cohomology.calls", "count", "lower"),
    ("chain.cohomology.self_s", "s", "lower"),
    ("chain.verify_complex.self_s", "s", "lower"),
    ("sncdata.validate.calls", "count", "lower"),
    ("sncdata.validate.self_s", "s", "lower"),
    ("sncdata.validate.per_job", "ratio", "lower"),
    ("sncdata.level_differential.calls", "count", "lower"),
    ("sncdata.level_differential.self_s", "s", "lower"),
    ("sncdata.level_differential.nnz", "count", "lower"),
    ("sncdata.level_differential.entries", "count", "lower"),
    ("weight.product_snc.calls", "count", "lower"),
    ("weight.product_snc.self_s", "s", "lower"),
    ("weight.weight_cohomology_table.calls", "count", "lower"),
    ("weight.weight_cohomology_table.self_s", "s", "lower"),
    ("dual.reduced_cohomology.calls", "count", "lower"),
    ("dual.reduced_cohomology.self_s", "s", "lower"),
    ("dual.edge_path_presentation.self_s", "s", "lower"),
    ("dual.simplify_presentation.self_s", "s", "lower"),
    ("dual.simplify_presentation.gens_in", "count", "lower"),
    ("dual.simplify_presentation.gens_out", "count", "lower"),
    ("builders.from_json.calls", "count", "lower"),
    ("builders.from_json.self_s", "s", "lower"),
    ("builders.parse_builder.self_s", "s", "lower"),
    ("cli.startup_s", "s", "lower"),
    ("cli.stdout_bytes", "bytes", "lower"),
] + [(f"{m}.sloc", "lines", "lower") for m in SLOC_MODULES] + [
    ("trace.overhead_ratio", "ratio", "lower"),
    ("run_unscaled_s", "s", "lower"),
    ("cpu_unscaled_s", "s", "lower"),
]

# Metric prefix -> the spans it sums.
SPANS = {
    "intmat.snf": ["intmat._snf_reduce"],
    "intmat.matmul": ["intmat.IntMatrix.__mul__"],
    "abgroup.hom_checks": ["abgroup.FpAbHom.is_well_defined", "abgroup.FpAbHom.is_zero_hom"],
}


def layer_metrics(counts, self_s: dict, modules: dict, n_jobs: int) -> dict:
    out = {f"{m}.self_s": {"value": t, "unit": "s"} for m, t in modules.items()}
    for name, unit, _ in PER_LAYER:
        prefix, _, kind = name.rpartition(".")
        spans = SPANS.get(prefix, [prefix])
        if kind == "calls":
            out[name] = {"value": sum(counts[f"{s}.calls"] for s in spans), "unit": unit}
        elif kind == "self_s" and name not in out:
            out[name] = {"value": sum(self_s.get(s, 0.0) for s in spans), "unit": unit}
        elif kind in ("entries", "nnz", "max_bits", "gens_in", "gens_out"):
            out[name] = {"value": counts[name], "unit": unit}
    diffs = counts["chain.cohomology.differentials"]
    out["abgroup.reductions_per_differential"] = {
        "value": counts["chain.cohomology.reductions"] / diffs if diffs else 0.0,
        "unit": "ratio"}
    out["sncdata.validate.per_job"] = {
        "value": counts["sncdata.validate.calls"] / n_jobs, "unit": "ratio"}
    return out


# ---------------------------------------------------------------------------


def record_golden() -> None:
    """Write golden.json: the SHA-256 of every job's stdout at the default seed."""
    golden = {}
    for workload in WORKLOADS:
        jobs, work = set_up(workload, DEFAULT_SEED)
        golden[workload.name] = {}
        for job in jobs:
            o = run_job(job.argv, work, JOB_TIMEOUT_S)
            reason = verdict(job, o.code, o.stdout, None)
            if reason:
                raise SystemExit(f"{workload.name}: {job.key}: {reason}")
            golden[workload.name][job.key] = sha256(o.stdout)
        print(f"{workload.name}: {len(jobs)} jobs recorded")
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def main() -> int:
    started = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w.name for w in WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args()
    if not (SRC / "sncweight" / "cli.py").is_file():
        print(f"error: no sncweight sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.record_golden:
        record_golden()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    workload = next(w for w in WORKLOADS if w.name == args.workload)
    if args.trace:
        result = traced(workload, args.seed, started)
    else:
        result = end_to_end(workload, args.seed, args.seconds, started)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
