"""diagcheck benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before
it holds the run's details (input mix, tail percentile, sample count, host
probe, environment, invariant digest).  See NOTES.md for the workloads and
the metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter_ns

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench-work", str(os.getpid()))
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
SETUP_MAX_REPEATS = 40
TAIL_BEYOND = 10


# ---------------------------------------------------------------------------
# Environment record


def host_probe_ms() -> float:
    """A fixed pure-Python loop that calls no diagcheck code; reported only,
    so drift in host speed is visible next to every run's figures."""
    times = []
    for _ in range(3):
        t0 = perf_counter_ns()
        acc = 0
        for i in range(300_000):
            acc += i * i % 7
        times.append((perf_counter_ns() - t0) / 1e6)
    return statistics.median(times)


def environment() -> dict:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
        commit = proc.stdout.strip() if proc.returncode == 0 else "none (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        commit = "none (git unavailable)"
    digest = hashlib.sha256()
    package = os.path.join(SRC, "diagcheck")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
    }


# ---------------------------------------------------------------------------
# Measurement


class Tally:
    """Per-request outcomes of one run, with the invariant record of every
    distinct input; a record that changes between requests is a failure.

    ``attempted``/``failed`` count requests, so they grow with the run's
    length.  ``inputs_attempted``/``inputs_failed`` count distinct inputs
    (and checks), an input failing if any of its requests failed; every
    input is served at least once, so these depend only on the seed and are
    what the result line reports."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.latencies_ms: list = []
        self.mix: dict = {}
        self.records: dict = {}
        self.best_ms: dict = {}
        self.input_failed: dict = {}
        self.problems: list = []

    @property
    def inputs_attempted(self) -> int:
        return len(self.input_failed)

    @property
    def inputs_failed(self) -> int:
        return sum(self.input_failed.values())

    def fail(self, key: str, reasons) -> None:
        """Count a failed request.  A crash (a traceback and no verdict) only
        fails; a wrong verdict or exit code, a rejected witness, a counter
        above its bound or a changed invariant record also makes the run
        incorrect."""
        self.failed += 1
        self.input_failed[key] = True
        if any(not r.startswith("crash with exit") for r in reasons):
            self.wrong += 1
        if len(self.problems) < 8:
            self.problems.append(f"{key}: {'; '.join(reasons)}")

    def fail_checks(self, key: str, reasons) -> None:
        """Checks made outside any request (set-up, probes) count as one
        attempt each."""
        for i, reason in enumerate(reasons):
            self.attempted += 1
            self.fail(f"{key}#{i}", [reason])

    def add(self, case, latency_ns, record, reasons) -> None:
        self.attempted += 1
        self.latencies_ms.append(latency_ns / 1e6)
        self.best_ms[case.key] = min(latency_ns / 1e6, self.best_ms.get(case.key, math.inf))
        self.mix[case.kind] = self.mix.get(case.kind, 0) + 1
        self.input_failed.setdefault(case.key, False)
        known = self.records.setdefault(case.key, record)
        if known != record:
            reasons = list(reasons) + ["invariant record changed between requests"]
        if reasons:
            self.fail(case.key, reasons)

    def digest(self) -> str:
        text = "\n".join(repr(self.records[key]) for key in sorted(self.records))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def serve(tally: Tally, case, run_fn, ctx) -> None:
    """One closed-loop request: the next starts only after this one ends."""
    t0 = perf_counter_ns()
    try:
        done, record, reasons = run_fn(case, ctx)
    except Exception as exc:  # counted as a failed request; the run goes on
        done, record, reasons = perf_counter_ns(), None, [f"{type(exc).__name__}: {exc}"]
    tally.add(case, done - t0, record, reasons)


def timed_setup(workloads, workload, seed, ctx):
    """Run the set-up in fresh directories, at least SETUP_REPEATS times and
    until SETUP_MIN_S have been spent; returns the last result and the
    median time."""
    times = []
    result = None
    i = 0
    while i < SETUP_REPEATS or (sum(times) < SETUP_MIN_S and i < SETUP_MAX_REPEATS):
        result = None
        gc.collect()
        workdir = os.path.join(WORK_DIR, f"setup{i}")
        os.makedirs(workdir)
        t0 = perf_counter_ns()
        result = workloads.setup(workload, seed, workdir, ctx)
        times.append((perf_counter_ns() - t0) / 1e9)
        i += 1
    return result, statistics.median(times)


def tail(samples: list):
    """The sample at the highest percentile that has TAIL_BEYOND samples
    beyond it (nearest rank), and that percentile; the largest sample and
    100 when there are too few samples."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def measure_untraced(workloads, args):
    ctx = workloads.Context(ROOT)
    (cases, setup_reasons), setup_s = timed_setup(workloads, args.workload, args.seed, ctx)
    tally = Tally()
    tally.fail_checks("setup", setup_reasons)
    run_fn = workloads.request_function(args.workload, traced=False, root=ROOT)
    order = list(cases)
    random.Random(f"schedule:{args.seed}").shuffle(order)
    run_fn(order[0], ctx)  # warm-up: byte-compiled modules and lazy caches
    gc.collect()
    gc.freeze()
    start = perf_counter_ns()
    deadline = start + int(args.seconds * 1e9)
    rounds = 0
    cpus = sorted(os.sched_getaffinity(0))
    # Rounds over every input until the deadline.  The first round always
    # completes, so every input is served at least once and the per-input
    # counts do not depend on the host's speed.  Round r runs on the r-th of
    # the process's CPUs in turn, and child processes inherit it: on a
    # shared host one CPU can stay half again slower than another for
    # minutes, and a run that the scheduler left on it read that much slower.
    try:
        while rounds == 0 or perf_counter_ns() < deadline:
            os.sched_setaffinity(0, {cpus[rounds % len(cpus)]})
            for case in order:
                if rounds and perf_counter_ns() >= deadline:
                    break
                serve(tally, case, run_fn, ctx)
            else:
                rounds += 1
    finally:
        os.sched_setaffinity(0, cpus)
    wall_s = (perf_counter_ns() - start) / 1e9
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-docs" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    # Each input's latency is the best of its requests: the host's speed
    # swings by a third for seconds at a time, and the best of several
    # repeats drops those slow stretches while keeping the input's own cost.
    best = sorted(tally.best_ms.values())
    tail_ms, tail_pct = tail(best)
    succeeded = sum(1 for key in tally.best_ms if not tally.input_failed[key])
    metrics = {
        "setup_s": (setup_s, "s"),
        # One round at every input's best latency, counting successes only.
        "throughput_rps": (succeeded / (sum(best) / 1e3), "1/s"),
        "latency_p50_ms": (statistics.median(best), "ms"),
        "latency_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "success_share": (1 - tally.failed / tally.attempted, "ratio"),
    }
    details = {
        "tail_percentile": round(tail_pct, 3),
        "tail_samples_beyond": sum(1 for x in best if x > tail_ms),
        "samples": len(best),
        "requests": tally.attempted,
        "failed_requests": tally.failed,
        "fail_share": tally.failed / tally.attempted,
        "peak_rss_of": "largest child process" if who == resource.RUSAGE_CHILDREN else "benchmark process",
        "wall_s": wall_s,
        "rounds": rounds,
        "overall_rps": (tally.attempted - tally.failed) / wall_s,
        "raw_p50_ms": statistics.median(tally.latencies_ms),
    }
    return tally, metrics, details


def measure_traced(workloads, tracing, layers, args, env):
    tracer = tracing.Tracer()
    traced_ctx = workloads.Context(ROOT, tracer.wrap_diagram)
    plain_ctx = workloads.Context(ROOT)
    workdir = os.path.join(WORK_DIR, "traced")
    os.makedirs(workdir)
    with tracer.installed():
        cases, setup_reasons = workloads.setup(args.workload, args.seed, workdir, traced_ctx)
    tally = Tally()
    tally.fail_checks("setup", setup_reasons)
    run_fn = workloads.request_function(args.workload, traced=True, root=ROOT)
    order = list(cases)
    random.Random(f"schedule:{args.seed}").shuffle(order)
    gc.collect()
    gc.freeze()
    untraced_walls, traced_walls = [], []
    verify_totals = [0, 0]
    deadline = perf_counter_ns() + int(args.seconds * 1e9)
    passes = 0
    while passes == 0 or perf_counter_ns() < deadline:
        t0 = perf_counter_ns()
        with tracing.verify_timer(verify_totals):
            for case in order:
                serve(tally, case, run_fn, plain_ctx)
        untraced_walls.append(perf_counter_ns() - t0)
        t0 = perf_counter_ns()
        with tracer.installed():
            for i, case in enumerate(order):
                tracer.request = passes * len(order) + i
                serve(tally, case, run_fn, traced_ctx)
        traced_walls.append(perf_counter_ns() - t0)
        passes += 1
    verify_stats = list(tracer.verify_stats)
    probe = layers.cli_probes(workloads, tracer, plain_ctx, cases, workdir, env, args.workload)
    tally.fail_checks("cli-probe", probe["problems"])
    if tracer.count_mismatches:
        tally.fail_checks("monoid-wrapper", [f"{tracer.count_mismatches} verify calls whose op/eq counts differ from the report"])
    metrics = layers.per_layer_metrics(
        tracer, passes, verify_stats, verify_totals, untraced_walls, traced_walls, probe
    )
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.dump(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    details = {"passes": passes, "spans": len(tracer.spans), "unexercised": probe["unexercised"]}
    return tally, metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "diagcheck", "__init__.py")):
        print(f"error: no diagcheck sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import layers
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    env = workloads.cli_env(ROOT)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "host_probe_ms": host_probe_ms(), **environment()}
    try:
        if args.trace:
            tally, metrics, details = measure_traced(workloads, tracing, layers, args, env)
        else:
            tally, metrics, details = measure_untraced(workloads, args)
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(WORK_DIR))
    record.update(details)
    record["input_mix"] = dict(sorted(tally.mix.items()))
    record["distinct_inputs"] = len(tally.records)
    record["invariants_sha256"] = tally.digest()
    record["problems"] = tally.problems
    print(json.dumps(record, sort_keys=False))
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.inputs_attempted,
        "failed": tally.inputs_failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
