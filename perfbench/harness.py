"""Closed-loop benchmark loop: set up a workload, run its jobs for a time, summarise.

One client, single-threaded: each job starts when the previous one ends.
An untraced run gives the end-to-end metrics. A traced run alternates
traced and untraced jobs over the same window; the traced jobs give the
per-layer self times and the difference between the two medians is the
tracing overhead.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from spans import NullTracer, Tracer, self_times
from workloads import ALGOS, tile_probes, work_counts

SETUP_REPS = 7  # setup_s is the median of this many cold set-ups
TAIL_BEYOND = 10  # job_s_tail: the highest percentile with this many samples beyond it

END_TO_END = (
    ("setup_s", "s"),
    ("job_s_p50", "s"),
    ("job_s_tail", "s"),
    ("job_cpu_s_p50", "s"),
    ("interactions_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

# Layer spans whose per-job self time is reported; a layer that does not run
# on a workload reads 0.
SPAN_LAYERS = (
    "layout.partition",
    "simulator.run_schedule",
    "layout.gather",
    "attention.oracle",
    "simulator.schedule_work_stats",
    "verify.check_masks",
    "verify.check_tiles",
    "verify.check_exactness",
    "verify.check_workload_shapes",
    "verify.check_determinism",
    "verify.check_tms_golden",
    "costmodel.compare_golden",
)

PER_LAYER = (
    ("simulator.random_qkv_s", "s"),
    *((f"{name}_s", "s") for name in SPAN_LAYERS),
    ("simulator.ns_per_tile", "ns"),
    ("attention.oracle_gflops", "GFLOP/s"),
    ("attention.accumulate_full_tile_us", "us"),
    ("attention.accumulate_partial_tile_us", "us"),
    ("attention.tile_census_us", "us"),
    ("attention.classify_tiles_us", "us"),
    ("simulator.measured_ring_over_striped", "ratio"),
    ("bench.job_self_s", "s"),
    ("trace.overhead_s", "s"),
    ("layout.bytes_moved", "bytes"),
    ("simulator.rotation_bytes", "bytes"),
    ("simulator.tiles_computed", "count"),
    ("simulator.tiles_partial", "count"),
    ("simulator.tiles_skipped", "count"),
    ("simulator.interactions_computed", "count"),
    ("simulator.interactions_required", "count"),
    ("simulator.useful_ratio", "ratio"),
    ("simulator.critical_path_interactions", "count"),
    ("simulator.simulated_speedup", "ratio"),
    ("verify.properties_failed", "count"),
    ("costmodel.golden_rows_checked", "count"),
    ("costmodel.golden_max_abs_delta", "ratio"),
)

NOTES = {
    "setup_s": f"median of {SETUP_REPS} cold set-ups, each a fresh interpreter from start to "
    "the end of its warm-up job: import, seeded inputs, serial references, one warm-up job",
    "job_cpu_s_p50": "process CPU time, BLAS and executor threads included",
    "peak_rss_mb": "ru_maxrss of this process, set-up included, cold set-up children not",
    "simulator.ns_per_tile": "run_schedule self time / tiles computed",
    "attention.oracle_gflops": "computed 4*n^2*d FLOPs / oracle self time",
    "layout.bytes_moved": "computed: Q, K, V partitioned and O gathered, float64, both algorithms",
    "simulator.rotation_bytes": "computed: K and V blocks, N devices x (N-1) rotations, both algorithms",
    "simulator.useful_ratio": "base: interactions computed",
    "simulator.critical_path_interactions": "sum over both algorithms and rounds of the "
    "round's max computed interactions",
    "simulator.simulated_speedup": "counted: ring / striped critical-path interactions",
    "simulator.measured_ring_over_striped": "measured: ring / striped run_schedule wall time; "
    "all devices summed, not the critical path",
    "costmodel.golden_max_abs_delta": "max |computed - reference| speedup over golden rows",
    "trace.overhead_s": "traced job_s_p50 - untraced job_s_p50, same window",
    "bench.job_self_s": "job span minus its child spans: the benchmark's own work",
}


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    notes: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    tracer: Tracer | None = None

    def summary(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
        }


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, sample count) of the highest percentile that has
    TAIL_BEYOND samples beyond it; the maximum when there are too few samples."""
    xs = sorted(samples)
    k = len(xs)
    if k <= TAIL_BEYOND:
        return xs[-1], 100.0, k
    return xs[k - TAIL_BEYOND - 1], 100.0 * (k - TAIL_BEYOND) / k, k


def cold_setup(workload, seed: int, root: Path) -> tuple[float, list[str]]:
    """Set up `workload` and run its warm-up job in a fresh interpreter.

    Returns the seconds from just before the interpreter is started to the
    end of its warm-up job (CLOCK_MONOTONIC, shared by both processes), and
    the problems the set-up and warm-up gates found.
    """
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    t0 = time.monotonic()
    done = subprocess.run(
        [sys.executable, __file__, workload.name, str(seed)],
        env=env, cwd=root, capture_output=True, text=True, check=True,
    )
    ready, problems = json.loads(done.stdout.splitlines()[-1])
    return ready - t0, problems


def run(workload, seed: int, seconds: float, trace: bool, root: Path) -> Result:
    untraced = NullTracer()
    tracer = Tracer() if trace else untraced
    attempted = failed = 0
    problems: list[str] = []

    def record(job_problems):
        nonlocal attempted, failed
        attempted += 1
        if job_problems:
            failed += 1
            problems.extend(job_problems)

    tracer.job = "setup"
    state, setup_problems = workload.setup(seed, tracer)
    warm = workload.job(state, tracer)
    record(setup_problems + warm.problems)

    # setup_s is measured cold, in child processes spread evenly over the
    # window of job time, so its median sees the same machine as the jobs'.
    # Only untraced runs report it. The children's time is not job time.
    reps = 0 if trace else SETUP_REPS
    setup_at = [seconds * r / reps for r in range(reps)]
    setup_s: list[float] = []
    walls: list[float] = []
    cpus: list[float] = []
    traced_jobs: list[bool] = []
    last = warm
    while True:
        i = len(walls)
        traced = trace and i % 2 == 0
        tracer.job = str(i)
        c0, w0 = time.process_time(), time.perf_counter()
        if traced:
            with tracer.span("job"):
                last = workload.job(state, tracer)
        else:
            last = workload.job(state, untraced)
        walls.append(time.perf_counter() - w0)
        cpus.append(time.process_time() - c0)
        traced_jobs.append(traced)
        record(last.problems)
        while len(setup_s) < reps and sum(walls) >= setup_at[len(setup_s)]:
            elapsed, cold_problems = cold_setup(workload, seed, root)
            setup_s.append(elapsed)
            record(cold_problems)
        if sum(walls) >= seconds and (not trace or i >= 1):
            break

    correct = failed == 0
    counts = work_counts(workload, last)
    if trace:
        metrics, notes = _per_layer(workload, state, tracer, walls, traced_jobs, counts)
    else:
        value, pct, k = tail(walls)
        metrics = {
            "setup_s": statistics.median(setup_s),
            "job_s_p50": statistics.median(walls),
            "job_s_tail": value,
            "job_cpu_s_p50": statistics.median(cpus),
            "interactions_per_s": counts["simulator.interactions_required"]
            * len(walls) / sum(walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        beyond = f"{TAIL_BEYOND} beyond" if k > TAIL_BEYOND else "too few jobs: the maximum"
        notes = {
            "job_s_p50": f"median of {k} jobs",
            "job_s_tail": f"p{pct:.1f} of {k} jobs, {beyond}",
            "interactions_per_s": f"sum of interactions required / sum of job wall time; "
            f"base {workload.interactions_base}",
        }
        metrics = {name: (metrics[name], unit) for name, unit in END_TO_END}
    return Result(
        correct, attempted, failed, metrics,
        {**{n: NOTES[n] for n in metrics if n in NOTES}, **notes},
        problems, tracer if trace else None,
    )


def _per_layer(workload, state, tracer, walls, traced_jobs, counts):
    selfs = self_times(tracer.spans)
    by_job: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    by_tag: dict[str, dict[tuple, float]] = defaultdict(dict)
    for span, own in zip(tracer.spans, selfs):
        by_job[span.job][span.name] += own
        if span.tag is not None:
            by_tag[span.job][(span.name, span.tag)] = span.end - span.start
    jobs = [str(i) for i, t in enumerate(traced_jobs) if t]

    def median_over(job_ids, name):
        return statistics.median(by_job[j].get(name, 0.0) for j in job_ids)

    metrics = {"simulator.random_qkv_s": by_job["setup"]["simulator.random_qkv"]}
    notes = {}
    for name in SPAN_LAYERS:
        metrics[f"{name}_s"] = median_over(jobs, name)
        if metrics[f"{name}_s"] == 0.0:
            notes[f"{name}_s"] = "not run in this workload's jobs"
    run_s = metrics["simulator.run_schedule_s"]
    oracle_s = metrics["attention.oracle_s"]
    metrics["simulator.ns_per_tile"] = 1e9 * run_s / counts["simulator.tiles_computed"]
    n, d = workload.n_seq, workload.d_head
    metrics["attention.oracle_gflops"] = 4 * n * n * d / oracle_s / 1e9 if oracle_s else 0.0
    metrics.update(tile_probes(workload, state))
    ratios = [
        by_tag[j][("simulator.run_schedule", ALGOS[0].value)]
        / by_tag[j][("simulator.run_schedule", ALGOS[1].value)]
        for j in jobs
        if ("simulator.run_schedule", ALGOS[0].value) in by_tag[j]
    ]
    metrics["simulator.measured_ring_over_striped"] = statistics.median(ratios) if ratios else 0.0
    for name in ("simulator.ns_per_tile", "attention.oracle_gflops",
                 "simulator.measured_ring_over_striped"):
        if metrics[name] == 0.0:
            notes[name] = "not run in this workload's jobs"
    metrics["bench.job_self_s"] = median_over(jobs, "job")
    traced_walls = [w for w, t in zip(walls, traced_jobs) if t]
    plain_walls = [w for w, t in zip(walls, traced_jobs) if not t]
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain_walls)
    notes["trace.overhead_s"] = (
        f"{len(traced_walls)} traced and {len(plain_walls)} untraced jobs alternated"
    )
    metrics.update(counts)
    return {name: (metrics[name], unit) for name, unit in PER_LAYER}, notes


if __name__ == "__main__":
    # One cold set-up, run by cold_setup(): python3 harness.py WORKLOAD SEED
    from workloads import WORKLOADS

    _workload = WORKLOADS[sys.argv[1]]
    _state, _problems = _workload.setup(int(sys.argv[2]), NullTracer())
    _problems += _workload.job(_state, NullTracer()).problems
    print(json.dumps([time.monotonic(), _problems]))
