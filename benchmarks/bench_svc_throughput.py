"""Analysis-service throughput: jobs/sec and latency through the pool.

The supervised pool (:mod:`repro.svc`) buys fault isolation with
subprocess dispatch — pickling specs, piping results, event-loop
bookkeeping — so its cost must be measured, not assumed.  This
benchmark pushes a fixed corpus of small ``run``/``emptiness`` jobs
through :class:`~repro.svc.AnalysisService` at ``--jobs 1 / 4 / 8``
and reports, per pool size:

* **jobs/sec** — corpus size over supervisor wall-clock (includes
  dispatch overhead, the honest serving number);
* **p50/p95 exec** — per-job worker-side execution time
  (``JobResult.duration``), which is pool-size independent and
  separates analysis cost from supervision cost.

Every worker of a pool is warmed before the clock starts: each one
runs each corpus program once (see :func:`warm`), so no timed job
pays a worker's first-job costs (lazy imports, first compile).  The
timed run sends the corpus ``ROUNDS`` times over, so dispatch and
event-loop start-up amortize.  Benchmarks run with the artifact cache
off, so every job compiles its program and decides its assertions
afresh; the artifact's verdict memo never applies here.

Scaling with pool size tracks the machine's core count, so the gates
here are *sanity* gates (every job completes and decides; throughput
is finite and positive), not speedup gates — CI containers routinely
pin to 1–2 cores where ``--jobs 8`` cannot beat ``--jobs 1``.
Measured numbers live in ``BENCH_baseline.json`` under
``svc_throughput`` with loose, informational tolerances.

Run directly for a quick report::

    PYTHONPATH=src python benchmarks/bench_svc_throughput.py
"""

from __future__ import annotations

import os
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.obs import metrics as obs_metrics  # noqa: E402
from repro.svc import (  # noqa: E402
    AnalysisService,
    JobSpec,
    ServiceConfig,
)

POOL_SIZES = tuple(
    int(s) for s in os.environ.get("SVC_POOL_SIZES", "1,4,8").split(",")
)
CORPUS_SIZE = int(os.environ.get("SVC_CORPUS_SIZE", 24))
#: The timed run sends the corpus this many times over, so dispatch
#: and event-loop start-up amortize (480 jobs by default).
ROUNDS = 20
JOBS = CORPUS_SIZE * ROUNDS

PASSING = """\
type BT[v : Int]{L(0), N(2)}
lang pos : BT { N(l, r) where (v > 0) given (pos l) (pos r) | L() }
assert-false (is-empty pos)
"""

EMPTY_LANG = """\
type BT[v : Int]{L(0), N(2)}
lang none : BT { L() where (v > 0 && v < 0) }
"""


def corpus(n: int) -> list[JobSpec]:
    """``n`` small jobs, alternating whole-program runs and emptiness
    queries so the mix exercises both executor paths."""
    specs: list[JobSpec] = []
    for i in range(n):
        if i % 2:
            specs.append(
                JobSpec(f"empty-{i}", "emptiness", EMPTY_LANG,
                        args=(("lang", "none"),))
            )
        else:
            specs.append(JobSpec(f"run-{i}", "run", PASSING))
    return specs


def warm(svc: AnalysisService, pool_size: int) -> None:
    """Run each corpus program once on every worker of the pool.

    A round of ``pool_size`` jobs starts with every worker idle, and
    the pool hands each idle worker one job, so each round reaches
    every worker exactly once.
    """
    for template in corpus(2):
        results = svc.run_jobs([
            JobSpec(f"warm-{template.job_id}-{w}", template.kind,
                    template.source, args=template.args)
            for w in range(pool_size)
        ])
        pids = {r.worker_pid for r in results}
        assert len(pids) == pool_size, f"warm-up reached {len(pids)} workers"


def measure(pool_size: int) -> dict[str, float]:
    """One corpus through one warm pool; wall-clock excludes spawn."""
    config = ServiceConfig(jobs=pool_size)
    with AnalysisService(config) as svc:
        warm(svc, pool_size)
        t0 = time.perf_counter()
        results = svc.run_jobs(corpus(JOBS))
        wall = time.perf_counter() - t0
    durations = sorted(r.duration for r in results)
    undecided = [r.job_id for r in results if r.outcome not in ("PROVED", "REFUTED")]
    return {
        "jobs": float(pool_size),
        "wall_s": wall,
        "jobs_per_sec": JOBS / wall,
        "p50_exec_s": statistics.median(durations),
        "p95_exec_s": durations[int(0.95 * (len(durations) - 1))],
        "undecided": float(len(undecided)),
    }


def render(rows: list[dict[str, float]]) -> str:
    lines = [
        f"corpus: {CORPUS_SIZE} jobs (run/emptiness mix) x {ROUNDS} rounds, "
        f"every worker warm, "
        f"{os.cpu_count()} cpu(s)",
        f"{'--jobs':>6}  {'wall':>8}  {'jobs/sec':>8}  "
        f"{'p50 exec':>9}  {'p95 exec':>9}",
    ]
    for row in rows:
        lines.append(
            f"{int(row['jobs']):>6}  {row['wall_s'] * 1e3:>6.0f} ms  "
            f"{row['jobs_per_sec']:>8.1f}  "
            f"{row['p50_exec_s'] * 1e3:>6.1f} ms  "
            f"{row['p95_exec_s'] * 1e3:>6.1f} ms"
        )
    return "\n".join(lines)


def test_throughput_across_pool_sizes(report):
    rows = [measure(size) for size in POOL_SIZES]
    report("svc throughput (supervised pool)", render(rows))
    # Throughput only compares between like hosts: record the machine
    # shape into the snapshot so repro.obs.diff can annotate (instead
    # of fail) when baseline and candidate core counts differ.
    obs_metrics.REGISTRY.gauge("bench.host_cpus").set(
        float(os.cpu_count() or 1)
    )
    obs_metrics.REGISTRY.gauge("bench.pool_workers").set(
        float(max(POOL_SIZES))
    )
    for row in rows:
        # Sanity gates only (see module docstring): everything decides,
        # nothing degrades, throughput is real.
        assert row["undecided"] == 0, (
            f"--jobs {int(row['jobs'])}: {int(row['undecided'])} job(s) "
            f"came back UNKNOWN/ERROR on a fault-free corpus"
        )
        assert row["jobs_per_sec"] > 0.5, (
            f"--jobs {int(row['jobs'])}: {row['jobs_per_sec']:.2f} jobs/sec "
            f"— supervision overhead has regressed catastrophically"
        )


def test_pool_overhead_is_bounded(report):
    """Dispatch overhead: supervisor wall-clock vs. summed exec time.

    With one worker the pool runs jobs strictly sequentially, so wall ≈
    Σ exec + per-job dispatch cost.  The gate allows a generous 75 ms
    per job (pickling + pipe + event loop on a busy CI box) — the
    measured figure is single-digit milliseconds.
    """
    config = ServiceConfig(jobs=1)
    with AnalysisService(config) as svc:
        svc.run_job(JobSpec("warmup", "run", PASSING))
        specs = corpus(10)
        t0 = time.perf_counter()
        results = svc.run_jobs(specs)
        wall = time.perf_counter() - t0
    exec_sum = sum(r.duration for r in results)
    overhead_per_job = (wall - exec_sum) / len(specs)
    report(
        "svc dispatch overhead",
        f"wall {wall * 1e3:.0f} ms, exec sum {exec_sum * 1e3:.0f} ms, "
        f"overhead {overhead_per_job * 1e3:.1f} ms/job",
    )
    assert overhead_per_job < 0.075, (
        f"per-job dispatch overhead {overhead_per_job * 1e3:.1f} ms "
        f"exceeds the 75 ms bound"
    )


if __name__ == "__main__":  # pragma: no cover
    rows = [measure(size) for size in POOL_SIZES]
    print(render(rows))
