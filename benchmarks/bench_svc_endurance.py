"""Endurance soak: worker lifecycle management over a long job stream.

The lifecycle layer's pitch (:mod:`repro.svc.lifecycle`) is that a
serving process can run *indefinitely*: workers are proactively
recycled on jobs-served / RSS / age thresholds, a ready replacement
standing in before the old generation retires, so memory stays bounded
and capacity never dips.  This soak makes that claim measurable by
pushing ~1,000 jobs through small pools in four legs:

* **jobs leg** — ``max_jobs`` recycling under kill + hang chaos:
  exactly one response per job, no verdict flips, ≥3 ``jobs`` recycles;
* **rss leg** — a chaos *leak* fault pins megabytes per job; the RSS
  threshold must keep residency sawtoothing under the ceiling (≥3
  ``rss`` recycles) with a **flat RSS slope** (least-squares fit over
  per-job worker self-reports);
* **unbounded comparison** — the same leak chaos with recycling
  disabled must show a steep slope: the control that proves the rss
  leg's flatness is the lifecycle layer's doing;
* **age leg** — ``max_age`` recycling across idle gaps (≥3 ``age``
  recycles).

Reported per run: recycles by reason, recycle pause p50/p95 (the
spawn+swap cost a recycle adds to the supervisor loop), steady-state
RSS, and both slopes.  ``svc.gate.unanswered`` counts lost or
duplicated responses across all legs and is diff-gated at **zero**.

Environment knobs: ``ENDURANCE_JOBS`` (total across legs, default
1000), ``ENDURANCE_POOL`` (jobs-leg pool size, default 2),
``ENDURANCE_LEAK_MB`` (leaked MiB per chaos leak, default 8).

Run directly for a quick report::

    PYTHONPATH=src python benchmarks/bench_svc_endurance.py
"""

from __future__ import annotations

import os
import sys
import time

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.guard.chaos import WorkerChaosPolicy  # noqa: E402
from repro.obs import metrics as obs_metrics  # noqa: E402
from repro.svc import (  # noqa: E402
    JobSpec,
    LifecyclePolicy,
    WorkerPool,
)

N_JOBS = int(os.environ.get("ENDURANCE_JOBS", 1000))
POOL = int(os.environ.get("ENDURANCE_POOL", 2))
LEAK_MB = int(os.environ.get("ENDURANCE_LEAK_MB", 8))

#: Lost or duplicated responses across every leg — the one number that
#: must be 0.  Registered here so ``--obs-json`` snapshots carry it and
#: CI diff-gates it against the baseline with zero tolerance/slack.
_OBS_UNANSWERED = obs_metrics.counter("svc.gate.unanswered")

PASSING = """\
type BT[v : Int]{L(0), N(2)}
lang pos : BT { N(l, r) where (v > 0) given (pos l) (pos r) | L() }
assert-false (is-empty pos)
"""

def _slope_bytes_per_job(samples: list[tuple[int, int]]) -> float:
    """Least-squares slope of (job index, rss bytes) samples."""
    n = len(samples)
    if n < 2:
        return 0.0
    mean_x = sum(x for x, _ in samples) / n
    mean_y = sum(y for _, y in samples) / n
    var = sum((x - mean_x) ** 2 for x, _ in samples)
    if var == 0:
        return 0.0
    cov = sum((x - mean_x) * (y - mean_y) for x, y in samples)
    return cov / var


def _run_leg(
    name: str,
    n_jobs: int,
    pool: WorkerPool,
    *,
    kill_timeout: float = 5.0,
    batches: int = 1,
    batch_gap: float = 0.0,
) -> dict:
    """Push ``n_jobs`` through ``pool``, auditing every response.

    Returns the leg's ledger: outcome counts, per-job RSS samples (job
    index, worker self-reported bytes), and the lost/duplicate count
    (every spec must come back exactly once, in order).
    """
    specs = [JobSpec(f"{name}-{i}", "run", PASSING) for i in range(n_jobs)]
    results = []
    per_batch = max(1, n_jobs // batches)
    for start in range(0, n_jobs, per_batch):
        if start and batch_gap:
            time.sleep(batch_gap)
        results.extend(
            pool.run_jobs(
                specs[start:start + per_batch],
                retries=3,
                kill_timeout=kill_timeout,
            )
        )
    want = [s.job_id for s in specs]
    got = [r.job_id for r in results]
    lost = len(set(want) - set(got))
    duplicated = len(got) - len(set(got))
    outcomes: dict[str, int] = {}
    rss_samples: list[tuple[int, int]] = []
    for i, result in enumerate(results):
        outcomes[result.outcome] = outcomes.get(result.outcome, 0) + 1
        report = result.hygiene
        if report and isinstance(report.get("rss_bytes"), int):
            rss_samples.append((i, report["rss_bytes"]))
    return {
        "leg": name,
        "jobs": n_jobs,
        "lost": lost,
        "duplicated": duplicated,
        "in_order": got == want,
        "outcomes": outcomes,
        "rss_samples": rss_samples,
        "recycles": dict(pool.recycles),
        "pauses_s": list(pool.recycle_pause_s),
    }


def measure() -> dict:
    n_a = max(8, int(N_JOBS * 0.45))
    n_b = max(8, int(N_JOBS * 0.30))
    n_c = max(8, int(N_JOBS * 0.15))
    n_cmp = max(8, int(N_JOBS * 0.10))
    leak = WorkerChaosPolicy(
        seed=7, leak_rate=0.25, leak_bytes=LEAK_MB << 20
    )

    # Leg A: jobs-threshold recycling under kill + hang chaos.
    chaos = WorkerChaosPolicy(
        seed=7, kill_rate=0.02, hang_rate=0.002, hang_seconds=3600.0
    )
    with WorkerPool(
        POOL,
        chaos=chaos,
        lifecycle=LifecyclePolicy(max_jobs=max(5, n_a // 16)),
    ) as pool:
        leg_jobs = _run_leg("jobs", n_a, pool, kill_timeout=1.0)

    # RSS baseline probe for the leak legs' threshold.
    with WorkerPool(1) as pool:
        [probe] = pool.run_jobs([JobSpec("rss-probe", "run", PASSING)])
    baseline_rss = (probe.hygiene or {}).get("rss_bytes") or 0

    # Leg B: leak chaos vs the RSS ceiling (baseline + 3 leaks' worth).
    ceiling = baseline_rss + 3 * (LEAK_MB << 20)
    with WorkerPool(
        1, chaos=leak, lifecycle=LifecyclePolicy(max_rss_bytes=ceiling)
    ) as pool:
        leg_rss = _run_leg("rss", n_b, pool)

    # Comparison: the same leak with recycling disabled (the control).
    with WorkerPool(1, chaos=leak) as pool:
        leg_unbounded = _run_leg("unbounded", n_cmp, pool)

    # Leg C: age-threshold recycling across idle gaps.
    with WorkerPool(
        1, lifecycle=LifecyclePolicy(max_age=0.25)
    ) as pool:
        # Gaps longer than max_age: every batch boundary finds the
        # serving generation over the hill.
        leg_age = _run_leg(
            "age", n_c, pool, batches=6, batch_gap=0.3
        )

    legs = [leg_jobs, leg_rss, leg_unbounded, leg_age]
    lost = sum(leg["lost"] + leg["duplicated"] for leg in legs)
    _OBS_UNANSWERED.inc(lost)

    pauses = sorted(
        p for leg in legs for p in leg["pauses_s"]
    )
    rss_slope = _slope_bytes_per_job(leg_rss["rss_samples"])
    unbounded_slope = _slope_bytes_per_job(leg_unbounded["rss_samples"])
    steady_rss = (
        max(y for _, y in leg_rss["rss_samples"])
        if leg_rss["rss_samples"]
        else 0
    )
    return {
        "legs": legs,
        "jobs_total": sum(leg["jobs"] for leg in legs),
        "lost_or_duplicated": lost,
        "recycles_jobs": leg_jobs["recycles"]["jobs"],
        "recycles_rss": leg_rss["recycles"]["rss"],
        "recycles_age": leg_age["recycles"]["age"],
        "recycle_pause_p50_ms": obs_metrics.percentile(pauses, 0.50) * 1e3,
        "recycle_pause_p95_ms": obs_metrics.percentile(pauses, 0.95) * 1e3,
        "baseline_rss_mb": baseline_rss / (1 << 20),
        "steady_rss_mb": steady_rss / (1 << 20),
        "rss_ceiling_mb": ceiling / (1 << 20),
        "rss_slope_kb_per_job": rss_slope / (1 << 10),
        "unbounded_slope_kb_per_job": unbounded_slope / (1 << 10),
    }


def render(row: dict) -> str:
    lines = [
        f"{row['jobs_total']} jobs over 4 legs "
        f"(pool {POOL}, leak {LEAK_MB} MiB, {os.cpu_count()} cpu(s)); "
        f"lost or duplicated: {row['lost_or_duplicated']}",
        f"recycles: jobs {row['recycles_jobs']}  "
        f"rss {row['recycles_rss']}  age {row['recycles_age']}",
        f"recycle pause: p50 {row['recycle_pause_p50_ms']:.0f} ms  "
        f"p95 {row['recycle_pause_p95_ms']:.0f} ms",
        f"rss: baseline {row['baseline_rss_mb']:.1f} MiB -> steady "
        f"{row['steady_rss_mb']:.1f} MiB (ceiling "
        f"{row['rss_ceiling_mb']:.1f} MiB)",
        f"rss slope: recycled {row['rss_slope_kb_per_job']:.1f} KiB/job  "
        f"vs unbounded {row['unbounded_slope_kb_per_job']:.1f} KiB/job",
    ]
    for leg in row["legs"]:
        lines.append(
            f"  leg {leg['leg']:<9} {leg['jobs']:>4} jobs  "
            f"outcomes {leg['outcomes']}  recycles {leg['recycles']}"
        )
    return "\n".join(lines)


@pytest.mark.soak
def test_endurance_soak(report):
    row = measure()
    report("svc endurance soak (lifecycle + hygiene)", render(row))
    obs_metrics.REGISTRY.gauge("bench.host_cpus").set(
        float(os.cpu_count() or 1)
    )
    obs_metrics.REGISTRY.gauge("bench.pool_workers").set(float(POOL))

    # Exactly one response per job, in order, across every leg.
    assert row["lost_or_duplicated"] == 0, row
    for leg in row["legs"]:
        assert leg["in_order"], f"leg {leg['leg']} replied out of order"
        # Verdict stability: the program is PROVED; chaos may only
        # degrade to UNKNOWN (hangs, exhausted retries), never flip a
        # decided verdict.
        assert leg["outcomes"].get("REFUTED", 0) == 0, leg
        assert leg["outcomes"].get("ERROR", 0) == 0, leg
        assert leg["outcomes"].get("PROVED", 0) > 0, leg

    # Every recycle reason actually fired, repeatedly.
    assert row["recycles_jobs"] >= 3, row
    assert row["recycles_rss"] >= 3, row
    assert row["recycles_age"] >= 3, row

    # Bounded memory: the recycled leg's slope is flat — an order of
    # magnitude under the unbounded control's, which must clearly show
    # the injected leak (0.25 * LEAK_MB per job, measured loosely).
    assert row["unbounded_slope_kb_per_job"] > (LEAK_MB << 10) * 0.05, (
        "the control leg never leaked; the comparison is vacuous"
    )
    assert (
        row["rss_slope_kb_per_job"]
        < row["unbounded_slope_kb_per_job"] / 10
    ), row
    # And the sawtooth stays under the configured ceiling (+ one leak
    # of slop: the threshold is checked between jobs).
    assert row["steady_rss_mb"] < row["rss_ceiling_mb"] + LEAK_MB + 1, row

    # A recycle is a pause, not an outage: the swap happens while the
    # replacement is already handshaken, so even p95 stays well under
    # a worker respawn-from-cold on a loaded box.
    assert row["recycle_pause_p95_ms"] < 5000.0, row


if __name__ == "__main__":  # pragma: no cover
    print(render(measure()))
