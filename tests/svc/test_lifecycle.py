"""Worker lifecycle: generations, recycle thresholds, in-worker hygiene.

The tentpole invariants under proactive recycling:

* **exactly one response per job id** — recycling swaps workers between
  jobs, never while a reply is in flight, so no job is lost or answered
  twice;
* **generation numbers are never reused** — every spawn (initial, crash
  respawn, recycle) takes a fresh value from a process-wide counter;
* **seamlessness** — the replacement is spawned and prewarmed *before*
  the old worker retires, so capacity never dips;
* **verdict stability** — an in-worker cache flush between jobs must
  not flip any verdict.

The nastiest case — a sibling worker SIGKILLed at the exact moment a
replacement is prewarming — is driven deterministically through the
``WorkerPool._prepare_replacement`` seam.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.guard.chaos import WorkerChaosPolicy
from repro.svc import (
    JobSpec,
    LifecyclePolicy,
    WorkerPool,
    current_rss_bytes,
    parse_size,
)
from repro.svc.job import PROVED
from repro.svc.lifecycle import (
    REASON_AGE,
    REASON_JOBS,
    REASON_RSS,
    RECYCLE_REASONS,
    next_generation,
    rss_of_pid,
)

PASSING = """\
type BT[v : Int]{L(0), N(2)}
lang pos : BT { N(l, r) where (v > 0) given (pos l) (pos r) | L() }
assert-false (is-empty pos)
"""



def specs(n, prefix="job"):
    return [JobSpec(f"{prefix}-{i}", "run", PASSING) for i in range(n)]


def track_generations(pool):
    """Record every generation the pool spawns (initial + replacements)."""
    seen = []
    original = pool._note_spawn

    def noting(worker):
        seen.append(worker.generation)
        original(worker)

    pool._note_spawn = noting
    return seen


# -- units: parse_size -------------------------------------------------------


class TestParseSize:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("4096", 4096),
            ("64M", 64 << 20),
            ("64m", 64 << 20),
            ("64MB", 64 << 20),
            ("64MiB", 64 << 20),
            ("1G", 1 << 30),
            ("1.5G", int(1.5 * (1 << 30))),
            ("2K", 2048),
            ("2KiB", 2048),
            ("8B", 8),
            ("1T", 1 << 40),
            (" 64M ", 64 << 20),
        ],
    )
    def test_accepted_forms(self, text, expected):
        assert parse_size(text) == expected

    @pytest.mark.parametrize("text", ["", "64X", "M", "-1K", "1..5G", "64 M B"])
    def test_rejected_forms(self, text):
        with pytest.raises(ValueError, match="unparseable size"):
            parse_size(text)


# -- units: the policy -------------------------------------------------------


class TestLifecyclePolicy:
    def test_empty_policy_is_inert(self):
        policy = LifecyclePolicy()
        assert not policy.active()
        assert (
            policy.recycle_reason(jobs_served=10**9, rss_bytes=1 << 40, age=1e9)
            is None
        )

    def test_max_terms_alone_is_supervisor_inert(self):
        # max_terms is the *in-worker* half; the supervisor loop must
        # not pay the recycle scan for it.
        assert not LifecyclePolicy(max_terms=100).active()

    def test_threshold_order_jobs_rss_age(self):
        policy = LifecyclePolicy(max_jobs=5, max_rss_bytes=100, max_age=1.0)
        crossed_all = dict(jobs_served=5, rss_bytes=101, age=2.0)
        assert policy.recycle_reason(**crossed_all) == REASON_JOBS
        assert (
            policy.recycle_reason(jobs_served=4, rss_bytes=101, age=2.0)
            == REASON_RSS
        )
        assert (
            policy.recycle_reason(jobs_served=4, rss_bytes=100, age=2.0)
            == REASON_AGE
        )
        assert (
            policy.recycle_reason(jobs_served=4, rss_bytes=100, age=0.5) is None
        )

    def test_rss_threshold_needs_a_sample(self):
        # A worker that has not reported RSS yet must not be recycled
        # for RSS: None means "unknown", not zero and not infinity.
        policy = LifecyclePolicy(max_rss_bytes=1)
        assert (
            policy.recycle_reason(jobs_served=3, rss_bytes=None, age=0.0)
            is None
        )

    def test_reason_vocabulary_is_closed(self):
        assert RECYCLE_REASONS == (REASON_JOBS, REASON_RSS, REASON_AGE)


class TestGenerationsAndRss:
    def test_generations_are_unique_and_increasing(self):
        gens = [next_generation() for _ in range(100)]
        assert gens == sorted(gens)
        assert len(set(gens)) == len(gens)

    def test_current_rss_is_plausible(self):
        rss = current_rss_bytes()
        assert rss is not None
        assert 1 << 20 < rss < 1 << 40  # more than 1 MiB, less than 1 TiB

    def test_rss_of_other_pid(self):
        rss = rss_of_pid(os.getpid())
        if rss is not None:  # procfs-only; None on non-Linux
            assert rss > 1 << 20

    def test_rss_of_dead_pid_is_none_not_an_error(self):
        assert rss_of_pid(2**22 - 1) is None


# -- integration: each threshold actually recycles ---------------------------


class TestRecycleThresholds:
    def test_jobs_threshold_recycles_and_loses_nothing(self):
        batch = specs(8)
        with WorkerPool(2, lifecycle=LifecyclePolicy(max_jobs=2)) as pool:
            gens = track_generations(pool)
            results = pool.run_jobs(batch, retries=2)
            snapshot = pool.lifecycle_snapshot()
        assert [r.job_id for r in results] == [s.job_id for s in batch]
        assert all(r.outcome == PROVED for r in results)
        assert pool.recycles[REASON_JOBS] >= 1
        assert len(set(gens)) == len(gens), "a generation number was reused"
        assert snapshot["recycles_total"] == sum(pool.recycles.values())
        assert snapshot["policy"]["max_jobs"] == 2

    def test_rss_threshold_recycles_after_first_report(self):
        # 1 byte: any real worker crosses it with its first self-report.
        policy = LifecyclePolicy(max_rss_bytes=1)
        with WorkerPool(1, lifecycle=policy) as pool:
            results = pool.run_jobs(specs(3), retries=2)
        assert all(r.outcome == PROVED for r in results)
        assert pool.recycles[REASON_RSS] >= 1
        assert pool.recycles[REASON_JOBS] == 0

    def test_age_threshold_recycles(self):
        with WorkerPool(1, lifecycle=LifecyclePolicy(max_age=0.05)) as pool:
            time.sleep(0.1)  # let the first generation cross max_age
            results = pool.run_jobs(specs(2), retries=2)
        assert all(r.outcome == PROVED for r in results)
        assert pool.recycles[REASON_AGE] >= 1

    def test_recycle_pause_is_recorded(self):
        with WorkerPool(1, lifecycle=LifecyclePolicy(max_jobs=1)) as pool:
            pool.run_jobs(specs(3), retries=2)
        assert len(pool.recycle_pause_s) == sum(pool.recycles.values())
        assert all(p >= 0.0 for p in pool.recycle_pause_s)

    def test_no_policy_means_no_recycles(self):
        with WorkerPool(1) as pool:
            results = pool.run_jobs(specs(4))
            [worker] = pool.workers
            assert worker.jobs_served == 4
        assert all(r.outcome == PROVED for r in results)
        assert sum(pool.recycles.values()) == 0

    def test_hygiene_report_rides_every_result(self):
        with WorkerPool(1) as pool:
            [result] = pool.run_jobs(specs(1))
        report = result.hygiene
        assert report is not None
        assert report["rss_bytes"] is None or report["rss_bytes"] > 0
        assert report["intern_terms"] >= 0
        assert report["flushes"] == 0
        assert result.to_dict()["hygiene"] == report


# -- integration: seamlessness under fire ------------------------------------


class TestRecycleUnderChaos:
    def test_exactly_one_response_with_recycling_and_kills(self):
        chaos = WorkerChaosPolicy(seed=11, kill_rate=0.2)
        batch = specs(12)
        with WorkerPool(
            2, chaos=chaos, lifecycle=LifecyclePolicy(max_jobs=1)
        ) as pool:
            gens = track_generations(pool)
            results = pool.run_jobs(batch, retries=2)
        assert [r.job_id for r in results] == [s.job_id for s in batch]
        assert len({r.job_id for r in results}) == len(batch)
        assert pool.recycles[REASON_JOBS] >= 1
        assert len(set(gens)) == len(gens), "a generation number was reused"

    def test_sibling_killed_while_replacement_prewarms(self):
        """Satellite: SIGKILL a worker exactly during a recycle's prewarm.

        The replacement spawn inside ``_recycle`` is the widest window
        in the swap; a sibling dying right there must not lose a job
        or reuse a generation.
        """
        chaos_struck = []
        batch = specs(10, prefix="swap")
        with WorkerPool(2, lifecycle=LifecyclePolicy(max_jobs=2)) as pool:
            gens = track_generations(pool)
            original_prepare = pool._prepare_replacement

            def sabotaged(worker):
                replacement = original_prepare(worker)
                # The replacement is up but not yet swapped in: kill a
                # *different* live worker at this exact moment.
                if not chaos_struck:
                    for sibling in pool.workers:
                        if sibling is not worker and sibling.alive:
                            os.kill(sibling.pid, signal.SIGKILL)
                            chaos_struck.append(sibling.worker_id)
                            break
                return replacement

            pool._prepare_replacement = sabotaged
            results = pool.run_jobs(batch, retries=2)
        assert chaos_struck, "the recycle window was never exercised"
        assert [r.job_id for r in results] == [s.job_id for s in batch]
        assert all(r.outcome == PROVED for r in results)
        assert len(set(gens)) == len(gens), "a generation number was reused"

    def test_leak_chaos_inflates_worker_rss(self):
        chaos = WorkerChaosPolicy(seed=0, leak_rate=1.0, leak_bytes=4 << 20)
        with WorkerPool(1, chaos=chaos) as pool:
            results = pool.run_jobs(specs(4))
        assert all(r.outcome == PROVED for r in results)
        first = results[0].hygiene["rss_bytes"]
        last = results[-1].hygiene["rss_bytes"]
        if first is not None and last is not None:
            # 3 further leaks of 4 MiB must show up in residency.
            assert last - first > 8 << 20

    def test_leak_chaos_crosses_rss_threshold(self):
        chaos = WorkerChaosPolicy(seed=0, leak_rate=1.0, leak_bytes=8 << 20)
        baseline = None
        with WorkerPool(1, chaos=chaos) as pool:
            [probe] = pool.run_jobs(specs(1, prefix="probe"))
            baseline = probe.hygiene["rss_bytes"]
        if baseline is None:
            pytest.skip("no RSS sampling on this platform")
        policy = LifecyclePolicy(max_rss_bytes=baseline + (12 << 20))
        with WorkerPool(1, chaos=chaos, lifecycle=policy) as pool:
            results = pool.run_jobs(specs(6), retries=2)
        assert all(r.outcome == PROVED for r in results)
        assert pool.recycles[REASON_RSS] >= 1


# -- integration: in-worker hygiene ------------------------------------------


class TestInWorkerHygiene:
    def test_max_terms_flushes_between_jobs_without_flipping_verdicts(self):
        # Ceiling of 1: every job leaves >1 interned terms behind, so a
        # flush runs after every reply.  The flush lands *after* the
        # reply is sent, so result N reports the flushes of jobs < N.
        policy = LifecyclePolicy(max_terms=1)
        with WorkerPool(1, lifecycle=policy) as pool:
            results = pool.run_jobs(specs(3), retries=2)
        assert all(r.outcome == PROVED for r in results)
        assert results[0].hygiene["flushes"] == 0
        assert results[-1].hygiene["flushes"] >= 1

    def test_no_ceiling_means_no_flushes(self):
        with WorkerPool(1, lifecycle=LifecyclePolicy(max_jobs=100)) as pool:
            results = pool.run_jobs(specs(3))
        assert all(r.hygiene["flushes"] == 0 for r in results)


# -- exposition: health + /metrics -------------------------------------------


class TestExposition:
    def test_snapshot_appears_in_health_and_metrics(self):
        from repro.obs.live import render_prometheus
        from tests.exposition import parse_exposition
        from repro.svc.gate import AdmissionGate, GateConfig

        with WorkerPool(2, lifecycle=LifecyclePolicy(max_jobs=2)) as pool:
            pool.run_jobs(specs(6), retries=2)
            health = AdmissionGate(GateConfig()).health(pool=pool)
            families = parse_exposition(render_prometheus(pool=pool))
        lifecycle = health["lifecycle"]
        assert len(lifecycle["workers"]) == 2
        for row in lifecycle["workers"]:
            assert row["generation"] >= 1
            assert row["alive"] is True
        assert lifecycle["recycles"][REASON_JOBS] >= 1
        assert "svc_worker_generation" in families
        assert "svc_worker_jobs_served" in families
        assert "svc_recycles_total" in families

    def test_health_survives_a_poolless_gate(self):
        from repro.svc.gate import AdmissionGate, GateConfig

        doc = AdmissionGate(GateConfig()).health()
        assert "lifecycle" not in doc
