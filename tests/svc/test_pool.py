"""The supervised pool against real subprocess workers.

Every failure mode the supervisor must survive — chaos-killed workers,
hangs past the kill timeout, corrupted replies, one tenant's hangs
next to another tenant's work — exercised with deterministic
:class:`~repro.guard.chaos.WorkerChaosPolicy` seeds.  The seed-search
helper picks seeds with a *known* fault schedule per ``(job, attempt)``
so the assertions are exact, not probabilistic.
"""

from __future__ import annotations

import io
import json
import time

import pytest

from repro.guard.chaos import WorkerChaosPolicy
from repro.svc import JobSpec, ServiceConfig, WorkerPool, serve_lines
from repro.svc.job import PROVED, UNKNOWN

PASSING = """\
type BT[v : Int]{L(0), N(2)}
lang pos : BT { N(l, r) where (v > 0) given (pos l) (pos r) | L() }
assert-false (is-empty pos)
"""

def find_seed(predicate, limit=2000):
    """The first chaos seed whose fault schedule matches ``predicate``."""
    for seed in range(limit):
        if predicate(seed):
            return seed
    pytest.fail(f"no chaos seed under {limit} matches the fault schedule")


class TestHappyPath:
    def test_jobs_come_back_in_input_order(self):
        specs = [JobSpec(f"job-{i}", "run", PASSING) for i in range(4)]
        with WorkerPool(2) as pool:
            results = pool.run_jobs(specs, retries=2)
        assert [r.job_id for r in results] == [s.job_id for s in specs]
        assert all(r.outcome == PROVED for r in results)
        assert all(r.attempts == 1 for r in results)

    def test_duplicate_job_ids_are_rejected(self):
        specs = [JobSpec("dup", "run", PASSING)] * 2
        with WorkerPool(1) as pool:
            with pytest.raises(ValueError, match="duplicate"):
                pool.run_jobs(specs)

    def test_closed_pool_refuses_work(self):
        pool = WorkerPool(1)
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.run_jobs([JobSpec("j", "run", PASSING)])


class TestCrashRecovery:
    def test_chaos_kill_is_retried_to_success(self):
        seed = find_seed(
            lambda s: (p := WorkerChaosPolicy(seed=s, kill_rate=0.5)).decide(
                "victim", 0
            )
            == "kill"
            and p.decide("victim", 1) is None
        )
        chaos = WorkerChaosPolicy(seed=seed, kill_rate=0.5)
        with WorkerPool(1, chaos=chaos) as pool:
            [result] = pool.run_jobs(
                [JobSpec("victim", "run", PASSING)], retries=2
            )
        assert result.outcome == PROVED
        assert result.attempts == 2
        assert result.attempt_failures[0]["kind"] == "crash"
        assert result.attempt_failures[0]["transient"] is True

    def test_chaos_kill_is_requeued_without_a_wait(self, monkeypatch):
        seed = find_seed(
            lambda s: (p := WorkerChaosPolicy(seed=s, kill_rate=0.5)).decide(
                "victim", 0
            )
            == "kill"
            and p.decide("victim", 1) is None
        )
        # The supervisor's only reason to sleep would be a backoff
        # between the crash and the re-dispatch.
        sleeps = []
        real_sleep = time.sleep
        monkeypatch.setattr(
            time, "sleep", lambda s: (sleeps.append(s), real_sleep(s))
        )
        chaos = WorkerChaosPolicy(seed=seed, kill_rate=0.5)
        with WorkerPool(1, chaos=chaos) as pool:
            [result] = pool.run_jobs([JobSpec("victim", "run", PASSING)])
        assert result.outcome == PROVED
        assert result.attempts == 2
        assert sleeps == []

    def test_exhausted_retries_degrade_to_unknown(self):
        chaos = WorkerChaosPolicy(seed=0, kill_rate=1.0)  # every attempt dies
        with WorkerPool(1, chaos=chaos) as pool:
            [result] = pool.run_jobs(
                [JobSpec("doomed", "run", PASSING)],
                retries=1,
            )
        assert result.outcome == UNKNOWN
        assert result.failure.kind == "crash"
        assert result.attempts == 2
        assert len(result.attempt_failures) == 2

    def test_pool_survives_crashes_and_keeps_serving(self):
        chaos = WorkerChaosPolicy(seed=0, kill_rate=1.0)
        with WorkerPool(1, chaos=chaos) as pool:
            pool.run_jobs(
                [JobSpec("doomed", "run", PASSING)],
                retries=0,
            )
            # Workers were respawned; a fault-free batch still works.
            pool.chaos = None
            for worker in pool.workers:
                worker.chaos = None
                worker.kill()
                worker.spawn()
            [result] = pool.run_jobs([JobSpec("after", "run", PASSING)])
        assert result.outcome == PROVED


class TestTimeouts:
    def test_hung_worker_is_killed_and_job_degrades(self):
        chaos = WorkerChaosPolicy(seed=0, hang_rate=1.0, hang_seconds=3600.0)
        with WorkerPool(1, chaos=chaos) as pool:
            [result] = pool.run_jobs(
                [JobSpec("hang", "run", PASSING)],
                retries=2,
                kill_timeout=0.7,
            )
        assert result.outcome == UNKNOWN
        assert result.failure.kind == "timeout"
        # Hangs are deterministic: one attempt, no retry burn.
        assert result.attempts == 1


class TestCorruptReplies:
    def test_corrupt_reply_is_retried(self):
        seed = find_seed(
            lambda s: (
                p := WorkerChaosPolicy(seed=s, corrupt_rate=0.5)
            ).decide("garbled", 0)
            == "corrupt"
            and p.decide("garbled", 1) is None
        )
        chaos = WorkerChaosPolicy(seed=seed, corrupt_rate=0.5)
        with WorkerPool(1, chaos=chaos) as pool:
            [result] = pool.run_jobs(
                [JobSpec("garbled", "run", PASSING)], retries=2
            )
        assert result.outcome == PROVED
        assert result.attempts == 2
        assert result.attempt_failures[0]["kind"] == "corrupt"


class TestTenantIsolation:
    def test_one_tenants_hangs_do_not_shut_out_another(self):
        # Five of mallory's requests hang past their deadline; alice's
        # request of the same kind right after them must still be
        # served with its real verdict.
        victims = [f"mallory-{i}" for i in range(5)]
        seed = find_seed(
            lambda s: all(
                (p := WorkerChaosPolicy(seed=s, hang_rate=0.5)).decide(v, 0)
                == "hang"
                for v in victims
            )
            and p.decide("alice-0", 0) is None
        )
        chaos = WorkerChaosPolicy(seed=seed, hang_rate=0.5)
        lines = [
            json.dumps(
                {
                    "id": v,
                    "kind": "run",
                    "tenant": "mallory",
                    "source": PASSING,
                    "budget": {"deadline": 0.2},
                }
            )
            for v in victims
        ]
        lines.append(
            json.dumps(
                {"id": "alice-0", "kind": "run", "tenant": "alice",
                 "source": PASSING}
            )
        )
        out = io.StringIO()
        config = ServiceConfig(jobs=1, kill_grace=0.2, worker_chaos=chaos)
        assert serve_lines(iter(lines), out, config) == 6
        replies = {
            doc["id"]: doc
            for doc in map(json.loads, out.getvalue().splitlines())
        }
        for v in victims:
            assert replies[v]["outcome"] == UNKNOWN
            assert replies[v]["failure"]["kind"] == "timeout"
        assert replies["alice-0"]["outcome"] == PROVED
