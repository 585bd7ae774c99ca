"""The supervisor's retry rule against real subprocess workers.

A transient failure (a crash, a corrupt reply) is re-queued at once, up
to ``retries`` attempts beyond the first; a permanent one (a kill
timeout) finalizes UNKNOWN on the spot.
"""

from __future__ import annotations

from repro.guard.chaos import WorkerChaosPolicy
from repro.svc import JobSpec, WorkerPool
from repro.svc.job import UNKNOWN

PASSING = """\
type BT[v : Int]{L(0), N(2)}
lang pos : BT { N(l, r) where (v > 0) given (pos l) (pos r) | L() }
assert-false (is-empty pos)
"""


class TestRetryPolicy:
    def test_transient_failures_retry_up_to_cap(self):
        chaos = WorkerChaosPolicy(seed=0, kill_rate=1.0)  # every attempt dies
        with WorkerPool(1, chaos=chaos) as pool:
            [result] = pool.run_jobs(
                [JobSpec("doomed", "run", PASSING)], retries=2
            )
        assert result.outcome == UNKNOWN
        assert result.attempts == 3
        assert [f["attempt"] for f in result.attempt_failures] == [0, 1, 2]
        assert all(f["transient"] for f in result.attempt_failures)

    def test_permanent_failures_never_retry(self):
        chaos = WorkerChaosPolicy(seed=0, hang_rate=1.0, hang_seconds=3600.0)
        with WorkerPool(1, chaos=chaos) as pool:
            [result] = pool.run_jobs(
                [JobSpec("hang", "run", PASSING)], retries=5, kill_timeout=0.5
            )
        assert result.outcome == UNKNOWN
        assert result.failure.kind == "timeout"
        assert result.attempts == 1
