"""The analysis service facade: configuration + pool.

:class:`AnalysisService` is what callers use: configure once, submit
jobs (single, batch, or an endless stream), get
:class:`~repro.svc.job.JobResult`\\ s — or library-level
:class:`~repro.guard.Verdict`\\ s — back.  The service owns the pieces
with *state that must outlive a batch*: the
:class:`~repro.svc.pool.WorkerPool` (warm workers amortize spawn cost
across batches and ``fast serve`` requests).

The retry cap and chaos injection are configuration; see
:class:`ServiceConfig`.  The worker chaos policy defaults to whatever
``REPRO_CHAOS`` carries in ``worker_*`` keys, so a chaos soak (CI, the
verdict-stability property test) needs no code changes — just the
environment variable that already drives solver chaos.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from ..guard.chaos import WorkerChaosPolicy, worker_policy_from_spec
from .job import JobResult, JobSpec
from .lifecycle import LifecyclePolicy
from .pool import WorkerPool


def chaos_from_env(var: str = "REPRO_CHAOS") -> Optional[WorkerChaosPolicy]:
    """The worker chaos policy of the environment, or None."""
    spec = os.environ.get(var, "")
    if not spec:
        return None
    return worker_policy_from_spec(spec)


@dataclass
class ServiceConfig:
    """Everything an :class:`AnalysisService` needs to know."""

    #: Worker processes (concurrent jobs).
    jobs: int = 4
    #: Hard wall-clock cap per attempt for jobs without a deadline.
    kill_timeout: float = 300.0
    #: Kill margin above a job's soft ``budget.deadline``.
    kill_grace: float = 5.0
    #: Immediate re-attempts of a transiently failed job (crash,
    #: corrupt reply) beyond the first attempt.
    retries: int = 2
    #: Worker-level fault injection; None = read ``REPRO_CHAOS``.
    worker_chaos: Optional[WorkerChaosPolicy] = None
    #: multiprocessing start method; None = fork where available.
    start_method: Optional[str] = None
    #: Proactive worker recycling thresholds (jobs / RSS / age) plus
    #: the in-worker intern-table ceiling; None = workers live forever
    #: (the pre-lifecycle behaviour).
    lifecycle: Optional[LifecyclePolicy] = None

    def resolved_chaos(self) -> Optional[WorkerChaosPolicy]:
        return self.worker_chaos if self.worker_chaos is not None else chaos_from_env()


class AnalysisService:
    """A long-lived, fault-isolated front door for Fast analyses.

    Use as a context manager::

        with AnalysisService(ServiceConfig(jobs=8)) as svc:
            results = svc.run_jobs(specs)

    Every result is final: crashed, hung and corrupted jobs come back
    as UNKNOWN with a structured
    :class:`~repro.svc.job.JobFailure`, never as an exception.
    """

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.pool = WorkerPool(
            self.config.jobs,
            chaos=self.config.resolved_chaos(),
            start_method=self.config.start_method,
            lifecycle=self.config.lifecycle,
        )

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> "AnalysisService":
        self.pool.__enter__()
        return self

    def __exit__(self, *exc_info) -> None:
        self.pool.close()

    def close(self) -> None:
        self.pool.close()

    # -- submission --------------------------------------------------------

    def run_jobs(self, specs: list[JobSpec], on_result=None) -> list[JobResult]:
        """Run a batch with per-job isolation; results in input order.

        ``on_result`` (optional) receives each finalized
        :class:`JobResult` as it decides — see
        :meth:`~repro.svc.pool.WorkerPool.run_jobs`.
        """
        return self.pool.run_jobs(
            specs,
            retries=self.config.retries,
            kill_timeout=self.config.kill_timeout,
            kill_grace=self.config.kill_grace,
            on_result=on_result,
        )

    def run_job(self, spec: JobSpec) -> JobResult:
        return self.run_jobs([spec])[0]

    def lifecycle_snapshot(self) -> dict:
        """Per-worker generation/RSS/age state (for health reporting)."""
        return self.pool.lifecycle_snapshot()
