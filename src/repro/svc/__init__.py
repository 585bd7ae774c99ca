"""repro.svc — the fault-isolated analysis service.

The paper's analyses (compose, typecheck, emptiness, equivalence — §3
and §4) are worst-case exponential; the guard layer bounds what they
*consume*, but an in-process analysis can still take the host down by
crashing or hanging below the charge points.  This package moves
execution into a supervised pool of subprocess workers so the serving
process survives anything a job does:

* :mod:`~repro.svc.job` — picklable :class:`JobSpec` in, JSON-able
  :class:`JobResult` out; :func:`execute_job` is the worker-side core;
* :mod:`~repro.svc.worker` — the subprocess loop + respawnable handle
  (and the hook where worker-level chaos faults fire);
* :mod:`~repro.svc.pool` — the single-threaded supervisor: dispatch,
  wall-clock kill timeouts, crash detection, respawn, and immediate
  re-queue of transient failures;
* :mod:`~repro.svc.lifecycle` — long-haul hygiene: worker generation
  numbers, proactive recycling by jobs-served / RSS / age thresholds
  (``--worker-max-*``), and the in-worker intern-table ceiling;
* :mod:`~repro.svc.service` — the :class:`AnalysisService` facade;
* :mod:`~repro.svc.telemetry` — cross-process observability: worker
  span trees and metric deltas ship back over the job boundary as
  size-capped blobs and merge into the host registry and span tree
  (per-worker Perfetto tracks); plus the serving ledger
  (served/shed counts per kind and tenant, per-kind latency) and the
  ``--stats`` renderers;
* :mod:`~repro.svc.gate` — admission control: bounded pending queue
  with explicit load shedding, per-tenant token-bucket quotas, a
  server-side deadline ceiling with remaining-time propagation, health
  snapshots, and graceful drain;
* :mod:`~repro.svc.batch` / :mod:`~repro.svc.serve` — the engines of
  ``fast batch`` and ``fast serve --stdin-jsonl`` (request parsing,
  triage and admission shared by both serving loops);
* :mod:`~repro.svc.http` — ``fast serve --http HOST:PORT``, the network
  front-end: the pending queue, dispatcher and drain behind an HTTP/1.1
  surface (``POST /v1/analyze``, ``GET /metrics`` Prometheus
  exposition, ``GET /healthz``).

Quick use::

    from repro.svc import AnalysisService, JobSpec, ServiceConfig

    with AnalysisService(ServiceConfig(jobs=8)) as svc:
        result = svc.run_job(JobSpec("job-1", "run", source))
        print(result.outcome, result.reason)

Every failure mode — worker crash, hang, corrupted reply — comes back as an UNKNOWN result with a structured
:class:`~repro.svc.job.JobFailure`; the supervisor never raises for
job-level trouble.
"""

from __future__ import annotations

from .batch import BatchReport, build_specs, collect_program_paths, run_batch
from .gate import AdmissionGate, GateConfig, Shed, Ticket, TokenBucket
from .job import (
    BudgetSpec,
    InvalidBudget,
    JobFailure,
    JobResult,
    JobSpec,
    KINDS,
    execute_job,
)
from .http import HttpFrontEnd, serve_http
from .lifecycle import LifecyclePolicy, current_rss_bytes, parse_size
from .pool import WorkerPool
from .serve import (
    RequestError,
    RequestLimits,
    mint_trace_id,
    parse_line,
    parse_request,
    serve_lines,
)
from .service import AnalysisService, ServiceConfig, chaos_from_env

__all__ = [
    "AdmissionGate",
    "AnalysisService",
    "BatchReport",
    "BudgetSpec",
    "GateConfig",
    "HttpFrontEnd",
    "InvalidBudget",
    "JobFailure",
    "JobResult",
    "JobSpec",
    "KINDS",
    "LifecyclePolicy",
    "RequestError",
    "RequestLimits",
    "ServiceConfig",
    "Shed",
    "Ticket",
    "TokenBucket",
    "WorkerPool",
    "build_specs",
    "chaos_from_env",
    "collect_program_paths",
    "current_rss_bytes",
    "execute_job",
    "mint_trace_id",
    "parse_line",
    "parse_size",
    "parse_request",
    "run_batch",
    "serve_http",
    "serve_lines",
]
