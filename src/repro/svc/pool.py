"""The supervised worker pool: dispatch, watch, kill, respawn, retry.

One single-threaded supervisor drives N subprocess workers through a
select-style event loop (:func:`multiprocessing.connection.wait` over
result pipes *and* process sentinels, so replies and deaths wake it
equally).  Per iteration it:

1. dispatches ready jobs to idle workers;
2. sleeps until the next reply, death, or kill deadline;
3. classifies what woke it: a valid reply finalizes, an invalid reply
   counts as a *corrupt* transient failure, a dead sentinel as a
   *crash*, and a blown kill deadline gets the worker SIGKILLed and the
   job finalized UNKNOWN (a hang is deterministic; retrying it would
   just hang again).  A transient failure goes straight back on the
   ready queue, up to ``retries`` extra attempts — there is no backoff
   to wait out, since only an idle, live worker is ever dispatched to.

Dead and killed workers are respawned immediately, so pool capacity is
constant no matter how hostile the workload.  The supervisor itself
never executes analysis code — there is nothing a job can do to take
it down short of killing the host.

Lifecycle and decision events flow into :mod:`repro.obs`: ``svc.*``
counters land in ``--profile-json`` snapshots, and the ``svc.job`` /
``svc.pool.run`` spans and ``svc.*`` instants in its span trees and in
Perfetto trace exports.
"""

from __future__ import annotations

import multiprocessing
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from ..guard.chaos import WorkerChaosPolicy
from ..obs import config as obs_config
from ..obs import metrics as obs_metrics
from ..obs import tracer as obs_tracer
from . import telemetry as svc_telemetry
from .job import ERROR, JobFailure, JobResult, JobSpec, REFUTED, UNKNOWN
from .lifecycle import RECYCLE_REASONS, LifecyclePolicy
from .worker import Worker, default_start_method

_OBS_SUBMITTED = obs_metrics.counter("svc.jobs_submitted")
_OBS_COMPLETED = obs_metrics.counter("svc.jobs_completed")
_OBS_UNKNOWN = obs_metrics.counter("svc.jobs_unknown")
_OBS_FAILED = obs_metrics.counter("svc.jobs_failed")
_OBS_ERRORS = obs_metrics.counter("svc.jobs_error")
_OBS_RETRIES = obs_metrics.counter("svc.retries")
_OBS_SPAWNS = obs_metrics.counter("svc.worker_spawns")
_OBS_CRASHES = obs_metrics.counter("svc.worker_crashes")
_OBS_TIMEOUTS = obs_metrics.counter("svc.worker_timeouts")
_OBS_CORRUPT = obs_metrics.counter("svc.corrupt_results")
_OBS_LATENCY = obs_metrics.histogram("svc.job_latency")
_OBS_RECYCLES = obs_metrics.counter("svc.recycles")
_OBS_RECYCLES_BY = {
    reason: obs_metrics.counter(f"svc.recycles.{reason}")
    for reason in RECYCLE_REASONS
}
_OBS_WORKER_RSS = obs_metrics.gauge("svc.worker.rss_bytes")
_OBS_WORKER_GEN = obs_metrics.gauge("svc.worker.generation")
_OBS_RECYCLE_PAUSE = obs_metrics.histogram("svc.recycle_pause_ms")


@dataclass
class _JobState:
    """Supervisor-side bookkeeping for one job across its attempts."""

    spec: JobSpec
    attempt: int = 0
    failures: list[dict[str, Any]] = field(default_factory=list)
    first_dispatched: Optional[float] = None


class WorkerPool:
    """A fixed-size pool of supervised subprocess workers."""

    def __init__(
        self,
        size: int,
        chaos: Optional[WorkerChaosPolicy] = None,
        start_method: Optional[str] = None,
        lifecycle: Optional[LifecyclePolicy] = None,
    ) -> None:
        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        self.size = size
        self.chaos = chaos
        self.lifecycle = lifecycle
        # Telemetry follows the obs state at construction time: pools
        # built while recording is on ship worker spans and metrics back.
        self.telemetry = obs_config.ENABLED
        self.ctx = multiprocessing.get_context(
            start_method or default_start_method()
        )
        self.workers: list[Worker] = []
        #: Proactive recycles by reason; plain counts (valid with obs
        #: off), mirrored to ``svc.recycles*`` obs counters.
        self.recycles: dict[str, int] = {r: 0 for r in RECYCLE_REASONS}
        #: Wall-clock cost of each recycle (spawn + swap + retire).
        self.recycle_pause_s: list[float] = []
        self._closed = False

    # -- lifecycle ---------------------------------------------------------

    def _note_spawn(self, worker: Worker) -> None:
        if obs_config.ENABLED:
            _OBS_SPAWNS.inc()
            _OBS_WORKER_GEN.set(float(worker.generation))
        obs_tracer.instant(
            "svc.worker.spawn",
            {
                "worker": worker.worker_id,
                "pid": worker.pid,
                "generation": worker.generation,
            },
        )

    def _new_worker(self) -> Worker:
        return Worker(
            self.ctx, self.chaos, self.telemetry, lifecycle=self.lifecycle
        )

    def _ensure_workers(self) -> None:
        while len(self.workers) < self.size:
            worker = self._new_worker()
            self.workers.append(worker)
            self._note_spawn(worker)

    def _respawn(self, worker: Worker) -> None:
        worker.kill()
        worker.spawn()
        self._note_spawn(worker)

    # -- proactive recycling ----------------------------------------------

    def _note_hygiene(self, worker: Worker, result: JobResult) -> None:
        """Absorb a reply's worker self-report into the handle + obs."""
        worker.jobs_served += 1
        report = result.hygiene
        if isinstance(report, dict):
            rss = report.get("rss_bytes")
            if isinstance(rss, int):
                worker.rss_bytes = rss
                if obs_config.ENABLED:
                    _OBS_WORKER_RSS.set(float(rss))

    def _maybe_recycle(self, worker: Worker) -> Worker:
        """Recycle an *idle* worker that crossed a threshold.

        Returns the worker now occupying the slot (the replacement, or
        the untouched original).  Only idle workers are considered, so
        "retirement waits for the in-flight job" holds trivially — a
        busy worker is re-examined once its reply is finalized, and a
        busy worker that never replies is the kill-timeout path's
        problem, not ours.
        """
        policy = self.lifecycle
        if policy is None or not policy.active() or not worker.alive:
            return worker
        reason = policy.recycle_reason(
            jobs_served=worker.jobs_served,
            rss_bytes=worker.rss_bytes,
            age=worker.age,
        )
        if reason is None:
            return worker
        return self._recycle(worker, reason)

    def _recycle(self, worker: Worker, reason: str) -> Worker:
        """Seamlessly replace one idle worker: spawn first, retire second.

        The replacement is fully spawned and handshaken
        (the spawn-time ping doubles as a readiness barrier) *before*
        the old worker leaves the pool, so capacity never dips and no
        job can be dispatched into the gap.  Generation numbers come
        from a process-wide counter and are never reused.
        """
        t0 = time.monotonic()
        replacement = self._prepare_replacement(worker)
        self.workers[self.workers.index(worker)] = replacement
        self._note_spawn(replacement)
        worker.stop()
        pause = time.monotonic() - t0
        self.recycles[reason] = self.recycles.get(reason, 0) + 1
        self.recycle_pause_s.append(pause)
        if obs_config.ENABLED:
            _OBS_RECYCLES.inc()
            counter = _OBS_RECYCLES_BY.get(reason)
            if counter is not None:
                counter.inc()
            _OBS_RECYCLE_PAUSE.observe(pause * 1e3)
        obs_tracer.instant(
            "svc.worker.recycle",
            {
                "worker": worker.worker_id,
                "reason": reason,
                "old_generation": worker.generation,
                "new_generation": replacement.generation,
                "jobs_served": worker.jobs_served,
                "rss_bytes": worker.rss_bytes,
                "age_s": round(worker.age, 3),
                "pause_ms": round(pause * 1e3, 3),
            },
        )
        return replacement

    def _prepare_replacement(self, worker: Worker) -> Worker:
        """Spawn the replacement while the old worker stands.

        Split out so chaos tests can interpose (e.g. SIGKILL a sibling
        exactly while the replacement is starting).
        """
        return self._new_worker()

    def lifecycle_snapshot(self) -> dict[str, Any]:
        """Per-worker lifecycle state for health docs and /metrics."""
        workers = []
        for w in self.workers:
            workers.append(
                {
                    "worker": w.worker_id,
                    "pid": w.pid,
                    "generation": w.generation,
                    "jobs_served": w.jobs_served,
                    "rss_bytes": w.rss_bytes,
                    "age_s": round(w.age, 3),
                    "alive": w.alive,
                }
            )
        policy = None
        if self.lifecycle is not None:
            policy = {
                "max_jobs": self.lifecycle.max_jobs,
                "max_rss_bytes": self.lifecycle.max_rss_bytes,
                "max_age": self.lifecycle.max_age,
                "max_terms": self.lifecycle.max_terms,
            }
        return {
            "workers": workers,
            "recycles": dict(self.recycles),
            "recycles_total": sum(self.recycles.values()),
            "policy": policy,
        }

    def close(self) -> None:
        """Stop every worker (politely, then by force)."""
        if self._closed:
            return
        self._closed = True
        for worker in self.workers:
            worker.stop()
        self.workers.clear()

    def __enter__(self) -> "WorkerPool":
        self._ensure_workers()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the supervision loop ---------------------------------------------

    def run_jobs(
        self,
        specs: list[JobSpec],
        *,
        retries: int = 2,
        kill_timeout: float = 300.0,
        kill_grace: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
        on_result: Optional[Callable[[JobResult], None]] = None,
    ) -> list[JobResult]:
        """Run every job to a result; never raises for job-level trouble.

        A *transient* failure (crash, corrupt reply) is re-queued at
        once, up to ``retries`` attempts beyond the first; a kill
        timeout is deterministic — the job would hang again — and
        finalizes UNKNOWN at once.

        ``kill_timeout`` is the hard wall-clock cap per attempt when a
        job has no deadline of its own; with a soft ``budget.deadline``
        the attempt is killed at ``deadline + kill_grace`` — the worker
        gets a chance to abort cleanly (UNKNOWN with a snapshot) before
        the supervisor shoots it.

        ``on_result`` streams each finalized result *as it decides*,
        before slower batch-mates finish — the serving front-end uses
        it to put responses on the wire immediately instead of holding
        a whole micro-batch hostage to its slowest member.  Exceptions
        it raises are swallowed (a broken reply sink must not take the
        supervisor loop down with it).
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        seen: set[str] = set()
        for spec in specs:
            if spec.job_id in seen:
                raise ValueError(f"duplicate job_id {spec.job_id!r}")
            seen.add(spec.job_id)

        self._ensure_workers()
        states = {spec.job_id: _JobState(spec) for spec in specs}
        ready: deque[str] = deque(spec.job_id for spec in specs)
        busy: dict[int, tuple[Worker, str, float]] = {}  # id(worker) -> (w, job, kill_at)
        results: dict[str, JobResult] = {}

        if obs_config.ENABLED:
            _OBS_SUBMITTED.inc(len(specs))
        obs_tracer.instant(
            "svc.pool.start", {"jobs": len(specs), "workers": self.size}
        )

        def finalize(
            job_id: str,
            result: JobResult,
            worker_spans: Sequence[obs_tracer.Span] = (),
        ) -> None:
            state = states[job_id]
            result.attempts = state.attempt + 1
            if result.trace_id is None:
                # Fabricated results (crash past retries, kill
                # timeout) never rode through a worker; the spec
                # still knows the request they belong to.
                result.trace_id = state.spec.trace_id
            result.attempt_failures = state.failures
            results[job_id] = result
            if obs_config.ENABLED:
                _OBS_COMPLETED.inc()
                if result.outcome == UNKNOWN:
                    _OBS_UNKNOWN.inc()
                elif result.outcome == REFUTED:
                    _OBS_FAILED.inc()
                elif result.outcome == ERROR:
                    _OBS_ERRORS.inc()
                if state.first_dispatched is not None:
                    latency = clock() - state.first_dispatched
                    _OBS_LATENCY.observe(latency)
                    obs_metrics.histogram(
                        f"svc.job_latency.{state.spec.kind}"
                    ).observe(latency)
                # A zero-length span records the job in the trace tree;
                # the worker's shipped span tree is grafted beneath it,
                # so profile output shows what happened *inside* the job.
                # Binding the request's trace context stamps the span,
                # closing the admission → dispatch → worker → merge
                # chain under one trace_id.
                with obs_tracer.trace_context(state.spec.trace_id):
                    with obs_tracer.span(
                        "svc.job",
                        job=job_id,
                        kind=state.spec.kind,
                        outcome=result.outcome,
                        attempts=result.attempts,
                    ) as sp:
                        pass
                if isinstance(sp, obs_tracer.Span):
                    sp.children.extend(worker_spans)
            if on_result is not None:
                try:
                    on_result(result)
                except Exception:
                    pass

        def fail_attempt(job_id: str, failure: JobFailure) -> None:
            """Route one failed attempt: retry, or finalize UNKNOWN."""
            state = states[job_id]
            state.failures.append(
                {"attempt": state.attempt, **failure.to_dict()}
            )
            if failure.transient and state.attempt < retries:
                state.attempt += 1
                if obs_config.ENABLED:
                    _OBS_RETRIES.inc()
                obs_tracer.instant(
                    "svc.retry",
                    {
                        "job": job_id,
                        "attempt": state.attempt,
                        "failure": failure.kind,
                    },
                )
                ready.append(job_id)
            else:
                finalize(
                    job_id,
                    JobResult(
                        job_id,
                        state.spec.kind,
                        UNKNOWN,
                        reason=f"{failure.kind}: {failure.message}",
                        failure=failure,
                    ),
                )

        def classify_reply(worker: Worker, job_id: str, payload: Any) -> None:
            if (
                isinstance(payload, JobResult)
                and payload.job_id == job_id
            ):
                self._note_hygiene(worker, payload)
                # Fold the worker's telemetry blob (metric deltas, span
                # tree) into host obs state before the span is recorded;
                # crash-safe — a mangled blob merges nothing.
                worker_spans = svc_telemetry.consume_blob(
                    payload, worker.clock_offset
                )
                finalize(job_id, payload, worker_spans)
            else:
                if obs_config.ENABLED:
                    _OBS_CORRUPT.inc()
                obs_tracer.instant(
                    "svc.worker.corrupt_result",
                    {"worker": worker.worker_id, "job": job_id},
                )
                fail_attempt(
                    job_id,
                    JobFailure(
                        "corrupt",
                        f"worker {worker.pid} replied with an invalid "
                        f"payload ({type(payload).__name__})",
                        transient=True,
                    ),
                )

        with obs_tracer.span("svc.pool.run", jobs=len(specs)):
            while len(results) < len(states):
                # Proactively recycle idle workers that crossed a
                # lifecycle threshold — replacement first, then retire,
                # so the dispatch below never sees reduced capacity.
                if self.lifecycle is not None and self.lifecycle.active():
                    for w in list(self.workers):
                        if id(w) not in busy:
                            self._maybe_recycle(w)

                # Dispatch to idle workers.
                idle = [
                    w for w in self.workers if id(w) not in busy and w.alive
                ]
                while ready and idle:
                    job_id = ready.popleft()
                    state = states[job_id]
                    worker = idle.pop()
                    budget = state.spec.budget
                    if budget is not None and budget.deadline is not None:
                        attempt_cap = budget.deadline + kill_grace
                    else:
                        attempt_cap = kill_timeout
                    try:
                        worker.dispatch(state.spec, state.attempt)
                    except (BrokenPipeError, OSError):
                        # The worker died idle; replace it and re-queue.
                        if obs_config.ENABLED:
                            _OBS_CRASHES.inc()
                        self._respawn(worker)
                        idle.append(worker)
                        ready.appendleft(job_id)
                        continue
                    dispatch_detail = {
                        "job": job_id,
                        "kind": state.spec.kind,
                        "worker": worker.worker_id,
                        "attempt": state.attempt,
                    }
                    if state.spec.trace_id is not None:
                        dispatch_detail["trace_id"] = state.spec.trace_id
                    obs_tracer.instant("svc.worker.dispatch", dispatch_detail)
                    if state.first_dispatched is None:
                        state.first_dispatched = clock()
                    busy[id(worker)] = (worker, job_id, clock() + attempt_cap)

                if not busy:
                    continue

                # Sleep until a reply, a death, or a kill deadline —
                # whichever comes first.
                wait_timeout = max(
                    0.0,
                    min(kill_at for (_, _, kill_at) in busy.values()) - clock(),
                )
                handles = []
                for worker, _, _ in busy.values():
                    handles.append(worker.conn)
                    handles.append(worker.process.sentinel)
                ready_handles = multiprocessing.connection.wait(
                    handles, timeout=wait_timeout
                )
                ready_set = set(ready_handles)

                for key in list(busy):
                    worker, job_id, kill_at = busy[key]
                    if worker.conn in ready_set:
                        try:
                            payload = worker.conn.recv()
                        except (EOFError, OSError):
                            self._on_crash(worker, job_id, fail_attempt)
                            del busy[key]
                            continue
                        if svc_telemetry.is_pong(payload):
                            # A clock pong that missed the spawn-time
                            # handshake window; the job reply is still
                            # on its way — keep the worker busy.
                            worker.note_pong(payload)
                            continue
                        del busy[key]
                        classify_reply(worker, job_id, payload)
                    elif worker.process.sentinel in ready_set:
                        self._on_crash(worker, job_id, fail_attempt)
                        del busy[key]
                    elif clock() >= kill_at:
                        self._on_timeout(worker, job_id, fail_attempt)
                        del busy[key]

        obs_tracer.instant("svc.pool.done", {"jobs": len(results)})
        return [results[spec.job_id] for spec in specs]

    # -- failure handlers --------------------------------------------------

    def _on_crash(
        self,
        worker: Worker,
        job_id: str,
        fail_attempt: Callable[[str, JobFailure], None],
    ) -> None:
        worker.process.join(timeout=1.0)  # reap so exitcode is real
        exitcode = worker.exitcode
        if obs_config.ENABLED:
            _OBS_CRASHES.inc()
        obs_tracer.instant(
            "svc.worker.crash",
            {"worker": worker.worker_id, "job": job_id, "exitcode": exitcode},
        )
        self._respawn(worker)
        fail_attempt(
            job_id,
            JobFailure(
                "crash",
                f"worker died (exitcode {exitcode}) while running {job_id}",
                transient=True,
            ),
        )

    def _on_timeout(
        self,
        worker: Worker,
        job_id: str,
        fail_attempt: Callable[[str, JobFailure], None],
    ) -> None:
        if obs_config.ENABLED:
            _OBS_TIMEOUTS.inc()
        obs_tracer.instant(
            "svc.worker.kill",
            {"worker": worker.worker_id, "job": job_id, "reason": "timeout"},
        )
        self._respawn(worker)
        # A hang is deterministic from the supervisor's viewpoint:
        # retrying would occupy another worker for the full kill
        # timeout.  ``transient=False`` makes fail_attempt finalize the
        # job UNKNOWN immediately.
        fail_attempt(
            job_id,
            JobFailure(
                "timeout",
                f"worker killed after exceeding the wall-clock kill "
                f"timeout (job {job_id})",
                transient=False,
            ),
        )
