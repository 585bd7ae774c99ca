"""``repro.svc.gate``: admission control and overload protection.

The worker pool (:mod:`repro.svc.pool`) makes the service survive what
a *job* does; this module makes it survive what *traffic* does.  An
unprotected serving loop facing a burst flood fails in the worst
possible way — it queues unboundedly, every request's latency grows
without limit, memory grows with the backlog, and by the time anything
is answered the client has long stopped listening.  The gate replaces
that implicit, unbounded queue with explicit, deliberate policy:

* **Bounded pending queue.**  At most ``max_queue`` admitted requests
  may wait for a worker.  When the queue is full, new requests are
  *shed* — answered immediately with a well-formed
  ``{"id": ..., "shed": true, "reason": "queue-full",
  "retry_after": ...}`` line — instead of waiting.  A shed response in
  under 10 ms is strictly better than a served response after 80
  seconds: the client can retry elsewhere, back off, or degrade.

* **Per-tenant token buckets.**  Each request names a tenant (the
  ``tenant`` field; ``"default"`` otherwise) and draws one token from
  that tenant's bucket (``tenant_rate`` tokens/sec, ``tenant_burst``
  capacity).  An empty bucket sheds with ``reason: "quota"`` and a
  ``retry_after`` computed from the refill rate, so one hostile client
  cannot starve the rest.  As in the ledger, only the first
  ``MAX_TENANTS`` tenants get a bucket of their own; later ones share
  the ``_other`` bucket, so minted tenant names cannot grow the gate.

* **Deadline ceiling + propagation.**  The server clamps every job's
  ``BudgetSpec.deadline`` to ``max_deadline`` (jobs without a deadline
  get the ceiling), so no client can request an unbounded analysis.
  The admitted deadline starts ticking at *admission*: when a queued
  job finally reaches the dispatcher, the budget dispatched to the
  worker is the **remaining** time — and a job whose deadline is
  already exhausted while queued is shed (``reason: "deadline"``)
  without ever touching a worker.  Queue time is not free time.

* **Health.**  :meth:`AdmissionGate.health` snapshots readiness, queue
  depth, per-reason shed counters, and the worker lifecycle into one
  JSON-able dict — the payload of the ``health`` request kind.

* **The serving ledger.**  The gate owns the one record of served and
  shed requests, a :class:`~repro.svc.telemetry.Ledger`: every shed
  (admit, release or drain) and every :meth:`AdmissionGate.note_served`
  is recorded into it once, with the request's kind and tenant.
  ``health``, ``/metrics``, the ``stats`` request and the ``--stats``
  output all read it, so they agree by construction.

* **Graceful drain.**  :meth:`AdmissionGate.start_drain` stops
  admission (new requests shed with ``reason: "draining"``) while
  letting the dispatcher finish what was already admitted, up to the
  front-end's drain timeout.

The gate is deliberately front-end agnostic: the stdin-JSONL loop
(:mod:`repro.svc.serve`) and the HTTP server (:mod:`repro.svc.http`)
both run every request through the same :meth:`admit` / :meth:`release`
pair, so admission semantics cannot drift between them.  All methods
are thread-safe (the HTTP front-end admits from many handler threads
while one dispatcher releases).

See DESIGN.md §11 for the admission/shedding state machine.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..obs import config as obs_config
from ..obs import metrics as obs_metrics
from ..obs import tracer as obs_tracer
from .job import BudgetSpec, JobResult, JobSpec
from .telemetry import MAX_TENANTS, OTHER_TENANT, Ledger

#: Shed reasons (the ``reason`` field of a shed response).
SHED_QUEUE_FULL = "queue-full"
SHED_QUOTA = "quota"
SHED_DEADLINE = "deadline"
SHED_DRAINING = "draining"

SHED_REASONS = (SHED_QUEUE_FULL, SHED_QUOTA, SHED_DEADLINE, SHED_DRAINING)

_OBS_ADMITTED = obs_metrics.counter("svc.gate.admitted")
_OBS_SERVED = obs_metrics.counter("svc.gate.served")
_OBS_SHED = {
    reason: obs_metrics.counter(f"svc.gate.shed.{reason.replace('-', '_')}")
    for reason in SHED_REASONS
}
_OBS_QUEUE_DEPTH = obs_metrics.gauge("svc.gate.queue_depth")


@dataclass(frozen=True)
class GateConfig:
    """Admission policy knobs for one serving front-end."""

    #: Admitted requests that may wait for a worker; beyond this,
    #: requests shed immediately with ``reason: queue-full``.
    max_queue: int = 64
    #: Server-side deadline ceiling (seconds), clamped onto every job's
    #: budget; jobs without a deadline get exactly this much.
    max_deadline: float = 30.0
    #: Per-tenant sustained admission rate (requests/sec); 0 disables
    #: quota enforcement entirely.
    tenant_rate: float = 0.0
    #: Per-tenant bucket capacity (burst tolerance above the rate).
    tenant_burst: int = 8
    #: Seconds the front-end keeps finishing admitted work after drain
    #: starts before closing the pool.
    drain_timeout: float = 10.0
    #: Worker slots behind the gate (used for the queue-full
    #: ``retry_after`` estimate, not enforced here).
    workers: int = 4

    def __post_init__(self) -> None:
        if self.max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {self.max_queue}")
        if self.max_deadline <= 0:
            raise ValueError(
                f"max_deadline must be > 0, got {self.max_deadline}"
            )


class TokenBucket:
    """A classic token bucket: ``rate`` tokens/sec, ``burst`` capacity.

    ``try_take`` is the only operation: one token per admission.  When
    empty, it reports how long until the next token exists — the
    ``retry_after`` a quota-shed response carries.  The clock is
    injectable so tests drive refill deterministically.
    """

    def __init__(
        self,
        rate: float,
        burst: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.rate = rate
        self.burst = max(1.0, float(burst))
        self.clock = clock
        self.tokens = self.burst
        self.last_refill = clock()

    def _refill(self, now: float) -> None:
        elapsed = max(0.0, now - self.last_refill)
        self.tokens = min(self.burst, self.tokens + elapsed * self.rate)
        self.last_refill = now

    def try_take(self) -> tuple[bool, float]:
        """``(True, 0.0)`` on success; ``(False, retry_after)`` when dry."""
        now = self.clock()
        self._refill(now)
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True, 0.0
        if self.rate <= 0:
            return False, 1.0
        return False, (1.0 - self.tokens) / self.rate


@dataclass
class Shed:
    """The gate's refusal: why, and when to come back.

    ``response`` renders the wire form — the *whole* contract of a shed
    request is one immediate, well-formed JSONL line.
    """

    reason: str
    retry_after: float
    #: The request's trace id, echoed on the wire so a refusal is as
    #: followable as a verdict (stamped by the gate from the bound
    #: trace context at decision time).
    trace_id: Optional[str] = None

    def response(self, client_id: str) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "id": client_id,
            "shed": True,
            "reason": self.reason,
            "retry_after": round(max(0.0, self.retry_after), 4),
        }
        if self.trace_id is not None:
            doc["trace_id"] = self.trace_id
        return doc


@dataclass
class Ticket:
    """One admitted request, waiting for (or holding) a worker.

    ``deadline_at`` is absolute on the gate's clock: admission started
    the countdown, and :meth:`AdmissionGate.release` turns whatever is
    left into the dispatched budget.
    """

    spec: JobSpec
    client_id: str
    tenant: str
    admitted_at: float
    deadline_at: float
    #: Reply delivery, set by the front-end (connection writer).
    reply: Optional[Callable[[dict[str, Any]], None]] = None


class AdmissionGate:
    """Admission control in front of an :class:`AnalysisService`.

    Thread-safe; the usual lifecycle per request is::

        decision = gate.admit(spec, tenant)      # connection thread
        if isinstance(decision, Shed):
            reply(decision.response(client_id))  # immediate, < 10 ms
        else:
            queue.put(decision)                  # bounded by the gate
        ...
        outcome = gate.release(ticket)           # dispatcher thread
        if isinstance(outcome, Shed):            # died waiting in queue
            reply(outcome.response(...))
        else:
            dispatch(outcome)                    # spec w/ remaining budget
        ...
        gate.note_served(result, tenant)         # after the result
    """

    def __init__(
        self,
        config: Optional[GateConfig] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config or GateConfig()
        self.clock = clock
        self.started = clock()
        self.draining = False
        self._lock = threading.Lock()
        self._buckets: dict[str, TokenBucket] = {}
        self._pending = 0
        self._inflight = 0
        #: EWMA of served wall-clock (seconds) — the queue-full
        #: ``retry_after`` estimate.  Seeded pessimistically small so
        #: the first estimates are cheap retries, not long exiles.
        self._ewma_latency = 0.05
        self.admitted = 0
        #: Every served and shed request, by kind and tenant.
        self.ledger = Ledger()

    # -- admission ---------------------------------------------------------

    def _shed(
        self,
        reason: str,
        retry_after: float,
        spec: JobSpec,
        tenant: str,
        stage: str = "admit",
    ) -> Shed:
        """Record one refusal and trace it as a trace-stamped instant.

        The instant (``svc.gate.shed``) is how a refused request shows
        up in the exported Perfetto track: sheds have no span of their
        own, but the decision point — reason, stage (``admit`` vs
        ``release``), tenant — is followable by ``trace_id`` alongside
        the spans of requests that made it through.
        """
        self.ledger.record_shed(spec.kind, tenant, reason)
        if obs_config.ENABLED:
            _OBS_SHED[reason].inc()
        obs_tracer.instant(
            "svc.gate.shed",
            {"reason": reason, "stage": stage, "tenant": tenant},
        )
        return Shed(reason, retry_after, trace_id=obs_tracer.current_trace_id())

    def _queue_retry_after(self) -> float:
        """Expected time for the backlog to clear one slot."""
        per_worker = self._pending + self._inflight
        workers = max(1, self.config.workers)
        return max(0.01, per_worker * self._ewma_latency / workers)

    def clamp(self, budget: Optional[BudgetSpec]) -> float:
        """The effective deadline (seconds) the server grants a budget."""
        ceiling = self.config.max_deadline
        if budget is None or budget.deadline is None:
            return ceiling
        return min(float(budget.deadline), ceiling)

    def admit(self, spec: JobSpec, tenant: str = "default") -> Ticket | Shed:
        """Admit one request, or shed it with a reason and a retry hint.

        On admission the spec's budget deadline is clamped to the
        server ceiling and the countdown starts; the returned ticket
        occupies one bounded-queue slot until :meth:`release`.
        """
        with self._lock:
            if self.draining:
                return self._shed(
                    SHED_DRAINING, self.config.drain_timeout, spec, tenant
                )
            if self.config.tenant_rate > 0:
                key = tenant
                if key not in self._buckets and len(self._buckets) >= MAX_TENANTS:
                    key = OTHER_TENANT
                bucket = self._buckets.get(key)
                if bucket is None:
                    bucket = TokenBucket(
                        self.config.tenant_rate,
                        self.config.tenant_burst,
                        self.clock,
                    )
                    self._buckets[key] = bucket
                ok, retry_after = bucket.try_take()
                if not ok:
                    return self._shed(SHED_QUOTA, retry_after, spec, tenant)
            if self._pending >= self.config.max_queue:
                return self._shed(
                    SHED_QUEUE_FULL, self._queue_retry_after(), spec, tenant
                )
            now = self.clock()
            deadline = self.clamp(spec.budget)
            budget = spec.budget or BudgetSpec()
            clamped = BudgetSpec(
                deadline=deadline,
                max_solver_queries=budget.max_solver_queries,
                max_steps=budget.max_steps,
            )
            self._pending += 1
            self.admitted += 1
            if obs_config.ENABLED:
                _OBS_ADMITTED.inc()
                _OBS_QUEUE_DEPTH.add(1)
            obs_tracer.instant(
                "svc.gate.admit",
                {
                    "tenant": tenant,
                    "deadline": round(deadline, 4),
                    "queue_depth": self._pending,
                },
            )
            return Ticket(
                spec=JobSpec(
                    job_id=spec.job_id,
                    kind=spec.kind,
                    source=spec.source,
                    args=spec.args,
                    budget=clamped,
                    trace_id=spec.trace_id,
                ),
                client_id=spec.job_id,
                tenant=tenant,
                admitted_at=now,
                deadline_at=now + deadline,
            )

    # -- dispatch ----------------------------------------------------------

    def release(self, ticket: Ticket) -> JobSpec | Shed:
        """Take a ticket off the queue, for dispatch or a deadline shed.

        The returned spec's budget deadline is the *remaining* time —
        the worker must not get the original grant back after the
        request already spent part of it waiting.
        """
        with self._lock:
            self._pending -= 1
            if obs_config.ENABLED:
                _OBS_QUEUE_DEPTH.add(-1)
            remaining = ticket.deadline_at - self.clock()
            if remaining <= 0:
                return self._shed(
                    SHED_DEADLINE, 0.0, ticket.spec, ticket.tenant,
                    stage="release",
                )
            self._inflight += 1
        budget = ticket.spec.budget or BudgetSpec()
        return JobSpec(
            job_id=ticket.spec.job_id,
            kind=ticket.spec.kind,
            source=ticket.spec.source,
            args=ticket.spec.args,
            budget=BudgetSpec(
                deadline=remaining,
                max_solver_queries=budget.max_solver_queries,
                max_steps=budget.max_steps,
            ),
            trace_id=ticket.spec.trace_id,
        )

    def note_served(
        self, result: JobResult, tenant: str = "default", elapsed: float = 0.0
    ) -> None:
        """One released job came back (any outcome: it was *answered*).

        Records the result into the ledger under ``tenant``.  The
        ``retry_after`` estimate follows the worker duration, or
        ``elapsed`` (caller-measured wall time) for results that never
        reached a worker.
        """
        duration = result.duration or elapsed
        with self._lock:
            self._inflight = max(0, self._inflight - 1)
            if duration > 0:
                self._ewma_latency += 0.2 * (duration - self._ewma_latency)
            self.ledger.record_served(result, tenant)
        if obs_config.ENABLED:
            _OBS_SERVED.inc()

    def drain_shed(self, ticket: Ticket) -> Shed:
        """Shed a still-queued ticket at drain-timeout (never silence).

        Like :meth:`release`, this frees the ticket's queue slot; unlike
        it, the outcome is always a ``draining`` shed — the drain
        deadline passed before a worker could take the job.
        """
        with self._lock:
            self._pending -= 1
            if obs_config.ENABLED:
                _OBS_QUEUE_DEPTH.add(-1)
            return self._shed(
                SHED_DRAINING, 0.0, ticket.spec, ticket.tenant, stage="drain"
            )

    # -- drain & health ----------------------------------------------------

    def start_drain(self) -> None:
        """Stop admitting; already-admitted work may still finish."""
        with self._lock:
            self.draining = True

    @property
    def queue_depth(self) -> int:
        with self._lock:
            return self._pending

    @property
    def inflight(self) -> int:
        with self._lock:
            return self._inflight

    def health(
        self,
        workers: Optional[int] = None,
        pool: Any = None,
    ) -> dict[str, Any]:
        """The JSON-able payload of a ``health`` request.

        ``ready`` means "may I send you work and expect an answer" —
        false once draining.  Counters come from the gate's own
        bookkeeping (valid with observability off); with a ``pool`` the
        worker lifecycle snapshot (per-worker generation / RSS / jobs
        served, recycle counts by reason) rides along under
        ``"lifecycle"`` so an operator — or a probe — can see recycling
        happen without scraping ``/metrics``.
        """
        with self._lock:
            total = self.ledger.total()
            doc: dict[str, Any] = {
                "status": "draining" if self.draining else "ok",
                "ready": not self.draining,
                "uptime": round(self.clock() - self.started, 3),
                "queue_depth": self._pending,
                "inflight": self._inflight,
                "max_queue": self.config.max_queue,
                "max_deadline": self.config.max_deadline,
                "workers": workers
                if workers is not None
                else self.config.workers,
                "counters": {
                    "admitted": self.admitted,
                    "served": total.served,
                    "shed": {r: total.shed.get(r, 0) for r in SHED_REASONS},
                    "shed_total": total.shed_total,
                },
            }
        if pool is not None:
            snapshot = getattr(pool, "lifecycle_snapshot", None)
            if callable(snapshot):
                try:
                    doc["lifecycle"] = snapshot()
                except Exception:
                    pass  # health must answer even mid-recycle
        return doc
