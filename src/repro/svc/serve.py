"""``fast serve``: JSONL serving front-ends (stdin loop and socket).

The minimal serving surface: one JSON object per input line describes a
request, one JSON object per output line reports its outcome.  Request
shape::

    {"id": "req-1", "kind": "run", "source": "...fast program text..."}
    {"id": "req-2", "kind": "emptiness", "file": "prog.fast",
     "tenant": "team-a",
     "args": {"lang": "noTags"},
     "budget": {"deadline": 2.0, "max_solver_queries": 100000}}
    {"id": "probe", "kind": "health"}

``source`` carries program text inline (capped at
``RequestLimits.max_source_bytes``); ``file`` reads it server-side,
confined to ``RequestLimits.root`` — absolute paths and ``..`` escapes
are rejected with an ``error`` line, because a serving endpoint that
will read any path a client names is an arbitrary-file-read oracle.

Responses are :meth:`~repro.svc.job.JobResult.to_dict` payloads (plus
an ``id`` echo), shed notices (``{"id": ..., "shed": true, "reason":
..., "retry_after": ...}``), health snapshots, or ``{"id": ...,
"error": ...}`` lines for malformed requests.  The loop itself never
dies on bad input — the same posture the worker pool takes toward bad
jobs.

All three front-ends put every request through the same
:class:`~repro.svc.gate.AdmissionGate`:

* :func:`serve_lines` — the ``--stdin-jsonl`` loop: synchronous, one
  request at a time, so its queue never builds, but deadline clamping,
  tenant quotas, and the ``health`` kind behave identically to the
  socket path.  Stdin EOF is the drain signal.

* :class:`SocketFrontEnd` — ``--listen HOST:PORT``: one reader thread
  per connection feeding a bounded pending queue, one dispatcher
  thread owning the (single-threaded) supervisor pool.  Admission and
  shedding happen on the connection thread — a shed request is
  answered in microseconds however deep the backlog — and responses
  stream back as each job decides.  SIGTERM initiates graceful drain:
  stop admitting, finish what was admitted (up to the gate's drain
  timeout), close the pool, exit 0.

* :class:`~repro.svc.http.HttpFrontEnd` — ``--http HOST:PORT``: the
  socket front-end's serving core behind an HTTP/1.1 surface.

The service — pool and warm workers — persists across requests.  No
request can shut out another: a job's cost is bounded by the gate's
deadline ceiling plus the kill grace, and each tenant by its quota.
"""

from __future__ import annotations

import dataclasses
import errno
import json
import os
import queue
import re
import secrets
import socket
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import IO, Any, Callable, Iterator, Optional

from ..obs import metrics as obs_metrics
from ..obs import tracer as obs_tracer
from .gate import AdmissionGate, GateConfig, SHED_DRAINING, Shed, Ticket
from .job import KINDS, BudgetSpec, JobSpec
from .service import AnalysisService, ServiceConfig
from .telemetry import stats_line, stats_summary

_OBS_CLIENT_GONE = obs_metrics.counter("svc.serve.client_gone")
_OBS_BAD_REQUESTS = obs_metrics.counter("svc.serve.bad_requests")

#: Budget keys a request may carry; anything else is a client error.
_BUDGET_KEYS = ("deadline", "max_solver_queries", "max_steps")

#: Client-supplied trace ids: printable, no whitespace, bounded — an id
#: is a correlation token, not a payload channel.
_TRACE_ID_RE = re.compile(r"^[\x21-\x7e]{1,128}$")


def mint_trace_id() -> str:
    """A fresh server-minted trace id (64 bits of hex)."""
    return secrets.token_hex(8)


def _trace_id_from_doc(doc: dict[str, Any]) -> str:
    """The request's trace id: the client's if valid, else minted.

    Raises ``ValueError`` on a malformed client id (wrong type, empty,
    whitespace, oversized) — silently replacing it would break the
    client's own correlation.
    """
    raw = doc.get("trace_id")
    if raw is None:
        return mint_trace_id()
    if not isinstance(raw, str) or not _TRACE_ID_RE.match(raw):
        raise ValueError(
            "'trace_id' must be a non-empty printable string without "
            "whitespace, at most 128 chars"
        )
    return raw


@dataclass(frozen=True)
class RequestLimits:
    """What a request may ask of the server's filesystem and memory.

    * ``root`` — directory ``file`` requests are confined to; ``None``
      rejects file requests outright (inline ``source`` only), which is
      the right default for a network-facing endpoint.
    * ``max_source_bytes`` — cap on inline source *and* on the size of
      a file read server-side; a 2 GB "program" is a memory attack,
      not a job.
    """

    root: Optional[str] = None
    max_source_bytes: int = 1 << 20

    @classmethod
    def local(cls) -> "RequestLimits":
        """The stdin-loop default: files confined to the cwd."""
        return cls(root=os.getcwd())


@dataclass
class Request:
    """One parsed request line: a probe (health/stats) or a job + tenant."""

    client_id: str
    health: bool = False
    stats: bool = False
    spec: Optional[JobSpec] = None
    tenant: str = "default"
    #: The request-scoped trace id: the client's (validated) or minted
    #: at parse time.  Every response line derived from this request —
    #: verdict, shed, health, error — echoes it.
    trace_id: str = ""


class RequestError(ValueError):
    """A rejected request that still identified itself.

    Carries the client's ``id`` (and trace id, when one was readable)
    so the error line correlates with the request that caused it even
    though no job was built.
    """

    def __init__(
        self, message: str, client_id: str, trace_id: Optional[str] = None
    ) -> None:
        super().__init__(message)
        self.client_id = client_id
        self.trace_id = trace_id


def _load_doc(line: str) -> dict[str, Any]:
    try:
        doc = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"bad JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("request must be a JSON object")
    return doc


def _confined_read(path: str, limits: RequestLimits) -> str:
    """Read a server-side file within the limits, or raise ValueError."""
    if limits.root is None:
        raise ValueError(
            "'file' requests are disabled on this endpoint (no serve "
            "root configured); send inline 'source' instead"
        )
    if not isinstance(path, str) or not path:
        raise ValueError("'file' must be a non-empty string")
    if os.path.isabs(path):
        raise ValueError(
            f"'file' must be relative to the serve root, got absolute "
            f"path {path!r}"
        )
    root = os.path.realpath(limits.root)
    resolved = os.path.realpath(os.path.join(root, path))
    if resolved != root and not resolved.startswith(root + os.sep):
        raise ValueError(f"'file' escapes the serve root: {path!r}")
    try:
        size = os.path.getsize(resolved)
    except OSError as exc:
        raise ValueError(f"cannot read 'file' {path!r}: {exc}") from exc
    if size > limits.max_source_bytes:
        raise ValueError(
            f"'file' {path!r} is {size} bytes; the limit is "
            f"{limits.max_source_bytes}"
        )
    with open(resolved, encoding="utf-8") as f:
        return f.read()


def _budget_from_doc(doc: dict[str, Any]) -> Optional[BudgetSpec]:
    raw = doc.get("budget")
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise ValueError("'budget' must be an object")
    unknown = sorted(set(raw) - set(_BUDGET_KEYS))
    if unknown:
        raise ValueError(
            f"unknown budget field(s) {unknown} "
            f"(expected one of {list(_BUDGET_KEYS)})"
        )
    return BudgetSpec(
        deadline=raw.get("deadline"),
        max_solver_queries=raw.get("max_solver_queries"),
        max_steps=raw.get("max_steps"),
    ).validated()


def _spec_from_doc(
    doc: dict[str, Any],
    default_id: str,
    limits: Optional[RequestLimits],
    trace_id: Optional[str] = None,
) -> JobSpec:
    kind = doc.get("kind", "run")
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r} (expected one of {KINDS})")
    if "source" in doc:
        source = doc["source"]
        if not isinstance(source, str):
            raise ValueError("'source' must be a string")
        if limits is not None:
            size = len(source.encode("utf-8"))
            if size > limits.max_source_bytes:
                raise ValueError(
                    f"inline 'source' is {size} bytes; the limit is "
                    f"{limits.max_source_bytes}"
                )
    elif "file" in doc:
        if limits is not None:
            source = _confined_read(doc["file"], limits)
        else:
            with open(doc["file"]) as f:
                source = f.read()
    else:
        raise ValueError("request needs 'source' or 'file'")
    args = doc.get("args") or {}
    if not isinstance(args, dict):
        raise ValueError("'args' must be an object")
    return JobSpec(
        job_id=str(doc.get("id", default_id)),
        kind=kind,
        source=source,
        args=tuple(sorted((str(k), str(v)) for k, v in args.items())),
        budget=_budget_from_doc(doc),
        trace_id=trace_id,
    )


def parse_request(
    line: str, default_id: str, limits: Optional[RequestLimits] = None
) -> JobSpec:
    """One JSONL request line -> a JobSpec (raises ValueError on junk)."""
    return _spec_from_doc(_load_doc(line), default_id, limits)


def parse_line(
    line: str, default_id: str, limits: Optional[RequestLimits] = None
) -> Request:
    """One JSONL line -> a :class:`Request` (health/stats probe or job).

    Every request gets a ``trace_id`` here — the client's (validated)
    or a freshly minted one — so there is no code path past parsing
    where a request is not followable.
    """
    doc = _load_doc(line)
    client_id = str(doc.get("id", default_id))
    try:
        trace_id = _trace_id_from_doc(doc)
    except ValueError as exc:
        raise RequestError(str(exc), client_id) from exc
    if doc.get("kind") == "health":
        return Request(client_id, health=True, trace_id=trace_id)
    if doc.get("kind") == "stats":
        return Request(client_id, stats=True, trace_id=trace_id)
    try:
        tenant = doc.get("tenant", "default")
        if not isinstance(tenant, str) or not tenant:
            raise ValueError("'tenant' must be a non-empty string")
        spec = _spec_from_doc(doc, default_id, limits, trace_id=trace_id)
    except (ValueError, OSError) as exc:
        raise RequestError(str(exc), client_id, trace_id) from exc
    return Request(client_id, spec=spec, tenant=tenant, trace_id=trace_id)


# -- the stdin-JSONL loop ----------------------------------------------------


def serve_lines(
    lines: Iterator[str],
    out: IO[str],
    config: Optional[ServiceConfig] = None,
    *,
    gate_config: Optional[GateConfig] = None,
    limits: Optional[RequestLimits] = None,
    stats: bool = False,
    stats_interval: float = 0.0,
    err: Optional[IO[str]] = None,
    stop: Optional[threading.Event] = None,
    clock=time.monotonic,
) -> int:
    """Serve until the input ends; returns the number of jobs served.

    Every request passes through an :class:`AdmissionGate` (quota and
    deadline semantics identical to the socket front-end; the queue
    bound is moot because this loop is synchronous).  ``stop`` — when
    given — drains the loop from outside (the CLI sets it on SIGTERM):
    the current job finishes, no further line is admitted.

    A vanished client (``BrokenPipeError``/``EPIPE`` on ``out``) ends
    the loop cleanly with the jobs-served count instead of a traceback:
    dying because the consumer left is the one failure mode a serving
    loop must not have.

    With ``stats_interval > 0`` a rolling ``[svc] ... jobs/s ... p95=...``
    line goes to ``err`` (default stderr) at most every that many
    seconds; with ``stats`` a ``fast top``-style per-kind summary table
    is printed when the input ends.  Result lines on ``out`` are
    untouched either way — stats are operator chatter, not protocol.
    """
    served = 0
    err = err if err is not None else sys.stderr
    config = config or ServiceConfig()
    gate = AdmissionGate(
        gate_config or GateConfig(workers=config.jobs), clock=clock
    )
    mark = (gate.started, 0)
    with _one_cpu(), AnalysisService(config) as svc:
        for index, line in enumerate(lines):
            if stop is not None and stop.is_set():
                gate.start_drain()
                break
            line = line.strip()
            if not line:
                continue
            request = triage(
                line, f"line-{index + 1}", limits, gate, svc, config.jobs
            )
            if not isinstance(request, Request):
                if not _emit(out, request):
                    break
                continue
            with obs_tracer.trace_context(request.trace_id):
                with obs_tracer.span(
                    "svc.admission",
                    id=request.client_id,
                    kind=request.spec.kind,
                    tenant=request.tenant,
                ):
                    decision = gate.admit(request.spec, request.tenant)
                if isinstance(decision, Shed):
                    if not _emit(out, decision.response(request.client_id)):
                        break
                    continue
                with obs_tracer.span("svc.dispatch", id=request.client_id):
                    released = gate.release(decision)
                if isinstance(released, Shed):
                    if not _emit(out, released.response(request.client_id)):
                        break
                    continue
                result = svc.run_job(released)
            gate.note_served(result, request.tenant)
            doc = result.to_dict()
            doc["id"] = request.client_id
            doc.setdefault("trace_id", request.trace_id)
            if not _emit(out, doc):
                break
            served += 1
            mark = _rolling_stats(gate, stats_interval, err, mark)
        if stats:
            err.write(stats_summary(gate) + "\n")
            err.flush()
    return served


@contextmanager
def _one_cpu() -> Iterator[None]:
    """Run the block, and every worker it starts, on one CPU.

    :func:`serve_lines` waits out each job, so the supervisor and its
    worker never compute at the same time.  On two CPUs every hand-off
    wakes an idle CPU, and on a virtual machine that wake-up costs a
    share of a fast request that swings with the host's load; on one
    CPU it is a plain switch.  The CPU is the one this thread runs on,
    so several loops on one host stay where the scheduler spread them
    instead of piling onto the lowest CPU; the thread's CPU set is
    restored on exit.  Where the platform cannot set affinity the block
    runs as is.
    """
    try:
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {_current_cpu(allowed)})
    except (AttributeError, OSError):
        allowed = None
    try:
        yield
    finally:
        if allowed is not None:
            try:
                os.sched_setaffinity(0, allowed)
            except OSError:
                pass  # the CPU set shrank meanwhile; keep what is left


def _current_cpu(allowed: set[int]) -> int:
    """The CPU this thread runs on (``/proc``), else the lowest allowed."""
    try:
        with open("/proc/thread-self/stat") as f:
            # Field 39; the fields after the parenthesized name start at 3.
            cpu = int(f.read().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return min(allowed)
    return cpu if cpu in allowed else min(allowed)


def triage(
    line: str,
    default_id: str,
    limits: Optional[RequestLimits],
    gate: AdmissionGate,
    svc: Optional[AnalysisService],
    workers: int,
) -> Request | dict[str, Any]:
    """Parse one request line and answer what needs no worker.

    The one request triage of every serving loop: returns the reply
    document of a malformed request (an ``error`` line) or of a
    ``health``/``stats`` probe, else the job :class:`Request` to admit.
    """
    try:
        request = parse_line(line, default_id, limits)
    except (ValueError, OSError) as exc:
        _OBS_BAD_REQUESTS.inc()
        doc = {"id": getattr(exc, "client_id", default_id), "error": str(exc)}
        trace_id = getattr(exc, "trace_id", None)
        if trace_id:
            doc["trace_id"] = trace_id
        return doc
    if request.health:
        doc = health_doc(gate, svc, workers)
        doc["id"] = request.client_id
        doc["trace_id"] = request.trace_id
        return doc
    if request.stats:
        return stats_response(request, gate)
    return request


def health_doc(
    gate: AdmissionGate, svc: Optional[AnalysisService], workers: int
) -> dict[str, Any]:
    """The ``health`` ledger: gate and worker lifecycle."""
    return gate.health(
        workers=workers,
        pool=svc.pool if svc is not None else None,
    )


def stats_response(request: Request, gate: AdmissionGate) -> dict[str, Any]:
    """The payload of a ``stats`` request: the live window snapshot."""
    return {
        "id": request.client_id,
        "trace_id": request.trace_id,
        "served_total": gate.served,
        "stats": gate.live.snapshot(),
    }


def _rolling_stats(
    gate: AdmissionGate,
    interval: float,
    err: IO[str],
    mark: tuple[float, int],
) -> tuple[float, int]:
    """Write the rolling ``--stats`` block once ``interval`` seconds have
    passed since ``mark``; returns the mark the next block counts from."""
    if interval <= 0 or gate.clock() - mark[0] < interval:
        return mark
    # One write call: stats output must never interleave with other
    # stderr traffic mid-line.
    err.write(stats_line(gate, since=mark) + "\n")
    err.flush()
    return (gate.clock(), gate.served)


def _emit(out: IO[str], doc: dict[str, Any]) -> bool:
    """Write one response line; False when the client is gone (EPIPE)."""
    try:
        out.write(json.dumps(doc))
        out.write("\n")
        out.flush()
        return True
    except BrokenPipeError:
        _OBS_CLIENT_GONE.inc()
        return False
    except OSError as exc:
        if exc.errno in (errno.EPIPE, errno.ESHUTDOWN):
            _OBS_CLIENT_GONE.inc()
            return False
        raise


# -- the threaded front-end core ---------------------------------------------


class FrontEndBase:
    """The transport-agnostic serving core behind the socket and HTTP
    front-ends: one :class:`AdmissionGate`, one bounded pending queue,
    one dispatcher thread owning the (single-threaded)
    :class:`AnalysisService`.

    A transport's job is only to turn its inbound payloads into calls
    to :meth:`handle_line` with a ``reply`` callback, and to shut its
    listener in :meth:`_shutdown_transport` — admission, quotas,
    deadline propagation, trace-id handling, live stats, and drain
    semantics live here once and cannot drift between transports.

    * **Caller threads** (connection readers, HTTP handler threads) run
      parse + gate inline — health/stats probes, parse errors, and shed
      decisions are answered right there, without the dispatcher, which
      is what keeps refusal latency flat under any backlog; admitted
      tickets go onto the pending queue (bounded by the gate, so the
      queue object itself never grows past ``max_queue``).
    * The **dispatcher thread** pulls micro-batches of up to ``jobs``
      tickets, re-checks each ticket's remaining deadline (queue time
      burned the budget; an expired ticket sheds without dispatch), and
      streams each result to its ``reply`` as the pool finalizes it.

    Responses carry the client's ``id`` and the request's ``trace_id``;
    internally every dispatched job gets a unique sequence id so
    clients reusing ids (or two clients picking the same id) cannot
    collide inside a pool batch.

    Drain (:meth:`initiate_drain`, wired to SIGTERM by the CLI): the
    transport closes, the gate sheds new requests with ``reason:
    "draining"``, the dispatcher finishes the queue up to
    ``drain_timeout``, any leftovers are shed, the pool closes, and
    :meth:`wait` returns.
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        gate_config: Optional[GateConfig] = None,
        limits: Optional[RequestLimits] = None,
        stats_interval: float = 0.0,
        err: Optional[IO[str]] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config or ServiceConfig()
        self.gate = AdmissionGate(
            gate_config or GateConfig(workers=self.config.jobs), clock=clock
        )
        self.limits = limits if limits is not None else RequestLimits()
        self.clock = clock
        self.stats_interval = stats_interval
        self.err = err if err is not None else sys.stderr
        self._svc: Optional[AnalysisService] = None
        self._stats_mark = (self.gate.started, 0)
        self._queue: "queue.Queue[Ticket]" = queue.Queue()
        self._draining = threading.Event()
        self._done = threading.Event()
        self._seq = 0
        self._seq_lock = threading.Lock()
        self._threads: list[threading.Thread] = []

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "FrontEndBase":
        t = threading.Thread(
            target=self._dispatch_loop, name="serve-dispatch", daemon=True
        )
        t.start()
        self._threads.append(t)
        return self

    def _shutdown_transport(self) -> None:
        """Transport hook: stop accepting new payloads (idempotent)."""

    def initiate_drain(self) -> None:
        """Stop admitting; finish admitted work; then shut down."""
        if self._draining.is_set():
            return
        self.gate.start_drain()
        self._draining.set()
        self._shutdown_transport()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until drain completes; True when fully shut down."""
        return self._done.wait(timeout)

    def close(self) -> None:
        """Hard stop: drain and wait for the dispatcher to finish."""
        self.initiate_drain()
        self._done.wait(self.gate.config.drain_timeout + 5.0)

    def __enter__(self) -> "FrontEndBase":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- operator views ----------------------------------------------------

    @property
    def served(self) -> int:
        """Jobs answered so far (the gate's ledger)."""
        return self.gate.served

    def health_doc(self) -> dict[str, Any]:
        """The ``health`` ledger (gate + worker lifecycle)."""
        return health_doc(self.gate, self._svc, self.config.jobs)

    def metrics_text(self) -> str:
        """The Prometheus text exposition of this front-end's state.

        The ``svc_gate_*`` families and the window gauges both come from
        the gate's ledger (valid with observability off, and exactly
        consistent with the wire-level served/shed partition); registry
        metrics ride along when obs recording is on.
        """
        from ..obs import config as obs_config
        from ..obs.live import render_prometheus

        return render_prometheus(
            gate=self.gate,
            registry=obs_metrics.REGISTRY if obs_config.ENABLED else None,
            pool=self._svc.pool if self._svc is not None else None,
        )

    # -- request handling (caller threads) ---------------------------------

    def handle_line(
        self,
        line: str,
        default_id: str,
        reply: Callable[[dict[str, Any]], None],
    ) -> None:
        """Parse one request payload and answer or enqueue it."""
        request = triage(
            line, default_id, self.limits, self.gate, self._svc,
            self.config.jobs,
        )
        if not isinstance(request, Request):
            reply(request)
            return
        with obs_tracer.trace_context(request.trace_id):
            with obs_tracer.span(
                "svc.admission",
                id=request.client_id,
                kind=request.spec.kind,
                tenant=request.tenant,
            ):
                decision = self.gate.admit(request.spec, request.tenant)
        if isinstance(decision, Shed):
            reply(decision.response(request.client_id))
            return
        decision.reply = reply
        self._queue.put(decision)

    # -- the dispatcher ----------------------------------------------------

    def _next_internal_id(self) -> str:
        with self._seq_lock:
            self._seq += 1
            return f"g{self._seq}"

    def _gather(self, max_batch: int) -> list[Ticket]:
        """Up to ``max_batch`` tickets; blocks briefly for the first."""
        batch: list[Ticket] = []
        try:
            batch.append(self._queue.get(timeout=0.05))
        except queue.Empty:
            return batch
        while len(batch) < max_batch:
            try:
                batch.append(self._queue.get_nowait())
            except queue.Empty:
                break
        return batch

    def _dispatch_loop(self) -> None:
        drain_deadline: Optional[float] = None
        try:
            with AnalysisService(self.config) as svc:
                self._svc = svc
                while True:
                    if self._draining.is_set():
                        if drain_deadline is None:
                            drain_deadline = (
                                self.clock() + self.gate.config.drain_timeout
                            )
                        if self.clock() >= drain_deadline:
                            break
                        if self._queue.empty() and self.gate.inflight == 0:
                            break
                    batch = self._gather(max(1, self.config.jobs))
                    if not batch:
                        continue
                    self._dispatch_batch(svc, batch)
        finally:
            # Anything still queued when the drain deadline hit gets a
            # well-formed shed response — never silence.
            while True:
                try:
                    ticket = self._queue.get_nowait()
                except queue.Empty:
                    break
                shed = self.gate.drain_shed(ticket)
                if ticket.reply is not None:
                    ticket.reply(shed.response(ticket.client_id))
            self._done.set()

    def _dispatch_batch(
        self, svc: AnalysisService, batch: list[Ticket]
    ) -> None:
        specs: list[JobSpec] = []
        tickets: dict[str, Ticket] = {}
        for ticket in batch:
            with obs_tracer.trace_context(ticket.spec.trace_id):
                with obs_tracer.span(
                    "svc.dispatch",
                    id=ticket.client_id,
                    kind=ticket.spec.kind,
                    tenant=ticket.tenant,
                ):
                    released = self.gate.release(ticket)
            if isinstance(released, Shed):
                if ticket.reply is not None:
                    ticket.reply(released.response(ticket.client_id))
                continue
            internal = self._next_internal_id()
            specs.append(dataclasses.replace(released, job_id=internal))
            tickets[internal] = ticket
        if not specs:
            return
        started = self.clock()

        def deliver(result) -> None:
            ticket = tickets.get(result.job_id)
            if ticket is None:
                return
            doc = result.to_dict()
            doc["job_id"] = ticket.client_id
            doc["id"] = ticket.client_id
            # Fabricated results (crash past retries, kill timeout)
            # never saw the worker, so the spec's id fills the gap.
            doc.setdefault("trace_id", ticket.spec.trace_id)
            if ticket.reply is not None:
                ticket.reply(doc)
            self.gate.note_served(
                result, ticket.tenant, elapsed=self.clock() - started
            )

        svc.run_jobs(specs, on_result=deliver)
        self._stats_mark = _rolling_stats(
            self.gate, self.stats_interval, self.err, self._stats_mark
        )


# -- the socket front-end ----------------------------------------------------


class SocketFrontEnd(FrontEndBase):
    """``fast serve --listen``: a threaded JSONL-over-TCP endpoint.

    The serving core (gate, dispatcher, drain) is
    :class:`FrontEndBase`; this class adds the TCP transport — an
    **accept thread** handing each connection to a **reader thread**
    that feeds :meth:`handle_line` with a per-connection, write-locked
    ``reply``.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        config: Optional[ServiceConfig] = None,
        gate_config: Optional[GateConfig] = None,
        limits: Optional[RequestLimits] = None,
        stats_interval: float = 0.0,
        err: Optional[IO[str]] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        super().__init__(
            config, gate_config, limits, stats_interval, err, clock
        )
        self._listener = socket.create_server(
            (host, port), reuse_port=False
        )
        self.host, self.port = self._listener.getsockname()[:2]
        self._conns: set[socket.socket] = set()
        self._conns_lock = threading.Lock()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "SocketFrontEnd":
        super().start()
        t = threading.Thread(
            target=self._accept_loop, name="serve-accept", daemon=True
        )
        t.start()
        self._threads.append(t)
        return self

    def _shutdown_transport(self) -> None:
        try:
            self._listener.close()
        except OSError:
            pass

    def close(self) -> None:
        """Hard stop: drain, wait briefly, close every connection."""
        super().close()
        with self._conns_lock:
            conns = list(self._conns)
            self._conns.clear()
        for conn in conns:
            try:
                conn.close()
            except OSError:
                pass

    # -- accept + connection readers ---------------------------------------

    def _accept_loop(self) -> None:
        while not self._draining.is_set():
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                break  # listener closed: drain started
            with self._conns_lock:
                self._conns.add(conn)
            t = threading.Thread(
                target=self._read_loop, args=(conn,), daemon=True
            )
            t.start()

    def _read_loop(self, conn: socket.socket) -> None:
        write_lock = threading.Lock()
        gone = threading.Event()

        def reply(doc: dict[str, Any]) -> None:
            if gone.is_set():
                return
            data = (json.dumps(doc) + "\n").encode("utf-8")
            with write_lock:
                try:
                    conn.sendall(data)
                except OSError:
                    gone.set()
                    _OBS_CLIENT_GONE.inc()

        reader = conn.makefile("r", encoding="utf-8", errors="replace")
        index = 0
        try:
            for line in reader:
                index += 1
                line = line.strip()
                if not line:
                    continue
                self.handle_line(line, f"conn-{index}", reply)
        except (OSError, ValueError):
            pass  # connection torn down mid-read
        finally:
            try:
                reader.close()
            except OSError:
                pass
            # The socket itself stays open until drain/close: in-flight
            # jobs admitted from this connection may still reply on the
            # write half after the client half-closes its read side.


def run_until_drained(
    front: FrontEndBase,
    *,
    stats: bool = False,
    ready: Optional[Callable[[Any], None]] = None,
) -> int:
    """Start a front-end, serve until drained, close; returns jobs served.

    ``ready`` is called with the live front-end once it is listening
    (the CLI uses it to print the bound address and install SIGTERM);
    with ``stats`` the closing ``--stats`` table goes to the
    front-end's ``err`` stream.
    """
    front.start()
    if ready is not None:
        ready(front)
    try:
        while not front.wait(timeout=0.2):
            pass
    finally:
        front.close()
    if stats:
        front.err.write(stats_summary(front.gate) + "\n")
        front.err.flush()
    return front.served


def serve_socket(
    host: str,
    port: int,
    config: Optional[ServiceConfig] = None,
    *,
    gate_config: Optional[GateConfig] = None,
    limits: Optional[RequestLimits] = None,
    stats: bool = False,
    stats_interval: float = 0.0,
    err: Optional[IO[str]] = None,
    ready: Optional[Callable[["SocketFrontEnd"], None]] = None,
) -> int:
    """Run a :class:`SocketFrontEnd` until drained; returns jobs served."""
    front = SocketFrontEnd(
        host, port, config, gate_config, limits,
        stats_interval=stats_interval, err=err,
    )
    return run_until_drained(front, stats=stats, ready=ready)
