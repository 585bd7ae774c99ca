"""``fast serve``: the JSONL serving protocol and the stdin loop.

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

Both front-ends parse with :func:`triage` and put every job request
through the same :class:`~repro.svc.gate.AdmissionGate` with
:func:`admit`:

* :func:`serve_lines` — the ``--stdin-jsonl`` loop: synchronous, one
  request at a time, so its queue never builds, but deadline clamping,
  tenant quotas, and the ``health`` kind behave identically to the
  HTTP path.  Stdin EOF is the drain signal.

* :class:`~repro.svc.http.HttpFrontEnd` — ``--http HOST:PORT``: handler
  threads feeding a bounded pending queue, one dispatcher thread owning
  the pool, ``/metrics`` and ``/healthz``, and graceful drain on
  SIGTERM.

The service — pool and warm workers — persists across requests.  No
request can shut out another: a job's cost is bounded by the gate's
deadline ceiling plus the kill grace, and each tenant by its quota.
"""

from __future__ import annotations

import errno
import json
import os
import re
import secrets
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import IO, Any, Iterator, Optional

from ..obs import metrics as obs_metrics
from ..obs import tracer as obs_tracer
from .gate import AdmissionGate, GateConfig, Shed, Ticket
from .job import KINDS, BudgetSpec, JobSpec
from .service import AnalysisService, ServiceConfig
from .telemetry import StatsMark, stats_line, stats_summary

_OBS_CLIENT_GONE = obs_metrics.counter("svc.serve.client_gone")
_OBS_BAD_REQUESTS = obs_metrics.counter("svc.serve.bad_requests")

#: Budget keys a request may carry; anything else is a client error.
_BUDGET_KEYS = ("deadline", "max_solver_queries", "max_steps")

#: Client-supplied trace ids and tenants: printable, no whitespace,
#: bounded — a name is a correlation token, not a payload channel (a
#: tenant is also printed raw in the ``--stats`` rows).
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
        if not isinstance(tenant, str) or not _TRACE_ID_RE.match(tenant):
            raise ValueError(
                "'tenant' must be a non-empty printable string without "
                "whitespace, at most 128 chars"
            )
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
    deadline semantics identical to the HTTP front-end; the queue
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
    mark: StatsMark = (gate.started, {})
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
            ticket = admit(request, gate)
            if not isinstance(ticket, Ticket):
                if not _emit(out, ticket):
                    break
                continue
            with obs_tracer.trace_context(request.trace_id):
                with obs_tracer.span("svc.dispatch", id=request.client_id):
                    released = gate.release(ticket)
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
            mark = rolling_stats(gate, stats_interval, err, mark)
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
        stats = gate.ledger.snapshot()
        return {
            "id": request.client_id,
            "trace_id": request.trace_id,
            "served_total": stats["all"]["served"],
            "stats": stats,
        }
    return request


def admit(request: Request, gate: AdmissionGate) -> Ticket | dict[str, Any]:
    """Put one job request through the gate under its trace id.

    The one admission step of every serving loop: returns the admitted
    :class:`~repro.svc.gate.Ticket`, or the shed reply document.
    """
    with obs_tracer.trace_context(request.trace_id):
        with obs_tracer.span(
            "svc.admission",
            id=request.client_id,
            kind=request.spec.kind,
            tenant=request.tenant,
        ):
            decision = gate.admit(request.spec, request.tenant)
    if isinstance(decision, Shed):
        return decision.response(request.client_id)
    return decision


def health_doc(
    gate: AdmissionGate, svc: Optional[AnalysisService], workers: int
) -> dict[str, Any]:
    """The ``health`` ledger: gate and worker lifecycle."""
    return gate.health(
        workers=workers,
        pool=svc.pool if svc is not None else None,
    )


def rolling_stats(
    gate: AdmissionGate,
    interval: float,
    err: IO[str],
    mark: StatsMark,
) -> StatsMark:
    """Write the rolling ``--stats`` block once ``interval`` seconds have
    passed since ``mark``; returns the mark the next block counts from."""
    if interval <= 0 or gate.clock() - mark[0] < interval:
        return mark
    # One ledger read ends this block and starts the next, and one write
    # keeps the block from interleaving with other stderr traffic.
    until = (gate.clock(), gate.ledger.by_tenant())
    err.write(stats_line(gate, since=mark, until=until) + "\n")
    err.flush()
    return until


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
