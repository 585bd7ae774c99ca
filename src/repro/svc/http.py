"""``fast serve --http``: the network front-end.

Pure stdlib (:mod:`http.server`) — the point is a browser-, curl- and
Prometheus-reachable surface over the serving protocol of
:mod:`repro.svc.serve`, not a web framework.  :class:`HttpFrontEnd`
owns the serving core: the admission gate, the bounded pending queue,
the dispatcher thread and graceful drain.

* ``POST /v1/analyze`` — the body is one JSONL request object (same
  schema as ``fast serve --stdin-jsonl``: ``kind``, ``source``/``file``,
  ``args``, ``budget``, ``tenant``, ``trace_id``).  The handler thread
  runs parse + gate inline and then *waits* for the dispatcher to
  deliver the job's reply — HTTP's one-response-per-request model makes
  the handler thread the natural reply callback.  Shedding maps onto
  status codes a load balancer already understands:

  ====================  ======  =========================
  outcome               status  extra
  ====================  ======  =========================
  served (any verdict)  200
  malformed request     400
  shed ``quota``        429     ``Retry-After`` seconds
  shed (other reasons)  503     ``Retry-After`` seconds
  reply never arrived   504
  ====================  ======  =========================

  Every response body carries the request's ``trace_id`` (client's or
  server-minted), exactly like the stdin JSONL wire.

* ``GET /metrics`` — Prometheus text exposition
  (:func:`repro.obs.live.render_prometheus`): gate counters, the
  ledger's per-kind and per-tenant counters and per-kind latency
  summary, worker
  lifecycle gauges (``svc_worker_rss_bytes`` / ``svc_worker_generation``
  per worker, ``svc_recycles_total`` by reason), and the obs registry
  when recording is on.

* ``GET /healthz`` — the ``health`` ledger as JSON (including the
  worker ``lifecycle`` snapshot); status 200 while ready, 503 once
  draining (so orchestrator readiness probes fail over before the
  drain deadline).

Connections are HTTP/1.1 keep-alive; each gets a handler thread, which
closes the socket when the client leaves.
"""

from __future__ import annotations

import dataclasses
import json
import math
import queue
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import IO, Any, Callable, Optional

from ..obs import metrics as obs_metrics
from ..obs import tracer as obs_tracer
from .gate import AdmissionGate, GateConfig, SHED_QUOTA, Shed, Ticket
from .job import JobSpec
from .serve import (
    Request,
    RequestLimits,
    admit,
    health_doc,
    rolling_stats,
    triage,
)
from .service import AnalysisService, ServiceConfig
from .telemetry import StatsMark, stats_summary

#: Slack added on top of ``max_source_bytes`` for the JSON envelope
#: around the source (ids, args, budget, tenant, trace_id).
_ENVELOPE_SLACK = 64 * 1024


def _shed_status(reason: str) -> int:
    """Shed reason -> HTTP status: quota is the client's pace (429);
    queue-full / deadline / draining are the server's state (503)."""
    return 429 if reason == SHED_QUOTA else 503


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    #: TCP_NODELAY: a response goes out as a header write and a body
    #: write, and with Nagle on, the body of every keep-alive response
    #: after the first waits ~40 ms for the client's delayed ACK.
    disable_nagle_algorithm = True
    #: Set by :class:`HttpFrontEnd` when building the handler class.
    front: "HttpFrontEnd"

    # BaseHTTPRequestHandler logs every request to stderr by default;
    # that would interleave with --stats output.
    def log_message(self, format: str, *args: Any) -> None:
        pass

    def _send(
        self,
        status: int,
        body: bytes,
        content_type: str = "application/json",
        extra_headers: Optional[dict[str, str]] = None,
    ) -> None:
        try:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            for name, value in (extra_headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError, OSError):
            pass  # client went away mid-response; nothing to salvage

    def _send_json(
        self,
        status: int,
        doc: dict[str, Any],
        extra_headers: Optional[dict[str, str]] = None,
    ) -> None:
        self._send(
            status,
            (json.dumps(doc) + "\n").encode("utf-8"),
            extra_headers=extra_headers,
        )

    # -- GET: operator endpoints -------------------------------------------

    def do_GET(self) -> None:
        path = self.path.split("?", 1)[0]
        if path == "/healthz":
            health = self.front.health_doc()
            self._send_json(200 if health["ready"] else 503, health)
        elif path == "/metrics":
            self._send(
                200,
                self.front.metrics_text().encode("utf-8"),
                content_type="text/plain; version=0.0.4; charset=utf-8",
            )
        else:
            self._send_json(404, {"error": f"no such path {path!r}"})

    # -- POST: the job protocol --------------------------------------------

    def do_POST(self) -> None:
        path = self.path.split("?", 1)[0]
        if path != "/v1/analyze":
            self._send_json(404, {"error": f"no such path {path!r}"})
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            self._send_json(400, {"error": "bad Content-Length"})
            return
        cap = self.front.limits.max_source_bytes + _ENVELOPE_SLACK
        if length <= 0:
            self._send_json(400, {"error": "empty request body"})
            return
        if length > cap:
            self._send_json(
                413,
                {"error": f"request body is {length} bytes; the limit is {cap}"},
            )
            return
        try:
            body = self.rfile.read(length).decode("utf-8", errors="replace")
        except OSError:
            return  # client vanished mid-upload
        default_id = f"http-{threading.get_ident()}-{id(self)}"

        done = threading.Event()
        box: dict[str, Any] = {}

        def reply(doc: dict[str, Any]) -> None:
            box["doc"] = doc
            done.set()

        self.front.handle_line(body, default_id, reply)
        # Probes, errors, and sheds reply synchronously from
        # handle_line; only an admitted job waits on the dispatcher.
        # Bound the wait by the worst case the gate allows: full
        # deadline in queue + the drain window, plus margin.
        gate_cfg = self.front.gate.config
        timeout = gate_cfg.max_deadline + gate_cfg.drain_timeout + 10.0
        if not done.wait(timeout):
            self._send_json(
                504, {"error": "no reply from the dispatcher", "id": default_id}
            )
            return
        doc = box["doc"]
        if doc.get("shed"):
            retry_after = max(1, math.ceil(float(doc.get("retry_after", 1.0))))
            self._send_json(
                _shed_status(str(doc.get("reason", ""))),
                doc,
                extra_headers={"Retry-After": str(retry_after)},
            )
        elif "error" in doc:
            self._send_json(400, doc)
        else:
            self._send_json(200, doc)


class HttpFrontEnd:
    """``fast serve --http HOST:PORT``: one :class:`AdmissionGate`, one
    bounded pending queue, one dispatcher thread owning the
    (single-threaded) :class:`AnalysisService`, behind a
    :class:`~http.server.ThreadingHTTPServer`.

    * **Handler threads** (one per connection) run parse + gate inline
      — health/stats probes, parse errors, and shed decisions are
      answered right there, without the dispatcher, which is what keeps
      refusal latency flat under any backlog; admitted tickets go onto
      the pending queue (bounded by the gate, so the queue object
      itself never grows past ``max_queue``).
    * The **dispatcher thread** pulls micro-batches of up to ``jobs``
      tickets, re-checks each ticket's remaining deadline (queue time
      burned the budget; an expired ticket sheds without dispatch), and
      hands each result to its ticket's ``reply`` as the pool finalizes
      it.

    Responses carry the client's ``id`` and the request's ``trace_id``;
    internally every dispatched job gets a unique sequence id so
    clients reusing ids (or two clients picking the same id) cannot
    collide inside a pool batch.

    Drain (:meth:`initiate_drain`, wired to SIGTERM by the CLI): the
    listener closes, the gate sheds new requests with ``reason:
    "draining"`` (open keep-alive connections still get that answer),
    the dispatcher finishes the queue up to ``drain_timeout``, any
    leftovers are shed, the pool closes, and :meth:`wait` returns.
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
        self.config = config or ServiceConfig()
        self.gate = AdmissionGate(
            gate_config or GateConfig(workers=self.config.jobs), clock=clock
        )
        self.limits = limits if limits is not None else RequestLimits()
        self.clock = clock
        self.stats_interval = stats_interval
        self.err = err if err is not None else sys.stderr
        self._svc: Optional[AnalysisService] = None
        self._stats_mark: StatsMark = (self.gate.started, {})
        self._queue: "queue.Queue[Ticket]" = queue.Queue()
        self._draining = threading.Event()
        self._done = threading.Event()
        self._seq = 0
        self._seq_lock = threading.Lock()
        self._listening = False
        handler = type("BoundHandler", (_Handler,), {"front": self})
        # Overload must be answered by the admission gate (429/503 with
        # Retry-After), never by the TCP accept backlog resetting
        # connections — socketserver's default backlog of 5 does exactly
        # that under a concurrent burst.
        server_cls = type(
            "BoundServer",
            (ThreadingHTTPServer,),
            {"daemon_threads": True, "request_queue_size": 128},
        )
        self._server = server_cls((host, port), handler)
        self.host, self.port = self._server.server_address[:2]

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "HttpFrontEnd":
        threading.Thread(
            target=self._dispatch_loop, name="serve-dispatch", daemon=True
        ).start()
        if not self._draining.is_set():  # drained before start: no listener
            threading.Thread(
                target=self._server.serve_forever,
                name="serve-http",
                daemon=True,
                kwargs={"poll_interval": 0.1},
            ).start()
            self._listening = True
        return self

    def initiate_drain(self) -> None:
        """Stop admitting; finish admitted work; then shut down."""
        if self._draining.is_set():
            return
        self.gate.start_drain()
        self._draining.set()
        # shutdown() blocks until serve_forever exits, so it is called
        # only when that runs; in-flight handler threads keep running
        # and are answered (or drain-shed) by the dispatcher before
        # wait() returns.
        try:
            if self._listening:
                self._server.shutdown()
            self._server.server_close()
        except OSError:
            pass

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until drain completes; True when fully shut down."""
        return self._done.wait(timeout)

    def close(self) -> None:
        """Hard stop: drain and wait for the dispatcher to finish."""
        self.initiate_drain()
        self._done.wait(self.gate.config.drain_timeout + 5.0)

    def __enter__(self) -> "HttpFrontEnd":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- operator views ----------------------------------------------------

    @property
    def served(self) -> int:
        """Jobs answered so far (the gate's ledger)."""
        return self.gate.ledger.total().served

    def health_doc(self) -> dict[str, Any]:
        """The ``health`` ledger (gate + worker lifecycle)."""
        return health_doc(self.gate, self._svc, self.config.jobs)

    def metrics_text(self) -> str:
        """The Prometheus text exposition of this front-end's state.

        The ``svc_gate_*``, per-kind and per-tenant families all come
        from the gate's ledger (valid with observability off, and exactly
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

    # -- request handling (handler threads) --------------------------------

    def handle_line(
        self,
        line: str,
        default_id: str,
        reply: Callable[[dict[str, Any]], None],
    ) -> None:
        """Parse one request payload and answer or enqueue it."""
        answer = triage(
            line, default_id, self.limits, self.gate, self._svc,
            self.config.jobs,
        )
        if isinstance(answer, Request):
            answer = admit(answer, self.gate)
        if isinstance(answer, Ticket):
            answer.reply = reply
            self._queue.put(answer)
        else:
            reply(answer)

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
        self._stats_mark = rolling_stats(
            self.gate, self.stats_interval, self.err, self._stats_mark
        )


def serve_http(
    host: str,
    port: int,
    config: Optional[ServiceConfig] = None,
    *,
    gate_config: Optional[GateConfig] = None,
    limits: Optional[RequestLimits] = None,
    stats: bool = False,
    stats_interval: float = 0.0,
    err: Optional[IO[str]] = None,
    ready: Optional[Callable[[HttpFrontEnd], None]] = None,
) -> int:
    """Run an :class:`HttpFrontEnd` until drained; returns jobs served.

    ``ready`` is called with the live front-end once it is listening
    (the CLI uses it to print the bound address and install SIGTERM);
    with ``stats`` the closing ``--stats`` table goes to ``err``.
    """
    front = HttpFrontEnd(
        host, port, config, gate_config, limits,
        stats_interval=stats_interval, err=err,
    )
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
