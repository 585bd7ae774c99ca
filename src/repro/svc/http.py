"""``fast serve --http``: an HTTP/1.1 binding of the serving protocol.

Pure stdlib (:mod:`http.server`) — the point is a browser-, curl- and
Prometheus-reachable surface over the *same* serving core the JSONL
front-ends use, not a web framework.  :class:`HttpFrontEnd` subclasses
:class:`~repro.svc.serve.FrontEndBase`, so admission control, tenant
quotas, deadline propagation, trace-id handling, live windows, and
graceful drain are shared code, not a re-implementation:

* ``POST /v1/analyze`` — the body is one JSONL request object (same
  schema as ``fast serve --listen``: ``kind``, ``source``/``file``,
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
  server-minted), exactly like the JSONL wire.

* ``GET /metrics`` — Prometheus text exposition
  (:func:`repro.obs.live.render_prometheus`): gate ledger counters,
  rolling-window gauges and latency quantiles, worker
  lifecycle gauges (``svc_worker_rss_bytes`` / ``svc_worker_generation``
  per worker, ``svc_recycles_total`` by reason), and the obs registry
  when recording is on.

* ``GET /healthz`` — the ``health`` ledger as JSON (including the
  worker ``lifecycle`` snapshot); status 200 while ready, 503 once
  draining (so orchestrator readiness probes fail over before the
  drain deadline).
"""

from __future__ import annotations

import json
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import IO, Any, Callable, Optional

from .gate import GateConfig, SHED_QUOTA
from .serve import FrontEndBase, RequestLimits, run_until_drained
from .service import ServiceConfig

#: Slack added on top of ``max_source_bytes`` for the JSON envelope
#: around the source (ids, args, budget, tenant, trace_id).
_ENVELOPE_SLACK = 64 * 1024


def _shed_status(reason: str) -> int:
    """Shed reason -> HTTP status: quota is the client's pace (429);
    queue-full / deadline / draining are the server's state (503)."""
    return 429 if reason == SHED_QUOTA else 503


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
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


class HttpFrontEnd(FrontEndBase):
    """``fast serve --http HOST:PORT``: the HTTP/1.1 transport.

    The serving core (gate, dispatcher, drain) is
    :class:`~repro.svc.serve.FrontEndBase`; this class adds a
    :class:`~http.server.ThreadingHTTPServer` whose handler threads
    play the caller-thread role the socket front-end gives connection
    readers.
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

    def start(self) -> "HttpFrontEnd":
        super().start()
        t = threading.Thread(
            target=self._server.serve_forever,
            name="serve-http",
            daemon=True,
            kwargs={"poll_interval": 0.1},
        )
        t.start()
        self._threads.append(t)
        return self

    def _shutdown_transport(self) -> None:
        # shutdown() blocks until serve_forever exits; in-flight handler
        # threads keep running and will be answered (or drain-shed) by
        # the dispatcher before wait() returns.
        try:
            self._server.shutdown()
            self._server.server_close()
        except OSError:
            pass


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
    ready: Optional[Callable[["HttpFrontEnd"], None]] = None,
) -> int:
    """Run an :class:`HttpFrontEnd` until drained; returns jobs served."""
    front = HttpFrontEnd(
        host, port, config, gate_config, limits,
        stats_interval=stats_interval, err=err,
    )
    return run_until_drained(front, stats=stats, ready=ready)
