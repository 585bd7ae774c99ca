"""Tests for the HTTP/1.1 front-end: endpoints, shed statuses, trace
propagation, and ledger/metrics/wire coherence under overload chaos."""

from __future__ import annotations

import http.client
import json
import os
import pathlib
import re
import signal
import statistics
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.guard.chaos import WorkerChaosPolicy
from repro import obs
from repro.obs import export
from repro.svc import (
    GateConfig,
    HttpFrontEnd,
    RequestLimits,
    ServiceConfig,
)
from repro.svc.gate import SHED_REASONS
from repro.svc.job import PROVED, UNKNOWN
from tests.exposition import parse_exposition

PASSING = """\
type BT[v : Int]{L(0), N(2)}
lang pos : BT { N(l, r) where (v > 0) given (pos l) (pos r) | L() }
assert-false (is-empty pos)
"""


def _request(front, method, path, body=None, timeout=60.0):
    """One HTTP request; returns (status, parsed-or-raw body, headers)."""
    conn = http.client.HTTPConnection(front.host, front.port, timeout=timeout)
    try:
        return _exchange(conn, method, path, body)
    finally:
        conn.close()


def _exchange(conn, method, path, body=None):
    """One request on an open connection (kept alive for the next)."""
    payload = json.dumps(body) if isinstance(body, dict) else body
    conn.request(method, path, body=payload)
    resp = conn.getresponse()
    raw = resp.read().decode("utf-8")
    headers = dict(resp.getheaders())
    try:
        doc = json.loads(raw)
    except ValueError:
        doc = raw
    return resp.status, doc, headers


@pytest.fixture()
def front():
    fe = HttpFrontEnd(
        config=ServiceConfig(jobs=1),
        gate_config=GateConfig(
            max_queue=8, max_deadline=30.0, drain_timeout=20.0, workers=1
        ),
    )
    fe.start()
    yield fe
    fe.close()


class TestEndpoints:
    def test_healthz_ready(self, front):
        status, doc, _ = _request(front, "GET", "/healthz")
        assert status == 200
        assert doc["ready"] is True
        assert "counters" in doc

    def test_healthz_503_when_draining(self, front):
        front.initiate_drain()
        assert front.wait(30.0)
        assert front.health_doc()["ready"] is False
        # Transport is down post-drain; the doc itself is the contract.

    def test_metrics_parses_and_has_gate_families(self, front):
        _request(
            front, "POST", "/v1/analyze",
            {"id": "warm", "kind": "run", "source": PASSING},
        )
        status, text, headers = _request(front, "GET", "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        fams = parse_exposition(text)
        assert fams["svc_gate_served_total"][()] == 1.0
        assert fams["svc_gate_ready"][()] == 1.0
        assert fams["svc_kind_served_total"][(("kind", "run"),)] == 1.0
        assert fams["svc_job_duration_seconds_count"][
            (("kind", "run"),)
        ] == 1.0

    def test_analyze_echoes_client_trace_id(self, front):
        status, doc, _ = _request(
            front, "POST", "/v1/analyze",
            {"id": "r1", "kind": "run", "source": PASSING,
             "trace_id": "client-trace-7"},
        )
        assert status == 200
        assert doc["outcome"] == PROVED
        assert doc["trace_id"] == "client-trace-7"
        assert doc["id"] == "r1"

    def test_analyze_mints_trace_id_when_absent(self, front):
        status, doc, _ = _request(
            front, "POST", "/v1/analyze",
            {"id": "r2", "kind": "run", "source": PASSING},
        )
        assert status == 200
        assert doc["trace_id"]  # server-minted, non-empty

    def test_bad_kind_is_400_with_trace_id(self, front):
        status, doc, _ = _request(
            front, "POST", "/v1/analyze",
            {"id": "bad", "kind": "nope", "source": "x",
             "trace_id": "t-bad"},
        )
        assert status == 400
        assert "error" in doc
        assert doc["trace_id"] == "t-bad"

    def test_malformed_trace_id_is_400(self, front):
        status, doc, _ = _request(
            front, "POST", "/v1/analyze",
            {"id": "bad", "kind": "run", "source": PASSING,
             "trace_id": "has space"},
        )
        assert status == 400
        assert "trace_id" in doc["error"]

    def test_malformed_tenant_is_400(self, front):
        status, doc, _ = _request(
            front, "POST", "/v1/analyze",
            {"id": "bad", "kind": "run", "source": PASSING,
             "tenant": "a\n[svc] forged"},
        )
        assert status == 400
        assert "tenant" in doc["error"]
        assert front.health_doc()["counters"]["admitted"] == 0

    def test_bad_json_body_is_400(self, front):
        status, doc, _ = _request(front, "POST", "/v1/analyze", "{nope")
        assert status == 400
        assert "error" in doc

    def test_empty_body_is_400(self, front):
        status, doc, _ = _request(front, "POST", "/v1/analyze", "")
        assert status == 400

    def test_unknown_paths_are_404(self, front):
        status, _, _ = _request(front, "GET", "/v2/analyze")
        assert status == 404
        status, _, _ = _request(front, "POST", "/metrics")
        assert status == 404

    def test_oversized_body_is_413(self):
        fe = HttpFrontEnd(
            config=ServiceConfig(jobs=1),
            gate_config=GateConfig(workers=1),
            limits=RequestLimits(max_source_bytes=64),
        )
        fe.start()
        try:
            big = "x" * (64 * 1024 + 4096)
            status, doc, _ = _request(
                fe, "POST", "/v1/analyze",
                {"id": "big", "kind": "run", "source": big},
            )
            assert status == 413
        finally:
            fe.close()

    def test_stats_kind_returns_ledger_snapshot(self, front):
        _request(
            front, "POST", "/v1/analyze",
            {"id": "w", "kind": "run", "source": PASSING},
        )
        status, doc, _ = _request(
            front, "POST", "/v1/analyze", {"id": "s", "kind": "stats"}
        )
        assert status == 200
        assert doc["served_total"] == 1
        assert doc["stats"]["all"]["served"] == 1
        assert doc["stats"]["kind"]["run"]["latency"]["count"] == 1

    def test_quota_shed_is_429_with_retry_after(self):
        fe = HttpFrontEnd(
            config=ServiceConfig(jobs=1),
            gate_config=GateConfig(
                workers=1, tenant_rate=0.001, tenant_burst=1,
                max_queue=8, drain_timeout=20.0,
            ),
        )
        fe.start()
        try:
            status, _, _ = _request(
                fe, "POST", "/v1/analyze",
                {"id": "a", "kind": "run", "source": PASSING},
            )
            assert status == 200
            status, doc, headers = _request(
                fe, "POST", "/v1/analyze",
                {"id": "b", "kind": "run", "source": PASSING,
                 "trace_id": "quota-trace"},
            )
            assert status == 429
            assert doc["shed"] is True
            assert doc["reason"] == "quota"
            assert doc["trace_id"] == "quota-trace"
            assert int(headers["Retry-After"]) >= 1
        finally:
            fe.close()


class TestKeepAlive:
    """Several requests on one connection, the way a client pool or a
    load balancer talks to the server."""

    def test_health_error_job_then_draining_shed(self):
        front = HttpFrontEnd(
            config=ServiceConfig(jobs=1),
            gate_config=GateConfig(workers=1, drain_timeout=10.0),
        )
        with front:
            conn = http.client.HTTPConnection(
                front.host, front.port, timeout=30
            )
            try:
                status, health, _ = _exchange(
                    conn, "POST", "/v1/analyze", {"id": "h", "kind": "health"}
                )
                assert status == 200
                assert health["id"] == "h" and health["ready"] is True
                status, result, _ = _exchange(
                    conn, "POST", "/v1/analyze",
                    {"id": "job", "kind": "run", "source": PASSING},
                )
                assert status == 200
                assert result["id"] == "job"
                assert result["outcome"] == PROVED
                status, bad, _ = _exchange(
                    conn, "POST", "/v1/analyze", {"id": "bad", "kind": "run"}
                )
                assert status == 400
                assert bad["id"] == "bad"
                assert "'source' or 'file'" in bad["error"]
                front.initiate_drain()
                # The listener is closed; the open connection still gets
                # an answer, and it is the draining shed.
                status, shed, headers = _exchange(
                    conn, "POST", "/v1/analyze",
                    {"id": "late", "kind": "run", "source": PASSING},
                )
                assert status == 503
                assert shed["shed"] is True
                assert shed["reason"] == "draining"
                assert int(headers["Retry-After"]) >= 1
            finally:
                conn.close()
            assert front.wait(20.0)

    def test_file_requests_disabled_without_root(self, front, tmp_path):
        (tmp_path / "p.fast").write_text(PASSING)
        status, reply, _ = _request(
            front, "POST", "/v1/analyze", {"id": "f", "file": "p.fast"}
        )
        assert status == 400
        assert reply["id"] == "f"
        assert "disabled" in reply["error"]

    def test_keep_alive_responses_do_not_stall(self, front):
        # A response is a header write and a body write; with Nagle's
        # algorithm on, every keep-alive response after the first waits
        # ~40 ms for the client's delayed ACK.
        conn = http.client.HTTPConnection(front.host, front.port, timeout=30)
        try:
            elapsed = []
            for _ in range(20):
                t0 = time.perf_counter()
                status, _, _ = _exchange(conn, "GET", "/healthz")
                elapsed.append(time.perf_counter() - t0)
                assert status == 200
        finally:
            conn.close()
        assert statistics.median(elapsed) < 0.020, elapsed


def _small_fd_limit():
    import resource

    _soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    resource.setrlimit(resource.RLIMIT_NOFILE, (min(128, hard), hard))


@pytest.mark.skipif(
    sys.platform != "linux", reason="RLIMIT_NOFILE and /proc fd count"
)
def test_connections_are_closed_under_a_small_fd_limit():
    """Finished connections give their fds back: a ``fast serve
    --http`` process limited to 128 fds answers 300 one-request
    connections made one after another."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p
        for p in (
            str(pathlib.Path(repro.__file__).resolve().parents[1]),
            env.get("PYTHONPATH"),
        )
        if p
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.fast.cli", "serve",
         "--http", "127.0.0.1:0", "--jobs", "1"],
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        preexec_fn=_small_fd_limit,
    )
    try:
        banner = proc.stderr.readline()
        match = re.search(r"http listening on [\d.]+:(\d+)", banner)
        assert match, f"no listen banner: {banner!r}"
        port = int(match.group(1))
        for i in range(300):
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            try:
                if i % 10 == 0:
                    status, doc, _ = _exchange(
                        conn, "POST", "/v1/analyze",
                        {"id": f"r{i}", "kind": "run", "source": PASSING},
                    )
                    assert doc["outcome"] == PROVED, doc
                else:
                    status, doc, _ = _exchange(conn, "GET", "/healthz")
                    assert doc["ready"] is True
                assert status == 200, (i, status, doc)
            finally:
                conn.close()
        # Handler threads close their sockets once the client leaves.
        deadline = time.monotonic() + 10.0
        while True:
            open_fds = len(os.listdir(f"/proc/{proc.pid}/fd"))
            if open_fds < 32 or time.monotonic() > deadline:
                break
            time.sleep(0.1)
        assert open_fds < 32, open_fds
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stderr.close()


class TestOverloadCoherence:
    """Satellite: after a seeded overload-chaos run, the health ledger,
    the /metrics exposition, and the wire-level served+shed partition
    agree exactly (extends the exactly-one-response property)."""

    SEED = 7

    def _blast(self, front, n_threads, per_thread):
        results = []
        lock = threading.Lock()

        def worker(t):
            for i in range(per_thread):
                status, doc, headers = _request(
                    front, "POST", "/v1/analyze",
                    {"id": f"t{t}-r{i}", "kind": "run", "source": PASSING,
                     "trace_id": f"trace-t{t}-r{i}"},
                    timeout=120.0,
                )
                with lock:
                    results.append((status, doc, headers))

        threads = [
            threading.Thread(target=worker, args=(t,))
            for t in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=180)
            assert not t.is_alive(), "client wedged: request unanswered"
        return results

    def test_ledger_metrics_wire_agree(self):
        front = HttpFrontEnd(
            config=ServiceConfig(
                jobs=2,
                retries=2,
                worker_chaos=WorkerChaosPolicy(
                    seed=self.SEED, kill_rate=0.15
                ),
            ),
            gate_config=GateConfig(
                max_queue=2, max_deadline=30.0, drain_timeout=30.0,
                workers=2,
            ),
        )
        front.start()
        try:
            results = self._blast(front, n_threads=6, per_thread=4)

            served = shed = 0
            for status, doc, headers in results:
                if doc.get("shed"):
                    shed += 1
                    assert status in (429, 503)
                    assert doc["reason"] in SHED_REASONS
                    assert float(doc["retry_after"]) >= 0
                    assert int(headers["Retry-After"]) >= 1
                else:
                    served += 1
                    assert status == 200
                    assert doc["outcome"] in (PROVED, UNKNOWN), doc
                # Exactly-one-response, and every response is traceable.
                assert doc["trace_id"].startswith("trace-t")
            assert served + shed == 6 * 4

            # Wire == health ledger.
            health = front.health_doc()
            counters = health["counters"]
            assert counters["shed_total"] == shed
            assert counters["admitted"] == (
                served + counters["shed"]["deadline"]
            )
            assert counters["served"] == served

            # Wire == /metrics (scraped over HTTP, parsed strictly).
            status, text, _ = _request(front, "GET", "/metrics")
            assert status == 200
            fams = parse_exposition(text)
            assert fams["svc_gate_served_total"][()] == float(served)
            assert sum(fams["svc_gate_shed_total"].values()) == float(shed)
            assert fams["svc_gate_admitted_total"][()] == float(
                counters["admitted"]
            )
            # The ledger's kind rows saw the same stream (run kind only).
            assert fams["svc_kind_served_total"][
                (("kind", "run"),)
            ] == float(served)
            assert fams["svc_kind_shed_total"][
                (("kind", "run"),)
            ] == float(shed)
        finally:
            front.close()


def _walk(spans):
    for sp in spans:
        yield sp
        yield from _walk(sp.children)


def _is_instant(sp):
    return sp.duration == 0.0 and not sp.children


class TestGoldenTraceChain:
    """Acceptance: a client trace_id comes back in the response, and the
    exported trace holds one contiguous span chain (admission →
    dispatch → worker job → merge) all stamped with it."""

    TRACE_ID = "golden-req-1"

    @pytest.fixture(autouse=True)
    def observed(self):
        obs.reset()
        with obs.observed():
            yield
        obs.reset()

    def test_trace_chain_is_contiguous_and_stamped(self):
        front = HttpFrontEnd(
            config=ServiceConfig(jobs=1),
            gate_config=GateConfig(
                workers=1, max_queue=8, drain_timeout=20.0
            ),
        )
        front.start()
        try:
            status, doc, _ = _request(
                front, "POST", "/v1/analyze",
                {"id": "g1", "kind": "run", "source": PASSING,
                 "trace_id": self.TRACE_ID},
            )
            assert status == 200
            assert doc["trace_id"] == self.TRACE_ID
            assert doc["outcome"] == PROVED
        finally:
            front.close()

        spans = export.spans_for_trace(self.TRACE_ID)
        assert spans, "no spans carried the trace id"

        # Every span of the request's subtrees really carries the id.
        for sp in _walk(spans):
            assert sp.attrs.get("trace_id") == self.TRACE_ID

        # The chain: admission and dispatch spans on the front-end
        # threads, the worker-side svc.job span (grafted worker track),
        # and the supervisor's zero-length svc.job finalize span (the
        # merge point).
        begins = [(sp.start, (sp.pid, sp.tid), sp.name)
                  for sp in _walk(spans) if not _is_instant(sp)]
        admission = [b for b in begins if b[2] == "svc.admission"]
        dispatch = [b for b in begins if b[2] == "svc.dispatch"]
        jobs = [b for b in begins if b[2] == "svc.job"]
        assert len(admission) == 1 and len(dispatch) == 1
        assert len(jobs) >= 2  # worker-side span + supervisor finalize
        host_track = dispatch[0][1]
        finalize = [b for b in jobs if b[1] == host_track]
        worker_jobs = [b for b in jobs if b[1] != host_track]
        assert finalize and worker_jobs
        # Host-clock spans order strictly: admission -> dispatch ->
        # finalize (the merge point).
        assert admission[0][0] <= dispatch[0][0] <= finalize[0][0]
        # The worker's perf_counter is the host's clock, so its span
        # starts between admission and finalize.
        assert admission[0][0] <= worker_jobs[0][0] <= finalize[0][0]

        # Admission-time instants ride the same id.
        instants = {sp.name for sp in _walk(spans) if _is_instant(sp)}
        assert "svc.gate.admit" in instants
        assert "svc.worker.dispatch" in instants

        # Every B has its E: the per-request export is balanced and
        # renders to a loadable Perfetto document on its own.
        doc = export.chrome_trace(spans)
        per_track_depth: dict[tuple, int] = {}
        for e in doc["traceEvents"]:
            track = (e["pid"], e.get("tid"))
            if e["ph"] in ("B", "i"):
                assert e["args"]["trace_id"] == self.TRACE_ID
            if e["ph"] == "B":
                per_track_depth[track] = per_track_depth.get(track, 0) + 1
            elif e["ph"] == "E":
                per_track_depth[track] -= 1
                assert per_track_depth[track] >= 0
        assert all(d == 0 for d in per_track_depth.values())
        json.dumps(doc)

    def test_shed_decision_is_traceable(self):
        """A quota shed leaves a traced instant with the trace id."""
        front = HttpFrontEnd(
            config=ServiceConfig(jobs=1),
            gate_config=GateConfig(
                workers=1, tenant_rate=0.001, tenant_burst=1,
                drain_timeout=10.0,
            ),
        )
        front.start()
        try:
            _request(
                front, "POST", "/v1/analyze",
                {"id": "a", "kind": "run", "source": PASSING},
            )
            status, doc, _ = _request(
                front, "POST", "/v1/analyze",
                {"id": "b", "kind": "run", "source": PASSING,
                 "trace_id": "shed-trace"},
            )
            assert status == 429
            assert doc["trace_id"] == "shed-trace"
        finally:
            front.close()
        sheds = [
            sp for sp in _walk(export.spans_for_trace("shed-trace"))
            if _is_instant(sp) and sp.name == "svc.gate.shed"
        ]
        assert sheds
        assert sheds[0].attrs["reason"] == "quota"
