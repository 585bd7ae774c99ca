"""Overload smoke for the network front-end, through the real CLI.

``fast serve --http`` with a deliberately tiny queue takes a burst of
concurrent requests.  It must answer every one of them (served and
shed partition the offered set exactly), report ``/metrics`` and
``/healthz`` counters that agree with the wire (the exposition is
parsed strictly), and drain gracefully to exit 0 on SIGTERM.

Marked ``slow``: it runs only under ``pytest --run-slow``.  The CI
serve-load-smoke job runs it.
"""

import http.client
import json
import os
import pathlib
import re
import signal
import subprocess
import sys
import threading
import time

import pytest

import repro
from tests.exposition import parse_exposition

PROGRAM = (
    "type BT[v : Int]{L(0), N(2)}\n"
    "lang pos : BT { N(l, r) where (v > 0) "
    "given (pos l) (pos r) | L() }\n"
    "assert-false (is-empty pos)\n"
)

SHED_REASONS = ("queue-full", "quota", "deadline", "draining")


def _start_server(max_queue, **env_overrides):
    """Start ``fast serve --http`` on an ephemeral port; return
    (proc, host, port)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p
        for p in (
            str(pathlib.Path(repro.__file__).resolve().parents[1]),
            env.get("PYTHONPATH"),
        )
        if p
    )
    env.update(env_overrides)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.fast.cli", "serve",
         "--http", "127.0.0.1:0",
         "--jobs", "2", "--max-queue", str(max_queue),
         "--max-deadline", "30", "--drain-timeout", "30"],
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    banner = proc.stderr.readline()
    m = re.search(r"http listening on ([\d.]+):(\d+)", banner)
    if not m:
        proc.kill()
        proc.wait()
        pytest.fail(f"no listen banner: {banner!r}")
    return proc, m.group(1), int(m.group(2))


def _run_clients(client, n_clients):
    errors = []

    def guarded(c):
        try:
            client(c)
        except BaseException as exc:
            errors.append(exc)

    threads = [
        threading.Thread(target=guarded, args=(c,)) for c in range(n_clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=300)
    assert not errors, errors
    assert not any(t.is_alive() for t in threads), "client wedged"


def _drain(proc):
    """SIGTERM drains gracefully: exit 0, drained banner."""
    proc.send_signal(signal.SIGTERM)
    code = proc.wait(timeout=120)
    tail = proc.stderr.read()
    assert code == 0, f"drain exited {code}"
    assert "drained" in tail, tail


@pytest.mark.slow
def test_http_front_end_sheds_exactly_and_drains():
    # Cache off: HTTP clients are request/reply (no pipelining), so
    # overload needs honest multi-ms jobs plus enough concurrent
    # clients to outrun queue + workers.
    proc, host, port = _start_server(4, REPRO_CACHE="off")
    try:
        n_clients, per_client = 24, 8
        results = []
        lock = threading.Lock()

        def client(c):
            for i in range(per_client):
                trace_id = f"ci-c{c}-r{i}"
                conn = http.client.HTTPConnection(host, port, timeout=120)
                conn.request("POST", "/v1/analyze", body=json.dumps(
                    {"id": f"c{c}-r{i}", "kind": "run",
                     "source": PROGRAM, "trace_id": trace_id}))
                resp = conn.getresponse()
                doc = json.loads(resp.read())
                conn.close()
                with lock:
                    results.append((resp.status, trace_id, doc))

        _run_clients(client, n_clients)

        offered = n_clients * per_client
        served = sum(1 for s, _t, _d in results if s == 200)
        shed = sum(1 for s, _t, _d in results if s in (429, 503))
        assert len(results) == offered, (len(results), offered)
        assert served + shed == offered, (served, shed, offered)
        assert served >= 8, f"gate starved the pool: {served}"
        assert shed > 0, "tiny queue at 2x+ overload must shed"
        for status, trace_id, doc in results:
            # Every response body is traceable to its request.
            assert doc.get("trace_id") == trace_id, (status, doc)
            if status == 200:
                assert doc["outcome"] == "PROVED", doc
            else:
                assert doc["shed"] is True and doc["retry_after"] >= 0, doc
                assert (status == 429) == (doc["reason"] == "quota"), doc

        # /metrics agrees with the wire (strict exposition parse).
        time.sleep(1.0)
        conn = http.client.HTTPConnection(host, port, timeout=60)
        conn.request("GET", "/metrics")
        resp = conn.getresponse()
        assert resp.status == 200, resp.status
        ctype = resp.getheader("Content-Type", "")
        assert ctype.startswith("text/plain"), ctype
        fams = parse_exposition(resp.read().decode())
        conn.close()
        assert fams["svc_gate_served_total"][()] == float(served)
        assert sum(fams["svc_gate_shed_total"].values()) == float(shed)
        assert fams["svc_kind_served_total"][
            (("kind", "run"),)] == float(served)
        assert fams["svc_kind_shed_total"][
            (("kind", "run"),)] == float(shed)

        # /healthz is live, then SIGTERM drains to exit 0.
        conn = http.client.HTTPConnection(host, port, timeout=60)
        conn.request("GET", "/healthz")
        resp = conn.getresponse()
        health = json.loads(resp.read())
        conn.close()
        assert resp.status == 200 and health["ready"] is True
        assert health["counters"]["served"] == served, health["counters"]

        _drain(proc)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
