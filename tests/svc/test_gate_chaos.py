"""Overload chaos: the gate's safety invariants under hostile traffic.

The serving contract under any seeded overload schedule — burst floods,
slow-client stalls, concurrent clients, even workers being SIGKILLed
underneath — is:

1. **every** request gets **exactly one** response (no silence, no
   duplicates);
2. every response is either a served result or a well-formed shed line
   (``shed: true`` with a known reason and a non-negative
   ``retry_after``);
3. verdicts are never corrupted: a served response for the known-PROVED
   program is PROVED, or UNKNOWN when chaos exhausted its retries —
   never REFUTED, never garbage.  Overload may *delay* or *shed*,
   never *lie*.

Traffic shape comes from :class:`OverloadChaosPolicy`, a pure function
of ``(seed, index)``, so each parametrized seed replays the same
bursts and stalls on every run.  Each client holds one keep-alive
connection to an :class:`~repro.svc.http.HttpFrontEnd`; a burst sends
``burst_size`` extra POSTs at once on fresh connections, and a stall
pauses between a POST's headers and its body.
"""

from __future__ import annotations

import http.client
import json
import threading
import time

import pytest

from repro.guard.chaos import OverloadChaosPolicy, WorkerChaosPolicy
from repro.svc import GateConfig, HttpFrontEnd, ServiceConfig
from repro.svc.gate import SHED_REASONS
from repro.svc.job import PROVED, UNKNOWN

PASSING = """\
type BT[v : Int]{L(0), N(2)}
lang pos : BT { N(l, r) where (v > 0) given (pos l) (pos r) | L() }
assert-false (is-empty pos)
"""


class TestOverloadPolicy:
    def test_decide_is_deterministic_and_order_free(self):
        p = OverloadChaosPolicy(seed=5, burst_rate=0.3, stall_rate=0.2)
        forward = [p.decide(i) for i in range(50)]
        backward = [p.decide(i) for i in reversed(range(50))]
        assert forward == list(reversed(backward))
        # The same seed on a fresh policy replays identically.
        q = OverloadChaosPolicy(seed=5, burst_rate=0.3, stall_rate=0.2)
        assert [q.decide(i) for i in range(50)] == forward

    def test_seeds_differ(self):
        a = OverloadChaosPolicy(seed=1, burst_rate=0.3, stall_rate=0.2)
        b = OverloadChaosPolicy(seed=2, burst_rate=0.3, stall_rate=0.2)
        assert [a.decide(i) for i in range(64)] != [
            b.decide(i) for i in range(64)
        ]

    def test_inert_policy_never_fires(self):
        p = OverloadChaosPolicy(seed=1)
        assert all(p.decide(i) is None for i in range(100))


class _Client:
    """One overload client on a keep-alive connection: sends per the
    schedule, collects replies."""

    def __init__(self, host, port, requests, policy):
        self.addr = (host, port)
        self.requests = requests  # [(index, request_id)]
        self.policy = policy
        self.replies: dict[str, tuple[int, dict]] = {}
        self.errors: list[BaseException] = []
        self._lock = threading.Lock()

    def run(self):
        try:
            conn = http.client.HTTPConnection(*self.addr, timeout=60)
            try:
                for index, request_id in self.requests:
                    action = self.policy.decide(index)
                    if action == "burst":
                        self._burst(conn, request_id)
                    else:
                        self._post(conn, request_id, stall=action == "stall")
            finally:
                conn.close()
        except BaseException as exc:  # surfaced by the test thread-safely
            self.errors.append(exc)

    def _post(self, conn, request_id, stall=False):
        body = json.dumps(
            {"id": request_id, "kind": "run", "source": PASSING}
        ).encode("utf-8")
        conn.putrequest("POST", "/v1/analyze")
        conn.putheader("Content-Type", "application/json")
        conn.putheader("Content-Length", str(len(body)))
        conn.endheaders()
        if stall:
            # A slow client: the headers, a pause, then the body.
            time.sleep(self.policy.stall_seconds)
        conn.send(body)
        resp = conn.getresponse()
        doc = json.loads(resp.read())
        with self._lock:
            assert doc["id"] not in self.replies, f"duplicate reply {doc}"
            self.replies[doc["id"]] = (resp.status, doc)

    def _burst(self, conn, request_id):
        """A flood: the request plus burst_size extras, all at once,
        the extras each on a fresh connection."""
        errors = []

        def extra(j):
            fresh = http.client.HTTPConnection(*self.addr, timeout=60)
            try:
                self._post(fresh, f"{request_id}-b{j}")
            except BaseException as exc:
                errors.append(exc)
            finally:
                fresh.close()

        threads = [
            threading.Thread(target=extra, args=(j,))
            for j in range(self.policy.burst_size)
        ]
        for t in threads:
            t.start()
        self._post(conn, request_id)
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive(), "burst request unanswered"
        if errors:
            raise errors[0]


@pytest.mark.parametrize("seed", [3, 11])
def test_overload_chaos_partition_and_verdict_safety(seed):
    policy = OverloadChaosPolicy(
        seed=seed,
        burst_rate=0.3,
        burst_size=4,
        stall_rate=0.2,
        stall_seconds=0.01,
    )
    front = HttpFrontEnd(
        config=ServiceConfig(
            jobs=2,
            retries=2,
            worker_chaos=WorkerChaosPolicy(seed=seed, kill_rate=0.15),
        ),
        gate_config=GateConfig(
            max_queue=4, max_deadline=30.0, drain_timeout=20.0, workers=2
        ),
    )
    clients = []
    with front:
        base_per_client, n_clients = 6, 3
        for c in range(n_clients):
            requests = [
                (c * base_per_client + i, f"c{c}-r{i}")
                for i in range(base_per_client)
            ]
            clients.append(_Client(front.host, front.port, requests, policy))
        threads = [
            threading.Thread(target=client.run) for client in clients
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive(), "client wedged: some request unanswered"
        front.initiate_drain()
        assert front.wait(30.0), "drain did not complete"
        health = front.gate.health()

    for client in clients:
        assert not client.errors, client.errors

    served = shed = 0
    for client in clients:
        for rid, (status, doc) in client.replies.items():
            if doc.get("shed"):
                # Invariant 2: sheds are well-formed and honest.
                shed += 1
                assert status in (429, 503), (status, doc)
                assert doc["reason"] in SHED_REASONS
                assert doc["retry_after"] >= 0
                assert "outcome" not in doc
            else:
                # Invariant 3: served verdicts are never corrupted.
                served += 1
                assert status == 200, (status, doc)
                assert doc["outcome"] in (PROVED, UNKNOWN), doc
                assert "error" not in doc

    # Invariant 1: exactly one reply per request — the served/shed
    # split partitions the full (burst-expanded) request set.
    total = n_clients * base_per_client
    # Burst schedules are per client index-range, so expand per client.
    expected = sum(
        1 + (policy.burst_size if policy.decide(index) == "burst" else 0)
        for client in clients
        for index, _ in client.requests
    )
    assert served + shed == expected
    assert total <= expected

    # The gate's own ledger agrees with what went over the wire: every
    # admitted request was served or deadline-shed (with a reply either
    # way), and the shed counters cover exactly the wire-level sheds.
    counters = health["counters"]
    assert counters["admitted"] == served + counters["shed"]["deadline"]
    assert counters["shed_total"] == shed
