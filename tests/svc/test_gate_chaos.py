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
bursts and stalls on every run.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.guard.chaos import (
    OverloadChaosPolicy,
    WorkerChaosPolicy,
    overload_policy_from_spec,
    policy_from_spec,
)
from repro.svc import GateConfig, ServiceConfig
from repro.svc.gate import SHED_REASONS
from repro.svc.job import PROVED, UNKNOWN
from repro.svc.serve import SocketFrontEnd

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
        assert forward == [a for _, a in p.schedule(50)]
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
        assert not p.active
        assert all(action is None for _, action in p.schedule(100))
        assert p.total_requests(100) == 100

    def test_total_requests_counts_bursts(self):
        p = OverloadChaosPolicy(seed=3, burst_rate=1.0, burst_size=4)
        assert p.total_requests(5) == 5 + 5 * 4

    def test_spec_round_trip(self):
        p = overload_policy_from_spec(
            "seed=9,overload_burst_rate=0.25,overload_burst_size=3,"
            "overload_stall_rate=0.1,overload_stall_seconds=0.02"
        )
        assert p == OverloadChaosPolicy(
            seed=9,
            burst_rate=0.25,
            burst_size=3,
            stall_rate=0.1,
            stall_seconds=0.02,
        )

    def test_spec_without_overload_keys_is_none(self):
        assert overload_policy_from_spec("seed=9,flush_rate=0.02") is None
        assert overload_policy_from_spec("") is None

    def test_solver_parser_ignores_overload_keys(self):
        # One REPRO_CHAOS string can carry all three fault families.
        policy = policy_from_spec(
            "seed=9,flush_rate=0.02,worker_kill_rate=0.1,"
            "overload_burst_rate=0.25"
        )
        assert policy.flush_rate == 0.02


class _Client:
    """One overload client: sends per the schedule, collects replies."""

    def __init__(self, host, port, requests, policy):
        self.addr = (host, port)
        self.requests = requests  # [(index, request_id)]
        self.policy = policy
        self.replies: dict[str, dict] = {}
        self.errors: list[BaseException] = []

    def run(self):
        try:
            with socket.create_connection(self.addr, timeout=60) as conn:
                wire = conn.makefile("rw", encoding="utf-8", newline="\n")
                expected = 0
                for index, request_id in self.requests:
                    action = self.policy.decide(index)
                    expected += self._send(wire, request_id, action)
                for _ in range(expected):
                    line = wire.readline()
                    assert line, "connection closed before all replies"
                    doc = json.loads(line)
                    rid = doc["id"]
                    assert rid not in self.replies, f"duplicate reply {rid}"
                    self.replies[rid] = doc
        except BaseException as exc:  # surfaced by the test thread-safely
            self.errors.append(exc)

    def _send(self, wire, request_id, action) -> int:
        """Send one scheduled request; returns how many replies are due."""
        line = (
            json.dumps(
                {"id": request_id, "kind": "run", "source": PASSING}
            )
            + "\n"
        )
        if action == "stall":
            # A slow client: half the bytes, a pause, then the rest.
            mid = len(line) // 2
            wire.write(line[:mid])
            wire.flush()
            time.sleep(self.policy.stall_seconds)
            wire.write(line[mid:])
            wire.flush()
            return 1
        if action == "burst":
            # A flood: the request plus burst_size extras, back to back.
            burst = [line]
            for j in range(self.policy.burst_size):
                burst.append(
                    json.dumps(
                        {
                            "id": f"{request_id}-b{j}",
                            "kind": "run",
                            "source": PASSING,
                        }
                    )
                    + "\n"
                )
            wire.write("".join(burst))
            wire.flush()
            return len(burst)
        wire.write(line)
        wire.flush()
        return 1


@pytest.mark.parametrize("seed", [3, 11])
def test_overload_chaos_partition_and_verdict_safety(seed):
    policy = OverloadChaosPolicy(
        seed=seed,
        burst_rate=0.3,
        burst_size=4,
        stall_rate=0.2,
        stall_seconds=0.01,
    )
    front = SocketFrontEnd(
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
        for rid, doc in client.replies.items():
            if doc.get("shed"):
                # Invariant 2: sheds are well-formed and honest.
                shed += 1
                assert doc["reason"] in SHED_REASONS
                assert doc["retry_after"] >= 0
                assert "outcome" not in doc
            else:
                # Invariant 3: served verdicts are never corrupted.
                served += 1
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
