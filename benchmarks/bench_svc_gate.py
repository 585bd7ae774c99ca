"""Admission-gate load benchmark: overload behaviour, by the numbers.

The gate's pitch (:mod:`repro.svc.gate`) is that overload turns into
*fast, explicit* shedding instead of unbounded queueing.  This
benchmark makes that claim measurable: ~200 requests are blasted at the
HTTP front-end with a deliberately tiny pool (2 workers) and queue
(8 slots) — far past 2x the service capacity — and every request's
client-side latency is recorded.  Each client sends its requests one
after another over one keep-alive connection; HTTP/1.1 does not
pipeline, so overload comes from the number of clients, which must
exceed queue plus workers.  Reported per run:

* **offered / served / shed** — the partition (must be exact: every
  request gets exactly one response; ``svc.gate.unanswered`` counts
  the holes and is diff-gated at **zero** in CI);
* **served jobs/sec** — goodput under overload;
* **shed p50/p95** — how fast a refusal arrives.  The whole point of
  admission control on the handler thread is that a shed answer does
  not wait behind the backlog: the gate requires p95 **< 10 ms**;
* **served p50/p99** — latency of accepted work; p99 must stay under
  the deadline ceiling plus execution slop, because admitted jobs
  carry their *remaining* deadline into the pool.

Environment knobs: ``GATE_REQUESTS`` (default 200), ``GATE_CLIENTS``
(default 40), ``GATE_MAX_QUEUE`` (default 8), ``GATE_SHED_P95_MS``
(default 10).

Run directly for a quick report::

    PYTHONPATH=src python benchmarks/bench_svc_gate.py
"""

from __future__ import annotations

import http.client
import json
import os
import sys
import threading
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.obs import metrics as obs_metrics  # noqa: E402
from repro.svc import (  # noqa: E402
    GateConfig,
    HttpFrontEnd,
    ServiceConfig,
)

N_REQUESTS = int(os.environ.get("GATE_REQUESTS", 200))
N_CLIENTS = int(os.environ.get("GATE_CLIENTS", 40))
MAX_QUEUE = int(os.environ.get("GATE_MAX_QUEUE", 8))
SHED_P95_MS = float(os.environ.get("GATE_SHED_P95_MS", 10.0))
MAX_DEADLINE = 30.0

#: Requests that never got a response — the one number that must be 0.
#: Registered here so ``--obs-json`` snapshots carry it and CI can
#: diff-gate it against the baseline with zero tolerance and zero slack.
_OBS_UNANSWERED = obs_metrics.counter("svc.gate.unanswered")

PASSING = """\
type BT[v : Int]{L(0), N(2)}
lang pos : BT { N(l, r) where (v > 0) given (pos l) (pos r) | L() }
assert-false (is-empty pos)
"""


def _quantile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[int(q * (len(sorted_values) - 1))]


class _LoadClient:
    """One keep-alive connection sending requests back to back, timing
    every reply."""

    def __init__(self, host: str, port: int, ids: list[str]) -> None:
        self.addr = (host, port)
        self.ids = ids
        self.sent_at: dict[str, float] = {}
        self.replies: dict[str, tuple[dict, float]] = {}
        self.errors: list[BaseException] = []

    def run(self) -> None:
        conn = http.client.HTTPConnection(*self.addr, timeout=120)
        try:
            for request_id in self.ids:
                body = json.dumps(
                    {"id": request_id, "kind": "run", "source": PASSING}
                )
                self.sent_at[request_id] = time.perf_counter()
                conn.request("POST", "/v1/analyze", body=body)
                doc = json.loads(conn.getresponse().read())
                # Holes (a reply for another id) become unanswered below.
                self.replies[doc.get("id")] = (doc, time.perf_counter())
        except BaseException as exc:
            self.errors.append(exc)
        finally:
            conn.close()


def measure() -> dict[str, float]:
    front = HttpFrontEnd(
        config=ServiceConfig(jobs=2),
        gate_config=GateConfig(
            max_queue=MAX_QUEUE,
            max_deadline=MAX_DEADLINE,
            drain_timeout=60.0,
            workers=2,
        ),
    )
    per_client = N_REQUESTS // N_CLIENTS
    with front:
        clients = [
            _LoadClient(
                front.host,
                front.port,
                [f"c{c}-r{i}" for i in range(per_client)],
            )
            for c in range(N_CLIENTS)
        ]
        t0 = time.perf_counter()
        threads = [
            threading.Thread(target=client.run) for client in clients
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=180)
        wall = time.perf_counter() - t0
        front.initiate_drain()
        front.wait(90.0)
    for client in clients:
        if client.errors:
            raise client.errors[0]

    shed_lat: list[float] = []
    served_lat: list[float] = []
    unanswered = 0
    for client in clients:
        for request_id in client.ids:
            hit = client.replies.get(request_id)
            if hit is None:
                unanswered += 1
                continue
            doc, at = hit
            latency = at - client.sent_at[request_id]
            if doc.get("shed"):
                shed_lat.append(latency)
            else:
                served_lat.append(latency)
    _OBS_UNANSWERED.inc(unanswered)
    shed_lat.sort()
    served_lat.sort()
    offered = per_client * N_CLIENTS
    return {
        "offered": float(offered),
        "served": float(len(served_lat)),
        "shed": float(len(shed_lat)),
        "unanswered": float(unanswered),
        "wall_s": wall,
        "served_jobs_per_sec": len(served_lat) / wall if wall else 0.0,
        "shed_p50_ms": _quantile(shed_lat, 0.50) * 1e3,
        "shed_p95_ms": _quantile(shed_lat, 0.95) * 1e3,
        "served_p50_ms": _quantile(served_lat, 0.50) * 1e3,
        "served_p99_ms": _quantile(served_lat, 0.99) * 1e3,
    }


def render(row: dict[str, float]) -> str:
    return "\n".join(
        [
            f"offered {int(row['offered'])} requests from {N_CLIENTS} "
            f"clients into 2 workers / queue {MAX_QUEUE} "
            f"({os.cpu_count()} cpu(s))",
            f"partition: served {int(row['served'])}  "
            f"shed {int(row['shed'])}  "
            f"unanswered {int(row['unanswered'])}",
            f"goodput: {row['served_jobs_per_sec']:.1f} served/sec "
            f"over {row['wall_s'] * 1e3:.0f} ms",
            f"shed latency:   p50 {row['shed_p50_ms']:.2f} ms  "
            f"p95 {row['shed_p95_ms']:.2f} ms",
            f"served latency: p50 {row['served_p50_ms']:.1f} ms  "
            f"p99 {row['served_p99_ms']:.1f} ms",
        ]
    )


def test_gate_under_overload(report):
    row = measure()
    report("svc gate under ~2x+ overload", render(row))
    # Machine shape for the diff gate: latency guards only compare
    # between like hosts, so a differing core count annotates instead
    # of failing (see repro.obs.diff).
    obs_metrics.REGISTRY.gauge("bench.host_cpus").set(
        float(os.cpu_count() or 1)
    )
    obs_metrics.REGISTRY.gauge("bench.pool_workers").set(2.0)
    # The partition is exact: every request is served or shed, none
    # vanish.  This is the invariant CI diff-gates at zero.
    assert row["unanswered"] == 0, (
        f"{int(row['unanswered'])} request(s) never got a response"
    )
    assert row["served"] + row["shed"] == row["offered"]
    # Under this much overload the tiny queue must actually shed.
    assert row["shed"] > 0, "no shedding under 2x+ overload?"
    # And something must still be served: shedding is load *management*,
    # not an outage.
    assert row["served"] >= MAX_QUEUE, (
        f"only {int(row['served'])} served; the gate starved the pool"
    )
    # A refusal is fast however deep the backlog is.
    assert row["shed_p95_ms"] < SHED_P95_MS, (
        f"shed p95 {row['shed_p95_ms']:.2f} ms exceeds the "
        f"{SHED_P95_MS} ms bound — admission is waiting on the backlog"
    )
    # Served latency is bounded by the deadline ceiling (+ generous
    # slop for the final in-flight execution on a loaded box).
    assert row["served_p99_ms"] < (MAX_DEADLINE + 30.0) * 1e3, (
        f"served p99 {row['served_p99_ms']:.0f} ms blew past the "
        f"deadline ceiling — remaining-time propagation is broken"
    )


if __name__ == "__main__":  # pragma: no cover
    print(render(measure()))
