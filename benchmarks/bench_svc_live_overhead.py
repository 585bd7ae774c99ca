"""Live-observability overhead: request-scoped trace propagation.

Every served request carries trace work: ``trace_context`` plus the
``svc.admission``/``svc.dispatch`` spans and gate instants, recorded
when observability is on.  It runs once per request, so its cost must
be measured against an honest request, not assumed away.  The serving
ledger (:class:`repro.svc.telemetry.Ledger`) is always on, so both arms
record into it.

This benchmark drives the same warm pool through two per-request loops
— a *bare* arm (parse, gate, execute, ledger, serialize) and a *live*
arm (the same plus trace context and spans recorded with observability
on) — with rounds **interleaved**
(bare, live, bare, live, ...) so slow patches on a shared CI container
hit both arms instead of skewing whichever ran second.  The reported
figure is the relative p50 per-request latency overhead.

The budgeted figure is **≤5%**; the measured one records into the obs
snapshot as the ``svc.live.overhead_pct`` gauge, which CI gates through
``repro.obs.diff`` against ``BENCH_baseline.json``
(``svc_live_overhead``).  The in-test assertion is a looser backstop
(40%) so a noisy 1-core container cannot flake the suite while the diff
gate still catches real regressions.

Run directly for a quick report::

    PYTHONPATH=src python benchmarks/bench_svc_live_overhead.py
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

# The artifact cache would shrink every job to a sub-ms hash lookup and
# make the *relative* overhead figure meaningless; the pytest harness
# (conftest) already runs benchmarks cache-off, direct runs match it.
os.environ.setdefault("REPRO_CACHE", "off")

from repro import obs  # noqa: E402
from repro.obs import metrics as obs_metrics  # noqa: E402
from repro.obs import tracer as obs_tracer  # noqa: E402
from repro.svc import (  # noqa: E402
    AnalysisService,
    GateConfig,
    JobSpec,
    ServiceConfig,
    Shed,
)
from repro.svc.gate import AdmissionGate  # noqa: E402
from repro.svc.serve import parse_line  # noqa: E402

POOL_SIZE = int(os.environ.get("SVC_LIVE_POOL", 2))
CORPUS_SIZE = int(os.environ.get("SVC_LIVE_CORPUS", 10))
ROUNDS = int(os.environ.get("SVC_LIVE_ROUNDS", 3))

#: The budget the baseline records; the in-test backstop is looser.
OVERHEAD_BUDGET_PCT = 5.0
OVERHEAD_BACKSTOP_PCT = 40.0

PASSING = """\
type BT[v : Int]{L(0), N(2)}
lang pos : BT { N(l, r) where (v > 0) given (pos l) (pos r) | L() }
assert-false (is-empty pos)
"""

_EXAMPLES = os.path.join(
    os.path.dirname(__file__), "..", "examples", "fast_programs"
)


def _example(name: str) -> str:
    with open(os.path.join(_EXAMPLES, name)) as f:
        return f.read()


def request_lines(n: int, tag: str) -> list[str]:
    """``n`` realistically sized request lines (the paper's §5.1/§5.2
    programs, ~5–35 ms each).  Sub-millisecond toy jobs would make the
    *relative* overhead figure meaningless — per-request trace cost is a fixed few microseconds, so the denominator must be an
    honest request."""
    sanitizer = _example("sanitizer_fixed.fast")
    tagger = _example("world_tagger.fast")
    return [
        json.dumps(
            {
                "id": f"{tag}-{i}",
                "kind": "run",
                "source": tagger if i % 3 == 0 else sanitizer,
            }
        )
        for i in range(n)
    ]


def _gate() -> AdmissionGate:
    # Big queue, no quotas: nothing sheds, so both arms measure the
    # *served* path only.
    return AdmissionGate(
        GateConfig(max_queue=1024, max_deadline=60.0, workers=POOL_SIZE)
    )


def _serve_bare(svc: AnalysisService, gate: AdmissionGate, line: str) -> float:
    """One request through the served path without trace work."""
    t0 = time.perf_counter()
    request = parse_line(line, "bare")
    decision = gate.admit(request.spec, request.tenant)
    assert not isinstance(decision, Shed)
    released = gate.release(decision)
    assert not isinstance(released, Shed)
    result = svc.run_job(released)
    gate.note_served(result, request.tenant)
    doc = result.to_dict()
    doc["id"] = request.client_id
    json.dumps(doc)
    return time.perf_counter() - t0


def _serve_live(svc: AnalysisService, gate: AdmissionGate, line: str) -> float:
    """One request through the full live path: trace context + spans
    (recorded, observability on) — the exact per-request work
    :func:`repro.svc.serve.serve_lines` does."""
    t0 = time.perf_counter()
    request = parse_line(line, "live")
    with obs_tracer.trace_context(request.trace_id):
        with obs_tracer.span(
            "svc.admission",
            id=request.client_id,
            kind=request.spec.kind,
            tenant=request.tenant,
        ):
            decision = gate.admit(request.spec, request.tenant)
        assert not isinstance(decision, Shed)
        with obs_tracer.span("svc.dispatch", id=request.client_id):
            released = gate.release(decision)
        assert not isinstance(released, Shed)
        result = svc.run_job(released)
    gate.note_served(result, request.tenant)
    doc = result.to_dict()
    doc["id"] = request.client_id
    doc.setdefault("trace_id", request.trace_id)
    json.dumps(doc)
    return time.perf_counter() - t0


def measure_overhead() -> dict[str, float]:
    """Per-request p50 per arm, rounds interleaved (bare, live, ...)."""
    config = ServiceConfig(jobs=POOL_SIZE)
    bare_lat: list[float] = []
    live_lat: list[float] = []
    with AnalysisService(config) as svc:
        svc.run_job(JobSpec("warmup", "run", PASSING))  # pay spawn once
        gate_bare, gate_live = _gate(), _gate()
        for round_no in range(ROUNDS):
            lines = request_lines(CORPUS_SIZE, f"r{round_no}")
            for line in lines:
                bare_lat.append(_serve_bare(svc, gate_bare, line))
            with obs.observed():
                for line in lines:
                    live_lat.append(_serve_live(svc, gate_live, line))
    p50_bare = statistics.median(bare_lat)
    p50_live = statistics.median(live_lat)
    overhead_pct = (p50_live - p50_bare) / p50_bare * 100.0
    return {
        "p50_bare_ms": p50_bare * 1e3,
        "p50_live_ms": p50_live * 1e3,
        "overhead_pct": overhead_pct,
        "requests_per_arm": float(len(bare_lat)),
    }


def render(row: dict[str, float]) -> str:
    return (
        f"corpus: {CORPUS_SIZE} requests x {ROUNDS} interleaved rounds, "
        f"--jobs {POOL_SIZE}, {os.cpu_count()} cpu(s)\n"
        f"bare served path p50: {row['p50_bare_ms']:7.2f} ms\n"
        f"live served path p50: {row['p50_live_ms']:7.2f} ms "
        f"(trace context + spans)\n"
        f"overhead: {row['overhead_pct']:+.1f}% "
        f"(budget {OVERHEAD_BUDGET_PCT:.0f}%, "
        f"backstop {OVERHEAD_BACKSTOP_PCT:.0f}%)"
    )


def test_live_overhead_is_bounded(report):
    row = measure_overhead()
    report("svc live-observability overhead (per-request p50)", render(row))
    # Record the measured figure for the repro.obs.diff CI gate; clamp
    # at 0 so a lucky faster-with-tracing run doesn't hide drift by
    # going negative.
    obs_metrics.REGISTRY.gauge("svc.live.overhead_pct").set(
        round(max(0.0, row["overhead_pct"]), 2)
    )
    obs_metrics.REGISTRY.gauge("bench.host_cpus").set(
        float(os.cpu_count() or 1)
    )
    obs_metrics.REGISTRY.gauge("bench.pool_workers").set(float(POOL_SIZE))
    assert row["overhead_pct"] <= OVERHEAD_BACKSTOP_PCT, (
        f"live-observability overhead {row['overhead_pct']:.1f}% exceeds "
        f"the {OVERHEAD_BACKSTOP_PCT:.0f}% backstop "
        f"(budget is {OVERHEAD_BUDGET_PCT:.0f}%)"
    )


if __name__ == "__main__":  # pragma: no cover
    print(render(measure_overhead()))
