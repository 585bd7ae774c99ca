"""Trace overhead budget: recording spans stays within 5% of recording off.

``--trace-json`` and ``--flamegraph`` turn on :mod:`repro.obs`
recording and export the span trees the tracer keeps, so what a traced
run costs is what recording costs: the tracer's spans and the registry's
counters on the solver, automata and transducer hot paths.  That cost
must be provable, not assumed.  This benchmark times the Figure 7
deforestation workload (``composed_n`` + ``run_deforested`` on a random
integer list) with recording off and on.

Min-of-N timing, the two modes interleaved round by round; the gate
asserts ``on <= off * 1.05 + 10ms`` (the 5% budget plus timer noise
slack).  Measured numbers live in ``BENCH_baseline.json`` under
``obs_trace_overhead``.

Run directly for a quick report::

    PYTHONPATH=src python benchmarks/bench_obs_trace_overhead.py
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import obs  # noqa: E402
from repro.apps.deforestation import (  # noqa: E402
    ILIST,
    composed_n,
    encode_list,
    random_list,
    run_deforested,
)
from repro.obs import tracer  # noqa: E402
from repro.smt import Solver  # noqa: E402

LIST_LENGTH = int(os.environ.get("OBS_OVERHEAD_LIST_LENGTH", 2048))
COMPOSITIONS = int(os.environ.get("OBS_OVERHEAD_N", 8))
ROUNDS = int(os.environ.get("OBS_OVERHEAD_ROUNDS", 5))
RELATIVE_BUDGET = 0.05  # the 5% recording ceiling
SLACK_SECONDS = 0.010  # timer noise floor for sub-second workloads


def _workload():
    """One fig7-shaped unit of work: compose n times, run once."""
    solver = Solver()
    data = encode_list(random_list(LIST_LENGTH, seed=7), ILIST)
    composed = composed_n(COMPOSITIONS, solver)
    return run_deforested(composed, data)


def _timed(on: bool) -> float:
    with obs.observed(on):
        t0 = time.perf_counter()
        _workload()
        return time.perf_counter() - t0


def measure_modes() -> dict[str, float]:
    """Best-of-N workload seconds with recording off and on."""
    off = on = float("inf")
    tracer.reset_retained()
    for _ in range(ROUNDS):
        off = min(off, _timed(False))
        on = min(on, _timed(True))
    spans = sum(1 for root in tracer.retained() for _ in _walk(root))
    tracer.reset_retained()
    return {"off": off, "on": on, "spans_per_run": spans / ROUNDS}


def _walk(span):
    yield span
    for child in span.children:
        yield from _walk(child)


def render(results: dict[str, float]) -> str:
    off, on = results["off"], results["on"]
    limit = off * (1 + RELATIVE_BUDGET) + SLACK_SECONDS
    return "\n".join([
        f"workload: fig7 deforestation, list={LIST_LENGTH}, "
        f"n={COMPOSITIONS}, best of {ROUNDS}",
        f"recording off : {off * 1e3:8.1f} ms   (baseline)",
        f"recording on  : {on * 1e3:8.1f} ms   "
        f"({(on / off - 1) * 100:+.1f}%, limit {limit * 1e3:.1f} ms)",
        f"spans recorded per run: {results['spans_per_run']:.0f}",
    ])


def test_trace_overhead_within_budget(report):
    results = measure_modes()
    report("trace overhead (recording on <= 5%)", render(results))
    limit = results["off"] * (1 + RELATIVE_BUDGET) + SLACK_SECONDS
    assert results["on"] <= limit, (
        f"recording overhead blew the 5% budget: "
        f"{results['on']:.3f}s > {limit:.3f}s "
        f"(recording-off baseline {results['off']:.3f}s)"
    )


def test_disabled_mode_records_nothing():
    tracer.reset_retained()
    with obs.observed(False):
        _workload()
    assert tracer.retained() == []


if __name__ == "__main__":
    print(render(measure_modes()))
