"""Concurrency regression tests for the metric registry and tracer.

``Counter.inc`` used to be a bare ``self.value += n`` — a read-modify-
write that loses updates under thread switches.  These tests hammer the
metrics from many threads with a tiny switch interval so a regression
to unlocked updates fails deterministically in practice.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro import obs
from repro.obs import export, tracer
from repro.obs import metrics as obs_metrics

THREADS = 8
ITERS = 2_000


@pytest.fixture(autouse=True)
def clean_obs():
    obs.enabled(False)
    obs.reset()
    yield
    obs.enabled(False)
    obs.reset()


@pytest.fixture(autouse=True)
def aggressive_switching():
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(old)


def _hammer(fn):
    threads = [
        threading.Thread(target=lambda: [fn() for _ in range(ITERS)])
        for _ in range(THREADS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


class TestMetricThreadSafety:
    def test_counter_inc_is_atomic(self):
        c = obs_metrics.Counter()
        _hammer(lambda: c.inc())
        assert c.value == THREADS * ITERS

    def test_registered_counter_under_journal(self):
        """A registered counter stays exact while every thread also
        records spans into the shared root store."""
        c = obs_metrics.counter("test.threads.counter")
        c.reset()
        obs.enabled(True)

        def step():
            with obs.span("step"):
                c.inc()

        _hammer(step)
        assert c.value == THREADS * ITERS
        assert len(tracer.retained()) == min(THREADS * ITERS, tracer.MAX_ROOTS)
        assert (
            obs_metrics.REGISTRY.counter("obs.trace.dropped_roots").value
            == max(0, THREADS * ITERS - tracer.MAX_ROOTS)
        )

    def test_histogram_observe_is_atomic(self):
        h = obs_metrics.Histogram()
        _hammer(lambda: h.observe(1.0))
        assert h.count == THREADS * ITERS
        assert h.total == pytest.approx(float(THREADS * ITERS))

    def test_concurrent_spans_journal_balanced(self):
        """Spans from many threads all reach the export, balanced per
        thread track."""
        obs.enabled(True)

        def spin():
            for _ in range(200):
                with obs.span("work"):
                    pass

        threads = [threading.Thread(target=spin) for _ in range(THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(tracer.retained()) == THREADS * 200
        evs = export.chrome_trace()["traceEvents"]
        assert sum(e["ph"] == "B" for e in evs) == THREADS * 200
        per_tid: dict[int, int] = {}
        for e in evs:
            if e["name"] != "work":
                continue
            per_tid[e["tid"]] = per_tid.get(e["tid"], 0) + (1 if e["ph"] == "B" else -1)
            assert per_tid[e["tid"]] >= 0  # E never precedes its B on a thread
        assert all(v == 0 for v in per_tid.values())
