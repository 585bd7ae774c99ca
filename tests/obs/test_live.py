"""Tests for rolling-window live stats and the Prometheus exposition."""

from __future__ import annotations

import pytest

from repro.obs.live import (
    DEFAULT_WINDOWS,
    LiveStats,
    RollingWindow,
    metric_name,
    render_prometheus,
)
from repro.obs.metrics import Registry
from repro.svc.gate import AdmissionGate, GateConfig
from repro.svc.job import PROVED, JobResult, JobSpec
from tests.exposition import parse_exposition


class FakeClock:
    def __init__(self, now: float = 1000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestRollingWindow:
    def test_counts_within_window(self):
        clock = FakeClock()
        win = RollingWindow(span=10.0, buckets=10, clock=clock)
        for _ in range(5):
            win.inc("served")
            clock.advance(1.0)
        assert win.total("served") == 5
        assert win.totals() == {"served": 5}
        assert win.rate("served") == pytest.approx(0.5)

    def test_old_events_expire_in_bucket_steps(self):
        clock = FakeClock()
        win = RollingWindow(span=10.0, buckets=10, clock=clock)
        win.inc("served", 4)
        clock.advance(5.0)
        win.inc("served", 1)
        assert win.total("served") == 5
        clock.advance(5.0)  # first burst now exactly span seconds old
        assert win.total("served") == 1
        clock.advance(5.0)
        assert win.total("served") == 0

    def test_ring_reuses_stale_slots_across_laps(self):
        clock = FakeClock()
        win = RollingWindow(span=10.0, buckets=10, clock=clock)
        win.inc("served", 100)
        clock.advance(25.0)  # two and a half laps later
        win.inc("served", 1)
        # The slot the old burst lived in has lapped; only the fresh
        # event is live, and the stale counts never leak back in.
        assert win.total("served") == 1

    def test_quantiles_and_sample_counts(self):
        clock = FakeClock()
        win = RollingWindow(span=10.0, buckets=10, clock=clock)
        for ms in (1, 2, 3, 4, 100):
            win.observe(ms / 1e3)
        qs = win.quantiles()
        assert win.sample_count() == 5
        assert qs["p50"] == pytest.approx(0.003)
        # Interpolating percentile: p99 lands just under the max.
        assert qs["p95"] <= qs["p99"] <= 0.1
        assert qs["p99"] > 0.05
        clock.advance(11.0)
        assert win.sample_count() == 0
        assert win.quantiles()["p50"] == 0.0

    def test_bucket_sample_cap_bounds_memory(self):
        clock = FakeClock()
        win = RollingWindow(
            span=10.0, buckets=10, clock=clock, bucket_samples=8
        )
        for i in range(100):
            win.observe(float(i))
        # observed counts everything; retained samples are capped.
        assert win.sample_count() == 100
        bucket = win._ring[int(clock.now / win.width) % win.buckets]
        assert len(bucket.samples) == 8

    def test_snapshot_shape(self):
        clock = FakeClock()
        win = RollingWindow(span=10.0, buckets=10, clock=clock)
        win.inc("served")
        win.observe(0.25)
        snap = win.snapshot()
        assert snap["span_s"] == 10.0
        assert snap["counts"] == {"served": 1}
        assert snap["rates"]["served"] == pytest.approx(0.1)
        assert snap["p50"] == pytest.approx(0.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            RollingWindow(span=0.0)
        with pytest.raises(ValueError):
            RollingWindow(span=10.0, buckets=1)


class TestLiveStats:
    def test_dimensions_appear_on_first_use(self):
        clock = FakeClock()
        live = LiveStats(clock=clock)
        live.record_served("run", "team-a", 0.01)
        live.record_served("emptiness", "team-b", 0.02, outcome="ERROR")
        live.record_shed("queue-full", tenant="team-a", kind="run")
        assert live.kinds() == ["emptiness", "run"]
        assert live.tenants() == ["team-a", "team-b"]
        win = live.window("10s", "all")
        assert win.total("served") == 2
        assert win.total("error") == 1
        assert win.total("shed") == 1
        assert win.total("shed.queue-full") == 1
        assert live.window("10s", "tenant:team-a").total("served") == 1
        assert live.window("10s", "kind:run").total("shed") == 1

    def test_snapshot_groups_dimensions(self):
        clock = FakeClock()
        live = LiveStats(clock=clock)
        live.record_served("run", "team-a", 0.01)
        snap = live.snapshot()
        assert set(snap["windows"]) == {w for w, _ in DEFAULT_WINDOWS}
        block = snap["windows"]["1m"]
        assert block["all"]["counts"]["served"] == 1
        assert block["kind"]["run"]["counts"]["served"] == 1
        assert block["tenant"]["team-a"]["counts"]["served"] == 1

    def test_gauge_samples_skip_per_reason_shed_keys(self):
        clock = FakeClock()
        live = LiveStats(clock=clock)
        live.record_served("run", "team-a", 0.01)
        live.record_shed("quota", tenant="team-a")
        names = {name for name, _labels, _v in live.gauge_samples()}
        assert "svc_window_served" in names
        assert "svc_window_shed" in names
        assert "svc_window_latency_seconds" in names
        assert not any(n.startswith("svc_window_shed.") for n in names)
        # Every sample carries its window label; dimension labels only
        # where the dimension applies.
        for name, labels, _v in live.gauge_samples():
            assert labels["window"] in {w for w, _ in DEFAULT_WINDOWS}
            assert not ("kind" in labels and "tenant" in labels)


def _gate_with_traffic() -> AdmissionGate:
    gate = AdmissionGate(
        GateConfig(max_queue=1, max_deadline=5.0, workers=1)
    )
    first = gate.admit(JobSpec("a", "run", "x"), "team-a")
    gate.admit(JobSpec("b", "run", "x"), "team-a")  # queue full -> shed
    gate.release(first)
    gate.note_served(JobResult("a", "run", PROVED, duration=0.01))
    return gate


class TestRenderPrometheus:
    def test_gate_ledger_matches_health(self):
        gate = _gate_with_traffic()
        fams = parse_exposition(render_prometheus(gate=gate))
        health = gate.health()
        assert fams["svc_gate_ready"][()] == 1.0
        assert fams["svc_gate_admitted_total"][()] == float(
            health["counters"]["admitted"]
        )
        assert fams["svc_gate_served_total"][()] == float(
            health["counters"]["served"]
        )
        shed = fams["svc_gate_shed_total"]
        assert shed[(("reason", "queue-full"),)] == float(
            health["counters"]["shed"]["queue-full"]
        )

    def test_live_windows_and_registry_render(self):
        gate = AdmissionGate(GateConfig(workers=1), clock=FakeClock())
        gate.note_served(JobResult("a", "run", PROVED, duration=0.02), "team-a")
        registry = Registry()
        registry.counter("solver.sat_queries").inc(7)
        registry.gauge("svc.live.overhead_pct").set(1.5)
        registry.histogram("svc.job_latency").observe(0.5)
        text = render_prometheus(gate=gate, registry=registry)
        fams = parse_exposition(text)
        assert fams["svc_window_served"][
            (("window", "10s"),)
        ] == 1.0
        assert fams["repro_solver_sat_queries"][()] == 7.0
        assert fams["repro_svc_live_overhead_pct"][()] == 1.5
        assert fams["repro_svc_job_latency_count"][()] == 1.0
        assert fams["repro_svc_job_latency"][
            (("quantile", "0.50"),)
        ] == pytest.approx(0.5)

    def test_one_type_line_per_family(self):
        gate = _gate_with_traffic()
        gate.note_served(
            JobResult("e", "emptiness", PROVED, duration=0.02), "team-b"
        )
        text = render_prometheus(gate=gate, registry=Registry())
        type_lines = [
            l for l in text.splitlines() if l.startswith("# TYPE ")
        ]
        assert len(type_lines) == len({l.split()[2] for l in type_lines})

    def test_metric_name_sanitizes(self):
        assert metric_name("svc.job_latency", "repro_") == (
            "repro_svc_job_latency"
        )
        assert metric_name("9lives").startswith("_")


class TestParseExposition:
    def test_roundtrip_of_renderer_output(self):
        text = render_prometheus(gate=_gate_with_traffic())
        fams = parse_exposition(text)
        assert fams  # every family parsed
        sample_lines = [
            l
            for l in text.splitlines()
            if l and not l.startswith("#")
        ]
        assert sum(len(v) for v in fams.values()) == len(sample_lines)

    @pytest.mark.parametrize(
        "bad",
        [
            "# TYPE foo barometer\nfoo 1",         # unknown type
            "# TYPE foo gauge\n# TYPE foo gauge\nfoo 1",  # duplicate TYPE
            "foo 1\n# TYPE foo gauge",              # TYPE after samples
            'foo{bar} 1',                            # label without value
            'foo{a="1" b="2"} 1',                    # missing comma
            "foo one",                               # non-numeric value
            "foo 1\nfoo 1",                          # duplicate sample
            "2foo 1",                                # illegal name
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_exposition(bad)

    def test_escaped_label_values(self):
        text = '# TYPE f gauge\nf{msg="a\\"b\\\\c\\nd"} 1\n'
        fams = parse_exposition(text)
        (key, value), = fams["f"].items()
        assert dict(key)["msg"] == 'a"b\\c\nd'
        assert value == 1.0
