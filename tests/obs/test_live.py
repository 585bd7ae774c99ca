"""Tests for the serving ledger and the Prometheus exposition."""

from __future__ import annotations

import random
import sys
import threading

import pytest

from repro.obs.live import metric_name, render_prometheus
from repro.obs.metrics import Registry, percentile
from repro.svc.batch import BatchReport
from repro.svc.gate import AdmissionGate, GateConfig, Shed
from repro.svc.job import ERROR, PROVED, JobResult, JobSpec
from repro.svc.telemetry import MAX_TENANTS, OTHER_TENANT, Ledger
from tests.exposition import parse_exposition


class FakeClock:
    def __init__(self, now: float = 1000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _result(kind="run", duration=0.01, outcome=PROVED, attempts=1):
    return JobResult(
        "j", kind, outcome, duration=duration, attempts=attempts,
        worker_pid=1234,
    )


class TestLedger:
    def test_rows_appear_on_first_use(self):
        ledger = Ledger()
        ledger.record_served(_result(), "team-a")
        ledger.record_served(
            _result("emptiness", 0.02, ERROR, attempts=2), "team-b"
        )
        ledger.record_shed("run", "team-a", "queue-full")
        assert sorted(ledger.by_kind()) == ["emptiness", "run"]
        assert sorted(ledger.by_tenant()) == ["team-a", "team-b"]
        total = ledger.total()
        assert (total.served, total.errors) == (2, 1)
        assert total.shed == {"queue-full": 1}
        assert ledger.by_tenant()["team-a"].served == 1
        assert ledger.by_kind()["run"].shed_total == 1
        assert ledger.summary()["emptiness"]["retries"] == 1

    def test_snapshot_groups_kind_and_tenant(self):
        ledger = Ledger()
        ledger.record_served(_result(), "team-a")
        ledger.record_shed("emptiness", "team-b", "quota")
        snap = ledger.snapshot()
        assert set(snap) == {"all", "kind", "tenant"}
        assert snap["all"]["served"] == 1
        assert snap["all"]["shed"] == {"quota": 1}
        assert snap["kind"]["run"]["latency"]["count"] == 1
        assert snap["kind"]["emptiness"]["shed_total"] == 1
        assert snap["kind"]["emptiness"]["latency"]["count"] == 0
        assert snap["tenant"]["team-a"]["served"] == 1
        assert snap["tenant"]["team-b"]["shed"] == {"quota": 1}

    def test_quantiles_are_exact_up_to_512_jobs(self):
        durations = [(i % 97 + 1) / 1e3 for i in range(512)]
        random.Random(3).shuffle(durations)
        ledger = Ledger(_result(duration=d) for d in durations)
        ordered = sorted(durations)
        entry = ledger.summary()["run"]
        assert entry["count"] == 512
        for key, q in (("p50", 0.5), ("p95", 0.95), ("p99", 0.99)):
            assert entry[f"{key}_ms"] == round(percentile(ordered, q) * 1e3, 3)
        assert entry["max_ms"] == round(ordered[-1] * 1e3, 3)

    def test_quantiles_follow_the_whole_stream(self):
        # 1,000 jobs/s for 10 s; in each second the first 100 take 1 ms
        # and the other 900 take 100 ms.  A sample of each second's
        # first arrivals would read 1 ms; the ledger's uniform
        # reservoir reads the slow majority.
        ledger = Ledger()
        for _second in range(10):
            for i in range(1000):
                duration = 0.001 if i < 100 else 0.1
                ledger.record_served(_result(duration=duration))
        entry = ledger.summary()["run"]
        assert entry["count"] == 10_000
        assert entry["p50_ms"] == 100.0
        assert entry["p95_ms"] == 100.0
        assert entry["mean_ms"] == pytest.approx(90.1)

    def test_sheds_of_every_stage_reach_kind_and_tenant_rows(self):
        clock = FakeClock()
        gate = AdmissionGate(
            GateConfig(max_queue=2, max_deadline=1.0, workers=1), clock=clock
        )
        stale = gate.admit(JobSpec("a", "emptiness", "x"), "team-a")
        queued = gate.admit(JobSpec("b", "equiv", "x"), "team-b")
        full = gate.admit(JobSpec("c", "run", "x"), "team-c")
        assert isinstance(full, Shed) and full.reason == "queue-full"
        clock.advance(2.0)
        assert gate.release(stale).reason == "deadline"
        assert gate.drain_shed(queued).reason == "draining"
        kinds, tenants = gate.ledger.by_kind(), gate.ledger.by_tenant()
        for kind, tenant, reason in (
            ("run", "team-c", "queue-full"),
            ("emptiness", "team-a", "deadline"),
            ("equiv", "team-b", "draining"),
        ):
            assert kinds[kind].shed == {reason: 1}
            assert tenants[tenant].shed == {reason: 1}
        assert gate.health()["counters"]["shed_total"] == 3

    def test_tenant_rows_are_bounded(self):
        gate = AdmissionGate(GateConfig(workers=1))
        for i in range(10_000):
            gate.note_served(_result(), f"t{i}")
        gate.admit(JobSpec("s", "run", "x"), "late")  # admitted, no shed
        gate.start_drain()
        gate.admit(JobSpec("d", "run", "x"), "later")  # shed draining
        tenants = gate.ledger.snapshot()["tenant"]
        assert len(tenants) == MAX_TENANTS + 1
        assert tenants[OTHER_TENANT]["served"] == 10_000 - MAX_TENANTS
        assert tenants[OTHER_TENANT]["shed_total"] == 1
        counters = gate.health()["counters"]
        assert counters["served"] == 10_000
        assert counters["shed_total"] == 1
        fams = parse_exposition(render_prometheus(gate=gate))
        assert len(fams["svc_tenant_served_total"]) == MAX_TENANTS + 1
        assert sum(fams["svc_tenant_served_total"].values()) == 10_000.0

    def test_concurrent_records_are_not_lost(self):
        # HTTP handler threads record sheds while the dispatcher records
        # results; a lost update would break the exact totals.
        ledger = Ledger()
        threads, per_thread = 8, 20000

        def work(n: int) -> None:
            for i in range(per_thread):
                if i % 2:
                    ledger.record_shed("run", f"t{n}", "quota")
                else:
                    ledger.record_served(_result(), f"s{i}")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(target=work, args=(n,))
                for n in range(threads)
            ]
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        total = ledger.total()
        assert total.served == threads * per_thread // 2
        assert total.shed == {"quota": threads * per_thread // 2}
        assert ledger.summary()["run"]["count"] == total.served
        assert len(ledger.by_tenant()) == MAX_TENANTS + 1

    def test_batch_latency_keys_are_unchanged(self):
        report = BatchReport([_result(), _result(attempts=3)])
        latency = report.to_dict()["latency"]
        assert list(latency) == ["run"]
        assert list(latency["run"]) == [
            "count", "retries",
            "p50_ms", "p95_ms", "p99_ms", "mean_ms", "max_ms",
        ]
        assert latency["run"]["count"] == 2
        assert latency["run"]["retries"] == 2


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

    def test_ledger_families_and_registry_render(self):
        gate = AdmissionGate(GateConfig(workers=1), clock=FakeClock())
        gate.note_served(_result(duration=0.02), "team-a")
        registry = Registry()
        registry.counter("solver.sat_queries").inc(7)
        registry.gauge("svc.live.overhead_pct").set(1.5)
        registry.histogram("svc.job_latency").observe(0.5)
        text = render_prometheus(gate=gate, registry=registry)
        fams = parse_exposition(text)
        assert fams["svc_kind_served_total"][(("kind", "run"),)] == 1.0
        assert fams["svc_tenant_served_total"][(("tenant", "team-a"),)] == 1.0
        assert fams["svc_job_duration_seconds"][
            (("kind", "run"), ("quantile", "0.50"))
        ] == pytest.approx(0.02)
        assert fams["svc_job_duration_seconds_count"][
            (("kind", "run"),)
        ] == 1.0
        assert "# TYPE svc_job_duration_seconds summary" in text
        assert fams["repro_solver_sat_queries"][()] == 7.0
        assert fams["repro_svc_live_overhead_pct"][()] == 1.5
        assert fams["repro_svc_job_latency_count"][()] == 1.0
        assert fams["repro_svc_job_latency"][
            (("quantile", "0.50"),)
        ] == pytest.approx(0.5)

    def test_ledger_families_match_the_snapshot(self):
        gate = _gate_with_traffic()
        gate.note_served(_result("emptiness", outcome=ERROR), "team-b")
        snap = gate.ledger.snapshot()
        fams = parse_exposition(render_prometheus(gate=gate))
        for dim in ("kind", "tenant"):
            for key in ("served", "errors", "shed"):
                family = fams[f"svc_{dim}_{key}_total"]
                assert family == {
                    ((dim, name),): float(
                        row["shed_total"] if key == "shed" else row[key]
                    )
                    for name, row in snap[dim].items()
                }

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
