"""The admission gate: bounded queue, quotas, deadlines, drain, health.

All tests drive :class:`AdmissionGate` with a fake clock, so every
retry-after, deadline-shed, and refill assertion is exact — no sleeps,
no wall-clock flake.
"""

from __future__ import annotations

import pytest

from repro.svc.gate import (
    SHED_DEADLINE,
    SHED_DRAINING,
    SHED_QUEUE_FULL,
    SHED_QUOTA,
    AdmissionGate,
    GateConfig,
    Shed,
    Ticket,
    TokenBucket,
)
from repro.svc.job import PROVED, BudgetSpec, JobResult, JobSpec
from repro.svc.telemetry import MAX_TENANTS, OTHER_TENANT


class FakeClock:
    def __init__(self, now: float = 100.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def spec(job_id: str = "j", budget: BudgetSpec | None = None) -> JobSpec:
    return JobSpec(job_id=job_id, kind="run", source="x", budget=budget)


class TestGateConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError, match="max_queue"):
            GateConfig(max_queue=0)
        with pytest.raises(ValueError, match="max_deadline"):
            GateConfig(max_deadline=0.0)

    def test_defaults_are_sane(self):
        cfg = GateConfig()
        assert cfg.max_queue >= 1
        assert cfg.max_deadline > 0
        assert cfg.tenant_rate == 0.0  # quotas off by default


class TestTokenBucket:
    def test_burst_then_dry(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=3, clock=clock)
        takes = [bucket.try_take() for _ in range(4)]
        assert [ok for ok, _ in takes] == [True, True, True, False]
        _, retry_after = takes[-1]
        assert retry_after == pytest.approx(1.0)

    def test_refill_restores_tokens(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=2, clock=clock)
        assert bucket.try_take()[0]
        assert bucket.try_take()[0]
        assert not bucket.try_take()[0]
        clock.advance(0.5)  # 2 tokens/sec * 0.5 s = 1 token back
        assert bucket.try_take()[0]
        assert not bucket.try_take()[0]

    def test_refill_caps_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=2, clock=clock)
        clock.advance(100.0)
        bucket.try_take()
        assert bucket.tokens == pytest.approx(1.0)  # capped at 2, one drawn

    def test_zero_rate_never_refills(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=0.0, burst=1, clock=clock)
        assert bucket.try_take()[0]
        clock.advance(1e6)
        ok, retry_after = bucket.try_take()
        assert not ok
        assert retry_after > 0


class TestAdmission:
    def test_admit_returns_ticket_with_clamped_budget(self):
        clock = FakeClock()
        gate = AdmissionGate(GateConfig(max_deadline=5.0), clock=clock)
        ticket = gate.admit(spec(budget=BudgetSpec(deadline=99.0)))
        assert isinstance(ticket, Ticket)
        assert ticket.spec.budget.deadline == 5.0
        assert ticket.deadline_at == pytest.approx(clock.now + 5.0)

    def test_missing_budget_gets_the_ceiling(self):
        gate = AdmissionGate(GateConfig(max_deadline=7.0), clock=FakeClock())
        ticket = gate.admit(spec())
        assert ticket.spec.budget.deadline == 7.0

    def test_tighter_client_deadline_is_kept(self):
        gate = AdmissionGate(GateConfig(max_deadline=30.0), clock=FakeClock())
        ticket = gate.admit(spec(budget=BudgetSpec(deadline=2.0)))
        assert ticket.spec.budget.deadline == 2.0

    def test_non_deadline_budget_fields_survive_the_clamp(self):
        gate = AdmissionGate(clock=FakeClock())
        ticket = gate.admit(
            spec(budget=BudgetSpec(max_solver_queries=9, max_steps=4))
        )
        assert ticket.spec.budget.max_solver_queries == 9
        assert ticket.spec.budget.max_steps == 4

    def test_queue_full_sheds_with_retry_after(self):
        gate = AdmissionGate(GateConfig(max_queue=2), clock=FakeClock())
        assert isinstance(gate.admit(spec("a")), Ticket)
        assert isinstance(gate.admit(spec("b")), Ticket)
        shed = gate.admit(spec("c"))
        assert isinstance(shed, Shed)
        assert shed.reason == SHED_QUEUE_FULL
        assert shed.retry_after > 0
        assert gate.ledger.total().shed == {SHED_QUEUE_FULL: 1}

    def test_release_frees_a_queue_slot(self):
        gate = AdmissionGate(GateConfig(max_queue=1), clock=FakeClock())
        ticket = gate.admit(spec("a"))
        assert isinstance(gate.admit(spec("b")), Shed)
        assert isinstance(gate.release(ticket), JobSpec)
        assert isinstance(gate.admit(spec("c")), Ticket)

    def test_quota_sheds_per_tenant(self):
        clock = FakeClock()
        gate = AdmissionGate(
            GateConfig(tenant_rate=1.0, tenant_burst=2), clock=clock
        )
        assert isinstance(gate.admit(spec("a1"), tenant="a"), Ticket)
        assert isinstance(gate.admit(spec("a2"), tenant="a"), Ticket)
        shed = gate.admit(spec("a3"), tenant="a")
        assert isinstance(shed, Shed)
        assert shed.reason == SHED_QUOTA
        assert shed.retry_after == pytest.approx(1.0)
        # Tenant b has its own bucket: unaffected by a's exhaustion.
        assert isinstance(gate.admit(spec("b1"), tenant="b"), Ticket)
        # Refill brings tenant a back.
        clock.advance(1.0)
        assert isinstance(gate.admit(spec("a4"), tenant="a"), Ticket)

    def test_minted_tenants_share_one_bucket_past_the_cap(self):
        gate = AdmissionGate(
            GateConfig(tenant_rate=1.0, tenant_burst=1), clock=FakeClock()
        )
        for i in range(10_000):
            gate.admit(spec(f"j{i}"), tenant=f"t{i}")
        assert len(gate._buckets) == MAX_TENANTS + 1 == 257
        assert OTHER_TENANT in gate._buckets
        # The first tenants keep their own (now empty) buckets; every
        # later one drew from the shared bucket, which is empty too.
        assert gate.admit(spec("again"), tenant="t0").reason == SHED_QUOTA
        assert gate.admit(spec("late"), tenant="fresh").reason == SHED_QUOTA

    def test_shed_response_wire_form(self):
        gate = AdmissionGate(GateConfig(max_queue=1), clock=FakeClock())
        gate.admit(spec("a"))
        shed = gate.admit(spec("b"))
        doc = shed.response("client-7")
        assert doc["id"] == "client-7"
        assert doc["shed"] is True
        assert doc["reason"] == SHED_QUEUE_FULL
        assert doc["retry_after"] >= 0


class TestDeadlinePropagation:
    def test_release_dispatches_remaining_time(self):
        clock = FakeClock()
        gate = AdmissionGate(GateConfig(max_deadline=10.0), clock=clock)
        ticket = gate.admit(spec())
        clock.advance(4.0)  # queued for 4 s of a 10 s grant
        released = gate.release(ticket)
        assert isinstance(released, JobSpec)
        assert released.budget.deadline == pytest.approx(6.0)

    def test_expired_in_queue_sheds_without_dispatch(self):
        clock = FakeClock()
        gate = AdmissionGate(GateConfig(max_deadline=3.0), clock=clock)
        ticket = gate.admit(spec())
        clock.advance(3.5)
        shed = gate.release(ticket)
        assert isinstance(shed, Shed)
        assert shed.reason == SHED_DEADLINE
        assert gate.ledger.total().shed == {SHED_DEADLINE: 1}
        assert gate.queue_depth == 0  # the slot was still freed

    def test_served_accounting(self):
        clock = FakeClock()
        gate = AdmissionGate(clock=clock)
        released = gate.release(gate.admit(spec()))
        assert isinstance(released, JobSpec)
        assert gate.inflight == 1
        gate.note_served(JobResult("a", "run", PROVED, duration=0.2))
        assert gate.inflight == 0
        # The served event lands in the gate's ledger, under its kind
        # and tenant.
        assert gate.ledger.total().served == 1
        assert gate.ledger.by_kind()["run"].served == 1
        assert gate.ledger.by_tenant()["default"].served == 1


class TestDrain:
    def test_drain_sheds_new_admissions(self):
        gate = AdmissionGate(clock=FakeClock())
        ticket = gate.admit(spec("before"))
        gate.start_drain()
        shed = gate.admit(spec("after"))
        assert isinstance(shed, Shed)
        assert shed.reason == SHED_DRAINING
        # Already-admitted work still releases for dispatch.
        assert isinstance(gate.release(ticket), JobSpec)

    def test_drain_shed_frees_the_slot_and_counts(self):
        gate = AdmissionGate(GateConfig(max_queue=2), clock=FakeClock())
        ticket = gate.admit(spec("left-behind"))
        gate.start_drain()
        shed = gate.drain_shed(ticket)
        assert shed.reason == SHED_DRAINING
        assert gate.queue_depth == 0


class TestHealth:
    def test_health_snapshot(self):
        clock = FakeClock()
        gate = AdmissionGate(
            GateConfig(max_queue=8, max_deadline=12.0, workers=3), clock=clock
        )
        gate.admit(spec("a"))
        gate.admit(spec("b"))
        clock.advance(2.0)
        doc = gate.health()
        assert doc["status"] == "ok"
        assert doc["ready"] is True
        assert doc["uptime"] == pytest.approx(2.0)
        assert doc["queue_depth"] == 2
        assert doc["max_queue"] == 8
        assert doc["max_deadline"] == 12.0
        assert doc["workers"] == 3
        assert doc["counters"]["admitted"] == 2
        assert doc["counters"]["shed_total"] == 0
        assert "breakers" not in doc

    def test_health_reflects_drain_and_sheds(self):
        gate = AdmissionGate(GateConfig(max_queue=1), clock=FakeClock())
        gate.admit(spec("a"))
        gate.admit(spec("b"))  # queue-full shed
        gate.start_drain()
        gate.admit(spec("c"))  # draining shed
        doc = gate.health(workers=5)
        assert doc["status"] == "draining"
        assert doc["ready"] is False
        assert doc["workers"] == 5
        assert doc["counters"]["shed"][SHED_QUEUE_FULL] == 1
        assert doc["counters"]["shed"][SHED_DRAINING] == 1
        assert doc["counters"]["shed_total"] == 2

    def test_health_is_json_able(self):
        import json

        gate = AdmissionGate(clock=FakeClock())
        json.dumps(gate.health())  # must not raise
