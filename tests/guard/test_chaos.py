"""Fault injection: every failure mode ends in a clean typed outcome.

The acceptance scenarios for the resource-governance PR: an injected
solver fault, a blown deadline, and an exhausted query budget must each
surface as a typed error / UNKNOWN verdict — never a hang, never a
corrupted cache.  After every abort, ``check_solver_consistency``
re-validates the solver memo tables and the shared intern table.
"""

from __future__ import annotations

import pytest

from repro.automata import Language, rule
from repro.guard import (
    Budget,
    DeadlineExceeded,
    SolverBudgetExceeded,
    check_solver_consistency,
    scope,
)
from repro.guard.budget import SolverUnknown
from repro.guard.chaos import (
    ChaosPolicy,
    ChaosSolver,
    SolverFault,
    inject,
    policy_from_spec,
)
from repro.smt import INT, Solver, mk_eq, mk_gt, mk_int, mk_mod, mk_var
from repro.trees import make_tree_type

BT = make_tree_type("BT", [("x", INT)], {"L": 0, "N": 2})
x = mk_var("x", INT)


def leaves(name, guard_term, solver):
    return Language.build(
        BT,
        name,
        [rule(name, "L", guard_term), rule(name, "N", None, [[name], [name]])],
        solver,
    )


def hard_pair(solver):
    """Two syntactically different, semantically equal languages."""
    pos = leaves("pos", mk_gt(x, mk_int(0)), solver)
    odd = leaves("odd", mk_eq(mk_mod(x, 2), mk_int(1)), solver)
    return pos.union(odd), odd.union(pos)


class TestPolicyMechanics:
    def test_deterministic_across_resets(self):
        p = ChaosPolicy(seed=42, fault_rate=0.5)
        solver = Solver()

        def trace():
            fired = []
            for i in range(20):
                try:
                    p.before_query(solver)
                    fired.append(False)
                except SolverFault:
                    fired.append(True)
            return fired

        first = trace()
        p.reset()
        assert trace() == first
        assert any(first) and not all(first)

    def test_fault_after_fires_exactly_once(self):
        p = ChaosPolicy(fault_after=2)
        solver = Solver()
        for i in range(10):
            if i == 2:
                with pytest.raises(SolverFault):
                    p.before_query(solver)
            else:
                p.before_query(solver)
        assert p.counts["fault"] == 1

    def test_policy_from_spec(self):
        p = policy_from_spec("seed=7, latency=0.0002, flush_rate=0.02")
        assert (p.seed, p.latency, p.flush_rate) == (7, 0.0002, 0.02)
        # One REPRO_CHAOS string carries solver and worker faults alike.
        p = policy_from_spec("seed=9,flush_rate=0.02,worker_kill_rate=0.1")
        assert p.flush_rate == 0.02
        with pytest.raises(ValueError):
            policy_from_spec("bogus_knob=1")

    def test_trivial_queries_bypass_chaos(self):
        from repro.smt.terms import FALSE, TRUE

        solver = ChaosSolver(ChaosPolicy(fault_rate=1.0))
        assert solver.is_sat(TRUE) and not solver.is_sat(FALSE)
        with pytest.raises(SolverFault):
            solver.is_sat(mk_gt(x, mk_int(0)))


class TestScenarios:
    """The three acceptance scenarios, each ending typed + consistent."""

    def test_scenario_solver_fault(self):
        solver = ChaosSolver(ChaosPolicy(fault_after=3))
        left, right = hard_pair(solver)
        with pytest.raises(SolverFault):
            left.equals(right)
        check_solver_consistency(solver)
        # The harness is removable: reset → no more faults → real answer.
        solver.policy.fault_after = None
        assert left.equals(right)
        check_solver_consistency(solver)

    def test_scenario_deadline(self):
        solver = ChaosSolver(ChaosPolicy(latency=0.002))
        left, right = hard_pair(solver)
        with pytest.raises(DeadlineExceeded) as ei:
            with scope(deadline=0.005):
                left.equals(right)
        assert ei.value.snapshot is not None
        assert ei.value.snapshot.elapsed >= 0.005
        check_solver_consistency(solver)

    def test_scenario_query_budget(self):
        solver = Solver()
        left, right = hard_pair(solver)
        with pytest.raises(SolverBudgetExceeded) as ei:
            with scope(max_solver_queries=2):
                left.equals(right)
        assert ei.value.snapshot is not None
        assert ei.value.snapshot.solver_queries == 3
        check_solver_consistency(solver)
        # Fresh budget, warm caches: the run completes.
        assert left.equals(right)

    def test_scenario_injected_unknown_to_verdict(self):
        solver = ChaosSolver(ChaosPolicy(seed=3, unknown_rate=1.0))
        left, right = hard_pair(solver)
        v = left.equals_verdict(right)
        assert v.is_unknown and "unknown" in v.reason
        check_solver_consistency(solver)

    def test_cache_flushes_preserve_semantics(self):
        # flush_rate chaos may only cost time, never change answers.
        solver = ChaosSolver(ChaosPolicy(seed=11, flush_rate=0.3))
        left, right = hard_pair(solver)
        assert left.equals(right)
        pos = leaves("pos2", mk_gt(x, mk_int(0)), solver)
        assert not pos.is_empty()
        assert solver.policy.counts["flush"] > 0
        check_solver_consistency(solver)


class TestProcessWideInjection:
    def test_inject_patches_and_unpatches(self):
        solver = Solver()
        probe = mk_gt(x, mk_int(123456))
        with inject(ChaosPolicy(fault_rate=1.0)):
            with pytest.raises(SolverFault):
                solver.is_sat(probe)
        assert solver.is_sat(probe)  # patch removed
        check_solver_consistency(solver)


class TestWorkerLeakFault:
    """The ``leak`` worker fault: pin memory, answer correctly."""

    def test_leak_rate_activates_the_policy(self):
        from repro.guard.chaos import WorkerChaosPolicy

        assert not WorkerChaosPolicy().active
        assert WorkerChaosPolicy(leak_rate=0.5).active

    def test_leak_band_sits_after_the_fatal_faults(self):
        from repro.guard.chaos import WorkerChaosPolicy

        policy = WorkerChaosPolicy(seed=3, leak_rate=1.0)
        assert policy.decide("any-job", 0) == "leak"
        mixed = WorkerChaosPolicy(seed=3, kill_rate=1.0, leak_rate=1.0)
        # Cumulative bands: a certain kill shadows a certain leak.
        assert mixed.decide("any-job", 0) == "kill"

    def test_leak_is_deterministic_per_job_and_attempt(self):
        from repro.guard.chaos import WorkerChaosPolicy

        a = WorkerChaosPolicy(seed=9, leak_rate=0.5)
        b = WorkerChaosPolicy(seed=9, leak_rate=0.5)
        schedule = [a.decide(f"j{i}", 0) for i in range(50)]
        assert schedule == [b.decide(f"j{i}", 0) for i in range(50)]
        assert "leak" in schedule
        assert None in schedule

    def test_worker_spec_keys_parse(self):
        from repro.guard.chaos import worker_policy_from_spec

        policy = worker_policy_from_spec(
            "seed=7, worker_leak_rate=0.25, worker_leak_bytes=1048576"
        )
        assert policy is not None
        assert policy.seed == 7
        assert policy.leak_rate == 0.25
        assert policy.leak_bytes == 1 << 20
        # Solver-only specs stay None: leak knobs never leak sideways.
        assert worker_policy_from_spec("seed=7, flush_rate=0.1") is None
