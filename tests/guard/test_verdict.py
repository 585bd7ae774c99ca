"""Three-valued verdicts and the governed analyses built on them."""

from __future__ import annotations

import pytest

from repro.automata import Language, rule
from repro.guard import (
    Budget,
    PROVED,
    REFUTED,
    UNKNOWN,
    Verdict,
    governed,
    scope,
)
from repro.guard.budget import SolverUnknown
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


class TestVerdictValue:
    def test_outcome_flags(self):
        assert Verdict.proved().is_proved
        assert Verdict.refuted().is_refuted
        assert Verdict.unknown("timeout").is_unknown

    def test_not_a_boolean(self):
        with pytest.raises(TypeError):
            bool(Verdict.proved())
        with pytest.raises(TypeError):
            if Verdict.unknown("x"):  # pragma: no cover - raises first
                pass

    def test_str_mentions_reason(self):
        v = Verdict.unknown("deadline of 0.1s exceeded")
        assert "UNKNOWN" in str(v) and "deadline" in str(v)

    def test_outcome_aliases(self):
        assert Verdict.proved().outcome is PROVED
        assert Verdict.refuted().outcome is REFUTED
        assert Verdict.unknown("x").outcome is UNKNOWN


class TestGoverned:
    def test_proved(self):
        v = governed(lambda: None, proved="yes")
        assert v.is_proved and v.reason == "yes" and v.witness is None

    def test_refuted_carries_witness(self):
        v = governed(lambda: "cex", refuted="no")
        assert v.is_refuted and v.witness == "cex" and v.reason == "no"

    def test_guard_error_becomes_unknown(self):
        def blow_up():
            raise SolverUnknown("gave up")

        v = governed(blow_up)
        assert v.is_unknown and "gave up" in v.reason

    def test_budget_attached_and_snapshotted(self):
        v = governed(lambda: None, Budget(max_steps=100))
        assert v.is_proved
        assert v.snapshot is not None and v.snapshot.max_steps == 100

    def test_budget_exhaustion_is_unknown(self):
        from repro.guard import tick

        def spin():
            while True:
                tick()

        v = governed(spin, Budget(max_steps=10))
        assert v.is_unknown
        assert v.snapshot is not None and v.snapshot.steps == 11

    def test_non_guard_errors_propagate(self):
        with pytest.raises(ValueError):
            governed(lambda: (_ for _ in ()).throw(ValueError("real bug")))


class TestLanguageVerdicts:
    def _langs(self):
        solver = Solver()
        pos = leaves("pos", mk_gt(x, mk_int(0)), solver)
        odd = leaves("odd", mk_eq(mk_mod(x, 2), mk_int(1)), solver)
        return pos, odd

    def test_is_empty_verdict_refuted_with_member(self):
        pos, _ = self._langs()
        v = pos.is_empty_verdict()
        assert v.is_refuted
        assert v.witness is not None and pos.accepts(v.witness)

    def test_is_empty_verdict_proved(self):
        pos, odd = self._langs()
        none = pos.difference(pos)
        assert none.is_empty_verdict().is_proved

    def test_equals_verdict_refuted_with_separator(self):
        pos, odd = self._langs()
        v = pos.equals_verdict(odd)
        assert v.is_refuted and v.witness is not None
        assert pos.accepts(v.witness) != odd.accepts(v.witness)

    def test_equals_verdict_unknown_under_tiny_budget(self):
        pos, odd = self._langs()
        u1, u2 = pos.union(odd), odd.union(pos)
        v = u1.equals_verdict(u2, budget=Budget(max_steps=2))
        assert v.is_unknown
        assert v.snapshot is not None and v.snapshot.max_steps == 2

    def test_ambient_scope_degrades_to_unknown(self):
        pos, odd = self._langs()
        with scope(max_steps=2):
            v = pos.union(odd).equals_verdict(odd.union(pos))
        assert v.is_unknown


class TestTransducerVerdicts:
    def _ident(self, solver):
        from repro.transducers import OutApply, OutNode, STTR, Transducer, trule

        return Transducer(
            STTR(
                "ident",
                BT,
                BT,
                "c",
                (
                    trule("c", "L", OutNode("L", (x,), ()), rank=0),
                    trule(
                        "c",
                        "N",
                        OutNode("N", (x,), (OutApply("c", 0), OutApply("c", 1))),
                        rank=2,
                    ),
                ),
            ),
            solver,
        )

    def test_type_check_verdict_proved(self):
        solver = Solver()
        pos = leaves("pos", mk_gt(x, mk_int(0)), solver)
        ident = self._ident(solver)
        assert ident.type_check_verdict(pos, pos).is_proved

    def test_type_check_verdict_refuted(self):
        solver = Solver()
        pos = leaves("pos", mk_gt(x, mk_int(0)), solver)
        odd = leaves("odd", mk_eq(mk_mod(x, 2), mk_int(1)), solver)
        v = self._ident(solver).type_check_verdict(pos, odd)
        assert v.is_refuted and v.witness is not None

    def test_type_check_verdict_unknown(self):
        solver = Solver()
        pos = leaves("pos", mk_gt(x, mk_int(0)), solver)
        odd = leaves("odd", mk_eq(mk_mod(x, 2), mk_int(1)), solver)
        v = self._ident(solver).type_check_verdict(
            pos, odd, budget=Budget(max_steps=1)
        )
        assert v.is_unknown

    def test_is_empty_verdict(self):
        solver = Solver()
        v = self._ident(solver).is_empty_verdict()
        assert v.is_refuted and v.witness is not None
