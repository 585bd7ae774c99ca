"""Provenance golden tests: derivations carried by verdicts.

Each analysis from the paper gets a golden check that its derivation
names the things the acceptance story cares about — the fired rules,
the decisive solver queries, witness trees, separating directions,
offending input regions.
"""

from __future__ import annotations

import pytest

from repro.automata import Language, STA, rule
from repro import obs
from repro.guard import Budget
from repro.obs import provenance as prov
from repro.smt import (
    INT,
    STRING,
    Solver,
    mk_eq,
    mk_gt,
    mk_int,
    mk_mod,
    mk_str,
    mk_var,
)
from repro.transducers import (
    OutApply,
    OutNode,
    STTR,
    Transducer,
    compose,
    restrict_input,
    restrict_output,
    trule,
)
from repro.trees import make_tree_type, node


@pytest.fixture()
def solver():
    return Solver()


@pytest.fixture(autouse=True)
def no_leftover_collector():
    yield
    assert not prov.is_active()  # every test must pop its collectors


class TestCollector:
    def test_inactive_hooks_are_noops(self):
        assert not prov.is_active()
        prov.note("x", "ignored")
        with prov.step("x", "also ignored"):
            prov.saw_query(None)
        assert prov.current() is None

    def test_nesting_builds_a_tree(self):
        with prov.collecting() as col:
            with prov.step("outer", "outer") as st:
                prov.note("leaf", "inner note", n=1)
                st.set(done=True)
        outer = col.root.children[0]
        assert outer.title == "outer"
        assert outer.detail == {"done": True}
        assert outer.children[0].title == "inner note"
        assert outer.children[0].detail == {"n": 1}

    def test_step_cap_counts_dropped(self):
        with prov.collecting(max_steps=3) as col:
            for i in range(10):
                prov.note("x", f"step {i}")
        assert col.recorded == 3
        assert col.dropped == 7
        truncated = col.root.find(contains="truncated")
        assert truncated is not None

    def test_finish_appends_query_tally(self):
        with prov.collecting() as col:
            prov.saw_query("formula-1")
            prov.saw_query("formula-2")
        assert col.query_count == 2
        tally = col.root.find(contains="solver queries while deriving")
        assert tally is not None
        assert "2" in tally.title

    def test_render_and_to_dict(self):
        s = Step = prov.Step("k", "title", {"a": 1})
        s.children.append(prov.Step("k2", "child"))
        text = s.render()
        assert "title  [a=1]" in text
        assert "\n  child" in text
        d = s.to_dict()
        assert d["kind"] == "k"
        assert d["children"][0]["title"] == "child"

    def test_collectors_nest_per_thread(self):
        with prov.collecting() as outer:
            with prov.collecting() as inner:
                prov.note("x", "inner note")
            prov.note("x", "outer note")
        assert inner.root.find(contains="inner note") is not None
        assert inner.root.find(contains="outer note") is None
        assert outer.root.find(contains="outer note") is not None


class TestEmptinessDerivation:
    """Paper §3.2: witness derivations name fired rules + decisive queries."""

    BT = make_tree_type("BT", [("x", INT)], {"L": 0, "N": 2})
    x = mk_var("x", INT)

    def _pos_lang(self, solver):
        # leaves with x > 0, closed under N
        return Language.build(
            self.BT,
            "p",
            [
                rule("p", "L", mk_gt(self.x, mk_int(0))),
                rule("p", "N", None, [["p"], ["p"]]),
            ],
            solver,
        )

    def test_refuted_names_rule_and_query(self, solver):
        verdict = self._pos_lang(solver).is_empty_verdict()
        assert verdict.is_refuted
        assert verdict.witness is not None
        text = verdict.explain()
        assert "rule fired:" in text
        assert "decisive query:" in text
        assert "satisfiable" in text
        assert "witness derivation from state" in text

    def test_proved_explains_the_fixpoint(self, solver):
        # x > 0 and x mod 2 = 1 and x mod 2 = 0 is unsatisfiable
        odd = mk_eq(mk_mod(self.x, 2), mk_int(1))
        impossible = Language.build(
            self.BT,
            "q",
            [rule("q", "L", mk_gt(self.x, mk_int(0)))],
            solver,
        ).intersect(
            Language.build(self.BT, "e", [rule("e", "L", odd)], solver)
        ).intersect(
            Language.build(
                self.BT,
                "z",
                [rule("z", "L", mk_eq(mk_mod(self.x, 2), mk_int(0)))],
                solver,
            )
        )
        verdict = impossible.is_empty_verdict()
        assert verdict.is_proved
        assert "emptiness fixpoint closed" in verdict.explain()

    def test_explain_dict_is_jsonable(self, solver):
        import json

        verdict = self._pos_lang(solver).is_empty_verdict()
        json.dumps(verdict.explain_dict())  # must not raise


class TestEquivalenceDerivation:
    """Paper §3.3: the separating direction is named."""

    BT = make_tree_type("BT", [("x", INT)], {"L": 0, "N": 2})
    x = mk_var("x", INT)

    def test_separating_direction_recorded(self, solver):
        pos = Language.build(
            self.BT, "p", [rule("p", "L", mk_gt(self.x, mk_int(0)))], solver
        )
        odd = Language.build(
            self.BT,
            "o",
            [rule("o", "L", mk_eq(mk_mod(self.x, 2), mk_int(1)))],
            solver,
        )
        verdict = pos.equals_verdict(odd)
        assert verdict.is_refuted
        text = verdict.explain()
        assert "separating_direction" in text
        assert "inclusion" in text
        # the separating tree itself is derived, rules and all
        assert "rule fired:" in text


class TestCompositionDerivation:
    """Paper §4 (Example 9 shape): composed rules are accounted for."""

    BT = make_tree_type("BT", [("x", INT)], {"L": 0, "N": 2})
    x = mk_var("x", INT)

    def _ident(self, name, state):
        V = (self.x,)
        return STTR(
            name,
            self.BT,
            self.BT,
            state,
            (
                trule(state, "L", OutNode("L", V, ()), rank=0),
                trule(
                    state,
                    "N",
                    OutNode("N", V, (OutApply(state, 0), OutApply(state, 1))),
                    rank=2,
                ),
            ),
        )

    def test_compose_records_fired_rules(self, solver):
        with prov.collecting() as col:
            composed = compose(self._ident("f", "q"), self._ident("g", "p"), solver)
        assert composed.rules  # sanity: composition produced something
        header = col.root.find(kind="compose")
        assert header is not None
        assert "compose f ; g" in header.title
        assert header.detail["rules"] == len(composed.rules)
        fired = col.root.find(contains="composed rule fired:")
        assert fired is not None

    def test_compose_rule_notes_are_capped(self, solver):
        import importlib

        compose_mod = importlib.import_module("repro.transducers.compose")
        with prov.collecting() as col:
            compose(self._ident("f", "q"), self._ident("g", "p"), solver)
        fired = [
            s for s in col.root.walk() if "composed rule fired:" in s.title
        ]
        assert len(fired) <= compose_mod._MAX_RULE_NOTES


class TestRestrictionDerivation:
    """Paper §3.5: a restriction is its own step and span, not a compose."""

    BT = TestCompositionDerivation.BT
    x = TestCompositionDerivation.x

    def _pos(self):
        return Language.build(
            self.BT,
            "pos",
            [
                rule("pos", "L", mk_gt(self.x, mk_int(0))),
                rule("pos", "N", None, [["pos"], ["pos"]]),
            ],
        )

    @pytest.mark.parametrize(
        "restrict, side", [(restrict_input, "input"), (restrict_output, "output")]
    )
    def test_restrict_records_a_restrict_step_and_span(self, solver, restrict, side):
        ident = TestCompositionDerivation()._ident("f", "q")
        obs.enabled(True)
        obs.reset()
        try:
            with prov.collecting() as col:
                restricted = restrict(ident, self._pos(), solver)
            (span,) = obs.trace()
        finally:
            obs.enabled(False)
            obs.reset()
        assert span.name == "restrict"
        step = col.root.find(kind="restrict")
        assert step is not None and f"restrict f {side}" in step.title
        assert col.root.find(kind="compose") is None
        size = dict(
            states=len(restricted.states),
            rules=len(restricted.rules),
            lookahead_rules=len(restricted.lookahead_sta.rules),
        )
        assert {k: step.detail[k] for k in size} == size
        assert {k: span.attrs[k] for k in size} == size
        assert span.attrs["side"] == side


class TestTypeCheckDerivation:
    """Paper §5.1: the buggy sanitizer's offending input region."""

    HtmlE = make_tree_type(
        "HtmlE", [("tag", STRING)], {"nil": 0, "val": 1, "attr": 2, "node": 3}
    )
    tag = mk_var("tag", STRING)

    def _buggy_rem_script(self):
        """remScript whose unsafe case copies the sibling *unsanitized*."""
        V = (self.tag,)
        ident = [
            trule(
                "i",
                c.name,
                OutNode(c.name, V, tuple(OutApply("i", k) for k in range(c.rank))),
                rank=c.rank,
            )
            for c in self.HtmlE.constructors
        ]
        rules = ident + [
            trule(
                "q",
                "node",
                OutNode(
                    "node",
                    V,
                    (OutApply("i", 0), OutApply("q", 1), OutApply("q", 2)),
                ),
                guard=~mk_eq(self.tag, mk_str("script")),
                rank=3,
            ),
            # BUG: identity instead of the sanitizing state.
            trule(
                "q",
                "node",
                OutApply("i", 2),
                guard=mk_eq(self.tag, mk_str("script")),
                rank=3,
            ),
            trule("q", "nil", OutNode("nil", V, ()), rank=0),
            trule("q", "val", OutNode("val", V, (OutApply("i", 0),)), rank=1),
            trule(
                "q",
                "attr",
                OutNode("attr", V, (OutApply("i", 0), OutApply("i", 1))),
                rank=2,
            ),
        ]
        return STTR("remScriptBuggy", self.HtmlE, self.HtmlE, "q", tuple(rules))

    def _no_script_lang(self, solver):
        state = "ok"
        rules = [
            rule(
                state,
                c.name,
                ~mk_eq(self.tag, mk_str("script")),
                [[state]] * c.rank,
            )
            for c in self.HtmlE.constructors
        ]
        return Language.build(self.HtmlE, state, rules, solver)

    def test_refuted_typecheck_carries_witness_and_region(self, solver):
        trans = Transducer(self._buggy_rem_script(), solver)
        verdict = trans.type_check_verdict(
            Language.universal(self.HtmlE, solver), self._no_script_lang(solver)
        )
        assert verdict.is_refuted
        assert verdict.witness is not None
        text = verdict.explain()
        assert text  # acceptance: non-empty explanation for REFUTED
        assert "type-check remScriptBuggy" in text
        assert "offending input region" in text
        assert "witness:" in text

    def test_proved_typecheck_still_explains(self, solver):
        # The identity transducer trivially maps no-script into no-script.
        ident = STTR(
            "identity",
            self.HtmlE,
            self.HtmlE,
            "i",
            tuple(
                trule(
                    "i",
                    c.name,
                    OutNode(
                        c.name,
                        (self.tag,),
                        tuple(OutApply("i", k) for k in range(c.rank)),
                    ),
                    rank=c.rank,
                )
                for c in self.HtmlE.constructors
            ),
        )
        no_script = self._no_script_lang(solver)
        verdict = Transducer(ident, solver).type_check_verdict(
            no_script, no_script
        )
        assert verdict.is_proved
        assert "type-check identity" in verdict.explain()


class TestUnknownDerivation:
    BT = make_tree_type("BT", [("x", INT)], {"L": 0, "N": 2})
    x = mk_var("x", INT)

    def test_unknown_keeps_the_partial_derivation(self):
        solver = Solver(cache=False)
        lang = Language.build(
            self.BT,
            "p",
            [
                rule("p", "L", mk_gt(self.x, mk_int(0))),
                rule("p", "N", None, [["p"], ["p"]]),
            ],
            solver,
        )
        verdict = lang.is_empty_verdict(Budget(max_solver_queries=1))
        assert verdict.is_unknown
        assert verdict.provenance is not None
        assert verdict.explain()  # non-empty even when the budget cut it short
