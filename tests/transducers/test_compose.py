"""Tests for the Section 4 composition algorithm.

Includes the paper's running examples:
* Example 4 — deletion requires regular lookahead; the composed
  transducer must keep the deleted subtrees' constraints.
* Example 7 — reduction through a deleting rule.
* Example 8 — cross-level label dependencies prune compositions.
* Example 9 / Theorem 4 — the composition over-approximates exactly when
  the first transducer is not single-valued and the second duplicates.

The central property test: ``T_{S.T}(t) == T_T(T_S(t))`` on random trees
whenever S is deterministic or T is linear.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata import STA, Language, rule
from repro.smt import (
    BOOL,
    INT,
    Solver,
    mk_add,
    mk_and,
    mk_bool,
    mk_eq,
    mk_gt,
    mk_int,
    mk_lt,
    mk_mod,
    mk_neg,
    mk_not,
    mk_var,
)
from repro.transducers import (
    OutApply,
    OutNode,
    STTR,
    Transducer,
    compose,
    composition_is_exact,
    restrict_output,
    run,
    trule,
)
from repro.trees import make_tree_type, node

BT = make_tree_type("BT", [("x", INT)], {"L": 0, "N": 2})
BBT = make_tree_type("BBT", [("b", BOOL)], {"L": 0, "N": 2})
x = mk_var("x", INT)
b = mk_var("b", BOOL)


@pytest.fixture()
def solver():
    return Solver()


def bt_rules(state, label_expr=None):
    """Identity-shaped rules with an optional label transformation."""
    e = label_expr if label_expr is not None else x
    return (
        trule(state, "L", OutNode("L", (e,), ()), rank=0),
        trule(state, "N", OutNode("N", (e,), (OutApply(state, 0), OutApply(state, 1))), rank=2),
    )


def transducer(name, rules, initial, la=None, tt=BT):
    return STTR(name, tt, tt, initial, tuple(rules), lookahead_sta=la)


class TestBasicComposition:
    def test_identity_identity(self, solver):
        ident = transducer("id", bt_rules("c"), "c")
        comp = compose(ident, ident, solver)
        t = node("N", 3, node("L", 1), node("L", 2))
        assert run(comp, t) == [t]

    def test_label_functions_compose(self, solver):
        inc = transducer("inc", bt_rules("q", mk_add(x, mk_int(1))), "q")
        neg = transducer("neg", bt_rules("q", mk_neg(x)), "q")
        comp = compose(inc, neg, solver)
        t = node("N", 3, node("L", 1), node("L", 2))
        # neg(inc(t)): labels become -(x+1)
        assert run(comp, t) == [node("N", -4, node("L", -2), node("L", -3))]

    def test_order_matters(self, solver):
        inc = transducer("inc", bt_rules("q", mk_add(x, mk_int(1))), "q")
        neg = transducer("neg", bt_rules("q", mk_neg(x)), "q")
        t = node("L", 1)
        assert run(compose(inc, neg, solver), t) == [node("L", -2)]
        assert run(compose(neg, inc, solver), t) == [node("L", 0)]

    def test_guards_carry_through(self, solver):
        only_pos = transducer(
            "pos",
            (
                trule("q", "L", OutNode("L", (x,), ()), guard=mk_gt(x, mk_int(0)), rank=0),
                trule("q", "N", OutNode("N", (x,), (OutApply("q", 0), OutApply("q", 1))), guard=mk_gt(x, mk_int(0)), rank=2),
            ),
            "q",
        )
        ident = transducer("id", bt_rules("c"), "c")
        comp = compose(only_pos, ident, solver)
        assert run(comp, node("L", 1)) == [node("L", 1)]
        assert run(comp, node("L", 0)) == []

    def test_second_guard_applies_to_first_output(self, solver):
        inc = transducer("inc", bt_rules("q", mk_add(x, mk_int(1))), "q")
        only_pos = transducer(
            "pos",
            (
                trule("p", "L", OutNode("L", (x,), ()), guard=mk_gt(x, mk_int(0)), rank=0),
                trule("p", "N", OutNode("N", (x,), (OutApply("p", 0), OutApply("p", 1))), guard=mk_gt(x, mk_int(0)), rank=2),
            ),
            "p",
        )
        comp = compose(inc, only_pos, solver)
        # pos(inc(L[0])) = pos(L[1]) = L[1];  pos(inc(L[-1])) = pos(L[0]) = undefined
        assert run(comp, node("L", 0)) == [node("L", 1)]
        assert run(comp, node("L", -1)) == []


class TestExample4DeletionLookahead:
    """Paper Example 4: s1 = identity iff all labels true; s2 = constant."""

    def make_s1(self):
        return transducer(
            "s1",
            (
                trule("q", "L", OutNode("L", (b,), ()), guard=b, rank=0),
                trule("q", "N", OutNode("N", (b,), (OutApply("q", 0), OutApply("q", 1))), guard=b, rank=2),
            ),
            "q",
            tt=BBT,
        )

    def make_s2(self):
        return transducer(
            "s2",
            (
                trule("p", "L", OutNode("L", (mk_bool(True),), ()), rank=0),
                trule("p", "N", OutNode("L", (mk_bool(True),), ()), rank=2),
            ),
            "p",
            tt=BBT,
        )

    def test_composition_preserves_domain(self, solver):
        s = compose(self.make_s1(), self.make_s2(), solver)
        all_true = node("N", True, node("L", True), node("L", True))
        some_false = node("N", True, node("L", True), node("L", False))
        assert run(s, all_true) == [node("L", True)]
        # The deleted subtree's constraint must be remembered:
        assert run(s, some_false) == []

    def test_deep_false_detected(self, solver):
        s = compose(self.make_s1(), self.make_s2(), solver)
        t = node(
            "N",
            True,
            node("N", True, node("L", True), node("L", True)),
            node("N", True, node("L", False), node("L", True)),
        )
        assert run(s, t) == []


class TestExample7Deletion:
    def test_deleting_rule_reduces(self, solver):
        # S: p~(N[x](y1,y2)) --x>0--> p~(y2);  at leaves: copy.
        s = transducer(
            "s",
            (
                trule("p", "N", OutApply("p", 1), guard=mk_gt(x, mk_int(0)), rank=2),
                trule("p", "L", OutNode("L", (x,), ()), rank=0),
            ),
            "p",
        )
        ident = transducer("id", bt_rules("c"), "c")
        comp = compose(s, ident, solver)
        t = node("N", 1, node("L", 9), node("L", 7))
        assert run(comp, t) == [node("L", 7)]
        assert run(comp, node("N", 0, node("L", 9), node("L", 7))) == []


class TestExample8CrossLevel:
    def test_unsatisfiable_cross_level_composition(self, solver):
        # S emits g[x+1](g[x-2](copy)); T requires every g label odd.
        G = make_tree_type("G", [("x", INT)], {"c": 0, "g": 1})
        gx = mk_var("x", INT)
        s = STTR(
            "s",
            G,
            G,
            "p",
            (
                trule(
                    "p",
                    "g",
                    OutNode(
                        "g",
                        (mk_add(gx, mk_int(1)),),
                        (OutNode("g", (mk_add(gx, mk_int(-2)),), (OutApply("p", 0),)),),
                    ),
                    guard=mk_gt(gx, mk_int(0)),
                    rank=1,
                ),
                trule("p", "c", OutNode("c", (gx,), ()), rank=0),
            ),
        )
        odd = mk_eq(mk_mod(gx, 2), mk_int(1))
        t_odd = STTR(
            "todd",
            G,
            G,
            "q",
            (
                trule("q", "g", OutNode("g", (gx,), (OutApply("q", 0),)), guard=odd, rank=1),
                trule("q", "c", OutNode("c", (gx,), ()), rank=0),
            ),
        )
        comp = compose(s, t_odd, solver)
        # x+1 and x-2 cannot both be odd: no composed rule for g survives.
        assert comp.rules_from(comp.initial, "g") == []


class TestTheorem4:
    """Exactness under the preconditions; over-approximation beyond them."""

    def make_f(self):
        # Nondeterministically replace leaves by 5 (Example 6/9's f).
        return transducer(
            "f",
            (
                trule("q", "L", OutNode("L", (x,), ()), rank=0),
                trule("q", "L", OutNode("L", (mk_int(5),), ()), rank=0),
                trule("q", "N", OutNode("N", (x,), (OutApply("q", 0), OutApply("q", 1))), rank=2),
            ),
            "q",
        )

    def make_g(self):
        # Duplicate a *state application* (Example 9's q~(y), q~(y)):
        # N[x](y1, y2) -> N[x](g~(y1), g~(y1)).
        return transducer(
            "g",
            (
                trule("p", "L", OutNode("L", (x,), ()), rank=0),
                trule(
                    "p",
                    "N",
                    OutNode("N", (x,), (OutApply("p", 0), OutApply("p", 0))),
                    rank=2,
                ),
            ),
            "p",
        )

    def test_overapproximation_detected(self, solver):
        # Example 9: S nondeterministic, T duplicates a child reference:
        # the two copies in T_{S.T} de-synchronize.
        f, g = self.make_f(), self.make_g()
        assert not composition_is_exact(f, g, solver)
        comp = compose(f, g, solver)
        t = node("N", 0, node("L", 1), node("L", 2))
        sequential = set()
        for mid in run(f, t):
            sequential.update(run(g, mid))
        composed = set(run(comp, t))
        # Theorem 4: composed is a superset...
        assert composed >= sequential
        # ... and here strictly: mixed copies are not sequentially possible.
        mixed = node("N", 0, node("L", 1), node("L", 5))
        assert mixed in composed and mixed not in sequential

    def test_restrict_out_of_nondeterministic_f_is_exact(self, solver):
        # Example 9's f chooses per leaf; ``bad`` tells the two leaves
        # apart.  The product keeps exactly the outputs of f in ``bad``,
        # however the choices at the two leaves combine.
        f = self.make_f()
        bad = Language.build(
            BT,
            "bad",
            [
                rule("bad", "N", None, [["ne5"], ["eq5"]]),
                rule("ne5", "L", mk_not(mk_eq(x, mk_int(5)))),
                rule("eq5", "L", mk_eq(x, mk_int(5))),
            ],
        )
        restricted = restrict_output(f, bad, solver)
        for t in (
            node("N", 0, node("L", 1), node("L", 2)),
            node("N", 0, node("L", 5), node("L", 5)),
            node("N", 0, node("N", 0, node("L", 1), node("L", 1)), node("L", 2)),
            node("L", 1),
        ):
            expected = {u for u in run(f, t) if bad.accepts(u)}
            assert set(run(restricted, t)) == expected
        assert run(restricted, node("N", 0, node("L", 1), node("L", 2))) == [
            node("N", 0, node("L", 1), node("L", 5))
        ]

    def test_exact_when_second_linear(self, solver):
        f = self.make_f()
        ident = transducer("id", bt_rules("c"), "c")
        assert composition_is_exact(f, ident, solver)
        comp = compose(f, ident, solver)
        t = node("N", 0, node("L", 1), node("L", 2))
        assert set(run(comp, t)) == set(run(f, t))

    def test_exact_when_first_single_valued(self, solver):
        inc = transducer("inc", bt_rules("q", mk_add(x, mk_int(1))), "q")
        g = self.make_g()
        assert composition_is_exact(inc, g, solver)
        comp = compose(inc, g, solver)
        t = node("L", 3)
        sequential = set()
        for mid in run(inc, t):
            sequential.update(run(g, mid))
        assert set(run(comp, t)) == sequential


# ---------------------------------------------------------------------------
# Property: composition agrees with sequential application.
# ---------------------------------------------------------------------------

_trees = st.deferred(
    lambda: st.builds(
        lambda a, kids: node("N", a, *kids) if kids else node("L", a),
        st.integers(-5, 9),
        st.one_of(st.just([]), st.tuples(_trees, _trees).map(list)),
    )
)

# A pool of small deterministic transducers over BT.
def _pool(solver):
    inc = transducer("inc", bt_rules("q", mk_add(x, mk_int(1))), "q")
    neg = transducer("neg", bt_rules("q", mk_neg(x)), "q")
    pos_only = transducer(
        "pos",
        (
            trule("q", "L", OutNode("L", (x,), ()), guard=mk_gt(x, mk_int(0)), rank=0),
            trule("q", "N", OutNode("N", (x,), (OutApply("q", 0), OutApply("q", 1))), rank=2),
        ),
        "q",
    )
    swap = transducer(
        "swap",
        (
            trule("q", "L", OutNode("L", (x,), ()), rank=0),
            trule("q", "N", OutNode("N", (x,), (OutApply("q", 1), OutApply("q", 0))), rank=2),
        ),
        "q",
    )
    drop_left = transducer(
        "dropl",
        (
            trule("q", "N", OutApply("q", 1), guard=mk_lt(x, mk_int(0)), rank=2),
            trule("q", "N", OutNode("N", (x,), (OutApply("q", 0), OutApply("q", 1))), guard=mk_gt(x, mk_int(-1)), rank=2),
            trule("q", "L", OutNode("L", (x,), ()), rank=0),
        ),
        "q",
    )
    return [inc, neg, pos_only, swap, drop_left]


@settings(max_examples=60, deadline=None)
@given(_trees, st.integers(0, 4), st.integers(0, 4))
def test_composition_matches_sequential(t, i, j):
    solver = Solver()
    pool = _pool(solver)
    s, t2 = pool[i], pool[j]
    comp = compose(s, t2, solver)
    sequential = set()
    for mid in run(s, t):
        sequential.update(run(t2, mid))
    assert set(run(comp, t)) == sequential


@settings(max_examples=30, deadline=None)
@given(_trees, st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
def test_composition_associative_semantically(t, i, j, k):
    """(a;b);c and a;(b;c) compute the same transduction."""
    solver = Solver()
    pool = _pool(solver)
    a, b, c = pool[i], pool[j], pool[k]
    left = compose(compose(a, b, solver), c, solver)
    right = compose(a, compose(b, c, solver), solver)
    assert set(run(left, t)) == set(run(right, t))
