"""Miscellaneous Language-facade and tree-utility coverage."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata import Language, rule
from repro.smt import INT, Solver, mk_eq, mk_gt, mk_int, mk_mod, mk_var
from repro.trees import Tree, dag_post_order, make_tree_type, node

BT = make_tree_type("BT", [("x", INT)], {"L": 0, "N": 2})
x = mk_var("x", INT)


def leaves(name, guard):
    return Language.build(
        BT, name, [rule(name, "L", guard), rule(name, "N", None, [[name], [name]])]
    )


POS = leaves("pos", mk_gt(x, mk_int(0)))
ODD = leaves("odd", mk_eq(mk_mod(x, 2), mk_int(1)))


class TestLanguageFacade:
    def test_witness_is_member(self):
        for lang in (POS, ODD, POS.intersect(ODD), POS.union(ODD)):
            w = lang.witness()
            assert w is not None and lang.accepts(w)

    def test_equals_is_reflexive_and_symmetric(self):
        assert POS.equals(POS)
        u1, u2 = POS.union(ODD), ODD.union(POS)
        assert u1.equals(u2) and u2.equals(u1)

    def test_included_in_transitive_chain(self):
        both = POS.intersect(ODD)
        assert both.included_in(POS) is None
        assert both.included_in(POS.union(ODD)) is None

    def test_size_reports_counts(self):
        states, rules_ = POS.size()
        assert states == 1 and rules_ == 2

    def test_tree_type_property(self):
        assert POS.tree_type is BT

    def test_solver_shared_across_ops(self):
        solver = Solver()
        a = leaves("a", mk_gt(x, mk_int(0)))
        a = Language(a.sta, a.state, solver)
        b = a.complement()
        assert b.solver is solver

    def test_empty_difference_with_self_composed_ops(self):
        combo = POS.union(ODD).intersect(POS)
        assert combo.difference(POS).is_empty()


class TestDagPostOrder:
    def test_children_before_parents(self):
        t = node("N", 0, node("L", 1), node("N", 2, node("L", 3), node("L", 4)))
        order = dag_post_order(t)
        position = {id(n): i for i, n in enumerate(order)}
        for n in order:
            for c in n.children:
                assert position[id(c)] < position[id(n)]

    def test_shared_nodes_visited_once(self):
        leaf = node("L", 1)
        t = node("N", 0, leaf, leaf)
        order = dag_post_order(t)
        assert len(order) == 2  # leaf object once, root once

    def test_deep_shared_dag_linear(self):
        # 2^60 paths if walked naively; must terminate instantly.
        t = node("L", 0)
        for i in range(60):
            t = node("N", i, t, t)
        order = dag_post_order(t)
        assert len(order) == 61
        assert t.depth() == 61


_trees = st.deferred(
    lambda: st.builds(
        lambda a, kids: node("N", a, *kids) if kids else node("L", a),
        st.integers(-3, 5),
        st.one_of(st.just([]), st.tuples(_trees, _trees).map(list)),
    )
)


@settings(max_examples=60, deadline=None)
@given(_trees)
def test_facade_membership_consistency(t):
    """The facade's boolean ops agree with plain membership everywhere."""
    assert POS.union(ODD).accepts(t) == (POS.accepts(t) or ODD.accepts(t))
    assert POS.intersect(ODD).accepts(t) == (POS.accepts(t) and ODD.accepts(t))
