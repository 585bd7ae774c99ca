"""Universality pruning inside the composed lookahead automaton.

``prune_trivial_lookahead`` removes provably universal states from the
lookahead sets of the composed STTR's rules and of its lookahead
automaton's own rules, and drops the universal states' rules.  Every
surviving lookahead state must keep its language: the property below
checks it on enumerated trees for generated compositions, against the
same composition left unpruned.
"""

import importlib
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.html import FastHtmlSanitizer
from repro.automata.cleanup import universal_states
from repro.automata.semantics import acceptance_table
from repro.smt import INT, Solver, mk_add, mk_gt, mk_int, mk_lt, mk_var
from repro.transducers import OutApply, OutNode, STTR, run, trule
from repro.transducers.testing import enumerate_trees
from repro.trees import make_tree_type

compose_module = importlib.import_module("repro.transducers.compose")

BT = make_tree_type("BT", [("x", INT)], {"L": 0, "N": 2})
x = mk_var("x", INT)


def unpruned(first, second, solver):
    """``compose`` with the universality pruning switched off."""
    with mock.patch.object(
        compose_module, "prune_trivial_lookahead", lambda sttr, _solver: sttr
    ):
        return compose_module.compose(first, second, solver)


def la_rule_states(sttr):
    """Every state the lookahead automaton or the STTR's rules name."""
    named = {r.state for r in sttr.lookahead_sta.rules}
    for r in sttr.lookahead_sta.rules + sttr.rules:
        for l in r.lookahead:
            named |= l
    return named


def test_rem_esc_lookahead_sta_keeps_only_constraining_rules():
    fast = FastHtmlSanitizer()
    solver = Solver()
    pruned = fast.rem_esc.sttr
    full = unpruned(fast.rem_script.sttr, fast.esc.sttr, solver)
    universal = universal_states(full.lookahead_sta, solver)
    assert universal
    # Only ``pre remScript``'s two ``node`` rules and its ``nil`` rule
    # remain; the universal ``pre _copy`` state and its five rules go.
    assert len(pruned.lookahead_sta.rules) == 3
    assert not la_rule_states(pruned) & universal
    assert not la_rule_states(pruned) & universal_states(pruned.lookahead_sta, solver)


#: Guards over the sample values 0 and 1, so some rule sets are total
#: (their domain states become universal) and some are not.
GUARDS = (None, mk_gt(x, mk_int(0)), mk_lt(x, mk_int(1)))
STATES = ("p", "r")


@st.composite
def sttrs(draw, name):
    """A small STTR over ``BT`` that may delete, swap or copy children."""
    rules = []
    for state in STATES:
        for _ in range(draw(st.integers(min_value=1, max_value=2))):
            out = OutNode("L", (draw(st.sampled_from((x, mk_add(x, mk_int(1))))),), ())
            guard = draw(st.sampled_from(GUARDS))
            rules.append(trule(state, "L", out, guard=guard, rank=0))
        for _ in range(draw(st.integers(min_value=1, max_value=2))):
            s0 = draw(st.sampled_from(STATES))
            s1 = draw(st.sampled_from(STATES))
            out = draw(
                st.sampled_from(
                    [
                        OutNode("N", (x,), (OutApply(s0, 0), OutApply(s1, 1))),
                        OutNode("N", (x,), (OutApply(s0, 1), OutApply(s1, 0))),
                        OutApply(s0, 0),  # delete the right child
                        OutApply(s1, 1),  # delete the left child
                    ]
                )
            )
            guard = draw(st.sampled_from(GUARDS))
            rules.append(trule(state, "N", out, guard=guard, rank=2))
    return STTR(name, BT, BT, "p", tuple(rules))


TREES = list(enumerate_trees(BT, 3, {INT: [0, 1]}))


@given(first=sttrs("s"), second=sttrs("t"))
@settings(max_examples=40, deadline=None)
def test_pruning_keeps_each_surviving_state_language(first, second):
    solver = Solver()
    full = unpruned(first, second, solver)
    pruned = compose_module.prune_trivial_lookahead(full, solver)
    universal = universal_states(full.lookahead_sta, solver)
    assert not la_rule_states(pruned) & universal
    survivors = {r.state for r in pruned.lookahead_sta.rules}
    for tree in TREES:
        before = acceptance_table(full.lookahead_sta, tree)(tree)
        after = acceptance_table(pruned.lookahead_sta, tree)(tree)
        assert universal <= before
        assert after == before & survivors
        assert run(pruned, tree) == run(full, tree)
