"""Denotational semantics of STAs (paper Definition 2): membership.

Membership is computed with one bottom-up pass that annotates every
subtree with the set of **all** states accepting it; alternation is then
exact because ``L^{q}`` for a set ``q`` is the intersection of the
member languages by definition.  The pass is iterative — the evaluation
section runs automata over list-shaped trees thousands of nodes deep,
far beyond Python's recursion limit.

Note membership of a *concrete* tree never calls the solver: guards are
evaluated directly on the attribute values — once per distinct (symbol,
attribute tuple) per pass, since the pass memoizes on it.
"""

from __future__ import annotations

from typing import Iterable

from ..smt.solver import Solver
from ..trees.tree import Tree, dag_post_order
from .sta import STA, State


def acceptance_table(sta: STA, tree: Tree) -> dict[int, frozenset[State]]:
    """Map ``id(node)`` to the set of states accepting that subtree.

    One bottom-up pass over distinct subtree objects (linear even for
    DAG-shaped trees with shared subtrees).

    A node's accepting set depends only on its symbol, its attribute
    tuple and its children's accepting sets, so the pass memoizes it on
    that key; the guards that pass are memoized on ``(symbol,
    attributes)`` alone.  Each distinct (symbol, attribute tuple) thus
    evaluates each guard at most once per call — a page's thousands of
    nodes share a few dozen such pairs.  Keys compare attribute tuples
    by value, so ``(True,)`` and ``(1,)`` share an entry; that is sound
    because guard evaluation gives equal results on equal values, and
    the memo holds only truth values and state sets, never attributes.
    """
    by_ctor: dict[str, list] = {}
    for r in sta.rules:
        by_ctor.setdefault(r.ctor, []).append(r)
    attr_env = sta.tree_type.attr_env
    passing: dict[tuple, tuple] = {}
    accepting: dict[tuple, frozenset[State]] = {}
    table: dict[int, frozenset[State]] = {}
    for t in dag_post_order(tree):
        symbol = (t.ctor, t.attrs)
        kids = tuple(table[id(c)] for c in t.children)
        accepted = accepting.get((symbol, kids))
        if accepted is None:
            rules = passing.get(symbol)
            if rules is None:
                env = attr_env(t.attrs)
                rules = tuple(
                    r for r in by_ctor.get(t.ctor, ()) if bool(r.guard.evaluate(env))
                )
                passing[symbol] = rules
            accepted = frozenset(
                r.state
                for r in rules
                if all(l <= k for l, k in zip(r.lookahead, kids))
            )
            accepting[(symbol, kids)] = accepted
        table[id(t)] = accepted
    return table


def accepts(sta: STA, state: State, tree: Tree, solver: Solver | None = None) -> bool:
    """Is ``tree`` in ``L^state``?  (The solver is unused: membership of a
    concrete tree only evaluates guards; the parameter is kept for
    interface symmetry with the symbolic operations.)"""
    return state in acceptance_table(sta, tree)[id(tree)]


def accepts_all(
    sta: STA, states: Iterable[State], tree: Tree, solver: Solver | None = None
) -> bool:
    """Is ``tree`` in the intersection of the states' languages?

    Mirrors the paper's ``L^q`` for a set ``q``; the empty set accepts
    every tree.
    """
    return frozenset(states) <= acceptance_table(sta, tree)[id(tree)]
