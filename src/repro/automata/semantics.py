"""Denotational semantics of STAs (paper Definition 2): membership.

Membership is computed bottom-up: every subtree is annotated with the
set of **all** states accepting it; alternation is then exact because
``L^{q}`` for a set ``q`` is the intersection of the member languages
by definition.  A node's set depends only on its children at the
positions some rule of its constructor *constrains* (a non-empty
lookahead set); every other child satisfies every rule.  So the walk
goes down only into constrained positions, and the table is filled
on demand for any other node a caller asks about.  The walk is
iterative — the evaluation section runs automata over list-shaped
trees thousands of nodes deep, far beyond Python's recursion limit.

Note membership of a *concrete* tree never calls the solver: guards are
evaluated directly on the attribute values — once per distinct (symbol,
attribute tuple) per table, since the table memoizes on it.
"""

from __future__ import annotations

from typing import Iterable

from ..smt.solver import Solver
from ..trees.tree import Tree
from .sta import STA, State


class AcceptanceTable:
    """``table(node)``: the set of states accepting the subtree ``node``.

    ``states`` maps ``id(node)`` to that set for every node filled so
    far.  :meth:`fill` walks the constrained skeleton below a node,
    skipping nodes already filled; calling the table on a node outside
    every filled skeleton fills it then.  Nodes are keyed by identity,
    so the caller keeps the tree alive while it uses the table.

    A node's accepting set depends only on its symbol, its attribute
    tuple and its constrained children's accepting sets, so the table
    memoizes it on that key; the guards that pass are memoized on
    ``(symbol, attributes)`` alone.  Each distinct (symbol, attribute
    tuple) thus evaluates each guard at most once per table — a page's
    thousands of nodes share a few dozen such pairs.  Keys compare
    attribute tuples by value, so ``(True,)`` and ``(1,)`` share an
    entry; that is sound because guard evaluation gives equal results
    on equal values, and the memo holds only truth values and state
    sets, never attributes.
    """

    __slots__ = (
        "states",
        "_positions",
        "_rules",
        "_attr_env",
        "_passing",
        "_accepting",
    )

    def __init__(self, sta: STA) -> None:
        constrained: dict[str, set[int]] = {}
        for r in sta.rules:
            kept = constrained.setdefault(r.ctor, set())
            kept.update(i for i, l in enumerate(r.lookahead) if l)
        #: ctor -> the child positions some rule constrains, ascending.
        self._positions = {c: tuple(sorted(p)) for c, p in constrained.items()}
        #: ctor -> ``(state, guard, ((key slot, states), ...))`` per rule,
        #: where a key slot indexes the constrained children's sets.
        self._rules: dict[str, list[tuple]] = {}
        for r in sta.rules:
            slot = {p: k for k, p in enumerate(self._positions[r.ctor])}
            checks = tuple((slot[i], l) for i, l in enumerate(r.lookahead) if l)
            self._rules.setdefault(r.ctor, []).append((r.state, r.guard, checks))
        self._attr_env = sta.tree_type.attr_env
        self._passing: dict[tuple, tuple] = {}
        self._accepting: dict[tuple, frozenset[State]] = {}
        self.states: dict[int, frozenset[State]] = {}

    def __call__(self, node: Tree) -> frozenset[State]:
        accepted = self.states.get(id(node))
        if accepted is None:
            accepted = self.fill(node)
        return accepted

    def fill(self, root: Tree) -> frozenset[State]:
        """Fill the table over ``root``'s constrained skeleton; ``root``'s set.

        One post-order pass over distinct subtree objects not yet in the
        table (linear even for DAG-shaped trees with shared subtrees).
        """
        states = self.states
        positions = self._positions
        stack: list[tuple[Tree, bool]] = [(root, False)]
        while stack:
            t, expanded = stack.pop()
            if not expanded:
                if id(t) in states:
                    continue
                stack.append((t, True))
                kids = t.children
                for i in positions.get(t.ctor, ()):
                    if id(kids[i]) not in states:
                        stack.append((kids[i], False))
                continue
            ctor = t.ctor
            kids = t.children
            kid_sets = tuple([states[id(kids[i])] for i in positions.get(ctor, ())])
            key = (ctor, t.attrs, kid_sets)
            accepted = self._accepting.get(key)
            if accepted is None:
                accepted = self._accept(t, kid_sets)
                self._accepting[key] = accepted
            states[id(t)] = accepted
        return states[id(root)]

    def _accept(self, t: Tree, kid_sets: tuple) -> frozenset[State]:
        symbol = (t.ctor, t.attrs)
        rules = self._passing.get(symbol)
        if rules is None:
            env = self._attr_env(t.attrs)
            rules = tuple(
                r
                for r in self._rules.get(t.ctor, ())
                if bool(r[1].evaluate(env))
            )
            self._passing[symbol] = rules
        return frozenset(
            state
            for state, _guard, checks in rules
            if all(l <= kid_sets[k] for k, l in checks)
        )


def acceptance_table(sta: STA, tree: Tree) -> AcceptanceTable:
    """The acceptance table of ``tree``, filled over its constrained skeleton.

    Both execution tiers read the lookahead through it: a run asks
    only about children at positions its rules constrain, and the
    table fills any such node outside the root's skeleton on demand.
    """
    table = AcceptanceTable(sta)
    table.fill(tree)
    return table


def accepts(sta: STA, state: State, tree: Tree, solver: Solver | None = None) -> bool:
    """Is ``tree`` in ``L^state``?  (The solver is unused: membership of a
    concrete tree only evaluates guards; the parameter is kept for
    interface symmetry with the symbolic operations.)"""
    return state in acceptance_table(sta, tree)(tree)


def accepts_all(
    sta: STA, states: Iterable[State], tree: Tree, solver: Solver | None = None
) -> bool:
    """Is ``tree`` in the intersection of the states' languages?

    Mirrors the paper's ``L^q`` for a set ``q``; the empty set accepts
    every tree.
    """
    return frozenset(states) <= acceptance_table(sta, tree)(tree)
