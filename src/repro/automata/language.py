"""The user-facing ``Language`` facade: an STA paired with a state.

This is the value a Fast ``lang`` definition evaluates to, and the main
entry point for library users:

    >>> from repro.automata import Language
    >>> nodes = Language.build(HTML_E, "nodeTree", rules)
    >>> nodes.accepts(tree)
    >>> nodes.intersect(other).is_empty()

Every operation returns a new ``Language``; the solver rides along.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..smt.solver import DEFAULT_SOLVER, Solver
from ..trees.tree import Tree
from ..trees.types import TreeType
from . import boolean_ops, emptiness, equivalence, semantics
from .minimize import minimize as _minimize
from .sta import STA, STARule, State


@dataclass(frozen=True)
class Language:
    """A regular tree language: the language of ``sta`` at ``state``."""

    sta: STA
    state: State
    solver: Solver = field(default_factory=lambda: DEFAULT_SOLVER, compare=False)

    # -- construction -----------------------------------------------------

    @staticmethod
    def build(
        tree_type: TreeType,
        state: State,
        rules: Iterable[STARule],
        solver: Solver | None = None,
    ) -> "Language":
        return Language(
            STA(tree_type, tuple(rules)), state, solver or DEFAULT_SOLVER
        )

    @staticmethod
    def universal(tree_type: TreeType, solver: Solver | None = None) -> "Language":
        """All trees of the type (a fresh state with one rule per symbol)."""
        from ..smt import builders as smt

        state = ("univ",)
        rules = [
            STARule(
                state,
                c.name,
                smt.TRUE,
                tuple(frozenset([state]) for _ in range(c.rank)),
            )
            for c in tree_type.constructors
        ]
        return Language.build(tree_type, state, rules, solver)

    @staticmethod
    def empty(tree_type: TreeType, solver: Solver | None = None) -> "Language":
        """The empty language (a state with no rules)."""
        return Language.build(tree_type, ("void",), [], solver)

    @property
    def tree_type(self) -> TreeType:
        return self.sta.tree_type

    # -- queries ------------------------------------------------------------

    def accepts(self, tree: Tree) -> bool:
        """Membership (Definition 2)."""
        return semantics.accepts(self.sta, self.state, tree, self.solver)

    def is_empty(self) -> bool:
        return emptiness.is_empty(self.sta, [self.state], self.solver)

    def witness(self) -> Optional[Tree]:
        """Some member tree, or None (Fast's ``get-witness``)."""
        return emptiness.witness(self.sta, [self.state], self.solver)

    def size(self) -> tuple[int, int]:
        """(states, rules) of the underlying automaton."""
        return self.sta.size()

    # -- governed (three-valued) queries ------------------------------------

    def is_empty_verdict(self, budget=None):
        """:meth:`is_empty` under a resource budget.

        Returns a :class:`repro.guard.Verdict`: PROVED when the language
        is empty, REFUTED with a member-tree witness, UNKNOWN when the
        budget (deadline / solver queries / steps) ran out first.
        """
        from ..guard import governed

        return governed(
            self.witness,
            budget,
            proved="language is empty",
            refuted="member tree found",
        )

    def equals_verdict(self, other: "Language", budget=None):
        """:meth:`equals` under a resource budget (REFUTED carries a
        separating tree)."""
        from ..guard import governed

        return governed(
            lambda: self.separating_tree(other),
            budget,
            proved="languages are equal",
            refuted="separating tree found",
        )

    # -- boolean algebra -----------------------------------------------------

    def intersect(self, other: "Language") -> "Language":
        sta, state = boolean_ops.intersect(self.sta, self.state, other.sta, other.state)
        return Language(sta, state, self.solver)

    def union(self, other: "Language") -> "Language":
        sta, state = boolean_ops.union(self.sta, self.state, other.sta, other.state)
        return Language(sta, state, self.solver)

    def complement(self) -> "Language":
        sta, state = boolean_ops.complement(self.sta, self.state, self.solver)
        return Language(sta, state, self.solver)

    def difference(self, other: "Language") -> "Language":
        sta, state = boolean_ops.difference(
            self.sta, self.state, other.sta, other.state, self.solver
        )
        return Language(sta, state, self.solver)

    def minimize(self) -> "Language":
        sta, state = _minimize(self.sta, self.state, self.solver)
        return Language(sta, state, self.solver)

    # -- comparisons -----------------------------------------------------------

    def included_in(self, other: "Language") -> Optional[Tree]:
        """None when subset; otherwise a tree witnessing the gap."""
        return equivalence.included_in(
            self.sta, self.state, other.sta, other.state, self.solver
        )

    def equals(self, other: "Language") -> bool:
        return (
            equivalence.equivalent(
                self.sta, self.state, other.sta, other.state, self.solver
            )
            is None
        )

    def separating_tree(self, other: "Language") -> Optional[Tree]:
        return equivalence.equivalent(
            self.sta, self.state, other.sta, other.state, self.solver
        )
