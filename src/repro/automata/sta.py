"""Alternating symbolic tree automata (paper Definition 1).

An STA rule ``(q, f, phi, lbar)`` fires at a node ``f[a](t1..tk)`` when
the guard ``phi(a)`` holds and, for every child position ``i``, the
subtree ``ti`` belongs to the language of **every** state in the
lookahead set ``lbar[i]`` (a conjunction — this is the alternation).
Disjunction comes from having several rules per ``(state, symbol)``.

States are arbitrary hashable values; operations tag states to keep
unions disjoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable

from ..errors import ReproError
from ..smt import builders as smt
from ..smt.terms import Term
from ..trees.types import TreeType

State = Hashable


class AutomatonError(ReproError):
    """Structural errors in automaton construction."""


@dataclass(frozen=True)
class STARule:
    """``(state, ctor, guard, lookahead)`` — see Definition 1."""

    state: State
    ctor: str
    guard: Term
    lookahead: tuple[frozenset[State], ...]

    def __repr__(self) -> str:
        las = ", ".join("{" + ",".join(map(str, l)) + "}" for l in self.lookahead)
        return f"{self.state} --{self.ctor}[{self.guard!r}]--> ({las})"


def rule(
    state: State,
    ctor: str,
    guard: Term | None = None,
    lookahead: Iterable[Iterable[State]] = (),
) -> STARule:
    """Convenience rule builder: ``None`` guard means ``true``."""
    return STARule(
        state,
        ctor,
        smt.TRUE if guard is None else guard,
        tuple(frozenset(l) for l in lookahead),
    )


@dataclass(frozen=True)
class STA:
    """An alternating symbolic tree automaton ``(Q, T^sigma_Sigma, delta)``.

    There is no distinguished initial state: languages are indexed by
    state (paper Definition 2), and the :class:`~repro.automata.language.Language`
    facade pairs an STA with a state.
    """

    tree_type: TreeType
    rules: tuple[STARule, ...]

    def __post_init__(self) -> None:
        for r in self.rules:
            ctor = self.tree_type.constructor(r.ctor)
            if len(r.lookahead) != ctor.rank:
                raise AutomatonError(
                    f"rule {r!r}: lookahead length {len(r.lookahead)} does not "
                    f"match rank {ctor.rank} of {r.ctor}"
                )
        index: dict[tuple[State, str], list[STARule]] = {}
        for r in self.rules:
            index.setdefault((r.state, r.ctor), []).append(r)
        object.__setattr__(self, "_index", index)

    # -- queries --------------------------------------------------------------

    @property
    def states(self) -> frozenset[State]:
        out: set[State] = set()
        for r in self.rules:
            out.add(r.state)
            for l in r.lookahead:
                out.update(l)
        return frozenset(out)

    def rules_from(self, state: State, ctor: str | None = None) -> list[STARule]:
        """All rules with the given source state (optionally per symbol)."""
        if ctor is not None:
            return self._index.get((state, ctor), [])  # type: ignore[attr-defined]
        return [r for r in self.rules if r.state == state]

    def size(self) -> tuple[int, int]:
        """(number of states, number of rules) — used in the evaluation."""
        return len(self.states), len(self.rules)

    # -- construction helpers --------------------------------------------------

    def with_rules(self, extra: Iterable[STARule]) -> "STA":
        return STA(self.tree_type, self.rules + tuple(extra))

    def map_states(self, fn) -> "STA":
        """Rename every state through ``fn`` (must be injective)."""
        return STA(
            self.tree_type,
            tuple(
                STARule(
                    fn(r.state),
                    r.ctor,
                    r.guard,
                    tuple(frozenset(fn(s) for s in l) for l in r.lookahead),
                )
                for r in self.rules
            ),
        )


def disjoint_union(left: STA, right: STA):
    """Union two STAs over the same tree type with disjoint state spaces.

    Returns the combined STA and two total state-renaming functions
    (total, so states that appear in no rule — e.g. of the empty
    language — still rename).
    """
    if left.tree_type != right.tree_type:
        raise AutomatonError(
            f"cannot union automata over {left.tree_type.name} and "
            f"{right.tree_type.name}"
        )
    lmap = lambda s: ("L", s)  # noqa: E731
    rmap = lambda s: ("R", s)  # noqa: E731
    combined = STA(
        left.tree_type,
        left.map_states(lmap).rules + right.map_states(rmap).rules,
    )
    return combined, lmap, rmap
