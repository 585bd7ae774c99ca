"""Normalization of alternating STAs (paper Section 3.2).

A normalized STA has singleton lookahead sets: child constraints are a
single state, which is what the bottom-up algorithms (emptiness,
determinization) need.  The paper's ``Normalize`` builds merged rules
over set-states via the merge operator on rules; as footnote 7 advises,
we compute merged rules **lazily** from the requested start sets,
eliminate unsatisfiable guards eagerly, and only materialize reachable
merged states.

A merged state is a ``frozenset`` of original states; the language of
``frozenset({q1, q2})`` is ``L^{q1}`` intersect ``L^{q2}``, and the empty
frozenset accepts every tree of the type.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from ..guard.budget import tick as _tick
from ..smt import builders as smt
from ..smt.solver import Solver
from ..smt.terms import Term
from .sta import STA, STARule, State


#: Normalized states are frozensets of original states.
NormState = frozenset


@dataclass(frozen=True)
class NormalizedSTA:
    """A normalized STA together with its reachable merged state space."""

    sta: STA  # rules have singleton (or empty-set) lookahead per child
    start: tuple[NormState, ...]

    @property
    def states(self) -> frozenset[NormState]:
        out: set[NormState] = set(self.start)
        for r in self.sta.rules:
            out.add(r.state)
            for l in r.lookahead:
                (s,) = l
                out.add(s)
        return frozenset(out)


def normalize(
    sta: STA, starts: Iterable[Iterable[State]], solver: Solver
) -> NormalizedSTA:
    """Lazily normalize ``sta`` from the given start sets.

    Every rule of the result has lookahead entries that are singleton
    sets ``{S}`` where ``S`` is a merged (frozenset) state.  Rules with
    unsatisfiable guards are dropped eagerly.
    """
    start_states: list[NormState] = [frozenset(s) for s in starts]
    done: set[NormState] = set()
    work: list[NormState] = list(start_states)
    out_rules: list[STARule] = []
    # Per-call memos: the same original states and guard pairs recur in
    # many merged states (terms are interned, so the result is the same).
    sort_keys: dict[State, str] = {}
    conjunctions: dict[tuple[Term, Term], Term] = {}

    def sort_key(s: State) -> str:
        key = sort_keys.get(s)
        if key is None:
            key = sort_keys[s] = repr(s)
        return key

    def conjoin(left: Term, right: Term) -> Term:
        key = (left, right)
        both = conjunctions.get(key)
        if both is None:
            both = conjunctions[key] = smt.mk_and(left, right)
        return both

    while work:
        q = work.pop()
        if q in done:
            continue
        _tick(kind="normalize.state")
        done.add(q)
        ordered = sorted(q, key=sort_key)
        for ctor in sta.tree_type.constructors:
            merged = _merged_rules(sta, ordered, ctor.name, ctor.rank, solver, conjoin)
            for guard, children in merged:
                out_rules.append(
                    STARule(
                        q,
                        ctor.name,
                        guard,
                        tuple(frozenset([c]) for c in children),
                    )
                )
                for c in children:
                    if c not in done:
                        work.append(c)

    return NormalizedSTA(STA(sta.tree_type, tuple(out_rules)), tuple(start_states))


def _merged_rules(
    sta: STA,
    states: list[State],
    ctor: str,
    rank: int,
    solver: Solver,
    conjoin: Callable[[Term, Term], Term],
):
    """The merge ``!`` of one rule per state in ``states`` (delta^f), the
    states in a fixed order and ``conjoin`` the guards' ``mk_and``."""
    if not states:
        # L^emptyset accepts everything: one unconstrained rule.
        yield smt.TRUE, tuple(frozenset() for _ in range(rank))
        return
    rule_choices = [sta.rules_from(s, ctor) for s in states]
    if any(not rc for rc in rule_choices):
        return  # some state has no rule for this symbol: conjunction fails

    # DFS over the rule product with incremental conjunction: syntactic
    # contradictions (e.g. the complementary guards of a deterministic
    # split) prune whole subtrees before any solver call.
    empty_children = tuple(frozenset() for _ in range(rank))

    def rec(idx: int, guard, children):
        if idx == len(rule_choices):
            if solver.is_sat(guard):
                yield guard, children
            return
        for r in rule_choices[idx]:
            g2 = conjoin(guard, r.guard)
            if g2 == smt.FALSE:
                continue
            merged = tuple(c | l for c, l in zip(children, r.lookahead))
            yield from rec(idx + 1, g2, merged)

    yield from rec(0, smt.TRUE, empty_children)
