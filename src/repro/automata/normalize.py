"""Normalization of alternating STAs (paper Section 3.2).

A normalized STA has singleton lookahead sets: child constraints are a
single state, which is what the bottom-up algorithms (emptiness,
determinization) need.  The paper's ``Normalize`` builds merged rules
over set-states via the merge operator on rules.  That operator is
:class:`MergedRules`, computed **lazily** per merged state and symbol
(footnote 7); ``normalize`` materializes only the merged states reachable
from its start sets and drops the rules the solver refutes.  The
restriction product (:mod:`repro.transducers.restrict`), which also
builds ``pre-image`` and the ``Look`` of ``compose``, uses the same
merged rules.

A merged state is a ``frozenset`` of original states; the language of
``frozenset({q1, q2})`` is ``L^{q1}`` intersect ``L^{q2}``, and the empty
frozenset accepts every tree of the type.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

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
    merged = MergedRules(sta)

    while work:
        q = work.pop()
        if q in done:
            continue
        _tick(kind="normalize.state")
        done.add(q)
        for ctor in sta.tree_type.constructors:
            for guard, children in merged(q, ctor.name):
                if not solver.is_sat(guard):
                    continue
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


class MergedRules:
    """The merged rules of ``sta`` per (merged state, symbol), each
    list built on first use.

    ``merged(q, f)`` is the merge ``!`` of one ``f``-rule per state in
    ``q`` (delta^f): ``(guard, children)`` pairs, one merged state per
    child.  Only syntactically false guards are dropped: the caller asks
    the solver about the guard it actually uses (``normalize`` the
    guard itself, the restriction product the guard instantiated and
    conjoined with a transducer guard), so one question is asked, not two.
    """

    def __init__(self, sta: STA) -> None:
        self.sta = sta
        self._ranks = {c.name: c.rank for c in sta.tree_type.constructors}
        self._rules: dict[tuple[NormState, str], list] = {}
        # The same original states and guard pairs recur in many merged
        # states (terms are interned, so the result is the same).
        self._sort_keys: dict[State, str] = {}
        self._conjunctions: dict[tuple[Term, Term], Term] = {}

    def __call__(
        self, state: NormState, ctor: str
    ) -> list[tuple[Term, tuple[NormState, ...]]]:
        key = (state, ctor)
        rules = self._rules.get(key)
        if rules is None:
            ordered = sorted(state, key=self._sort_key)
            rules = self._rules[key] = list(
                self._merge(ordered, self._ranks[ctor], ctor)
            )
        return rules

    def _sort_key(self, s: State) -> str:
        key = self._sort_keys.get(s)
        if key is None:
            key = self._sort_keys[s] = repr(s)
        return key

    def _conjoin(self, left: Term, right: Term) -> Term:
        key = (left, right)
        both = self._conjunctions.get(key)
        if both is None:
            both = self._conjunctions[key] = smt.mk_and(left, right)
        return both

    def _merge(self, states: list[State], rank: int, ctor: str):
        if not states:
            # L^emptyset accepts everything: one unconstrained rule.
            yield smt.TRUE, tuple(frozenset() for _ in range(rank))
            return
        rule_choices = [self.sta.rules_from(s, ctor) for s in states]
        if any(not rc for rc in rule_choices):
            return  # some state has no rule for this symbol: conjunction fails

        # DFS over the rule product with incremental conjunction:
        # syntactic contradictions (e.g. the complementary guards of a
        # deterministic split) prune whole subtrees before any solver call.
        empty_children = tuple(frozenset() for _ in range(rank))
        conjoin = self._conjoin

        def rec(idx: int, guard, children):
            if idx == len(rule_choices):
                yield guard, children
                return
            for r in rule_choices[idx]:
                g2 = conjoin(guard, r.guard)
                if g2 == smt.FALSE:
                    continue
                merged = tuple(c | l for c, l in zip(children, r.lookahead))
                yield from rec(idx + 1, g2, merged)

        yield from rec(0, smt.TRUE, empty_children)
