"""Cleanup passes for automata: universality detection and pruning.

Composition accumulates lookahead constraints that are often *trivially
universal* — e.g. "the child lies in the domain of a total transducer".
Left in place they make every subsequent operation (and every execution)
pay for constraints that exclude nothing, so composed chains slow down
linearly with their history (exactly what Figure 7 requires not to
happen).

``universal_states`` computes a greatest fixpoint: start from all
states, and repeatedly discard states that, for some constructor, do not
cover the full label space with rules whose child constraints are
already-known-universal states.  The result is a sound under-
approximation of universality (a state in the result accepts every tree
of its type), which is all pruning needs.
"""

from __future__ import annotations

from typing import Iterable

from ..guard.budget import tick as _tick
from ..smt import builders as smt
from ..smt.solver import Solver
from .sta import STA, STARule, State


def universal_states(sta: STA, solver: Solver) -> frozenset[State]:
    """States provably accepting every tree of the type (sound, may miss)."""
    candidates: set[State] = {r.state for r in sta.rules}
    changed = True
    while changed:
        changed = False
        for state in list(candidates):
            _tick(kind="cleanup.state")
            if not _locally_universal(sta, state, candidates, solver):
                candidates.discard(state)
                changed = True
    return frozenset(candidates)


def _locally_universal(
    sta: STA, state: State, assumed: set[State], solver: Solver
) -> bool:
    for ctor in sta.tree_type.constructors:
        guards = [
            r.guard
            for r in sta.rules_from(state, ctor.name)
            if all(l <= assumed for l in r.lookahead)
        ]
        if not guards:
            return False
        disjunction = smt.mk_or(*guards)
        if disjunction == smt.TRUE:
            continue
        if not solver.is_valid(disjunction):
            return False
    return True


def reachable_lookahead_rules(
    sta: STA, roots: Iterable[State]
) -> tuple[STARule, ...]:
    """Rules of states reachable (through lookahead sets) from ``roots``."""
    keep: set[State] = set()
    work = list(roots)
    while work:
        s = work.pop()
        if s in keep:
            continue
        keep.add(s)
        for r in sta.rules_from(s):
            for l in r.lookahead:
                work.extend(l - keep)
    return tuple(r for r in sta.rules if r.state in keep)
