"""Emptiness and witness generation (paper Proposition 1).

Emptiness of an alternating STA: normalize lazily (which drops the
rules with unsatisfiable guards), then run the classical bottom-up
fixpoint for tree-automata non-emptiness over the merged states.  A
witness tree is assembled on the way: each newly non-empty state records
one rule plus a model of its guard.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..guard.budget import tick as _tick
from ..obs import config as obs_config
from ..obs import metrics as obs_metrics
from ..obs import provenance as prov
from ..obs import tracer as obs_tracer
from ..smt.solver import Solver
from ..smt.terms import Value
from ..trees.tree import Tree, format_tree
from .normalize import NormalizedSTA, normalize
from .sta import STA, State

_OBS_CHECKS = obs_metrics.counter("emptiness.checks")
_OBS_PASSES = obs_metrics.counter("emptiness.fixpoint_passes")
_OBS_NONEMPTY = obs_metrics.histogram("emptiness.nonempty_states")


def _attrs_from_model(norm: NormalizedSTA, guard, solver: Solver) -> tuple[Value, ...]:
    model = solver.get_model(guard)
    assert model is not None
    fields = norm.sta.tree_type.fields
    defaults = norm.sta.tree_type.default_attrs()
    return tuple(
        model.get(f.name, d) for f, d in zip(fields, defaults)
    )


def nonempty_witnesses(
    norm: NormalizedSTA, solver: Solver, derivation: dict | None = None
) -> dict:
    """Map every non-empty merged state to one witness tree (fixpoint).

    When ``derivation`` is given, it is filled with
    ``state -> (rule, attrs)`` recording which rule (and which model of
    its guard) first made each state non-empty — the raw material for
    provenance explanations.
    """
    witness: dict = {}
    changed = True
    while changed:
        if obs_config.ENABLED:
            _OBS_PASSES.inc()
        changed = False
        for r in norm.sta.rules:
            if r.state in witness:
                continue
            _tick(kind="emptiness.rule")
            child_states = [next(iter(l)) for l in r.lookahead]
            kids: list[Tree] = []
            ok = True
            for cs in child_states:
                if cs in witness:
                    kids.append(witness[cs])
                elif not cs:  # empty merged state: any tree; build one lazily
                    kids.append(_any_tree(norm.sta, solver))
                else:
                    ok = False
                    break
            if not ok:
                continue
            attrs = _attrs_from_model(norm, r.guard, solver)
            witness[r.state] = Tree(r.ctor, attrs, tuple(kids))
            if derivation is not None:
                derivation[r.state] = (r, attrs)
            changed = True
    # The empty merged state is always non-empty (accepts everything).
    for s in norm.states:
        if not s and s not in witness:
            witness[s] = _any_tree(norm.sta, solver)
    if obs_config.ENABLED:
        _OBS_NONEMPTY.observe(len(witness))
    return witness


def _any_tree(sta: STA, solver: Solver) -> Tree:
    """Some tree of the type (nullary constructor with default attributes)."""
    c = sta.tree_type.nullary()
    return Tree(c.name, sta.tree_type.default_attrs(), ())


#: Cap on "rule fired" provenance notes per witness derivation.
_MAX_DERIVATION_RULES = 100


def _fmt_state(state) -> str:
    if isinstance(state, frozenset):
        return "{" + ",".join(sorted(str(s) for s in state)) + "}"
    return str(state)  # pragma: no cover - merged states are frozensets


def _record_derivation(start, derivation: dict, from_tree) -> None:
    """Walk the rules that built the witness, noting each one fired.

    ``from_tree`` maps the empty merged state (no constraints) case:
    states reached only through "accept anything" need no rule.
    """
    with prov.step(
        "witness", f"witness derivation from state {_fmt_state(start)}"
    ) as st:
        first = derivation.get(start)
        if first is not None:
            r, attrs = first
            prov.note(
                "query",
                f"decisive query: guard {r.guard!r} satisfiable",
                model=attrs,
            )
        seen: set = set()
        stack = [start]
        fired = 0
        while stack:
            s = stack.pop()
            if s in seen or not s:
                continue
            seen.add(s)
            entry = derivation.get(s)
            if entry is None:
                continue
            if fired >= _MAX_DERIVATION_RULES:
                prov.note(
                    "truncated",
                    f"rule walk capped at {_MAX_DERIVATION_RULES} rules",
                )
                break
            r, attrs = entry
            fired += 1
            kids = [next(iter(l)) for l in r.lookahead]
            prov.note(
                "rule",
                f"rule fired: {_fmt_state(s)} --{r.ctor}"
                f"[{r.guard!r}]--> ({', '.join(_fmt_state(k) for k in kids)})",
                model=attrs,
            )
            stack.extend(kids)
        st.set(rules_fired=fired, witness=format_tree(from_tree))


def witness(
    sta: STA, states: Iterable[State], solver: Solver
) -> Optional[Tree]:
    """A tree in the intersection language of ``states``, or None if empty.

    This is the engine behind Fast's ``get-witness`` and the
    counterexamples printed by failed assertions (Section 2).
    """
    start = frozenset(states)
    collect = prov.is_active()
    with obs_tracer.span("emptiness.witness") as sp:
        if obs_config.ENABLED:
            _OBS_CHECKS.inc()
        norm = normalize(sta, [start], solver)
        derivation: dict | None = {} if collect else None
        table = nonempty_witnesses(norm, solver, derivation)
        result = table.get(start)
        sp.set(merged_rules=len(norm.sta.rules), empty=result is None)
        if collect:
            if result is not None:
                _record_derivation(start, derivation or {}, result)
            else:
                prov.note(
                    "fixpoint",
                    f"emptiness fixpoint closed: {len(table)} of "
                    f"{len(norm.states)} merged states non-empty; start "
                    f"state {_fmt_state(start)} stayed empty over "
                    f"{len(norm.sta.rules)} merged rules",
                )
    return result


def is_empty(sta: STA, states: Iterable[State], solver: Solver) -> bool:
    """Is the intersection language of ``states`` empty? (Proposition 1)"""
    return witness(sta, states, solver) is None
