"""The domain automaton ``d(S)`` of an STTR (paper Definition 6).

For each transducer rule the domain rule constrains child ``i`` with the
rule's lookahead **plus** the states ``St(i, t)`` that the output applies
to that child — a child that the output transforms must itself have a
successful transduction.  Because our STTRs carry an explicit lookahead
STA, ``d(S)`` lives over a tagged union of the two state spaces:
``("q", p)`` for transduction states and ``("la", s)`` for lookahead
states.
"""

from __future__ import annotations

from ..automata.language import Language
from ..automata.sta import STA, STARule, State
from ..guard.budget import tick as _tick
from ..obs import provenance as prov
from ..smt.solver import Solver
from .output_terms import OutApply, OutputTerm
from .sttr import STTR, STTRRule


def domain_sta(sttr: STTR) -> tuple[STA, State]:
    """``d(S)`` as an STA plus the state denoting ``dom(T_S)``."""
    rules = tagged_rules("la", sttr.lookahead_sta)
    for r in sttr.rules:
        _tick(kind="domain.rule")
        rules.append(domain_rule(r, tagged("la", r.lookahead)))
    return STA(sttr.input_type, tuple(rules)), ("q", sttr.initial)


def domain_rule(rule: STTRRule, lookahead: tuple[frozenset, ...]) -> STARule:
    """The rule of ``d(S)`` for ``rule`` at ``("q", rule.state)``, its
    children carrying ``lookahead``."""
    lookahead = applied(lookahead, rule.output)
    return STARule(("q", rule.state), rule.ctor, rule.guard, lookahead)


def applied(
    lookahead: tuple[frozenset, ...], output: OutputTerm
) -> tuple[frozenset, ...]:
    """``lookahead`` with ``("q", p)`` on child ``i`` for every
    ``p~(y_i)`` in ``output`` (``St(i, t)``)."""
    kids = list(lookahead)
    for term in output.iter_terms():
        if isinstance(term, OutApply):
            kids[term.index] = kids[term.index] | {("q", term.state)}
    return tuple(kids)


def tagged(tag: str, lookahead) -> tuple[frozenset, ...]:
    """``lookahead`` with every state ``s`` renamed ``(tag, s)``."""
    return tuple(frozenset((tag, s) for s in l) if l else l for l in lookahead)


def tagged_rules(tag: str, sta: STA) -> list[STARule]:
    """The rules of ``sta`` with every state ``s`` renamed ``(tag, s)``."""
    return [
        STARule((tag, r.state), r.ctor, r.guard, tagged(tag, r.lookahead))
        for r in sta.rules
    ]


def domain(sttr: STTR, solver: Solver) -> Language:
    """The domain of the transduction as a :class:`Language` (Fast's
    ``domain t``)."""
    sta, state = domain_sta(sttr)
    prov.note(
        "domain",
        f"domain automaton d({sttr.name}) built: {len(sta.rules)} rules",
    )
    return Language(sta, state, solver)
