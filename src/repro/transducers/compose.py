"""Composition of STTRs — the paper's Section 4 algorithm.

``compose(S, T)`` builds an STTR computing ``T_T . T_S`` (first ``S``,
then ``T``).  Correctness (paper Theorem 4): the construction is exact
when ``S`` is single-valued or ``T`` is linear, and an over-approximation
otherwise (Example 9 exhibits the gap; the tests reproduce it).

Structure, mirroring the paper:

* ``Compose(p, q, f)``: for every ``S``-rule from ``p`` on ``f``, run
  ``Reduce`` on ``q~(u)`` where ``u`` is the rule's output; each
  reduction yields a composed rule ``p.q --f, guard, lookahead--> t``.
* ``Reduce``: rewrites extended terms.  ``q~(p~(yi))`` becomes the pair
  state ``p.q`` applied to ``yi`` (rule outputs stay pure).  For
  ``q~(g[e(x)](u1..un))`` it picks a ``T``-rule for ``(q, g)``, conjoins
  its guard instantiated at the output labels ``e(x)``, runs ``Look``
  over **all** children against the rule's domain-automaton lookahead
  (``lookahead[i] ∪ St(i, t_out)`` — this is what keeps constraints on
  *deleted* subtrees, the whole point of regular lookahead, Section 3.4),
  then substitutes and keeps reducing.
* ``Look`` is shared with the pre-image construction
  (:class:`~repro.transducers.preimage.PreimageBuilder`) instantiated at
  ``M = d(T)``: the composed transducer's lookahead automaton consists of
  ``S``'s own lookahead plus pre-image states ``("pre", p', R)`` with
  ``R`` a set of ``d(T)`` states.
"""

from __future__ import annotations

from typing import Iterator

from ..guard.budget import tick as _tick
from ..obs import config as obs_config
from ..obs import metrics as obs_metrics
from ..obs import provenance as prov
from ..obs import tracer as obs_tracer
from ..smt import builders as smt
from ..smt.solver import Solver
from ..smt.terms import Term
from .domain import domain_sta
from .output_terms import OutApply, OutNode, OutputTerm, TApp, states_at
from .preimage import LookTuple, PreimageBuilder
from .sttr import STTR, STTRRule, State, TransducerError

#: Cap on per-rule provenance notes recorded by one compose() call.
_MAX_RULE_NOTES = 25

_OBS_STATES = obs_metrics.histogram("compose.states_explored")
_OBS_RULES = obs_metrics.histogram("compose.rules_emitted")
_OBS_LA_RULES = obs_metrics.histogram("compose.lookahead_rules")
_OBS_PAIR_STATES = obs_metrics.counter("compose.pair_states")
_OBS_PRUNED_LA = obs_metrics.counter("compose.lookahead_states_pruned")


def compose(
    first: STTR, second: STTR, solver: Solver, name: str | None = None
) -> STTR:
    """The composed STTR ``first ; second`` (apply ``first``, then ``second``)."""
    if first.output_type != second.input_type:
        raise TransducerError(
            f"cannot compose: {first.name} outputs {first.output_type.name}, "
            f"{second.name} reads {second.input_type.name}"
        )
    with obs_tracer.span("compose", t1=first.name, t2=second.name) as sp:
        with prov.step(
            "compose",
            f"compose {first.name} ; {second.name} "
            "(Compose/Reduce/Look, paper Section 4)",
        ) as st:
            dt_sta, _ = domain_sta(second)
            builder = PreimageBuilder(first, dt_sta, solver)
            composer = _Composer(first, second, builder, solver)
            composer.run()
            builder.ensure()
            lookahead_sta = builder.sta()
            composed = STTR(
                name or f"({first.name} ; {second.name})",
                first.input_type,
                second.output_type,
                ("pair", first.initial, second.initial),
                tuple(composer.rules),
                lookahead_sta,
            )
            st.set(
                pair_states=composer.states_explored,
                rules=len(composer.rules),
                lookahead_rules=len(lookahead_sta.rules),
            )
            if prov.is_active():
                for r in composer.rules[:_MAX_RULE_NOTES]:
                    prov.note(
                        "rule",
                        f"composed rule fired: {r.state} "
                        f"--{r.ctor}[{r.guard!r}]--> {r.output!r}",
                    )
                if len(composer.rules) > _MAX_RULE_NOTES:
                    prov.note(
                        "truncated",
                        f"... and {len(composer.rules) - _MAX_RULE_NOTES} "
                        "more composed rules",
                    )
        if obs_config.ENABLED:
            _OBS_PAIR_STATES.inc(composer.states_explored)
            _OBS_STATES.observe(composer.states_explored)
            _OBS_RULES.observe(len(composer.rules))
            _OBS_LA_RULES.observe(len(lookahead_sta.rules))
            sp.set(
                states=composer.states_explored,
                rules=len(composer.rules),
                lookahead_rules=len(lookahead_sta.rules),
            )
        return prune_trivial_lookahead(composed, solver)


def prune_trivial_lookahead(sttr: STTR, solver: Solver) -> STTR:
    """Drop lookahead constraints that provably accept every tree.

    Composition chains accumulate constraints like "the child lies in
    the domain of a total transducer"; without this pass every further
    composition and every execution pays for them (the flat line of
    Figure 7 depends on it).  Universal states are removed from the
    lookahead sets of the STTR's rules *and* of the lookahead
    automaton's own rules, and their rules are dropped: a universal
    state constrains nothing, so every surviving state keeps its
    language while a run no longer classifies the subtrees it named.
    """
    from ..automata.cleanup import reachable_lookahead_rules, universal_states
    from ..automata.sta import STA, STARule

    universal = universal_states(sttr.lookahead_sta, solver)
    if not universal:
        return sttr
    if obs_config.ENABLED:
        _OBS_PRUNED_LA.inc(len(universal))
    new_rules = tuple(
        STTRRule(
            r.state,
            r.ctor,
            r.guard,
            tuple(l - universal for l in r.lookahead),
            r.output,
        )
        for r in sttr.rules
    )
    pruned_sta = STA(
        sttr.input_type,
        tuple(
            STARule(
                r.state, r.ctor, r.guard, tuple(l - universal for l in r.lookahead)
            )
            for r in sttr.lookahead_sta.rules
            if r.state not in universal
        ),
    )
    roots = {s for r in new_rules for l in r.lookahead for s in l}
    return STTR(
        sttr.name,
        sttr.input_type,
        sttr.output_type,
        sttr.initial,
        new_rules,
        STA(sttr.input_type, reachable_lookahead_rules(pruned_sta, roots)),
    )


class _Composer:
    def __init__(
        self, first: STTR, second: STTR, builder: PreimageBuilder, solver: Solver
    ) -> None:
        self.S = first
        self.T = second
        self.builder = builder
        self.solver = solver
        self.rules: list[STTRRule] = []
        self.states_explored = 0
        self._t_in_fields = [f.name for f in second.input_type.fields]

    def run(self) -> None:
        done: set[tuple[State, State]] = set()
        work: list[tuple[State, State]] = [(self.S.initial, self.T.initial)]
        while work:
            p, q = work.pop()
            if (p, q) in done:
                continue
            _tick(kind="compose.pair")
            done.add((p, q))
            self.states_explored = len(done)
            for new_rule in self._compose_state(p, q):
                self.rules.append(new_rule)
                for term in new_rule.output.iter_terms():
                    if isinstance(term, OutApply):
                        tag, p2, q2 = term.state
                        assert tag == "pair"
                        if (p2, q2) not in done:
                            work.append((p2, q2))

    def _compose_state(self, p: State, q: State) -> Iterator[STTRRule]:
        """The paper's ``Compose(p, q, f)`` over all symbols ``f``."""
        for s_rule in self.S.rules_from(p):
            rank = len(s_rule.lookahead)
            empty: LookTuple = tuple(frozenset() for _ in range(rank))
            start = TApp(q, s_rule.output)
            for guard, extra, out in self._reduce(s_rule.guard, empty, start):
                lookahead = tuple(
                    frozenset(("la", s) for s in l) | e
                    for l, e in zip(s_rule.lookahead, extra)
                )
                yield STTRRule(("pair", p, q), s_rule.ctor, guard, lookahead, out)

    # -- Reduce -----------------------------------------------------------------

    def _reduce(
        self, guard: Term, lookahead: LookTuple, term: OutputTerm
    ) -> Iterator[tuple[Term, LookTuple, OutputTerm]]:
        if isinstance(term, TApp):
            q = term.state
            arg = term.arg
            if isinstance(arg, OutApply):
                # Reduce line 1: q~(p~(yi)) -> (p.q)~(yi).
                yield guard, lookahead, OutApply(("pair", arg.state, q), arg.index)
                return
            if isinstance(arg, OutNode):
                yield from self._reduce_node(guard, lookahead, q, arg)
                return
            if isinstance(arg, TApp):  # pragma: no cover - cannot arise
                raise TransducerError("nested TApp during reduction")
            raise TransducerError(f"bad extended term {term!r}")
        if isinstance(term, OutNode):
            # Reduce line 3: an already-output node; reduce children in order.
            yield from self._reduce_children(
                guard, lookahead, term, list(term.children), 0, []
            )
            return
        if isinstance(term, OutApply):
            # Already fully reduced (pair state).
            yield guard, lookahead, term
            return
        raise TransducerError(f"bad term {term!r}")

    def _reduce_node(
        self, guard: Term, lookahead: LookTuple, q: State, node: OutNode
    ) -> Iterator[tuple[Term, LookTuple, OutputTerm]]:
        """Reduce line 2: ``q~(g[e(x)](u1..un))`` — apply a ``T``-rule."""
        attr_map = dict(zip(self._t_in_fields, node.attr_exprs))
        for t_rule in self.T.rules_from(q, node.ctor):
            g1 = smt.mk_and(guard, t_rule.guard.substitute(attr_map))
            if g1 == smt.FALSE or not self.solver.is_sat(g1):
                continue
            # Domain-automaton lookahead of this T-rule (Definition 6):
            # explicit lookahead plus the states its output applies to
            # each child — run Look over *all* children of the consumed
            # node so deleted subtrees keep their constraints.
            dom_targets = [
                frozenset(("la", s) for s in t_rule.lookahead[i])
                | frozenset(("q", s) for s in states_at(t_rule.output, i))
                for i in range(len(node.children))
            ]

            def fold(idx: int, g: Term, la: LookTuple) -> Iterator:
                if idx == len(node.children):
                    instantiated = self._instantiate(
                        t_rule.output, attr_map, node.children
                    )
                    yield from self._reduce(g, la, instantiated)
                    return
                for g2, la2 in self.builder.look(
                    g, la, dom_targets[idx], node.children[idx]
                ):
                    yield from fold(idx + 1, g2, la2)

            yield from fold(0, g1, lookahead)

    def _reduce_children(
        self,
        guard: Term,
        lookahead: LookTuple,
        node: OutNode,
        children: list[OutputTerm],
        idx: int,
        acc: list[OutputTerm],
    ) -> Iterator[tuple[Term, LookTuple, OutputTerm]]:
        if idx == len(children):
            yield guard, lookahead, OutNode(node.ctor, node.attr_exprs, tuple(acc))
            return
        for g2, la2, reduced in self._reduce(guard, lookahead, children[idx]):
            acc.append(reduced)
            yield from self._reduce_children(g2, la2, node, children, idx + 1, acc)
            acc.pop()

    def _instantiate(
        self,
        term: OutputTerm,
        attr_map: dict[str, Term],
        kids: tuple[OutputTerm, ...],
    ) -> OutputTerm:
        """``t_out(e(x), u_bar)``: substitute labels and child terms."""
        if isinstance(term, OutApply):
            return TApp(term.state, kids[term.index])
        if isinstance(term, OutNode):
            return OutNode(
                term.ctor,
                tuple(e.substitute(attr_map) for e in term.attr_exprs),
                tuple(self._instantiate(c, attr_map, kids) for c in term.children),
            )
        raise TransducerError(f"bad T output term {term!r}")
