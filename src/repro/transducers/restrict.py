"""Input/output restriction and pre-image of STTRs (paper Section 3.5).

The paper defines the restrictions as "special applications of
composition": ``restrict t l = compose (restrict I l) t`` and
``restrict-out t l = compose t (restrict I l)``, with ``I`` the identity
STTR.  Composing with an identity needs none of the Compose/Reduce
machinery, so both are built here as a direct product: a worklist over
pair states ``(q, L)``, ``q`` a state of ``t`` and ``L`` a merged state
of ``l``'s automaton (a set of its states, read as their intersection;
see :class:`~repro.automata.normalize.MergedRules`), built only for the
pairs the rules reach.

* ``restrict``: each ``t``-rule at ``q`` on ``f`` pairs with each merged
  ``l``-rule at ``L`` on ``f``; the guard is their conjunction and every
  ``q'~(y_i)`` becomes ``(q', L_i)~(y_i)``.  A child the output deletes
  keeps ``L_i``'s states of ``l`` as lookahead.
* ``restrict-out``: the output term of each ``t``-rule is walked once
  from ``L``; at ``g[e(x)](..)`` a merged ``l``-rule's guard is conjoined
  instantiated at ``e(x)``, and every ``q'~(y_i)`` becomes
  ``(q', L')~(y_i)``.  This walk is the paper's ``Look`` (Section 4):
  the domain of the output product is ``pre-image t l``, and
  :func:`~repro.transducers.compose.compose` runs it against ``d(T)``.

Both are exact for every ``t``, with no Theorem 4 precondition: on a
tree ``x`` a pair state ``(q, L)`` outputs ``T^q_t(x)`` if ``x`` is in
``L`` and nothing otherwise (``restrict``), or the trees of
``T^q_t(x)`` that are in ``L`` (``restrict-out``).  A run chooses each
copy of a duplicated child independently, as ``t``'s own run does, so
pairing each copy with its own ``L_i`` loses no output and adds none.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from ..automata.cleanup import reachable_lookahead_rules
from ..automata.language import Language
from ..automata.normalize import MergedRules
from ..automata.sta import STA, STARule
from ..guard.budget import tick as _tick
from ..obs import provenance as prov
from ..obs import tracer as obs_tracer
from ..smt import builders as smt
from ..smt.builders import mk_var
from ..smt.solver import Solver
from ..smt.terms import Term
from .domain import domain_rule, tagged, tagged_rules
from .output_terms import OutApply, OutNode, OutputTerm, child_occurrences
from .sttr import STTR, STTRRule, State, TransducerError


def identity_sttr(tree_type, name: str = "I") -> STTR:
    """The identity transducer on a tree type."""
    state = ("id",)
    rules = []
    for c in tree_type.constructors:
        out = OutNode(
            c.name,
            tuple(mk_var(f.name, f.sort) for f in tree_type.fields),
            tuple(OutApply(state, i) for i in range(c.rank)),
        )
        rules.append(
            STTRRule(state, c.name, smt.TRUE, tuple(frozenset() for _ in range(c.rank)), out)
        )
    return STTR(name, tree_type, tree_type, state, tuple(rules))


def restrict_input(sttr: STTR, lang: Language, solver: Solver) -> STTR:
    """``restrict t l``: behave like ``t`` but only on inputs in ``l``."""
    _check_type("restrict", lang, sttr.input_type)
    return _product(sttr, lang, solver, "input", f"({sttr.name}|{lang.state})")


def restrict_output(sttr: STTR, lang: Language, solver: Solver) -> STTR:
    """``restrict-out t l``: defined only where some output lands in ``l``."""
    _check_type("restrict-out", lang, sttr.output_type)
    return _product(sttr, lang, solver, "output", f"({sttr.name}|out:{lang.state})")


def preimage(sttr: STTR, lang: Language, solver: Solver | None = None) -> Language:
    """Fast's ``pre-image t l``: the inputs with some output in ``l``.

    This is the domain of ``restrict-out t l``, built straight from the
    product's rules: the root is ``("q", (t.initial, {l}))``.  It is
    exact against :func:`~repro.transducers.run.run` for every ``t``,
    also one that copies a child and is not single-valued, since the
    product pairs each copy with its own merged state, as the run
    chooses each copy's output on its own.
    """
    _check_type("pre-image", lang, sttr.output_type)
    solver = solver or lang.solver
    with obs_tracer.span("preimage", trans=sttr.name) as sp:
        with prov.step("preimage", f"pre-image of {sttr.name}") as st:
            product = Product(sttr, lang.sta, solver)
            start = (sttr.initial, frozenset([lang.state]))
            product.run([start])
            sta = STA(sttr.input_type, tuple(product.domain_rules()))
            st.set(states=product.states_explored, rules=len(sta.rules))
        sp.set(states=product.states_explored, rules=len(sta.rules))
    return Language(sta, ("q", start), solver)


def _check_type(op: str, lang: Language, tree_type) -> None:
    if lang.tree_type != tree_type:
        raise TransducerError(
            f"{op}: language over {lang.tree_type.name}, transducer side "
            f"is {tree_type.name}"
        )


def _product(
    sttr: STTR, lang: Language, solver: Solver, side: str, name: str
) -> STTR:
    with obs_tracer.span("restrict", trans=sttr.name, side=side) as sp:
        with prov.step(
            "restrict",
            f"restrict {sttr.name} {side} to {lang.state} "
            "(product with the language, paper Section 3.5)",
        ) as st:
            product = Product(sttr, lang.sta, solver, side == "input")
            start = (sttr.initial, frozenset([lang.state]))
            product.run([start])
            restricted = product.sttr(name, start)
            size = dict(
                states=product.states_explored,
                rules=len(restricted.rules),
                lookahead_rules=len(restricted.lookahead_sta.rules),
            )
            st.set(**size)
        sp.set(**size)
    return restricted


class Product:
    """The worklist over pair states ``(q, L)`` of ``t`` and merged
    states ``L`` of ``sta``, on ``t``'s input side or its output side."""

    def __init__(
        self, t: STTR, sta: STA, solver: Solver, on_input: bool = False
    ) -> None:
        self.t = t
        self.lang_sta = sta
        self.solver = solver
        self.on_input = on_input
        self.merged = MergedRules(sta)
        self.rules: list[STTRRule] = []
        self.done: set[State] = set()
        self._out_fields = [f.name for f in t.output_type.fields]

    @property
    def states_explored(self) -> int:
        return len(self.done)

    def run(self, starts: Iterable[State]) -> None:
        """Build the rules of every pair state reachable from ``starts``."""
        done = self.done
        work = [s for s in dict.fromkeys(starts) if s not in done]
        done.update(work)
        pair_rules = self._input_rules if self.on_input else self._output_rules
        while work:
            q, L = work.pop()
            _tick(kind="restrict.pair")
            for rule in pair_rules(q, L):
                self.rules.append(rule)
                for term in rule.output.iter_terms():
                    if isinstance(term, OutApply) and term.state not in done:
                        done.add(term.state)
                        work.append(term.state)

    def sttr(self, name: str, initial: State) -> STTR:
        """The product STTR.  Its lookahead automaton is ``t``'s own under
        ``("la", s)`` plus, for ``restrict``, ``l``'s under ``("l", s)``,
        trimmed to the states the rules name."""
        la_rules = tagged_rules("la", self.t.lookahead_sta)
        if self.on_input:
            la_rules += tagged_rules("l", self.lang_sta)
        roots = {s for r in self.rules for l in r.lookahead for s in l}
        lookahead = STA(self.t.input_type, tuple(la_rules))
        return STTR(
            name,
            self.t.input_type,
            self.t.output_type,
            initial,
            tuple(self.rules),
            STA(self.t.input_type, reachable_lookahead_rules(lookahead, roots)),
        )

    def domain_rules(self) -> list[STARule]:
        """The domain automaton of the output product (paper Definition
        6): ``t``'s lookahead automaton under ``("la", s)`` and one rule
        at ``("q", (q, L))`` per product rule."""
        rules = tagged_rules("la", self.t.lookahead_sta)
        rules += (domain_rule(r, r.lookahead) for r in self.rules)
        return rules

    # -- restrict: pair t's rules with l's on the same input node -----------

    def _input_rules(self, q: State, L: frozenset) -> Iterator[STTRRule]:
        for t_rule in self.t.rules_from(q):
            t_la = tagged("la", t_rule.lookahead)
            used = set(child_occurrences(t_rule.output))
            for psi, kids in self.merged(L, t_rule.ctor):
                guard = self._conjoin(t_rule.guard, psi)
                if guard is None:
                    continue
                lookahead = tuple(
                    la if i in used else la | frozenset(("l", s) for s in kids[i])
                    for i, la in enumerate(t_la)
                )
                out = _paired(t_rule.output, kids)
                yield STTRRule((q, L), t_rule.ctor, guard, lookahead, out)

    # -- restrict-out: run l's rules over t's output term (Look) ------------

    def _output_rules(self, q: State, L: frozenset) -> Iterator[STTRRule]:
        for t_rule in self.t.rules_from(q):
            lookahead = tagged("la", t_rule.lookahead)
            for guard, out in self.look(t_rule.guard, L, t_rule.output):
                yield STTRRule((q, L), t_rule.ctor, guard, lookahead, out)

    def look(
        self, guard: Term, L: frozenset, term: OutputTerm
    ) -> Iterator[tuple[Term, OutputTerm]]:
        """Every way ``L`` accepts the output ``term`` under ``guard``:
        the guard that must hold and the term with every ``q'~(y_i)``
        paired as ``(q', L')~(y_i)``."""
        if isinstance(term, OutApply):
            yield guard, OutApply((term.state, L), term.index)
            return
        attr_map = dict(zip(self._out_fields, term.attr_exprs))
        for psi, kids in self.merged(L, term.ctor):
            g = self._conjoin(guard, psi.substitute(attr_map))
            if g is not None:
                yield from self._look_children(g, term, kids, 0, [])

    def _look_children(
        self,
        guard: Term,
        node: OutNode,
        kids: tuple[frozenset, ...],
        idx: int,
        acc: list[OutputTerm],
    ) -> Iterator[tuple[Term, OutputTerm]]:
        if idx == len(node.children):
            yield guard, OutNode(node.ctor, node.attr_exprs, tuple(acc))
            return
        for g, child in self.look(guard, kids[idx], node.children[idx]):
            acc.append(child)
            yield from self._look_children(g, node, kids, idx + 1, acc)
            acc.pop()

    def _conjoin(self, left: Term, right: Term) -> Term | None:
        """``left ∧ right``, or None when it is unsatisfiable; ``left``
        is a guard already kept."""
        if right == smt.TRUE:
            return left
        both = smt.mk_and(left, right)
        if both == smt.FALSE or not self.solver.is_sat(both):
            return None
        return both


def _paired(term: OutputTerm, kids: tuple[frozenset, ...]) -> OutputTerm:
    """``term`` with every ``q'~(y_i)`` made ``(q', kids[i])~(y_i)``."""
    if isinstance(term, OutApply):
        return OutApply((term.state, kids[term.index]), term.index)
    return OutNode(
        term.ctor, term.attr_exprs, tuple(_paired(c, kids) for c in term.children)
    )
