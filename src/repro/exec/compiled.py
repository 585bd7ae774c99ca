"""Closure lowering: STTR -> dispatch tables + output closures.

The interpreter (:mod:`repro.transducers.run`) re-walks rule lists and
re-evaluates each rule's guard at every (state, node) task.  Lowering
factors that work out of the hot loop:

* **Guards are deduplicated per symbol.**  All rules for a constructor
  share one ordered tuple of *distinct* guard terms (hash-consing makes
  duplicates identical objects, so dedup is an identity test).  A node
  is classified into a **sign vector** — the tuple of guard truth
  values under its attributes — which is exactly a minterm id over the
  symbol's guard predicates (paper Section 4's minterm construction).
  The vector depends only on ``(symbol, attributes)``, so a run
  computes it once per distinct pair (``exec.classify`` counts those
  computations), not once per node.

* **Dispatch is a table lookup.**  ``(state, symbol, sign vector) ->
  tuple of applicable rules`` is memoized: the guard subset test runs
  once per distinct minterm, not once per node.  Tables fill lazily
  from observed sign vectors (an observed vector is its own
  satisfiability proof — no solver involved); :meth:`CompiledSTTR.
  precompute` eagerly enumerates the satisfiable vectors with
  :func:`repro.smt.minterms.minterms` when a solver is at hand.  A run
  memoizes each pair's dispatched rules on ``(state, symbol,
  attributes)``, so a pair whose rules carry no lookahead costs one
  lookup; ``exec.dispatch`` still counts every pair.

* **Output assembly is a closure, lowered twice.**  Each rule body
  becomes a nest of closures mirroring ``run._eval_output`` (cross
  products via the shared ``run._cross``), and a second nest that
  returns one tree or None.  A run capped at one output per task
  (``limit=1``, i.e. ``apply_one``) holds at most one tree per child
  result, so its cross products have at most one element and the
  second lowering builds it with no lists.  Output attributes are
  lowered with the body (:func:`_lower_attrs`): copies and constants
  read the node's ``attrs`` directly, so only an output computing a
  new value builds an attribute environment.

:func:`run_compiled_checked` is one explicit-stack post-order walk
over ``(state, node)`` pairs: a pair is dispatched on the way down and
emits on the way up, after every pair it reads.  Lookahead is read
from an :class:`~repro.automata.semantics.AcceptanceTable` only at the
children a rule constrains; the table walks only the positions its
automaton constrains and fills any other node on demand.  The walk
replicates the interpreter's observable semantics *exactly* — output
order, ``limit``/probe truncation and taint propagation, one
``transducer.task`` budget tick per reachable pair, the provenance
note — for every STTR, deterministic or not, and is property-tested
equivalent (``tests/exec/test_compiled_equivalence``).
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Optional

from ..automata.semantics import acceptance_table
from ..guard.budget import active as _active_budgets
from ..guard.budget import tick as _tick
from ..obs import config as obs_config
from ..obs import metrics as obs_metrics
from ..obs import provenance as prov
from ..smt.minterms import minterms
from ..smt.solver import Solver
from ..smt.terms import Const, Term
from ..transducers.output_terms import OutApply, OutNode, OutputTerm
from ..transducers.run import TransductionError, _cross
from ..transducers.sttr import STTR, STTRRule, State
from ..trees.tree import Tree
from ..trees.types import TreeType

_OBS_COMPILES = obs_metrics.counter("exec.compile")
_OBS_DISPATCH = obs_metrics.counter("exec.dispatch")
_OBS_DISPATCH_MEMO = obs_metrics.counter("exec.dispatch.table_fills")
_OBS_CLASSIFY = obs_metrics.counter("exec.classify")

#: ``emit(node, results, probe) -> (outputs, hit-the-probe-cap?)``
Emit = Callable[[Tree, dict, Optional[int]], tuple[list[Tree], bool]]
#: ``emit_one(node, results) -> the one output, or None``
EmitOne = Callable[[Tree, dict], Optional[Tree]]
#: ``attrs_of(node) -> the output node's attribute tuple``
AttrsOf = Callable[[Tree], tuple]

_own_attrs: AttrsOf = attrgetter("attrs")


def _lower_attrs(exprs: tuple[Term, ...], input_type: TreeType) -> AttrsOf:
    """An output node's attribute expressions -> ``attrs_of(node)``.

    The identity field list is ``node.attrs`` itself; a field variable
    reads ``node.attrs`` by index and a constant is its value.  Only
    other expressions are evaluated, against an attribute env built
    when they are.  Every branch yields the values evaluation would,
    the very objects (a copied ``1`` stays an ``int``), for trees that
    carry one value per field of the input type.
    """
    fields = input_type.attr_vars()
    if exprs == fields:
        return _own_attrs
    slot_of = {v: i for i, v in enumerate(fields)}
    if all(isinstance(e, Const) or e in slot_of for e in exprs):
        parts = tuple(
            (None, e.value) if isinstance(e, Const) else (slot_of[e], None)
            for e in exprs
        )

        def copy_attrs(node):
            attrs = node.attrs
            return tuple([v if i is None else attrs[i] for i, v in parts])

        return copy_attrs
    attr_env = input_type.attr_env
    evals = tuple(e.evaluate for e in exprs)

    def eval_attrs(node):
        env = attr_env(node.attrs)
        return tuple([ev(env) for ev in evals])

    return eval_attrs


def _lower_output(term: OutputTerm, input_type: TreeType) -> Emit:
    """One output term -> a pre-resolved assembly closure.

    Mirrors ``run._eval_output`` case by case; the ``isinstance``
    dispatch happens here, once, instead of on every task.
    """
    if isinstance(term, OutApply):
        state, index = term.state, term.index

        def emit_apply(node, results, probe):
            return results[(state, id(node.children[index]))], False

        return emit_apply
    if isinstance(term, OutNode):
        ctor = term.ctor
        attrs_of = _lower_attrs(term.attr_exprs, input_type)
        kids = tuple(_lower_output(c, input_type) for c in term.children)

        def emit_node(node, results, probe):
            attrs = attrs_of(node)
            kid_lists: list[list[Tree]] = []
            capped = False
            for kid in kids:
                outs, kid_capped = kid(node, results, probe)
                capped = capped or kid_capped
                kid_lists.append(outs)
            out: list[Tree] = []
            cross_capped = _cross(kid_lists, 0, [], attrs, ctor, out, probe)
            return out, capped or cross_capped

        return emit_node
    raise TransductionError(f"cannot lower extended term {term!r}")


def _lower_output_one(term: OutputTerm, input_type: TreeType) -> EmitOne:
    """One output term -> a closure building its single output.

    The ``limit=1`` twin of :func:`_lower_output`: every child result
    is one tree or None, so the cross product is that one tree or
    empty (None).  Attributes and children are evaluated in the same
    order, and all of them, as the list closure does.
    """
    if isinstance(term, OutApply):
        state, index = term.state, term.index

        def emit_apply(node, results):
            return results[(state, id(node.children[index]))]

        return emit_apply
    if isinstance(term, OutNode):
        ctor = term.ctor
        attrs_of = _lower_attrs(term.attr_exprs, input_type)
        kids = tuple(_lower_output_one(c, input_type) for c in term.children)

        def emit_node(node, results):
            attrs = attrs_of(node)
            children = tuple([kid(node, results) for kid in kids])
            for child in children:
                if child is None:
                    return None
            return Tree(ctor, attrs, children)

        return emit_node
    raise TransductionError(f"cannot lower extended term {term!r}")


class CompiledRule:
    """One lowered rule: guard slot + lookahead + targets + emitters."""

    __slots__ = ("rule", "guard_slot", "lookahead", "targets", "emit", "emit_one")

    def __init__(self, rule: STTRRule, guard_slot: int, input_type: TreeType) -> None:
        self.rule = rule
        #: Index of this rule's guard in the symbol's distinct-guard tuple.
        self.guard_slot = guard_slot
        #: ``(child index, states)`` for each constrained child; an empty
        #: lookahead set holds for every child, so it is left out.
        self.lookahead = tuple(
            (i, states) for i, states in enumerate(rule.lookahead) if states
        )
        #: ``(state, child index)`` pairs the rule's output reads.
        self.targets = tuple(
            (t.state, t.index)
            for t in rule.output.iter_terms()
            if isinstance(t, OutApply)
        )
        self.emit = _lower_output(rule.output, input_type)
        self.emit_one = _lower_output_one(rule.output, input_type)


class CompiledSTTR:
    """An STTR lowered to dispatch tables and output closures."""

    def __init__(self, sttr: STTR) -> None:
        self.sttr = sttr
        # Distinct guards per symbol, in first-occurrence order.  Terms
        # are hash-consed, so dict identity doubles as term equality.
        guard_slots: dict[str, dict[Term, int]] = {}
        for r in sttr.rules:
            slots = guard_slots.setdefault(r.ctor, {})
            if r.guard not in slots:
                slots[r.guard] = len(slots)
        self.ctor_guards: dict[str, tuple[Term, ...]] = {
            ctor: tuple(slots) for ctor, slots in guard_slots.items()
        }
        # Lowered rules grouped like STTR._index, preserving rule order
        # (output ordering of nondeterministic rules depends on it).
        self.rules_by_key: dict[tuple[State, str], tuple[CompiledRule, ...]] = {}
        grouped: dict[tuple[State, str], list[CompiledRule]] = {}
        for r in sttr.rules:
            grouped.setdefault((r.state, r.ctor), []).append(
                CompiledRule(r, guard_slots[r.ctor][r.guard], sttr.input_type)
            )
        self.rules_by_key = {k: tuple(v) for k, v in grouped.items()}
        # (state, ctor, sign vector) -> applicable rules; filled lazily
        # from observed vectors, eagerly by precompute().
        self._table: dict[
            tuple[State, str, tuple[bool, ...]], tuple[CompiledRule, ...]
        ] = {}
        _OBS_COMPILES.inc()

    # -- dispatch ----------------------------------------------------------

    def classify(self, node: Tree, env: dict) -> tuple[bool, ...]:
        """The node's sign vector over its symbol's distinct guards."""
        guards = self.ctor_guards.get(node.ctor)
        if not guards:
            return ()
        return tuple(bool(g.evaluate(env)) for g in guards)

    def dispatch(
        self, state: State, ctor: str, signs: tuple[bool, ...]
    ) -> tuple[CompiledRule, ...]:
        """Applicable rules for ``(state, ctor)`` under a sign vector."""
        key = (state, ctor, signs)
        rules = self._table.get(key)
        if rules is None:
            base = self.rules_by_key.get((state, ctor), ())
            rules = tuple(r for r in base if signs[r.guard_slot])
            self._table[key] = rules
            if obs_config.ENABLED:
                _OBS_DISPATCH_MEMO.inc()
        if obs_config.ENABLED:
            _OBS_DISPATCH.inc()
        return rules

    def precompute(self, solver: Solver) -> int:
        """Eagerly fill the dispatch table for every satisfiable minterm.

        Enumerates the satisfiable sign vectors of each symbol's guard
        set with :func:`repro.smt.minterms.minterms` (solver-pruned sign
        DFS) and materializes the table rows, so a warm run never takes
        the lazy-fill branch.  Returns the number of table entries.
        """
        states_by_ctor: dict[str, list[State]] = {}
        for state, ctor in self.rules_by_key:
            states_by_ctor.setdefault(ctor, []).append(state)
        for ctor, guards in self.ctor_guards.items():
            for signs, _conj in minterms(list(guards), solver):
                vector = tuple(signs)
                for state in states_by_ctor.get(ctor, ()):
                    self.dispatch(state, ctor, vector)
        return len(self._table)

    def table_size(self) -> int:
        return len(self._table)


def run_compiled_checked(
    compiled: CompiledSTTR,
    tree: Tree,
    state: State | None = None,
    limit: Optional[int] = None,
) -> tuple[list[Tree], bool]:
    """``T_state(tree)`` plus a truncation flag, via the compiled tier.

    Same contract (and the same observable effects: budget ticks,
    provenance note, output order) as
    :func:`repro.transducers.run.run_checked`.
    """
    sttr = compiled.sttr
    root_state = sttr.initial if state is None else state
    la = acceptance_table(sttr.lookahead_sta, tree)
    attr_env = sttr.input_type.attr_env
    budgets = _active_budgets()
    counting = obs_config.ENABLED

    # A sign vector depends only on the node's symbol and attribute
    # tuple, so each distinct (symbol, attribute tuple) evaluates each
    # distinct guard at most once, however many nodes carry it and
    # however many states visit them.  The rules a state dispatches to
    # depend on the same key plus the state, so a pair costs one lookup
    # in ``rules_of``: ``(rules, any of them has lookahead?)``.  Only
    # truth values and rules are memoized, never attribute values:
    # output expressions copy values out of each node itself, and a
    # value-keyed memo would let ``1`` stand in for ``True``.
    signs_of: dict[tuple, tuple[bool, ...]] = {}
    rules_of: dict[tuple, tuple[tuple[CompiledRule, ...], bool]] = {}

    # One post-order walk over (state, node) pairs.  A pair is pushed
    # with ``applicable=None``; popped so, it is dispatched and pushed
    # back with its applicable rules above the pairs its rules read.
    # Popped the second time, every pair it reads has a result, and it
    # emits its own.  Targets are strict subtrees, so a pair already
    # entered is finished whenever it is reached again.
    single = limit == 1
    probe = None if limit is None else limit + 1
    results: dict[tuple[State, int], object] = {}
    tainted: set[tuple[State, int]] = set()
    entered: set[tuple[State, int]] = set()
    stack: list[tuple[State, Tree, Optional[tuple[CompiledRule, ...]]]] = [
        (root_state, tree, None)
    ]
    while stack:
        q, t, applicable = stack.pop()
        key = (q, id(t))
        if applicable is None:
            if key in entered:
                continue
            entered.add(key)
            kids = t.children
            rules_key = (q, t.ctor, t.attrs)
            dispatched = rules_of.get(rules_key)
            if dispatched is None:
                sign_key = (t.ctor, t.attrs)
                signs = signs_of.get(sign_key)
                if signs is None:
                    signs = compiled.classify(t, attr_env(t.attrs))
                    signs_of[sign_key] = signs
                    if counting:
                        _OBS_CLASSIFY.inc()
                rules = compiled.dispatch(q, t.ctor, signs)
                dispatched = (rules, any(cr.lookahead for cr in rules))
                rules_of[rules_key] = dispatched
            elif counting:
                _OBS_DISPATCH.inc()
            applicable, constrained = dispatched
            if constrained:
                applicable = tuple(
                    cr
                    for cr in applicable
                    if all(l <= la(kids[i]) for i, l in cr.lookahead)
                )
            stack.append((q, t, applicable))
            for cr in applicable:
                for target_state, index in cr.targets:
                    stack.append((target_state, kids[index], None))
            continue
        if budgets:
            _tick(kind="transducer.task")
        cut = False
        if single:
            # At most one output per pair: the first applicable rule's,
            # cut when a later rule yields a different tree.
            kept = None
            for cr in applicable:
                out = cr.emit_one(t, results)
                if out is None or out is kept:
                    continue
                if kept is None:
                    kept = out
                elif out != kept:
                    cut = True
                    break
        else:
            outputs: dict[Tree, None] = {}
            for cr in applicable:
                produced, capped = cr.emit(t, results, probe)
                cut = cut or capped
                for out in produced:
                    outputs.setdefault(out)
                if limit is not None and len(outputs) > limit:
                    cut = True
                    break
            kept = list(outputs)
            if limit is not None and len(kept) > limit:
                cut = True
                kept = kept[:limit]
        if cut or (
            tainted
            and any(
                (target_state, id(t.children[index])) in tainted
                for cr in applicable
                for target_state, index in cr.targets
            )
        ):
            tainted.add(key)
        results[key] = kept
    root_key = (root_state, id(tree))
    root = results[root_key]
    if single:
        root = [] if root is None else [root]
    if prov.is_active():
        prov.note(
            "run",
            f"ran {sttr.name} from state {root_state}: {len(results)} tasks, "
            f"{len(root)} output(s)",
        )
    return root, root_key in tainted
