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
  :func:`repro.smt.minterms.minterms` when a solver is at hand.

* **Output assembly is a closure.**  Each rule body is lowered once
  into a nest of closures mirroring ``run._eval_output`` (cross
  products via the shared ``run._cross``), so the per-task work is
  calls, not ``isinstance`` dispatch over output terms.

:func:`run_compiled_checked` walks the tree once (the lookahead pass
and the height sort share one post-order) and replicates the
interpreter's observable semantics *exactly* — task discovery order,
height-sorted evaluation, ``limit``/probe truncation and taint
propagation, one ``transducer.task`` budget tick per task, the
provenance note — and is property-tested equivalent
(``tests/exec/test_compiled_equivalence``).
"""

from __future__ import annotations

from typing import Callable, Optional

from ..automata.semantics import acceptance_table
from ..guard.budget import tick as _tick
from ..obs import config as obs_config
from ..obs import metrics as obs_metrics
from ..obs import provenance as prov
from ..smt.minterms import minterms
from ..smt.solver import Solver
from ..smt.terms import Term
from ..transducers.output_terms import OutApply, OutNode, OutputTerm
from ..transducers.run import TransductionError, _cross
from ..transducers.sttr import STTR, STTRRule, State
from ..trees.tree import Tree, dag_post_order

_OBS_COMPILES = obs_metrics.counter("exec.compile")
_OBS_DISPATCH = obs_metrics.counter("exec.dispatch")
_OBS_DISPATCH_MEMO = obs_metrics.counter("exec.dispatch.table_fills")
_OBS_CLASSIFY = obs_metrics.counter("exec.classify")

#: ``emit(env, node, results, probe) -> (outputs, hit-the-probe-cap?)``
Emit = Callable[[dict, Tree, dict, Optional[int]], tuple[list[Tree], bool]]


def _lower_output(term: OutputTerm) -> Emit:
    """One output term -> a pre-resolved assembly closure.

    Mirrors ``run._eval_output`` case by case; the ``isinstance``
    dispatch happens here, once, instead of on every task.
    """
    if isinstance(term, OutApply):
        state, index = term.state, term.index

        def emit_apply(env, node, results, probe):
            return results[(state, id(node.children[index]))], False

        return emit_apply
    if isinstance(term, OutNode):
        ctor = term.ctor
        attr_evals = tuple(e.evaluate for e in term.attr_exprs)
        kids = tuple(_lower_output(c) for c in term.children)

        def emit_node(env, node, results, probe):
            attrs = tuple(ev(env) for ev in attr_evals)
            kid_lists: list[list[Tree]] = []
            capped = False
            for kid in kids:
                outs, kid_capped = kid(env, node, results, probe)
                capped = capped or kid_capped
                kid_lists.append(outs)
            out: list[Tree] = []
            cross_capped = _cross(kid_lists, 0, [], attrs, ctor, out, probe)
            return out, capped or cross_capped

        return emit_node
    raise TransductionError(f"cannot lower extended term {term!r}")


class CompiledRule:
    """One lowered rule: guard slot + lookahead + targets + emitter."""

    __slots__ = ("rule", "guard_slot", "lookahead", "targets", "emit")

    def __init__(self, rule: STTRRule, guard_slot: int) -> None:
        self.rule = rule
        #: Index of this rule's guard in the symbol's distinct-guard tuple.
        self.guard_slot = guard_slot
        self.lookahead = rule.lookahead
        #: ``(state, child index)`` pairs, in output-term iteration order
        #: (the interpreter's discovery/taint order depends on it).
        self.targets = tuple(
            (t.state, t.index)
            for t in rule.output.iter_terms()
            if isinstance(t, OutApply)
        )
        self.emit = _lower_output(rule.output)


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
                CompiledRule(r, guard_slots[r.ctor][r.guard])
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
    order = dag_post_order(tree)
    la_table = acceptance_table(sttr.lookahead_sta, tree, order)
    attr_env = sttr.input_type.attr_env

    # Per-run caches.  A sign vector depends only on the node's symbol
    # and attribute tuple, so each distinct (symbol, attribute tuple)
    # evaluates each distinct guard at most once, however many nodes
    # carry it and however many states visit them.  Attribute envs stay
    # per node: output expressions copy values out of them, and a value
    # keyed memo would let ``1`` stand in for ``True``.
    envs: dict[int, dict] = {}
    signs_of: dict[tuple, tuple[bool, ...]] = {}

    def node_env(t: Tree) -> dict:
        env = envs.get(id(t))
        if env is None:
            env = attr_env(t.attrs)
            envs[id(t)] = env
        return env

    def node_signs(t: Tree) -> tuple[bool, ...]:
        key = (t.ctor, t.attrs)
        signs = signs_of.get(key)
        if signs is None:
            signs = compiled.classify(t, node_env(t))
            signs_of[key] = signs
            if obs_config.ENABLED:
                _OBS_CLASSIFY.inc()
        return signs

    # Discovery: identical traversal order to run._discover_tasks, with
    # guard evaluation replaced by the dispatch-table lookup.
    tasks: list[tuple[State, Tree, tuple[CompiledRule, ...]]] = []
    seen: set[tuple[State, int]] = set()
    work: list[tuple[State, Tree]] = [(root_state, tree)]
    while work:
        q, t = work.pop()
        key = (q, id(t))
        if key in seen:
            continue
        seen.add(key)
        dispatched = compiled.dispatch(q, t.ctor, node_signs(t))
        applicable = tuple(
            cr
            for cr in dispatched
            if all(l <= la_table[id(c)] for l, c in zip(cr.lookahead, t.children))
        )
        tasks.append((q, t, applicable))
        for cr in applicable:
            for target_state, index in cr.targets:
                work.append((target_state, t.children[index]))

    # Bottom-up evaluation sorted by subtree height (see run_checked for
    # why discovery order is not topological over shared subtrees).
    heights: dict[int, int] = {}
    for n in order:
        heights[id(n)] = 1 + max((heights[id(c)] for c in n.children), default=0)
    tasks.sort(key=lambda task: heights[id(task[1])])

    probe = None if limit is None else limit + 1
    results: dict[tuple[State, int], list[Tree]] = {}
    tainted: set[tuple[State, int]] = set()
    for q, t, applicable in tasks:
        _tick(kind="transducer.task")
        env = node_env(t)
        outputs: dict[Tree, None] = {}
        cut = False
        for cr in applicable:
            produced, capped = cr.emit(env, t, results, probe)
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
        key = (q, id(t))
        if cut or any(
            (target_state, id(t.children[index])) in tainted
            for cr in applicable
            for target_state, index in cr.targets
        ):
            tainted.add(key)
        results[key] = kept
    root_key = (root_state, id(tree))
    if prov.is_active():
        prov.note(
            "run",
            f"ran {sttr.name} from state {root_state}: {len(tasks)} tasks, "
            f"{len(results[root_key])} output(s)",
        )
    return results[root_key], root_key in tainted
