"""Execution semantics of STTRs (paper Definition 7).

``run`` computes the *set* ``T_q(t)`` of output trees.  The engine is
task-based and iterative: a task is a pair ``(state, subtree)``; tasks
are discovered top-down (duplication may visit a subtree in several
states, deletion may skip it entirely) and evaluated bottom-up, so trees
thousands of nodes deep — the deforestation workloads of Section 5.3 —
run without recursion.

Nondeterministic rules multiply outputs via cross products; ``limit``
caps the set to keep pathological products bounded.  Truncation is
**tracked, not silent**: :func:`run_checked` additionally reports
whether the cap cut the enumeration anywhere the root result depends
on, and ``Transducer.apply`` turns that flag into a typed
:class:`OutputTruncated` signal.
"""

from __future__ import annotations

from typing import Optional

from ..automata.semantics import AcceptanceTable, acceptance_table
from ..guard.budget import tick as _tick
from ..obs import provenance as prov
from ..trees.tree import Tree, dag_post_order
from .output_terms import OutApply, OutNode, OutputTerm
from .sttr import STTR, STTRRule, State, TransducerError


class TransductionError(TransducerError):
    """Raised when an output cannot be assembled (internal invariant)."""


class OutputTruncated(TransducerError):
    """The output enumeration was cut off by ``limit``.

    ``outputs`` holds the (complete up to ``limit``) partial result, so
    callers that *want* best-effort truncation can still recover it::

        try:
            outs = trans.apply(tree, limit=16)
        except OutputTruncated as exc:
            outs = exc.outputs          # explicit opt-in to the cut
    """

    def __init__(self, message: str, outputs: list[Tree], limit: int) -> None:
        super().__init__(message)
        self.outputs = outputs
        self.limit = limit


def _discover_tasks(
    sttr: STTR, tree: Tree, state: State, la: AcceptanceTable
) -> list[tuple[State, Tree, list[STTRRule]]]:
    """All (state, node) tasks reachable from the root, discovery order.

    A child is looked up in the acceptance table only where a rule's
    lookahead set is non-empty; an empty set holds for every child.
    """
    tasks: list[tuple[State, Tree, list[STTRRule]]] = []
    seen: set[tuple[State, int]] = set()
    work: list[tuple[State, Tree]] = [(state, tree)]
    while work:
        q, t = work.pop()
        key = (q, id(t))
        if key in seen:
            continue
        seen.add(key)
        env = sttr.input_type.attr_env(t.attrs)
        applicable = [
            r
            for r in sttr.rules_from(q, t.ctor)
            if bool(r.guard.evaluate(env))
            and all(l <= la(c) for l, c in zip(r.lookahead, t.children) if l)
        ]
        tasks.append((q, t, applicable))
        for r in applicable:
            for term in r.output.iter_terms():
                if isinstance(term, OutApply):
                    work.append((term.state, t.children[term.index]))
    return tasks


def run_checked(
    sttr: STTR,
    tree: Tree,
    state: State | None = None,
    limit: Optional[int] = None,
) -> tuple[list[Tree], bool]:
    """``T_state(tree)`` plus a truncation flag.

    The flag is True when the ``limit`` cap cut an enumeration that the
    root result (transitively) depends on — i.e. the returned list may
    be a strict subset of the true output set.  Detection enumerates up
    to ``limit + 1`` distinct outputs per task before trimming, so a
    task with *exactly* ``limit`` outputs is not falsely flagged; a cut
    inside a deep cross product is propagated through the task
    dependency graph as a taint.
    """
    root_state = sttr.initial if state is None else state
    la = acceptance_table(sttr.lookahead_sta, tree)
    tasks = _discover_tasks(sttr, tree, root_state, la)

    # Dependencies always point at strict subtrees.  Subtree *objects* can
    # be shared (e.g. a single nil leaf), so discovery order is not
    # topological; sorting by subtree height is, since height strictly
    # decreases along every dependency edge.
    heights: dict[int, int] = {}
    for n in dag_post_order(tree):
        heights[id(n)] = 1 + max((heights[id(c)] for c in n.children), default=0)
    tasks.sort(key=lambda task: heights[id(task[1])])

    probe = None if limit is None else limit + 1
    results: dict[tuple[State, int], list[Tree]] = {}
    tainted: set[tuple[State, int]] = set()
    for q, t, applicable in tasks:
        _tick(kind="transducer.task")
        env = sttr.input_type.attr_env(t.attrs)
        outputs: dict[Tree, None] = {}
        cut = False
        for r in applicable:
            produced, capped = _eval_output(r.output, t, env, results, probe)
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
            (term.state, id(t.children[term.index])) in tainted
            for r in applicable
            for term in r.output.iter_terms()
            if isinstance(term, OutApply)
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


def run(
    sttr: STTR,
    tree: Tree,
    state: State | None = None,
    limit: Optional[int] = None,
) -> list[Tree]:
    """All outputs ``T_state(tree)`` (default: the initial state).

    ``limit`` bounds the number of outputs kept per task (None = all),
    silently truncating — use :func:`run_checked` (or
    ``Transducer.apply``, which raises :class:`OutputTruncated`) when
    the cut must be observable.
    """
    outputs, _ = run_checked(sttr, tree, state=state, limit=limit)
    return outputs


def _eval_output(
    term: OutputTerm,
    node: Tree,
    env: dict,
    results: dict,
    probe: Optional[int],
) -> tuple[list[Tree], bool]:
    """Evaluate one output term: (outputs, hit-the-probe-cap?)."""
    if isinstance(term, OutApply):
        return results[(term.state, id(node.children[term.index]))], False
    if isinstance(term, OutNode):
        attrs = tuple(e.evaluate(env) for e in term.attr_exprs)
        kid_lists: list[list[Tree]] = []
        capped = False
        for c in term.children:
            kids, kid_capped = _eval_output(c, node, env, results, probe)
            capped = capped or kid_capped
            kid_lists.append(kids)
        out: list[Tree] = []
        cross_capped = _cross(kid_lists, 0, [], attrs, term.ctor, out, probe)
        return out, capped or cross_capped
    raise TransductionError(f"cannot evaluate extended term {term!r}")


def _cross(
    kid_lists: list[list[Tree]],
    idx: int,
    acc: list[Tree],
    attrs: tuple,
    ctor: str,
    out: list[Tree],
    probe: Optional[int],
) -> bool:
    """Cross product into ``out``; True when the probe cap stopped it."""
    if probe is not None and len(out) >= probe:
        return True
    if idx == len(kid_lists):
        out.append(Tree(ctor, attrs, tuple(acc)))
        return False
    capped = False
    for k in kid_lists[idx]:
        acc.append(k)
        capped = _cross(kid_lists, idx + 1, acc, attrs, ctor, out, probe) or capped
        acc.pop()
        if capped:
            break
    return capped


def run_one(sttr: STTR, tree: Tree, state: State | None = None) -> Optional[Tree]:
    """One output, or None if the input is outside the domain.

    Complete: truncating each task's output set to one element preserves
    non-emptiness bottom-up, so this returns an output exactly when
    ``T_state(tree)`` is non-empty.
    """
    outputs = run(sttr, tree, state=state, limit=1)
    return outputs[0] if outputs else None
