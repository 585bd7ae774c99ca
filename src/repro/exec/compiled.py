"""Generated code: STTR -> dispatch tables + one generated Python walk.

The interpreter (:mod:`repro.transducers.run`) re-walks rule lists and
re-evaluates each rule's guard at every (state, node) task.  The
compiled tier factors that work out of the hot loop:

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
  satisfiability proof — no solver involved).  A run memoizes each
  pair's dispatched rules per ``(state, symbol)`` on the attribute
  tuple, so a pair whose rules carry no lookahead costs one lookup;
  ``exec.dispatch`` counts every pair.

* **The walk is generated source.**  Like Fast's C# backend (paper
  Section 2), each STTR gets its own code: :func:`_generate` writes
  two Python functions, ``walk_one`` for runs capped at one output per
  pair (``limit=1``, i.e. ``apply_one``) and ``walk_all`` for the rest.
  Each is one explicit-stack post-order loop (``val`` chains of the
  HTML encoding are thousands deep) with one branch per state, the
  constructor dispatch inlined under it, and every rule's output
  assembled inline: output nodes are ``Tree(...)`` calls on the
  results of the pairs the rule reads, copied attributes are reads of
  ``node.attrs``, constant attribute tuples are built once, and only
  an attribute computing a new value builds an attribute environment.
  In ``walk_one`` an output node that copies the input node (its
  symbol, its identity field list, child ``i`` computed from child
  ``i``) is the input node itself whenever each result read is the very
  child it came from, so a pass that changes little builds little.
  Results are kept per state, keyed by node identity, and a rule whose
  output reads no child is emitted on the way down.  The source is
  written and compiled on the first run and kept on the
  :class:`CompiledSTTR`; analyses that never run a transducer never
  pay for it.

* **Unary chains run in one loop.**  A *chain group* is a (state
  ``q``, constructor ``c``) group where ``c`` is unary, no rule has
  lookahead and every rule reads just its child in ``q`` (the ``val``
  character chains of the HTML encoding, in a copying state).
  ``walk_one`` enters such a pair and the pairs below it in one loop,
  going on while the node had a rule and the child is a ``c`` node
  with no result in ``q``, then emits the whole run from one stack
  entry, bottom-up.  The stack walk entered those pairs one after the
  other too, and emitted them bottom-up, so classification, the
  ``exec.dispatch`` count and the budget ticks happen for the same
  pairs in the same order.

**No program text enters the source.**  ``fast serve`` compiles
untrusted programs, so constructor names, states, attribute constants,
lookahead sets and guard terms are bound as values in the namespace the
source is executed in, under names the generator makes up (``K0``,
``S1``, ``A2`` ...); the source itself holds only those names, small
integers and the generator's own code.

The walk replicates the interpreter's observable semantics *exactly* —
output order, ``limit``/probe truncation and taint propagation, one
``transducer.task`` budget tick per reachable pair, the provenance
note — for every STTR, deterministic or not, and is property-tested
equivalent (``tests/exec/test_compiled_equivalence``).
"""

from __future__ import annotations

from typing import Callable, Optional

from ..automata.semantics import acceptance_table
from ..guard.budget import active as _active_budgets
from ..guard.budget import tick as _tick
from ..obs import config as obs_config
from ..obs import metrics as obs_metrics
from ..obs import provenance as prov
from ..smt.terms import Const, Term
from ..transducers.output_terms import OutApply, OutNode, OutputTerm
from ..transducers.run import TransductionError, _cross
from ..transducers.sttr import STTR, STTRRule, State
from ..trees.tree import Tree, pause_collector, resume_collector
from ..trees.types import TreeType

_OBS_COMPILES = obs_metrics.counter("exec.compile")
_OBS_DISPATCH = obs_metrics.counter("exec.dispatch")
_OBS_DISPATCH_MEMO = obs_metrics.counter("exec.dispatch.table_fills")
_OBS_CLASSIFY = obs_metrics.counter("exec.classify")

#: ``walk(tree, root state index, states, limit, lookahead table,
#: budgets active?, counting?) -> (root result, root tainted?, tasks)``
Walk = Callable[..., tuple[object, bool, int]]


class CompiledRule:
    """One rule's dispatch data: guard slot, lookahead and targets."""

    __slots__ = ("rule", "index", "guard_slot", "lookahead", "targets")

    def __init__(self, rule: STTRRule, index: int, guard_slot: int) -> None:
        self.rule = rule
        #: Position in ``STTR.rules``; the generated walk names rules by it.
        self.index = index
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


class CompiledSTTR:
    """An STTR lowered to dispatch tables and a generated walk."""

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
        self.rules = tuple(
            CompiledRule(r, i, guard_slots[r.ctor][r.guard])
            for i, r in enumerate(sttr.rules)
        )
        # Rules grouped like STTR._index, preserving rule order (output
        # ordering of nondeterministic rules depends on it).
        grouped: dict[tuple[State, str], list[CompiledRule]] = {}
        for cr in self.rules:
            grouped.setdefault((cr.rule.state, cr.rule.ctor), []).append(cr)
        self.rules_by_key: dict[tuple[State, str], tuple[CompiledRule, ...]] = {
            k: tuple(v) for k, v in grouped.items()
        }
        # Every state a run can be in: the initial one, then rule states
        # and target states in rule order.  The walk numbers them so.
        index: dict[State, int] = {sttr.initial: 0}
        for cr in self.rules:
            for s in (cr.rule.state, *(s for s, _ in cr.targets)):
                index.setdefault(s, len(index))
        self.state_index = index
        self.states: tuple[State, ...] = tuple(index)
        # (state, ctor, sign vector) -> applicable rules, filled lazily
        # from observed vectors.
        self._table: dict[
            tuple[State, str, tuple[bool, ...]], tuple[CompiledRule, ...]
        ] = {}
        #: The generated walk's source, once the first run wrote it.
        self.source: Optional[str] = None
        self._walks: Optional[tuple[Walk, Walk]] = None
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
        return rules

    # -- the generated walk ------------------------------------------------

    def walks(self) -> tuple[Walk, Walk]:
        """``(walk_one, walk_all)``, generated and compiled on first use."""
        if self._walks is None:
            source, namespace = _generate(self)
            exec(compile(source, f"<compiled {self.sttr.name}>", "exec"), namespace)
            self.source = source
            self._walks = (namespace["walk_one"], namespace["walk_all"])
        return self._walks

    def _rule_ids(
        self, state: State, node: Tree, signs_of: dict, counting: bool
    ) -> tuple[int, ...]:
        """The rules ``state`` may apply at ``node``, by index: the walk's
        slow path when its per-run memo misses.

        A sign vector depends only on the node's symbol and attribute
        tuple, so ``signs_of`` (one per run) makes each distinct pair
        evaluate each distinct guard at most once, however many nodes
        carry it and however many states visit them.  Only truth values
        and rules are memoized, never attribute values: outputs copy
        values out of each node itself, and a value-keyed memo would let
        ``1`` stand in for ``True``.
        """
        key = (node.ctor, node.attrs)
        signs = signs_of.get(key)
        if signs is None:
            signs = self.classify(node, self.sttr.input_type.attr_env(node.attrs))
            signs_of[key] = signs
            if counting:
                _OBS_CLASSIFY.inc()
        return tuple(cr.index for cr in self.dispatch(state, node.ctor, signs))

    def _reads_tainted(self, rule_ids, node: Tree, tainted: set) -> bool:
        """Does any of the rules read a pair whose result was cut?"""
        kids = node.children
        index = self.state_index
        return any(
            (index[s], id(kids[i])) in tainted
            for r in rule_ids
            for s, i in self.rules[r].targets
        )


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
    pause_collector()
    try:
        sttr = compiled.sttr
        root_state = sttr.initial if state is None else state
        la = acceptance_table(sttr.lookahead_sta, tree)
        walk_one, walk_all = compiled.walks()
        states = compiled.states
        q = compiled.state_index.get(root_state)
        if q is None:
            # A state no rule mentions: the walk's fallback branch runs it.
            q = len(states)
            states = states + (root_state,)
        budgets = bool(_active_budgets())
        counting = obs_config.ENABLED
        if limit == 1:
            root, truncated, tasks = walk_one(tree, q, states, limit, la, budgets, counting)
            root = [] if root is None else [root]
        else:
            root, truncated, tasks = walk_all(tree, q, states, limit, la, budgets, counting)
        if prov.is_active():
            prov.note(
                "run",
                f"ran {sttr.name} from state {root_state}: {tasks} tasks, "
                f"{len(root)} output(s)",
            )
        return root, truncated
    finally:
        resume_collector()


# -- source generation -------------------------------------------------------


class _Namespace:
    """The values generated source refers to, under generated names."""

    def __init__(self) -> None:
        self.values: dict[str, object] = {}
        self._names: dict[tuple[str, object], str] = {}

    def bind(self, prefix: str, value: object, key: object = None) -> str:
        """A name for ``value``; values bound under one ``key`` (default:
        the value) share it."""
        slot = (prefix, value if key is None else key)
        name = self._names.get(slot)
        if name is None:
            name = f"{prefix}{len(self._names)}"
            self._names[slot] = name
            self.values[name] = value
        return name


def _attrs_source(
    exprs: tuple[Term, ...], input_type: TreeType, ns: _Namespace
) -> tuple[str, Optional[str]]:
    """An output node's attribute expressions -> ``(source, reads)``.

    The identity field list is ``t.attrs`` itself, and an all-constant
    list is a tuple built once; both read nothing (``reads`` is None)
    and cannot fail.  Otherwise a field variable reads ``a`` (the
    node's ``attrs``) by index and a constant is its value (``reads``
    is ``"a"``), or, when some expression computes a new value, every
    expression is evaluated against the attribute env ``env``
    (``reads`` is ``"env"``).  Every form yields the values evaluation
    would, the very objects (a copied ``1`` stays an ``int``), for trees
    that carry one value per field of the input type.
    """
    fields = input_type.attr_vars()
    if exprs == fields:
        return "t.attrs", None
    if all(isinstance(e, Const) for e in exprs):
        return ns.bind("A", tuple(e.value for e in exprs), ("A", exprs)), None
    slot_of = {v: i for i, v in enumerate(fields)}
    if all(isinstance(e, Const) or e in slot_of for e in exprs):
        parts = [
            ns.bind("C", e.value, e) if isinstance(e, Const) else f"a[{slot_of[e]}]"
            for e in exprs
        ]
        return "(" + "".join(p + ", " for p in parts) + ")", "a"
    parts = [ns.bind("E", e.evaluate, e) + "(env)" for e in exprs]
    return "(" + "".join(p + ", " for p in parts) + ")", "env"


class _RuleCode:
    """The statements that compute one rule's output inside the walk.

    Attribute tuples that can fail are computed first, in pre-order
    (the order evaluation meets them), then the results of the pairs
    the rule reads; the output is assembled from those.

    In single-output mode an output node that copies the input node ``t``
    (the rule's symbol, the identity field list, and child ``i`` the
    result of a pair on child ``i``, for every child of the symbol) is
    ``t`` itself whenever every result read is the child object it was
    computed from: the tree it would build equals ``t``.
    """

    def __init__(
        self, compiled: CompiledSTTR, cr: CompiledRule, ns: _Namespace, single: bool
    ) -> None:
        self.ns = ns
        self.input_type = compiled.sttr.input_type
        self.ctor = cr.rule.ctor
        self.rank = self.input_type.rank(self.ctor)
        self.state_index = compiled.state_index
        self.single = single
        self.reads: set[str] = set()
        self.attr_lines: list[str] = []
        self.read_lines: list[str] = []
        self.cross_lines: list[str] = []
        self.capped: list[str] = []
        self.expr = self._term(cr.rule.output)

    def _term(self, term: OutputTerm) -> str:
        if isinstance(term, OutApply):
            var = f"v{len(self.read_lines)}"
            results = f"R{self.state_index[term.state]}"
            self.read_lines.append(f"{var} = {results}[id(k[{term.index}])]")
            return var
        if isinstance(term, OutNode):
            attrs, reads = _attrs_source(term.attr_exprs, self.input_type, self.ns)
            if reads is not None:
                self.reads.add(reads)
                var = f"x{len(self.attr_lines)}"
                self.attr_lines.append(f"{var} = {attrs}")
                attrs = var
            ctor = self.ns.bind("K", term.ctor)
            kids = [self._term(c) for c in term.children]
            if self.single:
                built = f"Tree({ctor}, {attrs}, ({''.join(k + ', ' for k in kids)}))"
                if not self._copies_input(term):
                    return built
                if not kids:
                    return "t"
                same = " and ".join(f"{v} is k[{i}]" for i, v in enumerate(kids))
                return f"(t if {same} else {built})"
            n = len(self.capped)
            self.cross_lines += [
                f"l{n} = []",
                f"c{n} = CROSS([{', '.join(kids)}], 0, [], {attrs}, {ctor}, l{n}, probe)",
            ]
            self.capped.append(f"c{n}")
            return f"l{n}"
        raise TransductionError(f"cannot lower extended term {term!r}")

    def _copies_input(self, term: OutNode) -> bool:
        """Is ``term`` the input node rebuilt from its own children's
        results, ``ctor[fields](p0(y0) .. pn(yn))`` for the rule's symbol?"""
        return (
            term.ctor == self.ctor
            and term.attr_exprs == self.input_type.attr_vars()
            and len(term.children) == self.rank
            and all(
                isinstance(c, OutApply) and c.index == i
                for i, c in enumerate(term.children)
            )
        )

    def lines(self) -> list[str]:
        """Statements leaving the rule's output in ``out`` (one tree or
        None) or, in list mode, its outputs in ``produced`` and whether
        a cross product hit the probe cap in ``capped``."""
        body = []
        if "env" in self.reads:
            body.append("env = ENV(t.attrs)")
        if "a" in self.reads:
            body.append("a = t.attrs")
        body += self.attr_lines + self.read_lines
        if not self.single:
            capped = " or ".join(self.capped) if self.capped else "False"
            return body + self.cross_lines + [
                f"produced = {self.expr}",
                f"capped = {capped}",
            ]
        if not self.read_lines or self.expr == "v0":
            # Nothing read, or the output is the one result read.
            return body + [f"out = {self.expr}"]
        missing = " or ".join(f"v{n} is None" for n in range(len(self.read_lines)))
        return body + [
            f"if {missing}:",
            "    out = None",
            "else:",
            f"    out = {self.expr}",
        ]


def _indent(lines: list[str], depth: int = 1) -> list[str]:
    pad = "    " * depth
    return [pad + line for line in lines]


def _by_rule(
    rules: tuple[CompiledRule, ...],
    code: Callable[[CompiledRule], list[str]],
    group: tuple[CompiledRule, ...],
) -> list[str]:
    """The body of ``for r in app:`` running each of ``rules``'
    statements, where ``app`` holds rules of ``group``."""
    if len(group) == 1:
        return code(group[0])
    out: list[str] = []
    for n, cr in enumerate(rules):
        out.append(f"{'elif' if n else 'if'} r == {cr.index}:")
        out += _indent(code(cr))
    return out


def _emit_lines(
    compiled: CompiledSTTR,
    rules: tuple[CompiledRule, ...],
    q: Optional[int],
    ns: _Namespace,
    single: bool,
) -> list[str]:
    """Statements that tick, emit the result of pair ``(q, t)`` from the
    rules in ``app`` (a subset of ``rules``) and record it.  ``q`` is
    None in the fallback branch, where the state index is a variable."""
    codes = {cr.index: _RuleCode(compiled, cr, ns, single).lines() for cr in rules}
    lines = ["if budgets:", '    TICK(kind="transducer.task")', "cut = False"]
    if single and len(rules) == 1:
        # One rule, so at most one output: nothing to compare or cut.
        lines += ["kept = None", "if app:", "    k = t.children"]
        lines += _indent(codes[rules[0].index] + ["kept = out"])
    elif single:
        lines.append("kept = None")
        if rules:
            lines += ["k = t.children", "for r in app:"]
            lines += _indent(_by_rule(rules, lambda cr: codes[cr.index], rules))
            lines += _indent(
                [
                    "if out is None or out is kept:",
                    "    continue",
                    "if kept is None:",
                    "    kept = out",
                    "elif out != kept:",
                    "    cut = True",
                    "    break",
                ]
            )
    else:
        lines.append("outputs = {}")
        if rules:
            lines += ["k = t.children", "for r in app:"]
            lines += _indent(_by_rule(rules, lambda cr: codes[cr.index], rules))
            lines += _indent(
                [
                    "if capped:",
                    "    cut = True",
                    "for o in produced:",
                    "    outputs.setdefault(o)",
                    "if limited and len(outputs) > limit:",
                    "    cut = True",
                    "    break",
                ]
            )
        lines += [
            "kept = list(outputs)",
            "if limited and len(kept) > limit:",
            "    cut = True",
            "    kept = kept[:limit]",
        ]
    state, results = ("q", "R[q]") if q is None else (str(q), f"R{q}")
    return lines + [
        "i = id(t)",
        "if cut or (tainted and READS_TAINTED(app, t, tainted)):",
        f"    tainted.add(({state}, i))",
        f"{results}[i] = kept",
    ]


def _lookahead_test(cr: CompiledRule, ns: _Namespace) -> str:
    """``r`` is not ``cr``, or every child ``cr`` constrains is accepted
    by every lookahead state it names (children left to right)."""
    checks = [
        f"{ns.bind('L', states)} <= la(k[{i}])" for i, states in cr.lookahead
    ]
    return f"(r != {cr.index} or ({' and '.join(checks)}))"


def _down_lines(
    compiled: CompiledSTTR,
    q: int,
    rules: tuple[CompiledRule, ...],
    group: int,
    ns: _Namespace,
) -> tuple[list[str], bool]:
    """Dispatch of pair ``(q, t)`` for one constructor: memo lookup,
    lookahead filter, then the pushes.  Returns the statements and
    whether the pair is pushed back to emit on the way up (False: its
    rules read no child, so the caller emits at once)."""
    state = ns.bind("S", compiled.states[q], ("S", q))
    memo = f"M{group}"
    lines = [
        f"app = {memo}.get(t.attrs)",
        "if app is None:",
        f"    app = {memo}[t.attrs] = RULES({state}, t, signs_of, counting)",
    ]
    constrained = [cr for cr in rules if cr.lookahead]
    if constrained:
        tests = " and ".join(_lookahead_test(cr, ns) for cr in constrained)
        lines += [
            "k = t.children",
            "held = []",
            "for r in app:",
            f"    if {tests}:",
            "        held.append(r)",
            "app = held",
        ]
    with_targets = tuple(cr for cr in rules if cr.targets)
    if not with_targets:
        return lines, False

    def pushes(cr: CompiledRule) -> list[str]:
        return [
            f"push(({compiled.state_index[s]}, k[{i}], None))" for s, i in cr.targets
        ]

    if not constrained:
        lines.append("k = t.children")
    lines += [f"push(({group}, t, app))", "for r in app:"]
    if len({cr.targets for cr in rules}) == 1:
        # Every rule reads the same pairs: no need to tell them apart.
        lines += _indent(pushes(rules[0]))
    else:
        lines += _indent(_by_rule(with_targets, pushes, rules))
    return lines + ["continue"], True


def _is_chain(
    compiled: CompiledSTTR, q: int, ctor: str, rules: tuple[CompiledRule, ...]
) -> bool:
    """Is ``(q, ctor)`` a chain group: ``ctor`` unary, and every rule
    reading just its child in ``q`` itself, with no lookahead?"""
    reads = ((compiled.states[q], 0),)
    return compiled.sttr.input_type.rank(ctor) == 1 and all(
        not cr.lookahead and cr.targets == reads for cr in rules
    )


def _chain_lines(
    compiled: CompiledSTTR, q: int, ctor: str, group: int, ns: _Namespace
) -> list[str]:
    """Dispatch of a chain group's pair ``(q, t)`` and of the pairs below
    it in one loop.  Each node's child is entered next while the node has
    a rule, and the child has the same constructor and no result in
    ``q`` yet; one up-entry then carries the ``(node, rules)`` links, and
    the first child that is not entered is pushed if it has no result.
    Memo lookups and counts run in the order the stack would run them."""
    state = ns.bind("S", compiled.states[q], ("S", q))
    memo = f"M{group}"
    return [
        "links = []",
        f"push(({group}, None, links))",
        "while True:",
        f"    app = {memo}.get(t.attrs)",
        "    if app is None:",
        f"        app = {memo}[t.attrs] = RULES({state}, t, signs_of, counting)",
        "    links.append((t, app))",
        "    if not app:",
        "        break",
        "    t = t.children[0]",
        f"    if id(t) in R{q}:",
        "        break",
        f"    if t.ctor != {ns.bind('K', ctor)}:",
        f"        push(({q}, t, None))",
        "        break",
        "    if counting:",
        "        DISPATCH()",
        "continue",
    ]


def _fallback_lines(
    compiled: CompiledSTTR, q: Optional[int], ns: _Namespace, single: bool
) -> list[str]:
    """A pair with no rule for its constructor: classify and dispatch it
    all the same (the counts and the table see it), then emit nothing."""
    return (
        ["app = RULES(states[q], t, signs_of, counting)"]
        + _emit_lines(compiled, (), q, ns, single)
        + ["continue"]
    )


def _walk_source(
    compiled: CompiledSTTR,
    groups: list[tuple[int, str]],
    ns: _Namespace,
    single: bool,
) -> list[str]:
    """One walk function.  Stack entries are ``(state index, node,
    None)`` going down and ``(group, node, rule indices)`` coming up,
    where a group numbers a (state, constructor) pair that has rules; in
    ``walk_one`` a chain group comes up as ``(group, None, links)``."""
    up: list[str] = []
    down: list[str] = []
    for q in range(len(compiled.states)):
        branches: list[str] = []
        for g, (gq, ctor) in enumerate(groups):
            if gq != q:
                continue
            rules = compiled.rules_by_key[(compiled.states[q], ctor)]
            if single and _is_chain(compiled, q, ctor, rules):
                dispatch, pushed = _chain_lines(compiled, q, ctor, g, ns), True
                # The up-entry's ``app`` holds the links, emitted bottom-up.
                emit = ["for t, app in reversed(app):"] + _indent(
                    _emit_lines(compiled, rules, q, ns, single)
                )
            else:
                dispatch, pushed = _down_lines(compiled, q, rules, g, ns)
                emit = _emit_lines(compiled, rules, q, ns, single)
            if pushed:
                up += [f"{'elif' if up else 'if'} q == {g}:"] + _indent(emit)
            else:
                dispatch += emit + ["continue"]
            branches.append(
                f"{'elif' if branches else 'if'} t.ctor == {ns.bind('K', ctor)}:"
            )
            branches += _indent(dispatch)
        fallback = _fallback_lines(compiled, q, ns, single)
        if branches:
            branches += ["else:"] + _indent(fallback)
        else:
            branches = fallback
        down.append(f"{'elif' if down else 'if'} q == {q}:")
        down += _indent(
            [f"if id(t) in R{q}:", "    continue", "if counting:", "    DISPATCH()"]
            + branches
        )
    # A root state that no rule mentions has the next index.
    down += ["else:"] + _indent(
        ["if id(t) in R[q]:", "    continue", "if counting:", "    DISPATCH()"]
        + _fallback_lines(compiled, None, ns, single)
    )
    return [
        f"def {'walk_one' if single else 'walk_all'}"
        "(tree, q, states, limit, la, budgets, counting):",
        "    R = [{} for _ in states]",
        *(f"    R{i} = R[{i}]" for i in range(len(compiled.states))),
        *(f"    M{g} = {{}}" for g in range(len(groups))),
        "    signs_of = {}",
        "    tainted = set()",
        "    limited = limit is not None",
        "    probe = None if limit is None else limit + 1",
        "    root = q",
        "    stack = [(q, tree, None)]",
        "    pop = stack.pop",
        "    push = stack.append",
        "    while stack:",
        "        q, t, app = pop()",
        "        if app is not None:",
        *_indent(up + ["continue"], 3),
        *_indent(down, 2),
        "    i = id(tree)",
        "    return R[root][i], (root, i) in tainted, sum(map(len, R))",
        "",
    ]


def _generate(compiled: CompiledSTTR) -> tuple[str, dict]:
    """The source of ``walk_one`` and ``walk_all`` plus their namespace."""
    ns = _Namespace()
    index = compiled.state_index
    groups = sorted(
        ((index[state], ctor) for state, ctor in compiled.rules_by_key),
        key=lambda group: group[0],
    )
    source = _walk_source(compiled, groups, ns, True)
    source += _walk_source(compiled, groups, ns, False)
    namespace = dict(ns.values)
    namespace.update(
        Tree=Tree,
        CROSS=_cross,
        TICK=_tick,
        DISPATCH=_OBS_DISPATCH.inc,
        RULES=compiled._rule_ids,
        READS_TAINTED=compiled._reads_tainted,
        ENV=compiled.sttr.input_type.attr_env,
        __builtins__={
            "id": id, "len": len, "list": list, "map": map, "reversed": reversed,
            "set": set, "sum": sum,
        },
    )
    return "\n".join(source), namespace
