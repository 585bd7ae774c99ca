"""Property: the compiled tier is observationally identical to the interpreter.

Random STTRs (nondeterministic rules, guards, lookahead, duplication,
deletion, child swaps) over random trees must produce the *same output
list* (same order), the same truncation flag, and the same budget step
charges through :func:`repro.exec.compiled.run_compiled_checked` as
through :func:`repro.transducers.run.run_checked`.

Trees share subtree objects (DAGs) and carry equal-valued attributes of
different Python types (``1`` and ``Fraction(1)`` both inhabit
``Real``).  ``Tree`` equality cannot tell those apart, so outputs are
also compared by ``repr``: a memo that let one node's attribute values
stand in for another's would show there.  Output attribute lists take
every form the compiled tier lowers separately: the identity field
list, permuted and repeated field copies, constants, and arithmetic.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.automata import STA, rule
from repro.exec.compiled import (
    CompiledSTTR,
    _attrs_source,
    _is_chain,
    _Namespace,
    run_compiled_checked,
)
from repro.guard import Budget, StepBudgetExceeded, scope
from repro.obs import config as obs_config
from repro.obs import metrics as obs_metrics
from repro.obs import provenance as prov
from repro.smt import INT, REAL, mk_add, mk_eq, mk_gt, mk_int, mk_real, mk_var
from repro.transducers import OutApply, OutNode, STTR, Transducer, run_checked, trule
from repro.trees import Tree, make_tree_type, node

ET = make_tree_type(
    "ET", [("x", INT), ("y", REAL), ("z", REAL)], {"L": 0, "U": 1, "B": 2}
)
x = mk_var("x", INT)
y = mk_var("y", REAL)
z = mk_var("z", REAL)

#: Guard pool; ``None`` means ``true`` (via ``trule``).
GUARDS = (
    None,
    mk_gt(x, mk_int(0)),
    mk_eq(x, mk_int(0)),
    mk_gt(mk_int(2), x),
    mk_eq(y, mk_real(1)),
)

#: Lookahead automaton: state ``a`` accepts trees whose leaves are all > -1.
LA = STA(
    ET,
    (
        rule("a", "L", mk_gt(x, mk_int(-1))),
        rule("a", "U", None, lookahead=[["a"]]),
        rule("a", "B", None, lookahead=[["a"], ["a"]]),
    ),
)

STATES = ("p", "q")

_DISPATCH = obs_metrics.counter("exec.dispatch")

#: Output attribute tuples; ``y`` and ``z`` are copied or recomputed,
#: so their Python types flow from the input node into the output
#: tree.  Each lowering is drawn: the identity field list; permuted or
#: repeated field copies, with or without constants; all constants;
#: arithmetic.
ATTR_EXPRS = (
    (x, y, z),
    (x, z, y),
    (x, y, y),
    (mk_int(5), z, mk_real(Fraction(1, 2))),
    (mk_int(2), mk_real(Fraction(1, 2)), mk_real(1)),
    (mk_add(x, mk_int(1)), y, z),
    (x, mk_add(y, mk_real(1)), z),
    (mk_add(x, mk_int(1)), mk_real(1), y),
)


def _outputs_for(ctor, draw, states):
    """Draw one output term legal for ``ctor``'s rank."""
    s = draw(st.sampled_from(states))
    s2 = draw(st.sampled_from(states))
    e = draw(st.sampled_from(ATTR_EXPRS))
    if ctor == "L":
        return OutNode("L", e, ())
    if ctor == "U":
        return draw(
            st.sampled_from(
                [
                    OutApply(s, 0),  # copy the transformed child
                    OutNode("U", e, (OutApply(s, 0),)),
                    OutNode("L", e, ()),  # delete the child
                    # duplication: same child in two states
                    OutNode("B", (x, y, z), (OutApply(s, 0), OutApply(s2, 0))),
                ]
            )
        )
    return draw(
        st.sampled_from(
            [
                OutApply(s, 0),
                OutApply(s, 1),
                OutNode("B", e, (OutApply(s, 0), OutApply(s2, 1))),
                OutNode("B", (x, y, z), (OutApply(s, 1), OutApply(s2, 0))),  # swap
                OutNode("U", e, (OutApply(s, 0),)),  # drop one child
            ]
        )
    )


RANK = {"L": 0, "U": 1, "B": 2}


@st.composite
def sttrs(draw):
    n_rules = draw(st.integers(min_value=1, max_value=8))
    rules = []

    def reads(state):
        # Often only the rule's own state, so that ``(state, U)`` groups
        # are chain groups, which ``walk_one`` runs in a loop of their own.
        return (state,) if draw(st.booleans()) else STATES

    for _ in range(n_rules):
        state = draw(st.sampled_from(STATES))
        ctor = draw(st.sampled_from(("L", "U", "B")))
        guard = draw(st.sampled_from(GUARDS))
        la = [
            draw(st.sampled_from([(), ("a",)])) for _ in range(RANK[ctor])
        ]
        rules.append(
            trule(
                state,
                ctor,
                _outputs_for(ctor, draw, reads(state)),
                guard=guard,
                lookahead=la,
            )
        )
    # Unguarded fallbacks make most runs total, so outputs are usually
    # non-empty and attribute values reach the compared output trees.
    for state in STATES:
        for ctor, rank in RANK.items():
            if draw(st.booleans()):
                out = _outputs_for(ctor, draw, reads(state))
                rules.append(trule(state, ctor, out, rank=rank))
    return STTR("rand", ET, ET, "p", tuple(rules), lookahead_sta=LA)


#: Few distinct values, so equal attribute tuples recur across nodes.
attrs = st.tuples(
    st.integers(min_value=-1, max_value=2),
    st.sampled_from([0, 1, Fraction(1, 2)]),
    st.sampled_from([0, 1, Fraction(1)]),
)

#: Cap on a drawn tree's size counted as a tree (shared objects once
#: per occurrence), which bounds the cross products of duplication.
MAX_UNFOLDED = 15


def _flip(value):
    """An equal value of the other Python type (``1`` <-> ``Fraction(1)``)."""
    if isinstance(value, int):
        return Fraction(value)
    if value.denominator == 1:
        return int(value)
    return value


def _twin(values):
    """Equal attribute values of other Python types."""
    x_value, y_value, z_value = values
    return x_value, _flip(y_value), _flip(z_value)


@st.composite
def trees(draw, chains=False):
    """Random trees over a few leaves, whose inner nodes take children
    from the last few subtrees built, so one subtree object often
    occurs several times.  A node may take the twin of an earlier
    node's attributes: equal values, different Python types.  With
    ``chains``, runs of unary nodes are drawn as well."""
    drawn: list[tuple] = []

    def node_attrs():
        values = draw(attrs)
        if drawn and draw(st.booleans()):
            values = _twin(draw(st.sampled_from(drawn)))
        drawn.append(values)
        return values

    pool = [Tree("L", node_attrs()) for _ in range(draw(st.integers(1, 3)))]
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        ctor = draw(st.sampled_from(("U", "B", "chain") if chains else ("U", "B")))
        if ctor == "chain":
            t = draw(st.sampled_from(pool[-3:]))
            for _ in range(draw(st.integers(2, 5))):
                if t.size() < MAX_UNFOLDED:
                    t = Tree("U", node_attrs(), (t,))
            pool.append(t)
            continue
        kids = tuple(draw(st.sampled_from(pool[-3:])) for _ in range(RANK[ctor]))
        if sum(k.size() for k in kids) < MAX_UNFOLDED:
            pool.append(Tree(ctor, node_attrs(), kids))
    return pool[-1]


#: The identity transducer and a tree whose two leaves carry equal
#: attribute tuples of different types: every output attribute is
#: copied, so sharing one leaf's values with the other shows in ``repr``.
IDENTITY = STTR(
    "identity",
    ET,
    ET,
    "p",
    (
        trule("p", "L", OutNode("L", (x, y, z), ()), rank=0),
        trule("p", "U", OutNode("U", (x, y, z), (OutApply("p", 0),)), rank=1),
        trule(
            "p",
            "B",
            OutNode("B", (x, y, z), (OutApply("p", 0), OutApply("p", 1))),
            rank=2,
        ),
    ),
)
TWIN_LEAVES = node("B", (0, 0, 0), node("L", (0, 1, 0)), node("L", (0, Fraction(1), 0)))


def _sttr(*rules):
    return STTR("hand", ET, ET, "p", rules)


#: Under ``limit=1`` the first applicable rule at the root builds a
#: node whose second child reads ``q`` on a leaf, where ``q`` has no
#: rule, so it emits nothing; the second rule's output is the pair's
#: one output, and nothing is cut.
FIRST_RULE_EMPTY = _sttr(
    trule(
        "p", "U", OutNode("B", (x, y, z), (OutApply("p", 0), OutApply("q", 0))), rank=1
    ),
    trule("p", "U", OutNode("L", (x, y, z), ()), rank=1),
    trule("p", "L", OutNode("L", (x, y, z), ()), rank=0),
)

#: Two applicable leaf rules emit different trees: ``limit=1`` keeps
#: the first, flags the cut, and the taint reaches the root.
TWO_OUTPUTS = _sttr(
    trule("p", "U", OutNode("U", (x, y, z), (OutApply("p", 0),)), rank=1),
    trule("p", "L", OutNode("L", (x, y, z), ()), rank=0),
    trule("p", "L", OutNode("L", (mk_add(x, mk_int(1)), y, z), ()), rank=0),
)
U_LEAF = node("U", (0, 0, 0), node("L", (1, 0, 0)))

#: One subtree object under both children of the root, read in ``p``
#: through the first and in ``q`` through the second; each of those
#: reads the shared leaf in the other state.
TWO_STATES = _sttr(
    trule(
        "p", "B", OutNode("B", (x, y, z), (OutApply("p", 0), OutApply("q", 1))), rank=2
    ),
    trule("p", "U", OutNode("U", (x, y, z), (OutApply("q", 0),)), rank=1),
    trule(
        "q",
        "U",
        OutNode("U", (mk_add(x, mk_int(1)), y, z), (OutApply("p", 0),)),
        rank=1,
    ),
    trule("p", "L", OutNode("L", (x, y, z), ()), rank=0),
    trule("q", "L", OutNode("L", (mk_add(x, mk_int(1)), y, z), ()), rank=0),
)
_SHARED = node("U", (1, 0, 0), node("L", (2, 1, 0)))
SHARED_DAG = node("B", (0, 0, 0), _SHARED, _SHARED)

# Chain groups: a unary constructor whose rules all read just the child
# in the rule's own state, with no lookahead.  ``walk_one`` enters a run
# of such nodes in one loop.

def _u_chain(depth, below, x_value=1):
    """``depth`` unary nodes over ``below``, ``x`` alternating from ``x_value``
    down by one, from the bottom up."""
    for i in range(depth):
        below = node("U", (x_value - i % 2, 0, 0), below)
    return below


_COPY_B = trule(
    "p", "B", OutNode("B", (x, y, z), (OutApply("p", 0), OutApply("p", 1))), rank=2
)
_COPY_L = trule("p", "L", OutNode("L", (x, y, z), ()), rank=0)

#: ``(p, U)`` applies only where ``x < 2``: a chain stops at the first
#: node without a rule, and nothing below that node is visited.
CHAIN_GUARD = _sttr(
    trule(
        "p",
        "U",
        OutNode("U", (x, y, z), (OutApply("p", 0),)),
        guard=mk_gt(mk_int(2), x),
        rank=1,
    ),
    _COPY_B,
    _COPY_L,
)
#: U[0](U[1](U[5](U[1](L)))): (p, U) fails at the third node.
GUARD_CHAIN = _u_chain(2, node("U", (5, 0, 0), _u_chain(1, node("L", (1, 0, 0)))))

#: Two chain rules: where ``x > 0`` both apply and their outputs differ,
#: so ``limit=1`` cuts, and the taint climbs the chain.
TWO_CHAIN_RULES = _sttr(
    trule(
        "p",
        "U",
        OutNode("U", (mk_add(x, mk_int(1)), y, z), (OutApply("p", 0),)),
        guard=mk_gt(x, mk_int(0)),
        rank=1,
    ),
    trule("p", "U", OutApply("p", 0), rank=1),
    _COPY_B,
    _COPY_L,
)

#: ``(p, U)`` reads its child in ``p`` and in ``q``, so it is no chain
#: group; ``(q, U)`` reads only ``q`` and is one.
MIXED_READS = _sttr(
    trule("p", "U", OutNode("U", (x, y, z), (OutApply("p", 0),)), rank=1),
    trule(
        "p",
        "U",
        OutNode("U", (mk_add(x, mk_int(1)), y, z), (OutApply("q", 0),)),
        rank=1,
    ),
    trule("q", "U", OutNode("U", (x, y, z), (OutApply("q", 0),)), rank=1),
    trule(
        "q", "B", OutNode("B", (x, y, z), (OutApply("q", 0), OutApply("p", 1))), rank=2
    ),
    _COPY_B,
    _COPY_L,
    trule("q", "L", OutNode("L", (mk_add(x, mk_int(1)), y, z), ()), rank=0),
)

#: A chain rule under lookahead: its child is tested first, so ``(p, U)``
#: is no chain group.
LOOKAHEAD_READS = STTR(
    "hand",
    ET,
    ET,
    "p",
    (
        trule(
            "p", "U", OutNode("U", (x, y, z), (OutApply("p", 0),)), lookahead=[("a",)]
        ),
        _COPY_B,
        _COPY_L,
    ),
    lookahead_sta=LA,
)

CHAIN_STTRS = {
    "identity": IDENTITY,
    "guard": CHAIN_GUARD,
    "two_rules": TWO_CHAIN_RULES,
    "mixed": MIXED_READS,
    "lookahead": LOOKAHEAD_READS,
}


#: Two chains that end in one shared tail object.
_TAIL = _u_chain(3, node("L", (-1, 0, 0)))
SHARED_TAIL = node("B", (0, 0, 0), _u_chain(2, _TAIL), _u_chain(1, _TAIL, 2))
#: A chain head under two parents: the root, and a unary node above it.
_HEAD = _u_chain(3, node("L", (1, 0, 0)))
HEAD_TWO_PARENTS = node("B", (0, 0, 0), _u_chain(1, _HEAD), _HEAD)
HEAD_TWO_PARENTS_SWAPPED = node("B", (0, 0, 0), _HEAD, _u_chain(1, _HEAD))

CHAIN_TREES = {
    "guard_chain": GUARD_CHAIN,
    "shared_tail": SHARED_TAIL,
    "head_two_parents": HEAD_TWO_PARENTS,
    "head_two_parents_swapped": HEAD_TWO_PARENTS_SWAPPED,
}


def _run_notes(collector):
    return [s.title for s in collector.root.walk() if s.kind == "run"]


@given(sttr=sttrs(), tree=trees(), limit=st.sampled_from([None, 1, 2]))
@example(sttr=IDENTITY, tree=TWIN_LEAVES, limit=None)
@example(sttr=FIRST_RULE_EMPTY, tree=U_LEAF, limit=1)
@example(sttr=TWO_OUTPUTS, tree=U_LEAF, limit=1)
@example(sttr=TWO_STATES, tree=SHARED_DAG, limit=None)
@example(sttr=TWO_STATES, tree=SHARED_DAG, limit=1)
@settings(max_examples=150, deadline=None)
def test_compiled_matches_interpreter(sttr, tree, limit):
    _both_tiers(sttr, tree, limit)


@pytest.mark.parametrize("limit", [None, 1, 2])
@pytest.mark.parametrize("tree", CHAIN_TREES.values(), ids=CHAIN_TREES)
@pytest.mark.parametrize("sttr", CHAIN_STTRS.values(), ids=CHAIN_STTRS)
def test_chain_groups_match_interpreter(sttr, tree, limit):
    _both_tiers(sttr, tree, limit)


def _chain_groups(sttr):
    compiled = CompiledSTTR(sttr)
    return {
        (state, ctor)
        for (state, ctor), rules in compiled.rules_by_key.items()
        if _is_chain(compiled, compiled.state_index[state], ctor, rules)
    }


def test_chain_groups_are_the_unary_self_reads():
    assert _chain_groups(IDENTITY) == {("p", "U")}
    assert _chain_groups(CHAIN_GUARD) == {("p", "U")}
    assert _chain_groups(TWO_CHAIN_RULES) == {("p", "U")}
    assert _chain_groups(MIXED_READS) == {("q", "U")}
    assert _chain_groups(LOOKAHEAD_READS) == set()
    assert _chain_groups(TWO_STATES) == set()


@pytest.mark.parametrize(
    "sttr, limit",
    # Unlimited, the two rules would double the outputs at every third node.
    [(IDENTITY, None), (IDENTITY, 1), (TWO_CHAIN_RULES, 1)],
    ids=["identity-all", "identity-one", "two-one"],
)
def test_budget_exhausted_mid_chain(sttr, limit):
    """A step budget shorter than a 3,000-deep chain stops both tiers
    after the same number of ticks."""
    steps = []
    tiers = ((run_checked, sttr), (run_compiled_checked, CompiledSTTR(sttr)))
    for run, program in tiers:
        budget = Budget(max_steps=1000)
        with scope(budget), pytest.raises(StepBudgetExceeded):
            run(program, _chain(3000), limit=limit)
        steps.append(budget.steps)
    assert steps == [1001, 1001]


@given(sttr=sttrs(), tree=trees(chains=True), limit=st.sampled_from([1, 2]))
@settings(max_examples=100, deadline=None)
def test_chain_runs_match_interpreter(sttr, tree, limit):
    """Runs of unary nodes, which ``walk_one`` enters in one loop.  The
    limit caps each pair's outputs: unlimited, a duplicating rule squares
    them at every node of a run."""
    _both_tiers(sttr, tree, limit)


def test_hand_examples_reach_their_cases():
    """The hand-written examples above exercise what their comments say."""
    assert run_checked(FIRST_RULE_EMPTY, U_LEAF, limit=1) == (
        [node("L", (0, 0, 0))],
        False,
    )
    outputs, truncated = run_checked(TWO_OUTPUTS, U_LEAF, limit=1)
    assert outputs == [U_LEAF] and truncated
    with prov.collecting() as collector:
        run_checked(TWO_STATES, SHARED_DAG)
    # (p, root), (p|q, shared U), (p|q, shared leaf): five tasks.
    assert _run_notes(collector) == [
        "ran hand from state p: 5 tasks, 1 output(s)"
    ]
    # The third node has no rule, so the two below it are never visited.
    with prov.collecting() as collector:
        assert run_checked(CHAIN_GUARD, GUARD_CHAIN, limit=1) == ([], False)
    assert _run_notes(collector) == [
        "ran hand from state p: 3 tasks, 0 output(s)"
    ]


def _lowered_attrs(exprs, t):
    """Evaluate the generated source of an attribute list at ``t``."""
    ns = _Namespace()
    source, _reads = _attrs_source(exprs, ET, ns)
    local = {"t": t, "a": t.attrs, "env": ET.attr_env(t.attrs)}
    return eval(source, {"__builtins__": {}, **ns.values}, local)


def test_attribute_lowering_matches_evaluation():
    """Each lowered attribute list yields the values evaluation does, the
    same objects; the identity list hands back the node's own tuple."""
    for values in ((1, 1, 0), (1, Fraction(1), Fraction(1)), (-1, Fraction(1, 2), 1)):
        t = Tree("L", values)
        env = ET.attr_env(values)
        for exprs in ATTR_EXPRS:
            lowered = _lowered_attrs(exprs, t)
            expected = tuple(e.evaluate(env) for e in exprs)
            assert lowered == expected and repr(lowered) == repr(expected)
            assert [type(v) for v in lowered] == [type(v) for v in expected]
        assert _lowered_attrs((x, y, z), t) is t.attrs


def test_facade_routes_through_compiled_tier(monkeypatch):
    sttr = STTR(
        "ft",
        ET,
        ET,
        "p",
        (
            trule("p", "L", OutNode("L", (mk_add(x, mk_int(1)), y, z), ()), rank=0),
            trule(
                "p",
                "B",
                OutNode("B", (x, y, z), (OutApply("p", 0), OutApply("p", 1))),
                rank=2,
            ),
        ),
    )
    t = node("B", (0, 0, 0), node("L", (1, 0, 0)), node("L", (2, 0, 0)))
    trans = Transducer(sttr)
    monkeypatch.setenv("REPRO_EXEC", "compiled")
    compiled_out = trans.apply(t)
    assert trans._compiled() is not None  # the lowered form was built
    monkeypatch.setenv("REPRO_EXEC", "interp")
    assert trans.apply(t) == compiled_out
    assert trans.apply_one(t) == compiled_out[0]


def _both_tiers(sttr, tree, limit):
    """Run both tiers under a budget and provenance; assert they agree:
    outputs (also by ``repr``), truncation flag, budget steps and run
    notes.  The compiled run counts ``exec.dispatch`` once per task."""
    interp_budget = Budget()
    with scope(interp_budget), prov.collecting() as interp_prov:
        expected = run_checked(sttr, tree, limit=limit)
    compiled_budget = Budget()
    dispatched = _DISPATCH.snapshot()
    with scope(compiled_budget), prov.collecting() as compiled_prov:
        with obs_config.observed(True):
            actual = run_compiled_checked(CompiledSTTR(sttr), tree, limit=limit)
    dispatched = _DISPATCH.snapshot() - dispatched
    assert actual == expected
    assert repr(actual) == repr(expected)
    # Same guard-budget charges: caching classification must not change
    # what a budget-governed run is billed.
    assert compiled_budget.steps == interp_budget.steps
    notes = _run_notes(compiled_prov)
    assert notes == _run_notes(interp_prov)
    assert [f": {dispatched} tasks," in note for note in notes] == [True]
    return actual


def _chain(depth):
    """``U(U(... L))``, ``depth`` unary nodes over one leaf."""
    t = Tree("L", (1, 0, 0))
    for i in range(depth):
        t = Tree("U", (i % 3 - 1, Fraction(i % 2), 0), (t,))
    return t


@pytest.mark.parametrize("limit", [None, 1, 2])
@pytest.mark.parametrize("sttr", [IDENTITY, TWO_OUTPUTS], ids=["identity", "two"])
def test_deep_chain(sttr, limit):
    """A chain deeper than the recursion limit: the generated walk keeps
    its own stack, and both tiers agree on output, cut and ticks."""
    outputs, truncated = _both_tiers(sttr, _chain(1500), limit)
    assert outputs and outputs[0].depth() == 1501
    assert truncated == (sttr is TWO_OUTPUTS and limit == 1)


@pytest.fixture(scope="module")
def rem_esc():
    from repro.apps.html import FastHtmlSanitizer

    return FastHtmlSanitizer().rem_esc.sttr


@pytest.mark.parametrize("limit", [None, 1])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_rem_esc_on_seeded_pages(rem_esc, seed, limit):
    """The composed Section 5.1 sanitizer on generated pages."""
    from repro.apps.html import encode_html, generate_page

    tree = encode_html(generate_page(1250 * seed, seed))
    outputs, truncated = _both_tiers(rem_esc, tree, limit)
    assert len(outputs) == 1 and not truncated


def test_source_is_generated_once_on_first_run(monkeypatch):
    import repro.exec.compiled as compiled_module

    calls = []
    generate = compiled_module._generate

    def counting(compiled):
        calls.append(compiled)
        return generate(compiled)

    monkeypatch.setattr(compiled_module, "_generate", counting)
    compiled = CompiledSTTR(TWO_STATES)
    assert compiled.source is None and not calls
    run_compiled_checked(compiled, SHARED_DAG, limit=1)
    run_compiled_checked(compiled, SHARED_DAG)
    run_compiled_checked(compiled, U_LEAF, limit=2)
    assert calls == [compiled]
    assert "def walk_one" in compiled.source and "def walk_all" in compiled.source


#: Program text that would do harm if it were pasted into source.
HOSTILE = (
    '"); __import__("os").system("exit 3"); ("',
    "'''\nimport os\n'''",
    "\\",
    "a\nb\r\n\tc",
    "{K0}",
)


def test_program_text_is_never_spliced_into_source():
    """Constructor names, states, guard and output constants full of
    quotes, newlines and code: both tiers agree, and none of it shows
    up in the generated source."""
    from repro.smt import STRING, mk_str

    names = [f"c{i}{text}" for i, text in enumerate(HOSTILE)]
    st_type = make_tree_type(
        "Hostile", [("s", STRING)], {names[0]: 0, names[1]: 1, names[2]: 2}
    )
    s = mk_var("s", STRING)
    p, q = HOSTILE[0], ("state", HOSTILE[1])
    rules = (
        trule(
            p,
            names[2],
            OutNode(names[1], (mk_str(HOSTILE[3]),), (OutApply(q, 0),)),
            guard=mk_eq(s, mk_str(HOSTILE[4])),
            rank=2,
        ),
        trule(
            p,
            names[2],
            OutNode(names[2], (s,), (OutApply(q, 0), OutApply(p, 1))),
            rank=2,
        ),
        trule(
            q, names[1], OutNode(names[1], (mk_str(HOSTILE[2]),), (OutApply(p, 0),)), rank=1
        ),
        trule(q, names[0], OutNode(names[0], (s,), ()), rank=0),
        trule(p, names[0], OutNode(names[0], (mk_str(HOSTILE[0]),), ()), rank=0),
        trule(p, names[1], OutNode(names[0], (s,), ()), rank=1),
    )
    sttr = STTR("hostile", st_type, st_type, p, rules)
    leaf = Tree(names[0], (HOSTILE[1],))
    tree = Tree(
        names[2],
        (HOSTILE[4],),
        (Tree(names[1], (HOSTILE[3],), (leaf,)), Tree(names[2], ("x",), (leaf, leaf))),
    )
    for limit in (None, 1, 2):
        outputs, _ = _both_tiers(sttr, tree, limit)
        assert len(outputs) == (1 if limit == 1 else 2)
    compiled = CompiledSTTR(sttr)
    compiled.walks()
    for text in HOSTILE:
        assert text not in compiled.source
