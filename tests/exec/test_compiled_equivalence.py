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

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.automata import STA, rule
from repro.exec.compiled import CompiledSTTR, _lower_attrs, run_compiled_checked
from repro.guard import Budget, scope
from repro.obs import provenance as prov
from repro.smt import INT, REAL, Solver, mk_add, mk_eq, mk_gt, mk_int, mk_real, mk_var
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
                _outputs_for(ctor, draw, STATES),
                guard=guard,
                lookahead=la,
            )
        )
    # Unguarded fallbacks make most runs total, so outputs are usually
    # non-empty and attribute values reach the compared output trees.
    for state in STATES:
        for ctor, rank in RANK.items():
            if draw(st.booleans()):
                out = _outputs_for(ctor, draw, STATES)
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
def trees(draw):
    """Random trees over a few leaves, whose inner nodes take children
    from the last few subtrees built, so one subtree object often
    occurs several times.  A node may take the twin of an earlier
    node's attributes: equal values, different Python types."""
    drawn: list[tuple] = []

    def node_attrs():
        values = draw(attrs)
        if drawn and draw(st.booleans()):
            values = _twin(draw(st.sampled_from(drawn)))
        drawn.append(values)
        return values

    pool = [Tree("L", node_attrs()) for _ in range(draw(st.integers(1, 3)))]
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        ctor = draw(st.sampled_from(("U", "B")))
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
    interp_budget = Budget()
    with scope(interp_budget), prov.collecting() as interp_prov:
        expected_outputs, expected_truncated = run_checked(
            sttr, tree, limit=limit
        )
    compiled = CompiledSTTR(sttr)
    compiled_budget = Budget()
    with scope(compiled_budget), prov.collecting() as compiled_prov:
        actual_outputs, actual_truncated = run_compiled_checked(
            compiled, tree, limit=limit
        )
    assert actual_outputs == expected_outputs
    assert repr(actual_outputs) == repr(expected_outputs)
    assert actual_truncated == expected_truncated
    # Same guard-budget charges: caching classification must not change
    # what a budget-governed run is billed.
    assert compiled_budget.steps == interp_budget.steps
    assert _run_notes(compiled_prov) == _run_notes(interp_prov)


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


def test_attribute_lowering_matches_evaluation():
    """Each lowered attribute list yields the values evaluation does, the
    same objects; the identity list hands back the node's own tuple."""
    for values in ((1, 1, 0), (1, Fraction(1), Fraction(1)), (-1, Fraction(1, 2), 1)):
        t = Tree("L", values)
        env = ET.attr_env(values)
        for exprs in ATTR_EXPRS:
            lowered = _lower_attrs(exprs, ET)(t)
            expected = tuple(e.evaluate(env) for e in exprs)
            assert lowered == expected and repr(lowered) == repr(expected)
            assert [type(v) for v in lowered] == [type(v) for v in expected]
        assert _lower_attrs((x, y, z), ET)(t) is t.attrs


@given(sttr=sttrs(), tree=trees())
@settings(max_examples=25, deadline=None)
def test_precomputed_table_matches_lazy(sttr, tree):
    lazy = CompiledSTTR(sttr)
    eager = CompiledSTTR(sttr)
    eager.precompute(Solver())
    assert run_compiled_checked(eager, tree) == run_compiled_checked(lazy, tree)


def test_precompute_fills_table():
    sttr = STTR(
        "pc",
        ET,
        ET,
        "p",
        (
            trule(
                "p",
                "L",
                OutNode("L", (x, y, z), ()),
                guard=mk_gt(x, mk_int(0)),
                rank=0,
            ),
            trule("p", "L", OutNode("L", (mk_add(x, mk_int(1)), y, z), ()), rank=0),
            trule(
                "p",
                "U",
                OutNode("U", (x, y, z), (OutApply("p", 0),)),
                rank=1,
            ),
        ),
    )
    compiled = CompiledSTTR(sttr)
    assert compiled.table_size() == 0
    filled = compiled.precompute(Solver())
    assert filled == compiled.table_size() > 0
    # A warm table answers without growing.
    t = node("U", (1, 0, 0), node("L", (2, 0, 0)))
    out, truncated = run_compiled_checked(compiled, t)
    assert not truncated
    assert out == run_checked(sttr, t)[0]
    assert compiled.table_size() == filled


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
