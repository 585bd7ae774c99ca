"""Property: the memoized ``acceptance_table`` matches a per-node reference.

``acceptance_table`` shares guard results and accepting sets between
nodes with equal (symbol, attribute tuple) and equal constrained
children's sets, walks only the child positions some rule constrains,
and fills any other node on demand.  Both execution tiers call it, so
the compiled-vs-interpreter property cannot catch a bug there; this
test reads every node through the table's accessor, in random order,
and compares it against a test-local reference that evaluates every
guard afresh at every node.

Trees are drawn with heavily repeated attribute values, equal-valued
attributes of different Python types (``1`` and ``Fraction(1)`` both
inhabit ``Real``), and shared subtree objects (DAGs).
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata import STA, rule
from repro.automata.semantics import acceptance_table
from repro.smt import (
    INT,
    REAL,
    mk_add,
    mk_and,
    mk_eq,
    mk_gt,
    mk_int,
    mk_lt,
    mk_real,
    mk_var,
)
from repro.trees import Tree, make_tree_type
from repro.trees.tree import dag_post_order

AT = make_tree_type("AT", [("x", INT), ("y", REAL)], {"L": 0, "U": 1, "B": 2})
x = mk_var("x", INT)
y = mk_var("y", REAL)
RANK = {"L": 0, "U": 1, "B": 2}
STATES = ("a", "b", "c")

GUARDS = (
    mk_gt(x, mk_int(0)),
    mk_eq(x, mk_int(1)),
    mk_lt(mk_add(x, mk_int(1)), mk_int(2)),
    mk_gt(y, mk_real(Fraction(1, 2))),
    mk_eq(y, mk_real(1)),
    mk_and(mk_gt(x, mk_int(-1)), mk_lt(y, mk_real(2))),
)

#: Few distinct values, so attribute tuples repeat across nodes; ``1``
#: and ``Fraction(1)`` are equal as values but differ in type.
X_VALUES = st.sampled_from([0, 1, 2])
Y_VALUES = st.sampled_from([1, Fraction(1), Fraction(1, 2)])

#: Lookahead sets; mostly non-empty, so children's sets matter.
LOOKAHEADS = st.sampled_from(
    [frozenset(), frozenset("a"), frozenset("b"), frozenset("c"), frozenset("ab")]
)


@st.composite
def stas(draw):
    """A multi-state STA with a guarded rule for every constructor."""
    rules = []
    for ctor, rank in RANK.items():
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            lookahead = [draw(LOOKAHEADS) for _ in range(rank)]
            rules.append(
                rule(
                    draw(st.sampled_from(STATES)),
                    ctor,
                    draw(st.sampled_from(GUARDS)),
                    lookahead,
                )
            )
    return STA(AT, tuple(rules))


@st.composite
def dags(draw):
    """A tree over a few leaves whose inner nodes take children from the
    last few subtrees built, so one subtree object often occurs under
    several parents and most of the pool stays reachable from the root."""
    pool = [
        Tree("L", (draw(X_VALUES), draw(Y_VALUES)))
        for _ in range(draw(st.integers(min_value=1, max_value=3)))
    ]
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        ctor = draw(st.sampled_from(("U", "B")))
        kids = tuple(draw(st.sampled_from(pool[-3:])) for _ in range(RANK[ctor]))
        pool.append(Tree(ctor, (draw(X_VALUES), draw(Y_VALUES)), kids))
    return pool[-1]


def reference_states(sta: STA, t: Tree) -> frozenset:
    """States accepting ``t``, straight from Definition 2, no sharing."""
    kids = [reference_states(sta, c) for c in t.children]
    env = AT.attr_env(t.attrs)
    return frozenset(
        r.state
        for r in sta.rules
        if r.ctor == t.ctor
        and bool(r.guard.evaluate(env))
        and all(l <= k for l, k in zip(r.lookahead, kids))
    )


@given(sta=stas(), tree=dags(), order=st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_acceptance_table_matches_reference(sta, tree, order):
    nodes = dag_post_order(tree)
    order.shuffle(nodes)
    table = acceptance_table(sta, tree)
    for n in nodes:
        assert table(n) == reference_states(sta, n)
    assert set(table.states) == {id(n) for n in nodes}


def test_equal_values_of_different_types_share_a_result():
    sta = STA(
        AT, (rule("a", "L", mk_eq(y, mk_real(1))), rule("b", "B", None, ["a", "a"]))
    )
    one, frac_one = Tree("L", (0, 1)), Tree("L", (0, Fraction(1)))
    tree = Tree("B", (0, 0), (one, frac_one))
    table = acceptance_table(sta, tree)
    assert table(tree) == frozenset({"b"})
    assert table(one) == table(frac_one) == frozenset({"a"})


def test_walk_enters_only_constrained_positions():
    """Only ``B``'s second child is constrained, so the walk from the
    root follows that spine and never enters a first child or ``U``'s
    child; reading such a node afterwards fills it then."""
    sta = STA(
        AT,
        (
            rule("a", "L", mk_gt(x, mk_int(0))),
            rule("a", "B", None, [[], ["a"]]),
            rule("a", "U", None, [[]]),
        ),
    )
    below_u = Tree("L", (1, 1))
    unconstrained = Tree("U", (1, 1), (below_u,))
    leaf = Tree("L", (1, 1))
    spine = Tree("B", (0, 0), (unconstrained, leaf))
    tree = Tree("B", (0, 0), (Tree("L", (0, 0)), spine))
    table = acceptance_table(sta, tree)
    assert set(table.states) == {id(tree), id(spine), id(leaf)}
    assert table(tree) == frozenset({"a"})
    assert table(unconstrained) == frozenset({"a"})
    # ``U`` constrains nothing, so filling it does not enter its child.
    assert id(below_u) not in table.states
    assert table(below_u) == frozenset({"a"})
