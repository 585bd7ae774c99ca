"""Tests for domain, pre-image, restriction, and type-checking."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata import Language, STA, rule, accepts
from repro.exec.compiled import CompiledSTTR, run_compiled_checked
from repro.smt import (
    INT,
    Solver,
    mk_add,
    mk_eq,
    mk_gt,
    mk_int,
    mk_lt,
    mk_mod,
    mk_neg,
    mk_var,
)
from repro.transducers import (
    OutApply,
    OutNode,
    STTR,
    Transducer,
    identity_sttr,
    compose,
    preimage,
    restrict_input,
    restrict_output,
    run,
    trule,
    type_check,
)
from repro.trees import make_tree_type, node

from .test_lookahead_pruning import GUARDS, TREES, sttrs

BT = make_tree_type("BT", [("x", INT)], {"L": 0, "N": 2})
x = mk_var("x", INT)


def bt_rules(state, label_expr=None):
    e = label_expr if label_expr is not None else x
    return (
        trule(state, "L", OutNode("L", (e,), ()), rank=0),
        trule(state, "N", OutNode("N", (e,), (OutApply(state, 0), OutApply(state, 1))), rank=2),
    )


def leaves_lang(name, guard):
    return Language.build(
        BT, name, [rule(name, "L", guard), rule(name, "N", None, [[name], [name]])]
    )


POS = leaves_lang("pos", mk_gt(x, mk_int(0)))
ODD = leaves_lang("odd", mk_eq(mk_mod(x, 2), mk_int(1)))

_trees = st.deferred(
    lambda: st.builds(
        lambda a, kids: node("N", a, *kids) if kids else node("L", a),
        st.integers(-4, 8),
        st.one_of(st.just([]), st.tuples(_trees, _trees).map(list)),
    )
)


@pytest.fixture()
def solver():
    return Solver()


class TestDomain:
    def test_total_transducer(self, solver):
        ident = Transducer(identity_sttr(BT), solver)
        assert ident.domain().accepts(node("N", 0, node("L", 1), node("L", 2)))
        assert not ident.is_empty()

    def test_guarded_domain(self, solver):
        pos_only = Transducer(
            STTR(
                "pos",
                BT,
                BT,
                "q",
                (
                    trule("q", "L", OutNode("L", (x,), ()), guard=mk_gt(x, mk_int(0)), rank=0),
                    trule("q", "N", OutNode("N", (x,), (OutApply("q", 0), OutApply("q", 1))), rank=2),
                ),
            ),
            solver,
        )
        dom = pos_only.domain()
        assert dom.accepts(node("L", 1))
        assert not dom.accepts(node("L", 0))
        assert dom.accepts(node("N", -5, node("L", 1), node("L", 2)))

    def test_deleted_children_still_constrained_by_lookahead(self, solver):
        # delete right child, but lookahead requires it positive-leaved
        la = STA(BT, tuple(r for r in POS.sta.rules))
        drop = Transducer(
            STTR(
                "drop",
                BT,
                BT,
                "q",
                (
                    trule("q", "N", OutApply("q", 0), lookahead=[[], ["pos"]]),
                    trule("q", "L", OutNode("L", (x,), ()), rank=0),
                ),
                lookahead_sta=la,
            ),
            solver,
        )
        dom = drop.domain()
        assert dom.accepts(node("N", 0, node("L", -1), node("L", 1)))
        assert not dom.accepts(node("N", 0, node("L", -1), node("L", -1)))

    def test_domain_via_output_state(self, solver):
        # Output references child at a state that only handles leaves:
        # inputs with an N child are outside the domain.
        leaf_only = STTR(
            "leafy",
            BT,
            BT,
            "q",
            (
                trule("q", "N", OutNode("N", (x,), (OutApply("l", 0), OutApply("l", 1))), rank=2),
                trule("q", "L", OutNode("L", (x,), ()), rank=0),
                trule("l", "L", OutNode("L", (x,), ()), rank=0),
            ),
        )
        dom = Transducer(leaf_only, solver).domain()
        assert dom.accepts(node("N", 0, node("L", 1), node("L", 2)))
        assert not dom.accepts(node("N", 0, node("N", 0, node("L", 1), node("L", 2)), node("L", 2)))

    def test_empty_transducer(self, solver):
        empty = Transducer(STTR("none", BT, BT, "q", ()), solver)
        assert empty.is_empty()


class TestPreimage:
    def test_preimage_of_identity_is_language(self, solver):
        ident = identity_sttr(BT)
        pre = preimage(ident, POS, solver)
        assert pre.accepts(node("L", 1))
        assert not pre.accepts(node("L", 0))

    def test_preimage_through_label_function(self, solver):
        # inc maps x -> x+1; pre-image of "all leaves positive" = leaves >= 0.
        inc = STTR("inc", BT, BT, "q", bt_rules("q", mk_add(x, mk_int(1))))
        pre = preimage(inc, POS, solver)
        assert pre.accepts(node("L", 0))
        assert not pre.accepts(node("L", -1))

    @settings(max_examples=60, deadline=None)
    @given(_trees)
    def test_preimage_semantics_deterministic(self, t):
        solver = Solver()
        neg = STTR("neg", BT, BT, "q", bt_rules("q", mk_neg(x)))
        pre = preimage(neg, ODD, solver)
        expected = any(ODD.accepts(u) for u in run(neg, t))
        assert pre.accepts(t) == expected

    @settings(max_examples=40, deadline=None)
    @given(_trees.filter(lambda t: t.size() <= 11))
    def test_preimage_semantics_nondeterministic_linear(self, t):
        # size bound: the reference computation enumerates all 2^leaves outputs
        solver = Solver()
        # Nondeterministic but linear: each leaf may be kept or zeroed.
        nd = STTR(
            "nd",
            BT,
            BT,
            "q",
            (
                trule("q", "L", OutNode("L", (x,), ()), rank=0),
                trule("q", "L", OutNode("L", (mk_int(0),), ()), rank=0),
                trule("q", "N", OutNode("N", (x,), (OutApply("q", 0), OutApply("q", 1))), rank=2),
            ),
        )
        pre = preimage(nd, POS, solver)
        expected = any(POS.accepts(u) for u in run(nd, t))
        assert pre.accepts(t) == expected

    def test_preimage_with_deletion(self, solver):
        # drop left child: pre-image of POS constrains only the right spine.
        drop = STTR(
            "drop",
            BT,
            BT,
            "q",
            (
                trule("q", "N", OutApply("q", 1), rank=2),
                trule("q", "L", OutNode("L", (x,), ()), rank=0),
            ),
        )
        pre = preimage(drop, POS, solver)
        assert pre.accepts(node("N", 0, node("L", -9), node("L", 3)))
        assert not pre.accepts(node("N", 0, node("L", 3), node("L", -9)))


class TestRestrict:
    def test_restricted_identity_is_single_valued_and_linear(self, solver):
        ident = restrict_input(identity_sttr(BT), POS, solver)
        assert ident.is_linear()
        t = node("N", 0, node("L", 1), node("L", 2))
        assert run(ident, t) == [t]
        assert run(ident, node("L", -1)) == []

    def test_restrict_input(self, solver):
        inc = Transducer(STTR("inc", BT, BT, "q", bt_rules("q", mk_add(x, mk_int(1)))), solver)
        restricted = inc.restrict(POS)
        assert restricted.apply_one(node("L", 2)) == node("L", 3)
        assert restricted.apply_one(node("L", -2)) is None
        # outside POS, even if inc alone would be defined
        assert inc.apply_one(node("L", -2)) == node("L", -1)

    def test_restrict_out(self, solver):
        # neg maps x -> -x; restrict-out to POS keeps only all-negative-leaf inputs.
        neg = Transducer(STTR("neg", BT, BT, "q", bt_rules("q", mk_neg(x))), solver)
        restricted = neg.restrict_out(POS)
        assert restricted.apply_one(node("L", -3)) == node("L", 3)
        assert restricted.apply_one(node("L", 3)) is None

    @settings(max_examples=40, deadline=None)
    @given(_trees)
    def test_restrict_semantics(self, t):
        solver = Solver()
        inc = Transducer(STTR("inc", BT, BT, "q", bt_rules("q", mk_add(x, mk_int(1)))), solver)
        restricted = inc.restrict(ODD)
        expected = run(inc.sttr, t) if ODD.accepts(t) else []
        assert restricted.apply(t) == expected

    @settings(max_examples=40, deadline=None)
    @given(_trees)
    def test_restrict_out_semantics(self, t):
        solver = Solver()
        inc = Transducer(STTR("inc", BT, BT, "q", bt_rules("q", mk_add(x, mk_int(1)))), solver)
        restricted = inc.restrict_out(ODD)
        expected = [u for u in run(inc.sttr, t) if ODD.accepts(u)]
        assert restricted.apply(t) == expected


#: Languages over ``BT`` at state ``a`` whose ``N`` rules constrain each
#: child by a set of states: ``{a, b}`` asks for both (alternation).
LANG_STATES = ("a", "b")
LANG_SETS = ((), ("a",), ("b",), ("a", "b"))
_leaf_rules = st.builds(
    lambda s, g: rule(s, "L", g),
    st.sampled_from(LANG_STATES),
    st.sampled_from(GUARDS),
)
_node_rules = st.builds(
    lambda s, g, l0, l1: rule(s, "N", g, [l0, l1]),
    st.sampled_from(LANG_STATES),
    st.sampled_from(GUARDS),
    st.sampled_from(LANG_SETS),
    st.sampled_from(LANG_SETS),
)
languages = st.builds(
    lambda leaves, nodes: Language.build(BT, "a", leaves + nodes),
    st.lists(_leaf_rules, min_size=1, max_size=3),
    st.lists(_node_rules, min_size=1, max_size=3),
)

#: Every third enumerated tree of depth <= 3 (all trees of depth <= 2
#: among them): enough to tell the languages apart, few enough to keep
#: the property fast.
SAMPLE_TREES = [t for i, t in enumerate(TREES) if i % 3 == 0 or t.size() <= 3]


def both_tiers(sttr, compiled, tree):
    """The outputs of the interpreter and of the compiled walk."""
    outputs, truncated = run_compiled_checked(compiled, tree)
    assert not truncated
    return run(sttr, tree), outputs


def assert_same_outputs(actual, expected):
    assert len(actual) == len(set(actual))
    assert set(actual) == set(expected)


@settings(max_examples=40, deadline=None)
@given(
    first=sttrs("s"),
    second=sttrs("t"),
    composed=st.booleans(),
    lang=languages,
)
def test_restrictions_are_exact(first, second, composed, lang):
    """``restrict t l`` is ``t`` on inputs in ``l`` and nothing elsewhere;
    ``restrict-out t l`` keeps exactly the outputs of ``t`` in ``l``.
    ``t`` may delete, swap, copy or choose; composed, it has lookahead."""
    solver = Solver()
    t = compose(first, second, solver) if composed else first
    on_input = restrict_input(t, lang, solver)
    on_output = restrict_output(t, lang, solver)
    compiled_input, compiled_output = CompiledSTTR(on_input), CompiledSTTR(on_output)
    for tree in SAMPLE_TREES:
        outputs = run(t, tree)
        inside = lang.accepts(tree)
        for got in both_tiers(on_input, compiled_input, tree):
            assert_same_outputs(got, outputs if inside else [])
        kept = [u for u in outputs if lang.accepts(u)]
        for got in both_tiers(on_output, compiled_output, tree):
            assert_same_outputs(got, kept)


class TestTypeCheck:
    def test_inc_maps_nonneg_to_pos(self, solver):
        inc = STTR("inc", BT, BT, "q", bt_rules("q", mk_add(x, mk_int(1))))
        nonneg = leaves_lang("nn", mk_gt(x, mk_int(-1)))
        assert type_check(nonneg, inc, POS, solver) is None

    def test_counterexample_input(self, solver):
        inc = STTR("inc", BT, BT, "q", bt_rules("q", mk_add(x, mk_int(1))))
        cex = type_check(POS, inc, POS.intersect(ODD), solver)
        # some positive-leaved tree maps to an even leaf
        assert cex is not None and POS.accepts(cex)
        outs = run(inc, cex)
        assert any(not ODD.accepts(u) for u in outs)

    def test_facade(self, solver):
        ident = Transducer(identity_sttr(BT), solver)
        assert ident.type_check(POS, POS) is None
        assert ident.type_check(Language.universal(BT, solver), POS) is not None
