"""Boolean algebra of STA languages: unit + hypothesis property tests.

The central property: membership commutes with the operations —
``(A op B).accepts(t) == A.accepts(t) op B.accepts(t)`` for random trees.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata import Language, rule
from repro.automata.equivalence import included_in
from repro.smt import INT, Solver, mk_eq, mk_gt, mk_int, mk_le, mk_lt, mk_mod, mk_var
from repro.trees import make_tree_type, node

BT = make_tree_type("BT", [("i", INT)], {"L": 0, "N": 2})
i = mk_var("i", INT)


def lang_all_leaves(name, guard):
    """All-leaves-satisfy-guard language."""
    return Language.build(
        BT,
        name,
        [rule(name, "L", guard), rule(name, "N", None, [[name], [name]])],
    )


POS = lang_all_leaves("pos", mk_gt(i, mk_int(0)))
ODD = lang_all_leaves("odd", mk_eq(mk_mod(i, 2), mk_int(1)))
SMALL = lang_all_leaves("small", mk_le(i, mk_int(5)))
BIG = lang_all_leaves("big", mk_gt(i, mk_int(10)))

_trees = st.deferred(
    lambda: st.builds(
        lambda a, kids: node("N", a, *kids) if kids else node("L", a),
        st.integers(-6, 8),
        st.one_of(st.just([]), st.tuples(_trees, _trees).map(list)),
    )
)


class TestIntersect:
    def test_both_constraints_enforced(self):
        both = POS.intersect(ODD)
        assert both.accepts(node("L", 3))
        assert not both.accepts(node("L", 4))
        assert not both.accepts(node("L", -3))

    @settings(max_examples=80, deadline=None)
    @given(_trees)
    def test_membership_commutes(self, t):
        assert POS.intersect(ODD).accepts(t) == (POS.accepts(t) and ODD.accepts(t))

    def test_empty_intersection(self):
        even = lang_all_leaves("even", mk_eq(mk_mod(i, 2), mk_int(0)))
        assert ODD.intersect(even).accepts(node("L", 1)) is False
        # Mixed N nodes still fail: every leaf must be both odd and even.
        assert ODD.intersect(even).is_empty() is False or True  # see below
        # Leaf languages are disjoint, so the intersection is empty:
        assert ODD.intersect(even).is_empty()


class TestUnion:
    @settings(max_examples=80, deadline=None)
    @given(_trees)
    def test_membership_commutes(self, t):
        assert POS.union(ODD).accepts(t) == (POS.accepts(t) or ODD.accepts(t))

    def test_union_with_empty(self):
        e = Language.empty(BT)
        u = POS.union(e)
        assert u.equals(POS)


class TestComplement:
    @settings(max_examples=60, deadline=None)
    @given(_trees)
    def test_membership_flips(self, t):
        assert POS.complement().accepts(t) == (not POS.accepts(t))

    def test_double_complement_equals_original(self):
        assert POS.complement().complement().equals(POS)

    def test_complement_of_universal_is_empty(self):
        assert Language.universal(BT).complement().is_empty()

    def test_complement_of_empty_is_universal(self):
        assert Language.empty(BT).complement().equals(Language.universal(BT))


class TestDifference:
    @settings(max_examples=60, deadline=None)
    @given(_trees)
    def test_membership_commutes(self, t):
        assert POS.difference(ODD).accepts(t) == (
            POS.accepts(t) and not ODD.accepts(t)
        )

    def test_self_difference_empty(self):
        assert POS.difference(POS).is_empty()


class TestDeMorgan:
    def test_de_morgan_intersect(self):
        lhs = POS.intersect(ODD).complement()
        rhs = POS.complement().union(ODD.complement())
        assert lhs.equals(rhs)

    def test_de_morgan_union(self):
        lhs = POS.union(ODD).complement()
        rhs = POS.complement().intersect(ODD.complement())
        assert lhs.equals(rhs)


class TestMinimize:
    def test_language_preserved(self):
        m = POS.intersect(ODD).minimize()
        assert m.equals(POS.intersect(ODD))

    def test_minimize_collapses_redundancy(self):
        # pos union pos should minimize to no more states than pos minimized.
        redundant = POS.union(POS).union(POS)
        m1 = redundant.minimize()
        m2 = POS.minimize()
        assert m1.size()[0] <= m2.size()[0] + 1

    @settings(max_examples=40, deadline=None)
    @given(_trees)
    def test_membership_preserved(self, t):
        assert SMALL.minimize().accepts(t) == SMALL.accepts(t)


class TestEquivalence:
    def test_structural_variants_equal(self):
        other = lang_all_leaves("pos2", mk_lt(mk_int(0), i))
        assert POS.equals(other)

    def test_separating_tree(self):
        sep = POS.separating_tree(ODD)
        assert sep is not None
        assert POS.accepts(sep) != ODD.accepts(sep)

    def test_included_in(self):
        pos_odd = POS.intersect(ODD)
        assert pos_odd.included_in(POS) is None
        gap = POS.included_in(pos_odd)
        assert gap is not None and POS.accepts(gap) and not pos_odd.accepts(gap)


# Trees of depth exactly 2, and every non-leaf tree.
DEPTH2 = Language.build(
    BT, "d2", [rule("d2", "N", None, [["leaf"], ["leaf"]]), rule("leaf", "L")]
)
NONLEAF = Language.build(BT, "nl", [rule("nl", "N", None, [[], []])])
UNIV = Language.universal(BT)

# (left, right, does left ⊆ right hold?)
_INCLUSIONS = {
    "incomparable_pos_odd": (POS, ODD, False),
    "incomparable_odd_pos": (ODD, POS, False),
    "reflexive": (POS, POS, True),
    "subset_holds": (BIG, POS, True),
    "subset_fails_with_witness": (POS, BIG, False),
    "empty_included_in_everything": (Language.empty(BT), BIG, True),
    "nothing_nonempty_included_in_empty": (POS, Language.empty(BT), False),
    "structural_depth2_in_nonleaf": (DEPTH2, NONLEAF, True),
    "structural_nonleaf_not_in_depth2": (NONLEAF, DEPTH2, False),
    "union_absorbs_operand": (POS, POS.union(ODD), True),
    "universal_in_universal": (UNIV, UNIV, True),
    "universal_in_union_with_complement": (UNIV, POS.union(POS.complement()), True),
    "universal_not_in_pos": (UNIV, POS, False),
}
_POOL = [POS, BIG, ODD, POS.intersect(ODD), POS.union(BIG)]


class TestInclusion:
    @pytest.mark.parametrize("case", sorted(_INCLUSIONS))
    def test_included_in(self, case):
        left, right, holds = _INCLUSIONS[case]
        gap = included_in(left.sta, left.state, right.sta, right.state, Solver())
        assert (gap is None) == holds
        if gap is not None:
            assert left.accepts(gap) and not right.accepts(gap)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, len(_POOL) - 1), st.integers(0, len(_POOL) - 1))
    def test_gap_is_in_left_not_right(self, a, b):
        left, right = _POOL[a], _POOL[b]
        gap = included_in(left.sta, left.state, right.sta, right.state, Solver())
        if gap is not None:
            assert left.accepts(gap) and not right.accepts(gap)
