"""Direct tests of the Cooper integer solver (normalization + elimination)."""

import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.guard import Budget, DeadlineExceeded, scope
from repro.smt import INT, mk_add, mk_eq, mk_int, mk_le, mk_lt, mk_mod, mk_mul, mk_var
from repro.smt.lia_cooper import IntConstraint, normalize_literals, solve_int_cube
from repro.smt.linear import LinTerm

x = mk_var("x", INT)
y = mk_var("y", INT)


class TestNormalization:
    def test_lt_becomes_le(self):
        [c] = normalize_literals([(True, mk_lt(x, mk_int(3)))])
        assert c.kind == "le"
        # x < 3  =>  x - 3 + 1 <= 0  =>  x - 2 <= 0
        assert c.lin.coeff("x") == 1 and c.lin.const == -2

    def test_negated_lt(self):
        [c] = normalize_literals([(False, mk_lt(x, mk_int(3)))])
        # not(x < 3)  =>  3 <= x  =>  3 - x <= 0
        assert c.kind == "le" and c.lin.coeff("x") == -1 and c.lin.const == 3

    def test_mod_elimination_produces_div(self):
        cons = normalize_literals([(True, mk_eq(mk_mod(x, 5), mk_int(2)))])
        kinds = sorted(c.kind for c in cons)
        assert "div" in kinds and "eq" in kinds
        div = next(c for c in cons if c.kind == "div")
        assert div.divisor == 5

    def test_nested_mod(self):
        inner = mk_mod(x, 6)
        f = mk_eq(mk_mod(mk_add(inner, mk_int(1)), 4), mk_int(0))
        model = solve_int_cube([(True, f)])
        assert model is not None
        assert ((model["x"] % 6) + 1) % 4 == 0


class TestSolveCube:
    def test_empty_cube_sat(self):
        assert solve_int_cube([]) == {}

    def test_single_bound(self):
        m = solve_int_cube([(True, mk_le(x, mk_int(-7)))])
        assert m["x"] <= -7

    def test_equalities_chain(self):
        lits = [
            (True, mk_eq(x, mk_add(y, mk_int(3)))),
            (True, mk_eq(y, mk_int(4))),
        ]
        m = solve_int_cube(lits)
        assert m == {"x": 7, "y": 4}

    def test_sandwich_with_divisibility(self):
        lits = [
            (True, mk_le(mk_int(10), x)),
            (True, mk_le(x, mk_int(20))),
            (True, mk_eq(mk_mod(x, 7), mk_int(0))),
        ]
        m = solve_int_cube(lits)
        assert m["x"] == 14

    def test_unsat_divisibility_window(self):
        lits = [
            (True, mk_le(mk_int(10), x)),
            (True, mk_le(x, mk_int(12))),
            (True, mk_eq(mk_mod(x, 7), mk_int(0))),
        ]
        assert solve_int_cube(lits) is None

    def test_coefficient_scaling(self):
        # 2x = 5 has no integer solution.
        assert solve_int_cube([(True, mk_eq(mk_mul(mk_int(2), x), mk_int(5)))]) is None
        # 2x = 6 does.
        m = solve_int_cube([(True, mk_eq(mk_mul(mk_int(2), x), mk_int(6)))])
        assert m["x"] == 3

    def test_disequality_splits(self):
        lits = [
            (True, mk_le(mk_int(0), x)),
            (True, mk_le(x, mk_int(0))),
            (False, mk_eq(x, mk_int(0))),
        ]
        assert solve_int_cube(lits) is None

    def test_residue_disequalities(self):
        # v % 8 != 4 and v % 5 != 0: the heaviest shape analyze produces.
        lits = [
            (False, mk_eq(mk_mod(x, 8), mk_int(4))),
            (False, mk_eq(mk_mod(x, 5), mk_int(0))),
        ]
        m = solve_int_cube(lits)
        assert m is not None
        assert m["x"] % 8 != 4 and m["x"] % 5 != 0
        assert all(type(v) is int for v in m.values())

    def test_deadline_bounds_a_slow_cube(self):
        # UNSAT from the bounds alone (x <= -1 and x >= 9), yet Cooper
        # branches for tens of seconds before a ground contradiction
        # shows; the budget's deadline must cut it short.
        def lin(a, b, c):
            return mk_add(mk_mul(mk_int(a), x), mk_mul(mk_int(b), y), mk_int(c))

        lits = [
            (True, mk_le(lin(0, -3, 5), mk_int(0))),
            (True, mk_lt(mk_int(0), lin(1, -1, -6))),
            (True, mk_lt(mk_int(0), lin(3, 1, 2))),
            (True, mk_le(mk_int(0), lin(-2, 0, -1))),
            (False, mk_eq(mk_mod(lin(2, -3, 4), 3), mk_int(1))),
        ]
        t0 = time.monotonic()
        with pytest.raises(DeadlineExceeded):
            with scope(Budget(deadline=0.5)):
                solve_int_cube(lits)
        assert time.monotonic() - t0 < 2.0


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(-3, 3),
            st.integers(-3, 3),
            st.integers(-6, 6),
            st.sampled_from(["lt", "le", "eq", "ne", "mod2", "mod3", "mod4ne"]),
            st.booleans(),
        ),
        min_size=1,
        max_size=4,
    )
)
def test_cooper_agrees_with_bounded_search(spec):
    """If a bounded search finds a model, Cooper must; Cooper's models check.

    ``ne`` and ``mod4ne`` atoms give cubes with several disequalities,
    which the solver splits only when a model violates one."""
    lits = []
    for a, b, c, kind, sign in spec:
        t = mk_add(mk_mul(mk_int(a), x), mk_mul(mk_int(b), y), mk_int(c))
        if kind == "lt":
            atom = mk_lt(t, mk_int(0))
        elif kind == "le":
            atom = mk_le(t, mk_int(0))
        elif kind == "eq":
            atom = mk_eq(t, mk_int(0))
        elif kind == "ne":
            atom, sign = mk_eq(t, mk_int(0)), False
        elif kind == "mod2":
            atom = mk_eq(mk_mod(t, 2), mk_int(0))
        elif kind == "mod3":
            atom = mk_eq(mk_mod(t, 3), mk_int(1))
        else:
            atom, sign = mk_eq(mk_mod(t, 4), mk_int(1)), False
        if atom.sort.name != "Bool":  # constant-folded to a value: skip
            continue
        from repro.smt import Const

        if isinstance(atom, Const):
            if bool(atom.value) != sign:
                return  # trivially unsat cube; nothing to check
            continue
        lits.append((sign, atom))

    model = solve_int_cube(lits)
    conj_holds = lambda env: all(
        bool(atom.evaluate(env)) == sign for sign, atom in lits
    )
    if model is not None:
        env = {"x": model.get("x", 0), "y": model.get("y", 0)}
        assert conj_holds(env)
        assert all(type(v) is int for v in model.values())
    else:
        # The box is wider than the moduli's lcm (12) on each axis.
        for vx, vy in itertools.product(range(-12, 13), repeat=2):
            assert not conj_holds({"x": vx, "y": vy})
