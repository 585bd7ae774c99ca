"""Direct tests of the Cooper integer solver (normalization + elimination)."""

import itertools
import time
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.guard import Budget, DeadlineExceeded, scope
from repro.smt import INT, mk_add, mk_eq, mk_int, mk_le, mk_lt, mk_mod, mk_mul, mk_var
from repro.smt.lia_cooper import IntConstraint, normalize_literals, solve_int_cube
from repro.smt.linear import LinTerm

x = mk_var("x", INT)
y = mk_var("y", INT)


def lin(a, b, c):
    """The term a*x + b*y + c."""
    return mk_add(mk_mul(mk_int(a), x), mk_mul(mk_int(b), y), mk_int(c))


def solve_within(lits, seconds=1.0):
    """Solve under a deadline, so a slow cube fails instead of hanging."""
    t0 = time.monotonic()
    with scope(Budget(deadline=seconds)):
        model = solve_int_cube(lits)
    assert time.monotonic() - t0 < seconds
    return model


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
        # A positive x % 5 = 2 is 5 | x - 2 directly, with no witness
        # variable; only the ground checks 0 <= 2 < 5 remain beside it.
        cons = normalize_literals([(True, mk_eq(mk_mod(x, 5), mk_int(2)))])
        div = next(c for c in cons if c.kind == "div")
        assert div.divisor == 5 and div.lin == LinTerm.of({"x": 1}, -2)
        assert all(c.lin.is_constant() for c in cons if c is not div)
        # A negated one keeps a witness m: 5 | x - m and m - 2 != 0.
        cons = normalize_literals([(False, mk_eq(mk_mod(x, 5), mk_int(2)))])
        kinds = sorted(c.kind for c in cons)
        assert kinds == ["div", "le", "le", "ne"]
        div = next(c for c in cons if c.kind == "div")
        assert div.divisor == 5 and len(div.lin.variables) == 2

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
        # UNSAT: 3x = 5y (as two inequalities) needs 5 | x, but
        # x % 100000 = 1 gives x = 1 (mod 5).  The conflict is modular,
        # so the rational pre-check passes it, and Cooper's case split
        # walks a period of about half a million values (~10 s) before
        # it shows; the budget's deadline must cut it short.
        lits = [
            (True, mk_le(lin(3, -5, 0), mk_int(0))),
            (True, mk_le(mk_int(0), lin(3, -5, 0))),
            (True, mk_eq(mk_mod(x, 100000), mk_int(1))),
            (True, mk_eq(mk_mod(y, 99999), mk_int(2))),
        ]
        t0 = time.monotonic()
        with pytest.raises(DeadlineExceeded):
            with scope(Budget(deadline=0.5)):
                solve_int_cube(lits)
        assert time.monotonic() - t0 < 2.0


class TestDirectDecisions:
    """Cubes that Cooper's period expansion took seconds or more on; the
    direct steps answer each well inside a second."""

    def test_bounds_alone_refute(self):
        # UNSAT since x <= -1 and x >= 9: the rational pre-check sees it.
        lits = [
            (True, mk_le(lin(0, -3, 5), mk_int(0))),
            (True, mk_lt(mk_int(0), lin(1, -1, -6))),
            (True, mk_lt(mk_int(0), lin(3, 1, 2))),
            (True, mk_le(mk_int(0), lin(-2, 0, -1))),
            (False, mk_eq(mk_mod(lin(2, -3, 4), 3), mk_int(1))),
        ]
        assert solve_within(lits) is None

    def test_large_modulus_equality(self):
        m = solve_within([(True, mk_eq(mk_mod(x, 100003), mk_int(100002)))])
        assert m["x"] % 100003 == 100002

    def test_chinese_remainder(self):
        lits = [
            (True, mk_eq(mk_mod(x, 1009), mk_int(1000))),
            (True, mk_eq(mk_mod(x, 1013), mk_int(1001))),
        ]
        m = solve_within(lits)
        assert m["x"] % 1009 == 1000 and m["x"] % 1013 == 1001

    def test_excluded_residues_in_a_small_window(self):
        lits = [
            (True, mk_le(mk_int(0), x)),
            (True, mk_le(x, mk_int(5))),
            (False, mk_eq(mk_mod(x, 5003), mk_int(0))),
            (False, mk_eq(mk_mod(x, 5003), mk_int(1))),
        ]
        m = solve_within(lits)
        assert 2 <= m["x"] <= 5


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(2, 60),
            st.integers(-3, 3).filter(bool),
            st.integers(-9, 9),
            st.integers(-1, 60),
            st.booleans(),
        ),
        min_size=1,
        max_size=3,
    ),
    st.one_of(st.none(), st.integers(-40, 40)),
    st.one_of(st.none(), st.integers(-40, 40)),
)
def test_one_variable_cube_agrees_with_one_period(mods, lower, upper):
    """(a*x + b) % k = c literals, k in 2..60, and optional bounds: the
    solver agrees with a search over one period of x past a finite end."""
    lits = [
        (sign, mk_eq(mk_mod(mk_add(mk_mul(mk_int(a), x), mk_int(b)), k), mk_int(c)))
        for k, a, b, c, sign in mods
    ]
    if lower is not None:
        lits.append((True, mk_le(mk_int(lower), x)))
    if upper is not None:
        lits.append((True, mk_le(x, mk_int(upper))))

    def holds(v):
        return all(((a * v + b) % k == c) == sign for k, a, b, c, sign in mods) and (
            (lower is None or lower <= v) and (upper is None or v <= upper)
        )

    period = lcm(*(k for k, *_ in mods))
    start = lower if lower is not None else (upper - period + 1 if upper is not None else 0)
    model = solve_int_cube(lits)
    if model is None:
        assert not any(holds(v) for v in range(start, start + period))
    else:
        assert holds(model["x"]) and type(model["x"]) is int


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
