"""Tests for Fourier-Motzkin, the string solver, minterms, and simplify."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smt import (
    INT,
    REAL,
    STRING,
    TRUE,
    FALSE,
    Solver,
    minterms,
    mk_add,
    mk_and,
    mk_eq,
    mk_gt,
    mk_int,
    mk_le,
    mk_lt,
    mk_mul,
    mk_ne,
    mk_not,
    mk_or,
    mk_real,
    mk_str,
    mk_var,
)
from repro.smt.lra_fm import solve_real_cube
from repro.smt.simplify import rebuild, simplify
from repro.smt.strings_solver import solve_string_cube

r = mk_var("r", REAL)
q = mk_var("q", REAL)
w = mk_var("w", REAL)


class TestFourierMotzkin:
    def test_transitive_chain(self):
        lits = [(True, mk_lt(r, q)), (True, mk_lt(q, w)), (True, mk_lt(w, r))]
        assert solve_real_cube(lits) is None

    def test_three_var_model(self):
        lits = [
            (True, mk_lt(r, q)),
            (True, mk_lt(q, w)),
            (True, mk_lt(w, mk_real(1))),
            (True, mk_lt(mk_real(0), r)),
        ]
        res = solve_real_cube(lits)
        a = res.assignment
        assert 0 < a["r"] < a["q"] < a["w"] < 1

    def test_non_strict_equality_point(self):
        lits = [(True, mk_le(r, mk_real(5))), (True, mk_le(mk_real(5), r))]
        res = solve_real_cube(lits)
        assert res.assignment["r"] == 5

    def test_strict_point_unsat(self):
        lits = [(True, mk_lt(r, mk_real(5))), (True, mk_lt(mk_real(5), r))]
        assert solve_real_cube(lits) is None

    def test_negated_atoms(self):
        lits = [(False, mk_lt(r, mk_real(3))), (False, mk_le(mk_real(7), r))]
        res = solve_real_cube(lits)
        assert 3 <= res.assignment["r"] < 7

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(-3, 3), st.integers(-3, 3), st.integers(-4, 4), st.booleans()
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_models_satisfy(self, spec):
        lits = []
        for a, b, c, strict in spec:
            t = mk_add(
                mk_mul(mk_real(a), r), mk_mul(mk_real(b), q), mk_real(c)
            )
            atom = mk_lt(t, mk_real(0)) if strict else mk_le(t, mk_real(0))
            if atom in (TRUE, FALSE):
                continue
            lits.append((True, atom))
        res = solve_real_cube(lits)
        if res is not None:
            env = {"r": res.assignment.get("r", Fraction(0)), "q": res.assignment.get("q", Fraction(0))}
            for _, atom in lits:
                assert atom.evaluate(env)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(-3, 3),
                st.integers(-3, 3),
                st.integers(-4, 4),
                st.sampled_from(["lt", "le", "eq", "square"]),
                st.booleans(),
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_model_values_are_exact(self, spec):
        """Linear terms keep ``int`` coefficients until scaled, so every
        FM (and Sturm) model value must still be a ``Fraction`` or an
        ``int`` -- never a ``float`` from dividing two ints."""
        lits = []
        for a, b, c, kind, sign in spec:
            if kind == "square":  # univariate non-linear: r*r + a*r + c
                t = mk_add(mk_mul(r, r), mk_mul(mk_real(a), r), mk_real(c))
                atom = mk_lt(t, mk_real(0))
            else:
                t = mk_add(mk_mul(mk_real(a), r), mk_mul(mk_real(b), q), mk_real(c))
                atom = {"lt": mk_lt, "le": mk_le, "eq": mk_eq}[kind](t, mk_real(0))
            if atom in (TRUE, FALSE):
                continue
            lits.append((sign, atom))
        res = solve_real_cube(lits)
        if res is None:
            return
        for value in res.assignment.values():
            assert isinstance(value, (Fraction, int)) and not isinstance(value, bool)
        if res.exact:
            env = {"r": Fraction(0), "q": Fraction(0), **res.assignment}
            for sign, atom in lits:
                assert bool(atom.evaluate(env)) == sign


class TestStringSolver:
    s1 = mk_var("a", STRING)
    s2 = mk_var("b", STRING)
    s3 = mk_var("c", STRING)

    def test_transitive_equality(self):
        lits = [
            (True, mk_eq(self.s1, self.s2)),
            (True, mk_eq(self.s2, self.s3)),
            (True, mk_eq(self.s3, mk_str("k"))),
        ]
        m = solve_string_cube(lits)
        assert m == {"a": "k", "b": "k", "c": "k"}

    def test_diseq_through_chain(self):
        lits = [
            (True, mk_eq(self.s1, self.s2)),
            (False, mk_eq(self.s1, self.s2)),
        ]
        assert solve_string_cube(lits) is None

    def test_many_distinct(self):
        lits = [
            (False, mk_eq(self.s1, self.s2)),
            (False, mk_eq(self.s2, self.s3)),
            (False, mk_eq(self.s1, self.s3)),
        ]
        m = solve_string_cube(lits)
        assert len({m["a"], m["b"], m["c"]}) == 3

    def test_constant_diseq(self):
        lits = [(False, mk_eq(self.s1, mk_str("script")))]
        m = solve_string_cube(lits)
        assert m["a"] != "script"


class TestMinterms:
    def test_partition(self):
        x = mk_var("x", INT)
        solver = Solver()
        preds = [mk_lt(x, mk_int(0)), mk_lt(x, mk_int(10))]
        result = list(minterms(preds, solver))
        # x<0 & x<10;  not(x<0) & x<10;  not(x<0) & not(x<10).  (x<0 & not(x<10) is unsat)
        assert len(result) == 3
        signs = {s for s, _ in result}
        assert (True, False) not in signs

    def test_empty_predicate_list(self):
        solver = Solver()
        result = list(minterms([], solver))
        assert len(result) == 1 and result[0][1] == TRUE

    def test_minterms_are_disjoint_and_exhaustive(self):
        x = mk_var("x", INT)
        solver = Solver()
        preds = [
            mk_eq(mk_var("s", STRING), mk_str("a")),
            mk_lt(x, mk_int(3)),
        ]
        ms = list(minterms(preds, solver))
        for i, (_, f1) in enumerate(ms):
            for _, f2 in ms[i + 1 :]:
                assert not solver.is_sat(mk_and(f1, f2))
        union = mk_or(*(f for _, f in ms))
        assert solver.is_valid(union)


class TestSimplify:
    def test_unsat_becomes_false(self):
        x = mk_var("x", INT)
        solver = Solver()
        f = mk_and(mk_lt(x, mk_int(0)), mk_gt(x, mk_int(0)))
        # smart constructors don't see this; simplify does
        assert simplify(f, solver) == FALSE

    def test_valid_becomes_true(self):
        x = mk_var("x", INT)
        solver = Solver()
        f = mk_or(mk_lt(x, mk_int(5)), mk_le(mk_int(5), x))
        assert simplify(f, solver) == TRUE

    def test_redundant_conjunct_dropped(self):
        x = mk_var("x", INT)
        solver = Solver()
        f = mk_and(mk_lt(x, mk_int(0)), mk_lt(x, mk_int(10)))
        g = simplify(f, solver)
        assert g == mk_lt(x, mk_int(0))

    def test_rebuild_normalizes(self):
        from repro.smt.terms import And, Or

        x = mk_var("x", INT)
        raw = And((Or(()), mk_lt(x, mk_int(1))))  # Or(()) == false
        assert rebuild(raw) == FALSE
