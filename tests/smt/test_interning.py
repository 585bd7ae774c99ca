"""Hash-consing invariants: identity, pickling, threads, cache plumbing."""

import concurrent.futures
import pickle

import pytest

from repro.smt import (
    BOOL,
    INT,
    REAL,
    STRING,
    FALSE,
    TRUE,
    Const,
    Eq,
    Solver,
    SortError,
    Var,
    intern_table_size,
    interned,
    interned_const,
    mk_add,
    mk_and,
    mk_bool,
    mk_const,
    mk_eq,
    mk_int,
    mk_le,
    mk_lt,
    mk_mod,
    mk_mul,
    mk_neg,
    mk_not,
    mk_or,
    mk_real,
    mk_str,
    mk_var,
)
from repro.smt import terms as terms_mod


def _formula(k: int = 0):
    x = mk_var("x", INT)
    y = mk_var("y", INT)
    return mk_and(
        mk_lt(mk_add(x, mk_int(k)), mk_mul(mk_int(2), y)),
        mk_or(mk_eq(mk_mod(x, 7), mk_int(3)), mk_not(mk_le(y, mk_int(0)))),
    )


class TestIdentity:
    def test_builders_return_reference_equal_terms(self):
        assert _formula() is _formula()
        assert mk_var("x", INT) is mk_var("x", INT)
        assert mk_int(42) is mk_int(42)
        assert mk_str("a") is mk_str("a")

    def test_identity_iff_structural_equality(self):
        a, b = _formula(1), _formula(2)
        assert a == a and a is a
        assert a != b
        # Directly constructed duplicates stay structurally equal but are
        # not canonical: equality and hashing must still agree.
        raw = Var("x", INT)
        built = mk_var("x", INT)
        assert raw == built
        assert hash(raw) == hash(built)
        assert {raw: 1}[built] == 1

    def test_same_value_different_sort_does_not_alias(self):
        assert mk_const(True) is TRUE
        assert mk_const(False) is FALSE
        assert mk_bool(True) is TRUE
        assert mk_int(1) is not TRUE
        assert mk_int(1).sort is INT
        assert mk_real(1).sort is REAL
        assert mk_real(1) is not mk_int(1)

    def test_invalid_constants_still_rejected(self):
        mk_int(1)  # ensure Const(1, INT) is in the table
        with pytest.raises(SortError):
            interned_const(True, INT)
        with pytest.raises(SortError):
            interned_const(1, REAL)

    def test_interned_skips_validation_only_on_hit(self):
        t1 = interned(Eq, mk_var("s1", STRING), mk_var("s2", STRING))
        t2 = interned(Eq, mk_var("s1", STRING), mk_var("s2", STRING))
        assert t1 is t2
        with pytest.raises(SortError):
            interned(Eq, mk_var("s1", STRING), mk_var("n", INT))

    def test_cached_metadata_shared(self):
        f = _formula()
        assert f.free_vars() is f.free_vars()
        assert f.free_var_names() == frozenset({"x", "y"})
        assert f.sort is BOOL


class TestPickleAndSerialize:
    def test_pickle_round_trip_preserves_identity(self):
        f = _formula(5)
        clone = pickle.loads(pickle.dumps(f))
        assert clone is f

    def test_pickle_preserves_sort_singletons(self):
        v = pickle.loads(pickle.dumps(mk_var("r", REAL)))
        assert v.sort is REAL


class TestThreadSafety:
    def test_concurrent_interning_yields_one_canonical_instance(self):
        def build(seed: int):
            return [_formula(k) for k in range(20)]

        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(build, range(16)))
        for other in results[1:]:
            for a, b in zip(results[0], other):
                assert a is b

    def test_table_size_is_stable_under_rebuilds(self):
        _formula()
        before = intern_table_size()
        for _ in range(50):
            _formula()
        assert intern_table_size() == before


class TestSubstitutionCache:
    def test_disjoint_substitution_returns_self(self):
        f = _formula()
        assert f.substitute({"unrelated": mk_int(0)}) is f
        assert f.substitute({}) is f

    def test_substitution_memoized(self):
        f = _formula()
        mapping = {"x": mk_add(mk_var("y", INT), mk_int(1))}
        r1 = f.substitute(mapping)
        r2 = f.substitute(dict(mapping))
        assert r1 is r2
        # Irrelevant extra entries do not fragment the cache key.
        r3 = f.substitute({**mapping, "zzz": mk_int(9)})
        assert r3 is r1

    def test_clear_substitution_cache(self):
        f = _formula()
        f.substitute({"x": mk_int(1)})
        terms_mod.clear_substitution_cache()
        assert terms_mod.subst_cache_size() == 0


class TestSolverCachePlumbing:
    @pytest.mark.cache_sensitive
    def test_hit_rate_improves_on_repeated_queries(self):
        solver = Solver()
        x = mk_var("x", INT)
        formulas = [mk_lt(x, mk_int(k)) for k in range(10)]
        for f in formulas:
            solver.is_sat(f)
        cold_rate = solver.stats.hit_rate
        for _ in range(9):
            for f in formulas:
                solver.is_sat(f)
        assert solver.stats.hit_rate > cold_rate
        assert solver.stats.hit_rate >= 0.9

    def test_trivial_formulas_bypass_query_counters(self):
        solver = Solver()
        assert solver.is_sat(TRUE)
        assert not solver.is_sat(FALSE)
        assert solver.get_model(TRUE) is not None
        assert solver.get_model(FALSE) is None
        assert solver.stats.sat_queries == 0
        assert solver.stats.trivial_queries == 4

    @pytest.mark.cache_sensitive
    def test_implies_memoized(self):
        solver = Solver()
        x = mk_var("x", INT)
        a, b = mk_lt(x, mk_int(5)), mk_lt(x, mk_int(10))
        assert solver.implies(a, b)
        queries = solver.stats.sat_queries
        assert solver.implies(a, b)
        assert solver.stats.sat_queries == queries
        assert solver.stats.implies_cache_hits == 1
        assert not solver.implies(b, a)
        assert solver.equivalent(a, a)

    @pytest.mark.cache_sensitive
    def test_cache_info_and_clear(self):
        solver = Solver()
        x = mk_var("x", INT)
        solver.is_sat(mk_lt(x, mk_int(3)))
        solver.implies(mk_lt(x, mk_int(1)), mk_lt(x, mk_int(2)))
        info = solver.cache_info()
        assert info["sat_cache_size"] >= 1
        assert info["implies_cache_size"] == 1
        assert info["intern_table_size"] == intern_table_size()
        solver.clear_cache()
        info = solver.cache_info()
        assert info["sat_cache_size"] == 0
        assert info["implies_cache_size"] == 0
        assert info["substitution_cache_size"] == 0

    def test_clear_intern_table_keeps_booleans_canonical(self):
        f = _formula(3)
        terms_mod.clear_intern_table()
        try:
            assert mk_bool(True) is TRUE
            assert mk_bool(False) is FALSE
            rebuilt = _formula(3)
            # The old instance survives and stays structurally equal.
            assert rebuilt == f
            assert hash(rebuilt) == hash(f)
        finally:
            pass
