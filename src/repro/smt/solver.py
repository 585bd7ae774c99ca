"""The label-theory solver facade.

This module plays the role Z3 plays in the paper: it decides
satisfiability of quantifier-free formulas over the label theory and
produces models (used for witness trees and counterexamples).  The
Boolean structure is handled by lazy cube enumeration
(:mod:`repro.smt.cubes`); each cube is split by sort and dispatched to

* Boolean literal consistency,
* congruence closure for strings (:mod:`repro.smt.strings_solver`),
* Cooper's algorithm for integers (:mod:`repro.smt.lia_cooper`),
* Fourier-Motzkin + Sturm sequences for reals (:mod:`repro.smt.lra_fm`).

Results are cached per formula; the cache makes the emptiness /
composition algorithms that fire thousands of satisfiability queries
practical (cache statistics feed the evaluation harness).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from ..guard.budget import charge_query as _charge_query, tick as _tick
from ..obs import config as obs_config
from ..obs import metrics as obs_metrics
from ..obs import provenance as prov
from . import builders as b
from . import terms as terms_mod
from .cubes import classify_atom, iter_cubes
from .lia_cooper import solve_int_cube
from .lra_fm import solve_real_cube
from .sorts import BOOL, INT, REAL, STRING, Sort
from .strings_solver import solve_string_cube
from .terms import FALSE, TRUE, Const, SmtError, Term, Value, Var


@dataclass
class Model:
    """A satisfying assignment.

    ``exact`` is False when a real witness sits at an irrational
    algebraic point and is only a rational approximation.
    """

    assignment: dict[str, Value]
    exact: bool = True

    def __getitem__(self, name: str) -> Value:
        return self.assignment[name]

    def get(self, name: str, default: Value | None = None) -> Value | None:
        return self.assignment.get(name, default)

    def satisfies(self, formula: Term) -> bool:
        env = dict(self.assignment)
        for v in formula.free_vars():
            env.setdefault(v.name, _default_value(v.sort))
        return bool(formula.evaluate(env))


def _default_value(sort: Sort) -> Value:
    if sort is BOOL:
        return False
    if sort is INT:
        return 0
    if sort is REAL:
        return Fraction(0)
    if sort is STRING:
        return ""
    raise SmtError(f"no default value for sort {sort}")


#: Process-wide solver metrics (all solver instances), recorded only
#: while :mod:`repro.obs` is enabled; the per-instance ``SolverStats``
#: counters below are always live.
_OBS_SAT = obs_metrics.counter("solver.sat_queries")
_OBS_HITS = obs_metrics.counter("solver.cache_hits")
_OBS_CUBES = obs_metrics.counter("solver.cubes_checked")
_OBS_TRIVIAL = obs_metrics.counter("solver.trivial_queries")
_OBS_IMPLIES_HITS = obs_metrics.counter("solver.implies_cache_hits")


@dataclass
class SolverStats:
    """Counters exposed to the benchmark harness.

    Since the :mod:`repro.obs` migration this is a thin read-through
    view over per-solver :class:`~repro.obs.metrics.Counter` objects —
    the public attributes (``sat_queries`` etc.) are unchanged.
    """

    _sat: obs_metrics.Counter = field(default_factory=obs_metrics.Counter)
    _hits: obs_metrics.Counter = field(default_factory=obs_metrics.Counter)
    _cubes: obs_metrics.Counter = field(default_factory=obs_metrics.Counter)
    _trivial: obs_metrics.Counter = field(default_factory=obs_metrics.Counter)
    _implies_hits: obs_metrics.Counter = field(
        default_factory=obs_metrics.Counter
    )

    @property
    def sat_queries(self) -> int:
        return self._sat.value

    @property
    def cache_hits(self) -> int:
        return self._hits.value

    @property
    def cubes_checked(self) -> int:
        return self._cubes.value

    @property
    def trivial_queries(self) -> int:
        """Queries answered by the TRUE/FALSE identity fast path."""
        return self._trivial.value

    @property
    def implies_cache_hits(self) -> int:
        return self._implies_hits.value

    @property
    def hit_rate(self) -> float:
        """Cache hits per query; 0.0 before the first query."""
        queries = self._sat.value
        return self._hits.value / queries if queries else 0.0

    def reset(self) -> None:
        self._sat.reset()
        self._hits.reset()
        self._cubes.reset()
        self._trivial.reset()
        self._implies_hits.reset()


class Solver:
    """Decision procedure for the label theory (quantifier-free formulas).

    ``cache=False`` disables per-formula memoization (used by the cache
    ablation benchmark; leave it on everywhere else).
    """

    def __init__(self, cache: bool = True) -> None:
        self._sat_cache: dict[Term, Optional[Model]] = {}
        self._implies_cache: dict[tuple[Term, Term], bool] = {}
        self._cache_enabled = cache
        self.stats = SolverStats()

    # -- satisfiability ----------------------------------------------------

    def is_sat(self, formula: Term) -> bool:
        """Is the formula satisfiable?"""
        if formula is TRUE:
            self.stats._trivial.inc()
            if obs_config.ENABLED:
                _OBS_TRIVIAL.inc()
            return True
        if formula is FALSE:
            self.stats._trivial.inc()
            if obs_config.ENABLED:
                _OBS_TRIVIAL.inc()
            return False
        return self.get_model(formula) is not None

    def get_model(self, formula: Term) -> Optional[Model]:
        """A satisfying assignment covering the formula's variables, or None.

        The hash-consed constants short-circuit before the query counter:
        asking whether the interned ``TRUE``/``FALSE`` is satisfiable is
        an identity check, not solver work (tracked separately under
        ``solver.trivial_queries``).
        """
        if formula is TRUE:
            self.stats._trivial.inc()
            if obs_config.ENABLED:
                _OBS_TRIVIAL.inc()
            return Model({})
        if formula is FALSE:
            self.stats._trivial.inc()
            if obs_config.ENABLED:
                _OBS_TRIVIAL.inc()
            return None
        self.stats._sat.inc()
        if obs_config.ENABLED:
            _OBS_SAT.inc()
        if self._cache_enabled and formula in self._sat_cache:
            self.stats._hits.inc()
            if obs_config.ENABLED:
                _OBS_HITS.inc()
            return self._sat_cache[formula]
        # Ambient resource governance: cache hits are free; a solved
        # query charges the active budget (repro.guard) and may abort
        # *here*, before any partial result could reach the cache —
        # results are published below only once fully computed
        # (abort-safe insertion).
        _charge_query()
        prov.saw_query(formula)  # provenance tally: solved, not cached
        model = self._solve(formula)
        if self._cache_enabled:
            self._sat_cache[formula] = model
        return model

    def _solve(self, formula: Term) -> Optional[Model]:
        for cube in iter_cubes(formula):
            _tick(kind="solver.cube")
            self.stats._cubes.inc()
            if obs_config.ENABLED:
                _OBS_CUBES.inc()
            model = self._solve_cube(cube)
            if model is not None:
                for v in formula.free_vars():
                    model.assignment.setdefault(v.name, _default_value(v.sort))
                return model
        return None

    def _solve_cube(self, cube: list[tuple[bool, Term]]) -> Optional[Model]:
        groups: dict[str, list[tuple[bool, Term]]] = {}
        for sign, atom in cube:
            kind = classify_atom(atom)
            if kind == "booleq":
                # Stray Bool equality built without the smart constructors.
                rebuilt = b.mk_eq(atom.left, atom.right)  # type: ignore[attr-defined]
                if not sign:
                    rebuilt = b.mk_not(rebuilt)
                sub = self._solve(rebuilt)
                if sub is None:
                    return None
                groups.setdefault("_extra", []).append((sign, atom))
                continue
            groups.setdefault(kind, []).append((sign, atom))

        assignment: dict[str, Value] = {}
        exact = True

        for sign, atom in groups.get("bool", []):
            if isinstance(atom, Const):
                if bool(atom.value) != sign:
                    return None
                continue
            assert isinstance(atom, Var)
            if assignment.setdefault(atom.name, sign) != sign:
                return None

        if "string" in groups:
            m = solve_string_cube(groups["string"])
            if m is None:
                return None
            assignment.update(m)

        if "int" in groups:
            m_int = solve_int_cube(groups["int"])
            if m_int is None:
                return None
            assignment.update(m_int)

        if "real" in groups:
            m_real = solve_real_cube(groups["real"])
            if m_real is None:
                return None
            assignment.update(m_real.assignment)
            exact = exact and m_real.exact

        if "_extra" in groups:
            # Re-check the odd Bool equalities under the assembled model.
            for sign, atom in groups["_extra"]:
                env = dict(assignment)
                for v in atom.free_vars():
                    env.setdefault(v.name, _default_value(v.sort))
                if bool(atom.evaluate(env)) != sign:
                    return None  # rare; a complete solver would branch here

        return Model(assignment, exact)

    # -- derived judgments ---------------------------------------------------

    def is_valid(self, formula: Term) -> bool:
        return not self.is_sat(b.mk_not(formula))

    def implies(self, antecedent: Term, consequent: Term) -> bool:
        """Does the antecedent entail the consequent?

        Memoized per ``(antecedent, consequent)`` identity pair, so a
        repeated entailment costs one lookup.
        """
        if antecedent is consequent or antecedent is FALSE or consequent is TRUE:
            self.stats._trivial.inc()
            if obs_config.ENABLED:
                _OBS_TRIVIAL.inc()
            return True
        if not self._cache_enabled:
            return not self.is_sat(b.mk_and(antecedent, b.mk_not(consequent)))
        key = (antecedent, consequent)
        hit = self._implies_cache.get(key)
        if hit is None:
            hit = not self.is_sat(b.mk_and(antecedent, b.mk_not(consequent)))
            self._implies_cache[key] = hit
        else:
            self.stats._implies_hits.inc()
            if obs_config.ENABLED:
                _OBS_IMPLIES_HITS.inc()
        return hit

    def equivalent(self, left: Term, right: Term) -> bool:
        if left is right:
            self.stats._trivial.inc()
            if obs_config.ENABLED:
                _OBS_TRIVIAL.inc()
            return True
        return self.implies(left, right) and self.implies(right, left)

    # -- cache management --------------------------------------------------

    def cache_info(self) -> dict[str, float]:
        """Sizes and hit counters of every cache this solver touches.

        Includes the process-wide term-layer caches (intern table,
        substitution memo) so `--profile` runs can spot leaks.
        """
        return {
            "sat_cache_size": len(self._sat_cache),
            "implies_cache_size": len(self._implies_cache),
            "sat_queries": self.stats.sat_queries,
            "cache_hits": self.stats.cache_hits,
            "implies_cache_hits": self.stats.implies_cache_hits,
            "trivial_queries": self.stats.trivial_queries,
            "hit_rate": self.stats.hit_rate,
            "intern_table_size": terms_mod.intern_table_size(),
            "substitution_cache_size": terms_mod.subst_cache_size(),
        }

    def clear_cache(self) -> None:
        """Drop the sat/implies memos and the shared substitution cache.

        The intern table is left alone (it canonicalizes identity, not
        results); flush it explicitly with
        :func:`repro.smt.terms.clear_intern_table`.
        """
        self._sat_cache.clear()
        self._implies_cache.clear()
        terms_mod.clear_substitution_cache()


#: Shared default solver used across the library when none is supplied.
DEFAULT_SOLVER = Solver()


def is_sat(formula: Term) -> bool:
    """Module-level convenience wrapper over :data:`DEFAULT_SOLVER`."""
    return DEFAULT_SOLVER.is_sat(formula)


def get_model(formula: Term) -> Optional[Model]:
    """Module-level convenience wrapper over :data:`DEFAULT_SOLVER`."""
    return DEFAULT_SOLVER.get_model(formula)
