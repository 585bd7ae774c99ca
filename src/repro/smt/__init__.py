"""Label-theory substrate: terms, formulas, and the decision procedure.

This package replaces the paper's use of Z3 (Section 3.1 requires only a
*decidable* label theory closed under Boolean operations — an effective
Boolean algebra).  See DESIGN.md for the substitution argument.
"""

from typing import Optional

from .builders import (
    FALSE,
    TRUE,
    conjoin,
    disjoin,
    mk_add,
    mk_and,
    mk_bool,
    mk_const,
    mk_eq,
    mk_ge,
    mk_gt,
    mk_iff,
    mk_implies,
    mk_int,
    mk_ite,
    mk_le,
    mk_lt,
    mk_mod,
    mk_mul,
    mk_ne,
    mk_neg,
    mk_not,
    mk_or,
    mk_real,
    mk_str,
    mk_sub,
    mk_var,
)
from .minterms import minterms
from .simplify import rebuild, simplify
from .solver import DEFAULT_SOLVER, Model, Solver, get_model, is_sat
from .sorts import BASIC_SORTS, BOOL, INT, REAL, STRING, Sort
from .terms import (
    Add,
    And,
    Const,
    Eq,
    EvaluationError,
    Le,
    Lt,
    Mod,
    Mul,
    Neg,
    NonLinearError,
    Not,
    Or,
    SmtError,
    SortError,
    Term,
    Value,
    Var,
    clear_intern_table,
    clear_substitution_cache,
    intern_table_size,
    interned,
    interned_const,
    subst_cache_size,
)

def flush_all_caches(
    solver: Optional[Solver] = None,
    *,
    check: bool = False,
    check_sample: Optional[int] = 128,
) -> dict[str, int]:
    """Coordinated flush of every term-holding cache in the process.

    :func:`~repro.smt.terms.clear_intern_table` alone is not enough for
    memory hygiene: the solver's sat/implies memos and the exec
    artifact LRU key and hold *term objects*, so a bare intern flush
    leaves retired terms pinned (structural equality even lets the
    stale entries keep hitting, which silently keeps the whole old
    term DAG alive).  This clears, in one step:

    * the given solver's (default: :data:`DEFAULT_SOLVER`) sat and
      implies memos plus the shared substitution cache;
    * the intern table itself (``TRUE``/``FALSE`` are re-seeded, so
      identity fast paths on the canonical booleans survive);
    * the exec compiled-artifact LRU.

    With ``check=True`` the solver and intern invariants are verified
    *before* anything is dropped (:func:`repro.guard.
    check_solver_consistency`, sampled at ``check_sample`` entries per
    table) — the worker hygiene path uses this so a flush never papers
    over corrupted cache state.

    Returns the pre-flush sizes, keyed like ``cache_info()``.
    """
    target = solver if solver is not None else DEFAULT_SOLVER
    sizes = {
        "sat_cache": len(target._sat_cache),
        "implies_cache": len(target._implies_cache),
        "intern_table": intern_table_size(),
        "substitution_cache": subst_cache_size(),
    }
    if check:
        from ..guard import check_solver_consistency

        check_solver_consistency(target, sample=check_sample)
    target.clear_cache()
    clear_intern_table()
    try:
        # Lazy import: repro.exec imports repro.smt, not vice versa.
        from ..exec.cache import DEFAULT_CACHE

        sizes["exec_memory_cache"] = len(DEFAULT_CACHE)
        DEFAULT_CACHE.clear()
    except Exception:
        sizes["exec_memory_cache"] = 0
    return sizes


__all__ = [
    "BASIC_SORTS",
    "BOOL",
    "DEFAULT_SOLVER",
    "FALSE",
    "INT",
    "REAL",
    "STRING",
    "TRUE",
    "Add",
    "And",
    "Const",
    "Eq",
    "EvaluationError",
    "Le",
    "Lt",
    "Mod",
    "Model",
    "Mul",
    "Neg",
    "NonLinearError",
    "Not",
    "Or",
    "SmtError",
    "Solver",
    "Sort",
    "SortError",
    "Term",
    "Value",
    "Var",
    "clear_intern_table",
    "clear_substitution_cache",
    "conjoin",
    "disjoin",
    "flush_all_caches",
    "get_model",
    "intern_table_size",
    "interned",
    "interned_const",
    "is_sat",
    "minterms",
    "subst_cache_size",
    "mk_add",
    "mk_and",
    "mk_bool",
    "mk_const",
    "mk_eq",
    "mk_ge",
    "mk_gt",
    "mk_iff",
    "mk_implies",
    "mk_int",
    "mk_ite",
    "mk_le",
    "mk_lt",
    "mk_mod",
    "mk_mul",
    "mk_ne",
    "mk_neg",
    "mk_not",
    "mk_or",
    "mk_real",
    "mk_str",
    "mk_sub",
    "mk_var",
    "rebuild",
    "simplify",
]
