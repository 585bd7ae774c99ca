"""Sorts (types) of the label theories.

The paper (Section 3.1) parametrizes every definition by a *label theory*
over a background structure.  Fast programs draw node attributes from the
basic sorts below; the solver in :mod:`repro.smt.solver` decides
quantifier-free formulas over them.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Sort:
    """A basic sort of the label theory (e.g. ``Int``, ``String``)."""

    name: str

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return self.name

    def __reduce__(self):
        # Unpickle to the module-level singleton: the theory dispatchers
        # compare sorts with ``is``, so identity must survive pickling.
        return (_load_sort, (self.name,))


def _load_sort(name: str) -> "Sort":
    return BASIC_SORTS.get(name) or Sort(name)


BOOL = Sort("Bool")
INT = Sort("Int")
REAL = Sort("Real")
STRING = Sort("String")

#: All basic sorts, keyed by their Fast surface name.
BASIC_SORTS = {s.name: s for s in (BOOL, INT, REAL, STRING)}
