"""Linearization of arithmetic terms.

Converts a numeric :class:`~repro.smt.terms.Term` into a linear form
``coeffs · vars + const``.  Numbers keep the type they are given: an
``Int`` term has ``int`` coefficients throughout (so Cooper's procedure
runs on exact machine integers), a ``Real`` term has
:class:`fractions.Fraction` ones (``Real`` constants are fractions, and
Fourier-Motzkin scales by fractions).
Raises :class:`~repro.smt.terms.NonLinearError` when the term multiplies
two non-constant factors (those go to the univariate polynomial solver)
and :class:`ModPresentError` when a ``Mod`` node is met without a rule
for it (the integer solver maps each to a witness variable).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Optional, Union

from .sorts import INT, REAL
from .terms import Add, Const, Mod, Mul, Neg, NonLinearError, SmtError, Term, Var

#: A coefficient or constant: ``int`` for Int terms, ``Fraction`` for Real.
Num = Union[int, Fraction]


class ModPresentError(SmtError):
    """A ``Mod`` node was encountered where none is allowed."""


@dataclass(frozen=True)
class LinTerm:
    """An immutable linear combination of variables plus a constant."""

    coeffs: tuple[tuple[str, Num], ...]
    const: Num

    @staticmethod
    def of(coeffs: Mapping[str, Num], const: Num) -> "LinTerm":
        items = tuple(sorted((v, c) for v, c in coeffs.items() if c != 0))
        return LinTerm(items, const)

    @staticmethod
    def constant(value: Num) -> "LinTerm":
        return LinTerm((), value)

    @staticmethod
    def variable(name: str) -> "LinTerm":
        return LinTerm(((name, 1),), 0)

    def as_dict(self) -> dict[str, Num]:
        return dict(self.coeffs)

    def coeff(self, var: str) -> Num:
        for v, c in self.coeffs:
            if v == var:
                return c
        return 0

    @property
    def variables(self) -> frozenset[str]:
        return frozenset(v for v, _ in self.coeffs)

    def is_constant(self) -> bool:
        return not self.coeffs

    def add(self, other: "LinTerm") -> "LinTerm":
        coeffs = self.as_dict()
        for v, c in other.coeffs:
            coeffs[v] = coeffs.get(v, 0) + c
        return LinTerm.of(coeffs, self.const + other.const)

    def scale(self, factor: Num) -> "LinTerm":
        if factor == 0:
            return LinTerm.constant(0)
        return LinTerm.of(
            {v: c * factor for v, c in self.coeffs}, self.const * factor
        )

    def negate(self) -> "LinTerm":
        return self.scale(-1)

    def sub(self, other: "LinTerm") -> "LinTerm":
        return self.add(other.negate())

    def drop(self, var: str) -> "LinTerm":
        """The linear term with ``var``'s summand removed."""
        coeffs = {v: c for v, c in self.coeffs if v != var}
        return LinTerm.of(coeffs, self.const)

    def substitute(self, var: str, replacement: "LinTerm") -> "LinTerm":
        c = self.coeff(var)
        if c == 0:
            return self
        rest = tuple(vc for vc in self.coeffs if vc[0] != var)
        const = self.const + c * replacement.const
        if not replacement.coeffs:  # still sorted and free of zeros
            return LinTerm(rest, const)
        coeffs = dict(rest)
        for v, a in replacement.coeffs:
            coeffs[v] = coeffs.get(v, 0) + c * a
        return LinTerm.of(coeffs, const)

    def evaluate(self, env: Mapping[str, Num]) -> Num:
        total = self.const
        for v, c in self.coeffs:
            total += c * env[v]
        return total

    def __repr__(self) -> str:
        parts = [f"{c}*{v}" for v, c in self.coeffs]
        parts.append(str(self.const))
        return " + ".join(parts)


def linearize(term: Term, mod: Optional[Callable[[Mod], LinTerm]] = None) -> LinTerm:
    """Convert a numeric term to a linear form.

    Each ``Mod`` node becomes ``mod(node)`` (the integer solver passes
    its witness variables); without ``mod`` a ``Mod`` node raises
    :class:`ModPresentError`.  Raises :class:`NonLinearError` for
    products of non-constant factors.
    """
    if isinstance(term, Const) and term.const_sort in (INT, REAL):
        return LinTerm.constant(term.value)  # type: ignore[arg-type]
    if isinstance(term, Var):
        return LinTerm.variable(term.name)
    if isinstance(term, Neg):
        return linearize(term.arg, mod).negate()
    if isinstance(term, Add):
        total = LinTerm.constant(0)
        for a in term.args:
            total = total.add(linearize(a, mod))
        return total
    if isinstance(term, Mul):
        total = LinTerm.constant(1)
        for a in term.args:
            lin = linearize(a, mod)
            if total.is_constant():
                total = lin.scale(total.const)
            elif lin.is_constant():
                total = total.scale(lin.const)
            else:
                raise NonLinearError(f"non-linear product: {term!r}")
        return total
    if isinstance(term, Mod):
        if mod is None:
            raise ModPresentError(f"mod must be eliminated first: {term!r}")
        return mod(term)
    raise NonLinearError(f"not an arithmetic term: {term!r}")
