"""Linear real arithmetic via Fourier-Motzkin elimination.

Decides conjunctions of literals over ``Real`` variables and produces
rational models.  Non-linear atoms in a **single** variable are routed
to the Sturm-sequence solver (:mod:`repro.smt.poly_real`); variables that
occur only in linear atoms are eliminated by Fourier-Motzkin first, so a
cube may freely mix, say, a cubic guard on ``x`` with linear guards on
``y`` as long as no non-linear atom mentions two variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .linear import LinTerm, linearize
from .poly_real import PolyConstraint, decide_poly_cube, poly_from_term, poly_sub
from .terms import Eq, Le, Lt, NonLinearError, SmtError, Term


class UnsupportedRealFragment(SmtError):
    """The cube mixes non-linear atoms across variables."""


@dataclass(frozen=True)
class RealConstraint:
    """``lin < 0`` (strict) or ``lin <= 0`` / ``lin = 0`` / ``lin != 0``."""

    kind: str  # "lt" | "le" | "eq" | "ne"
    lin: LinTerm

    def substitute(self, var: str, replacement: LinTerm) -> "RealConstraint":
        return RealConstraint(self.kind, self.lin.substitute(var, replacement))


@dataclass
class RealModelResult:
    """A model for a real cube; ``exact`` is False when a witness sits at
    an irrational algebraic point and is only approximated."""

    assignment: dict[str, Fraction]
    exact: bool = True


def _normalize(literals: Iterable[tuple[bool, Term]]) -> tuple[
    list[RealConstraint], list[PolyConstraint | tuple[str, PolyConstraint]]
]:
    """Split literals into linear constraints and per-variable poly constraints."""
    linear: list[RealConstraint] = []
    polys: list[tuple[str, PolyConstraint]] = []
    for pos, atom in literals:
        if isinstance(atom, Lt):
            diff_terms = (atom.left, atom.right)
            kind = "lt" if pos else "le"
            swap = not pos
        elif isinstance(atom, Le):
            diff_terms = (atom.left, atom.right)
            kind = "le" if pos else "lt"
            swap = not pos
        elif isinstance(atom, Eq):
            diff_terms = (atom.left, atom.right)
            kind = "eq" if pos else "ne"
            swap = False
        else:
            raise SmtError(f"unsupported real atom: {atom!r}")
        left, right = diff_terms
        if swap:
            left, right = right, left
        try:
            lin = linearize(left).sub(linearize(right))
            linear.append(RealConstraint(kind, lin))
        except NonLinearError:
            variables = sorted(
                {v.name for v in left.free_vars()} | {v.name for v in right.free_vars()}
            )
            if len(variables) != 1:
                raise UnsupportedRealFragment(
                    f"non-linear atom over several variables: {atom!r}"
                )
            var = variables[0]
            p = poly_sub(poly_from_term(left, var), poly_from_term(right, var))
            op = {"lt": "<", "le": "<=", "eq": "=", "ne": "!="}[kind]
            polys.append((var, PolyConstraint(p, op)))
    return linear, polys


def _eval_extend(lin: LinTerm, model: dict[str, Fraction]) -> Fraction:
    """Evaluate ``lin`` under ``model``, defaulting unconstrained variables
    to 0 (sound: they no longer occur in any remaining constraint)."""
    for v in lin.variables:
        model.setdefault(v, Fraction(0))
    return lin.evaluate(model)


def solve_real_cube(
    literals: Iterable[tuple[bool, Term]],
) -> Optional[RealModelResult]:
    """Decide a conjunction of real literals; return a model or None."""
    linear, polys = _normalize(literals)
    poly_vars = {v for v, _ in polys}
    return _solve(linear, polys, poly_vars)


def is_feasible(linear: list[RealConstraint]) -> bool:
    """Do the linear constraints have a rational solution?"""
    return _solve(linear, [], set()) is not None


def _solve(
    linear: list[RealConstraint],
    polys: list[tuple[str, PolyConstraint]],
    poly_vars: set[str],
) -> Optional[RealModelResult]:
    # Branch on disequalities first.
    for i, c in enumerate(linear):
        if c.kind == "ne":
            rest = linear[:i] + linear[i + 1 :]
            for kind, lin in (("lt", c.lin), ("lt", c.lin.negate())):
                result = _solve(rest + [RealConstraint(kind, lin)], polys, poly_vars)
                if result is not None:
                    return result
            return None

    # Substitute linear equalities (only through linear constraints; an
    # equality variable feeding a poly atom is out of fragment unless the
    # substitution is constant).
    for i, c in enumerate(linear):
        if c.kind == "eq" and not c.lin.is_constant():
            # pick a variable to solve for, preferring one outside poly atoms
            candidates = sorted(c.lin.variables - poly_vars) or sorted(c.lin.variables)
            var = candidates[0]
            a = c.lin.coeff(var)
            expr = c.lin.drop(var).scale(Fraction(-1) / a)
            rest = [o.substitute(var, expr) for o in linear[:i] + linear[i + 1 :]]
            if var in poly_vars:
                if not expr.is_constant():
                    raise UnsupportedRealFragment(
                        f"equality on poly variable {var} is not constant"
                    )
                value = expr.const
                new_polys = []
                for v, pc in polys:
                    if v == var:
                        from .poly_real import poly_eval

                        sign_v = poly_eval(pc.poly, value)
                        sign = 0 if sign_v == 0 else (1 if sign_v > 0 else -1)
                        if not pc.holds_sign(sign):
                            return None
                    else:
                        new_polys.append((v, pc))
                result = _solve(rest, new_polys, {v for v, _ in new_polys})
                if result is None:
                    return None
                result.assignment[var] = value
                return result
            result = _solve(rest, polys, poly_vars)
            if result is None:
                return None
            result.assignment[var] = _eval_extend(expr, result.assignment)
            return result

    ground = [c for c in linear if c.lin.is_constant()]
    for c in ground:
        v = c.lin.const
        ok = v < 0 if c.kind == "lt" else (v <= 0 if c.kind == "le" else v == 0)
        if not ok:
            return None
    live = [c for c in linear if not c.lin.is_constant()]

    lin_vars = {v for c in live for v in c.lin.variables}
    fm_vars = sorted(lin_vars - poly_vars)
    if fm_vars:
        var = fm_vars[0]
        lowers: list[tuple[LinTerm, bool]] = []  # (bound, strict): bound (<|<=) var
        uppers: list[tuple[LinTerm, bool]] = []  # var (<|<=) bound
        others: list[RealConstraint] = []
        for c in live:
            a = c.lin.coeff(var)
            if a == 0:
                others.append(c)
                continue
            rest = c.lin.drop(var).scale(Fraction(-1) / a)
            if a > 0:  # a*var + r (<|<=) 0  =>  var (<|<=) rest
                uppers.append((rest, c.kind == "lt"))
            else:
                lowers.append((rest, c.kind == "lt"))
        combined = list(others)
        for lo, s1 in lowers:
            for hi, s2 in uppers:
                combined.append(RealConstraint("lt" if (s1 or s2) else "le", lo.sub(hi)))
        result = _solve(combined, polys, poly_vars)
        if result is None:
            return None
        env = result.assignment
        lo_vals = [(_eval_extend(l, env), s) for l, s in lowers]
        hi_vals = [(_eval_extend(h, env), s) for h, s in uppers]
        result.assignment[var] = _pick_between(lo_vals, hi_vals)
        return result

    # Only poly variables remain; any remaining linear atom must be univariate.
    by_var: dict[str, list[PolyConstraint]] = {}
    for v, pc in polys:
        by_var.setdefault(v, []).append(pc)
    for c in live:
        variables = sorted(c.lin.variables)
        if len(variables) != 1:
            raise UnsupportedRealFragment(
                f"linear atom {c!r} links several non-linear variables"
            )
        v = variables[0]
        coeffs = [c.lin.const, c.lin.coeff(v)]
        from .poly_real import poly_normalize

        op = {"lt": "<", "le": "<=", "eq": "="}[c.kind]
        by_var.setdefault(v, []).append(PolyConstraint(poly_normalize(coeffs), op))

    assignment: dict[str, Fraction] = {}
    exact = True
    for v, pcs in by_var.items():
        res = decide_poly_cube(pcs)
        if res is None:
            return None
        value, is_exact = res
        assignment[v] = value
        exact = exact and is_exact
    return RealModelResult(assignment, exact)


def _pick_between(
    lowers: list[tuple[Fraction, bool]], uppers: list[tuple[Fraction, bool]]
) -> Fraction:
    """A rational value above all lower bounds and below all upper bounds."""
    if lowers and uppers:
        lo = max(v for v, _ in lowers)
        hi = min(v for v, _ in uppers)
        lo_strict = any(s for v, s in lowers if v == lo)
        hi_strict = any(s for v, s in uppers if v == hi)
        if lo == hi:
            assert not (lo_strict or hi_strict), "FM should have pruned this"
            return lo
        if not lo_strict:
            return lo
        if not hi_strict:
            return hi
        return (lo + hi) / 2
    if lowers:
        return max(v for v, _ in lowers) + 1
    if uppers:
        return min(v for v, _ in uppers) - 1
    return Fraction(0)
