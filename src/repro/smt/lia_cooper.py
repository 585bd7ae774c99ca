"""Linear integer arithmetic via Cooper's algorithm.

Decides conjunctions of literals over ``Int`` variables, where atoms are
``<``, ``<=``, ``=`` between linear terms that may contain ``Mod`` by a
constant.  This is full Presburger arithmetic restricted to conjunctions
of literals (the solver layer handles the Boolean structure), so the
procedure is sound **and complete**, and produces integer models.

Pipeline
--------
1. ``Mod`` elimination: each ``t % k`` is replaced by a fresh variable
   ``m`` with side constraints ``0 <= m < k`` and ``k | t - m``.
2. Literals are normalized to canonical forms over ``int``-coefficient
   linear terms: ``lin <= 0``, ``lin = 0``, ``lin != 0`` and ``d | lin``.
3. Disequalities are split lazily: the ``<=``/``=``/``|`` constraints
   are solved first (if they are UNSAT, so is the cube, since dropping
   constraints only relaxes it).  Only a disequality the model violates
   is split, into ``lin + 1 <= 0`` or ``-lin + 1 <= 0``.
4. Variables are eliminated one by one: equalities by substitution
   (after coefficient scaling), otherwise Cooper's quantifier
   elimination with the classic ``F_-inf`` / lower-bound case split.

Every number in the recursion is a plain ``int``.  Models are
reconstructed on the way back out of the recursion, and a returned
model satisfies every literal of the cube.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import lcm
from typing import Iterable, Optional

from ..guard.budget import tick as _tick
from .linear import LinTerm, linearize
from .terms import Eq, Le, Lt, Mod, SmtError, Term, Var, interned

#: Prefix for solver-internal variables (mod witnesses, scaled variables).
_INTERNAL = "%"


@dataclass(frozen=True)
class IntConstraint:
    """A canonical integer constraint.

    ``kind`` is one of ``"le"`` (lin <= 0), ``"eq"`` (lin = 0), ``"ne"``
    (lin != 0) or ``"div"`` (divisor | lin).
    """

    kind: str
    lin: LinTerm
    divisor: int = 0

    def substitute(self, var: str, replacement: LinTerm) -> "IntConstraint":
        return IntConstraint(self.kind, self.lin.substitute(var, replacement), self.divisor)

    def __repr__(self) -> str:
        if self.kind == "div":
            return f"{self.divisor} | {self.lin!r}"
        op = {"le": "<= 0", "eq": "= 0", "ne": "!= 0"}[self.kind]
        return f"{self.lin!r} {op}"


def _eliminate_mods(
    atoms: list[tuple[bool, Term]], counter: itertools.count
) -> tuple[list[tuple[bool, Term]], list[IntConstraint]]:
    """Replace every ``Mod`` subterm by a fresh variable with side constraints."""
    extra: list[IntConstraint] = []
    work = list(atoms)
    out: list[tuple[bool, Term]] = []
    while work:
        pos, atom = work.pop(0)
        mod = _find_innermost_mod(atom)
        if mod is None:
            out.append((pos, atom))
            continue
        fresh = interned(Var, f"{_INTERNAL}m{next(counter)}", mod.sort)
        replaced = _replace_term(atom, mod, fresh)
        work.insert(0, (pos, replaced))
        # 0 <= fresh < modulus  and  modulus | (arg - fresh).  The chosen
        # Mod is innermost, so its argument is already mod-free.
        lin_fresh = LinTerm.variable(fresh.name)
        extra.append(IntConstraint("le", lin_fresh.negate()))  # -m <= 0
        extra.append(
            IntConstraint("le", lin_fresh.add(LinTerm.constant(1 - mod.modulus)))
        )  # m - (k-1) <= 0
        arg_lin = linearize(mod.arg)
        extra.append(IntConstraint("div", arg_lin.sub(lin_fresh), divisor=mod.modulus))
    return out, extra


def _find_innermost_mod(term: Term) -> Optional[Mod]:
    found: Optional[Mod] = None
    for sub in term.iter_subterms():
        if isinstance(sub, Mod):
            found = sub
            inner = _find_innermost_mod(sub.arg)
            if inner is not None:
                return inner
            return sub
    return found


def _replace_term(term: Term, target: Term, replacement: Term) -> Term:
    if term == target:
        return replacement
    if isinstance(term, Var) or not term.children:
        return term
    import dataclasses

    new_children = tuple(_replace_term(c, target, replacement) for c in term.children)
    if new_children == term.children:
        return term
    # All composite term dataclasses store children in their declared fields.
    fields = dataclasses.fields(term)
    values = []
    idx = 0
    for f in fields:
        v = getattr(term, f.name)
        if isinstance(v, Term):
            values.append(new_children[idx])
            idx += 1
        elif isinstance(v, tuple) and v and all(isinstance(x, Term) for x in v):
            values.append(tuple(new_children[idx : idx + len(v)]))
            idx += len(v)
        else:
            values.append(v)
    return type(term)(*values)


def normalize_literals(literals: Iterable[tuple[bool, Term]]) -> list[IntConstraint]:
    """Turn (sign, atom) literals into canonical integer constraints.

    Int terms linearize to ``int`` coefficients, so no scaling is needed.
    """
    counter = itertools.count()
    atoms, extra = _eliminate_mods(list(literals), counter)
    out = list(extra)
    for pos, atom in atoms:
        if not isinstance(atom, (Lt, Le, Eq)):
            raise SmtError(f"unsupported integer atom: {atom!r}")
        lin = linearize(atom.left).sub(linearize(atom.right))
        if isinstance(atom, Lt):
            if pos:  # l - r < 0  <=>  l - r + 1 <= 0
                out.append(IntConstraint("le", lin.add(LinTerm.constant(1))))
            else:  # r <= l  <=>  r - l <= 0
                out.append(IntConstraint("le", lin.negate()))
        elif isinstance(atom, Le):
            if pos:
                out.append(IntConstraint("le", lin))
            else:  # l > r  <=>  r - l + 1 <= 0
                out.append(IntConstraint("le", lin.negate().add(LinTerm.constant(1))))
        else:
            out.append(IntConstraint("eq" if pos else "ne", lin))
    return out


def solve_int_cube(literals: Iterable[tuple[bool, Term]]) -> Optional[dict[str, int]]:
    """Decide a conjunction of integer literals; return a model or None."""
    constraints = normalize_literals(literals)
    model = _solve(constraints)
    if model is None:
        return None
    return {v: x for v, x in model.items() if not v.startswith(_INTERNAL)}


# ---------------------------------------------------------------------------
# Core recursion
# ---------------------------------------------------------------------------

_fresh_counter = itertools.count()


def _solve(constraints: list[IntConstraint]) -> Optional[dict[str, int]]:
    # Solve without the disequalities; UNSAT there is UNSAT here.
    model = _solve_basic([c for c in constraints if c.kind != "ne"])
    if model is None:
        return None
    # Split only the first disequality the model violates, into the two
    # strict branches.
    for i, c in enumerate(constraints):
        if c.kind == "ne" and _eval_extend(c.lin, model) == 0:
            rest = constraints[:i] + constraints[i + 1 :]
            left = rest + [IntConstraint("le", c.lin.add(LinTerm.constant(1)))]
            model = _solve(left)
            if model is not None:
                return model
            right = rest + [IntConstraint("le", c.lin.negate().add(LinTerm.constant(1)))]
            return _solve(right)
    return model


def _eval_extend(lin: LinTerm, model: dict[str, int]) -> int:
    """Evaluate ``lin`` under ``model``, defaulting unconstrained variables
    to 0 and recording the default in the model (sound: the variable no
    longer occurs in any remaining constraint)."""
    for v in lin.variables:
        model.setdefault(v, 0)
    return lin.evaluate(model)


def _ground_ok(c: IntConstraint) -> bool:
    v = c.lin.const
    if c.kind == "le":
        return v <= 0
    if c.kind == "eq":
        return v == 0
    if c.kind == "div":
        return v % c.divisor == 0
    raise AssertionError(c.kind)


def _solve_basic(constraints: list[IntConstraint]) -> Optional[dict[str, int]]:
    """Decide a conjunction of le/eq/div constraints (no disequalities)."""
    # One step per recursive call: the recursion is the solver's only
    # unbounded loop, so this is where a budget's deadline bites.
    _tick(kind="solver.cooper")
    ground = [c for c in constraints if c.lin.is_constant()]
    if not all(_ground_ok(c) for c in ground):
        return None
    live = [c for c in constraints if not c.lin.is_constant()]
    if not live:
        return {}

    variables = sorted({v for c in live for v in c.lin.variables})
    # Prefer a variable occurring in an equality (cheap substitution).
    var = None
    for c in live:
        if c.kind == "eq":
            var = min(c.lin.variables)
            break
    if var is None:
        var = min(variables, key=lambda v: sum(1 for c in live if v in c.lin.variables))

    with_var = [c for c in live if var in c.lin.variables]
    without = [c for c in live if var not in c.lin.variables]

    # Scale so the coefficient of `var` is +-lam everywhere, then replace
    # lam*var by a fresh variable X with the side constraint lam | X.
    lam = lcm(*(abs(c.lin.coeff(var)) for c in with_var))
    fresh = f"{_INTERNAL}x{next(_fresh_counter)}"
    scaled: list[IntConstraint] = []
    for c in with_var:
        a = c.lin.coeff(var)
        factor = lam // abs(a)
        lin = c.lin.scale(factor)
        divisor = c.divisor * factor if c.kind == "div" else 0
        # replace lam*var (coefficient now +-lam) by +-1 * fresh
        coeffs = lin.as_dict()
        sign = 1 if coeffs[var] > 0 else -1
        del coeffs[var]
        coeffs[fresh] = sign
        scaled.append(IntConstraint(c.kind, LinTerm.of(coeffs, lin.const), divisor))
    if lam != 1:
        scaled.append(IntConstraint("div", LinTerm.variable(fresh), divisor=lam))

    def finish(model: Optional[dict[str, int]]) -> Optional[dict[str, int]]:
        if model is None:
            return None
        x_val = model.pop(fresh)
        assert x_val % lam == 0, "lam must divide X"
        model[var] = x_val // lam
        return model

    # Equality on the scaled variable: substitute X := t.
    for i, c in enumerate(scaled):
        if c.kind == "eq":
            sign = c.lin.coeff(fresh)
            t = c.lin.drop(fresh).scale(-sign)  # X = t
            others = scaled[:i] + scaled[i + 1 :]
            new = [o.substitute(fresh, t) for o in others] + without
            model = _solve_basic(new)
            if model is None:
                return None
            model[fresh] = _eval_extend(t, model)
            return finish(model)

    # Strict lower bounds b < X (from -X + rest <= 0, i.e. rest <= X, take
    # b = rest - 1), upper bounds X <= u, and divisibilities on X.
    lowers: list[LinTerm] = []
    uppers: list[LinTerm] = []
    divs: list[IntConstraint] = []
    for c in scaled:
        if c.kind == "le":
            sign = c.lin.coeff(fresh)
            rest = c.lin.drop(fresh)
            if sign > 0:  # X + rest <= 0  =>  X <= -rest
                uppers.append(rest.negate())
            else:  # -X + rest <= 0  =>  rest - 1 < X
                lowers.append(rest.add(LinTerm.constant(-1)))
        else:
            divs.append(c)

    period = lcm(*(c.divisor for c in divs)) if divs else 1

    if not lowers:
        # F_-inf: X can go to -infinity; only divisibilities matter.
        for j in range(1, period + 1):
            new_divs = [c.substitute(fresh, LinTerm.constant(j)) for c in divs]
            model = _solve_basic(new_divs + without)
            if model is not None:
                if uppers:
                    bound = min(_eval_extend(u, model) for u in uppers)
                else:
                    bound = j
                # Largest X <= bound with X = j (mod period).
                x_val = bound - ((bound - j) % period)
                model[fresh] = x_val
                return finish(model)
        return None

    # Cooper's main disjunction: X = b + j for some strict lower bound b
    # and 1 <= j <= period.  Substituting into the *original* scaled
    # constraints keeps all bound interactions exact.
    for low in lowers:
        for j in range(1, period + 1):
            repl = low.add(LinTerm.constant(j))
            new = [c.substitute(fresh, repl) for c in scaled]
            model = _solve_basic(new + without)
            if model is not None:
                model[fresh] = _eval_extend(repl, model)
                return finish(model)
    return None
