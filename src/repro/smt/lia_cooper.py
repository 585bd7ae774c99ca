"""Linear integer arithmetic: direct decisions first, Cooper's algorithm last.

Decides conjunctions of literals over ``Int`` variables, where atoms are
``<``, ``<=``, ``=`` between linear terms that may contain ``Mod`` by a
constant.  This is full Presburger arithmetic restricted to conjunctions
of literals (the solver layer handles the Boolean structure), so the
procedure is sound **and complete**, and produces integer models.

Pipeline
--------
1. ``Mod`` elimination.  A positive ``t % k = s`` becomes ``k | t - s``
   with ``0 <= s < k``, with no new variable (for a constant ``s`` the
   bounds are ground checks).  Every other distinct ``t % k`` is
   replaced by one fresh witness ``m`` with side constraints
   ``0 <= m < k`` and ``k | t - m``.
2. Literals are normalized to canonical forms over ``int``-coefficient
   linear terms: ``lin <= 0``, ``lin = 0``, ``lin != 0`` and ``d | lin``.
3. Rational pre-check: if some ``<=``/``=`` constraint links two
   variables, one Fourier-Motzkin pass (:mod:`repro.smt.lra_fm`) over
   that part decides it over the rationals; infeasible there is UNSAT.
4. The recursion then takes the first step that applies:

   a. a ground constraint that fails is UNSAT, and so is ``d | lin``
      when the gcd of ``d`` and the coefficients does not divide the
      constant;
   b. a cube over one variable is decided in plain ``int``s: an
      interval, one residue class (the divisibilities combined by the
      Chinese remainder theorem, non-coprime moduli included) and a
      few excluded points;
   c. an equality is substituted away (after coefficient scaling);
   d. a variable whose bounds leave a range no larger than the period
      Cooper's case split would loop over there (every ``%`` witness:
      ``[0, k-1]`` against period ``k``) is enumerated, the smallest
      range first, and values that break a constraint over that
      variable alone are skipped without a recursive call;
   e. disequalities are split lazily: the cube is solved without them
      (UNSAT there is UNSAT here), and only a disequality the model
      violates is split, into ``lin + 1 <= 0`` or ``-lin + 1 <= 0``;
   f. otherwise a variable is eliminated by Cooper's quantifier
      elimination with the classic ``F_-inf`` / lower-bound case split.

Every number in the recursion is a plain ``int``.  Models are
reconstructed on the way back out of the recursion, and a returned
model satisfies every literal of the cube.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd, lcm
from typing import Iterable, Optional

from ..guard.budget import tick as _tick
from .linear import LinTerm, linearize
from .lra_fm import RealConstraint, is_feasible
from .terms import Eq, Le, Lt, Mod, SmtError, Term

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


def normalize_literals(literals: Iterable[tuple[bool, Term]]) -> list[IntConstraint]:
    """Turn (sign, atom) literals into canonical integer constraints.

    Int terms linearize to ``int`` coefficients, so no scaling is needed.
    Each distinct ``Mod`` subterm becomes one witness variable ``m`` with
    ``0 <= m < k`` and ``k | arg - m``, except the ``Mod`` side of a
    positive equality, whose other side takes the witness's place.
    """
    out: list[IntConstraint] = []
    witnesses: dict[Mod, LinTerm] = {}

    def residue(mod: Mod, value: LinTerm) -> None:
        # mod = value:  0 <= value < k  and  k | arg - value
        k = mod.modulus
        out.append(IntConstraint("le", value.negate()))
        out.append(IntConstraint("le", value.add(LinTerm.constant(1 - k))))
        out.append(IntConstraint("div", linearize(mod.arg, witness).sub(value), k))

    def witness(mod: Mod) -> LinTerm:
        m = witnesses.get(mod)
        if m is None:
            m = witnesses[mod] = LinTerm.variable(f"{_INTERNAL}m{len(witnesses)}")
            residue(mod, m)
        return m

    for pos, atom in literals:
        if not isinstance(atom, (Lt, Le, Eq)):
            raise SmtError(f"unsupported integer atom: {atom!r}")
        left, right = atom.left, atom.right
        if pos and isinstance(atom, Eq) and (isinstance(left, Mod) or isinstance(right, Mod)):
            mod, value = (left, right) if isinstance(left, Mod) else (right, left)
            residue(mod, linearize(value, witness))
            continue
        lin = linearize(left, witness).sub(linearize(right, witness))
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
    if not _rationally_feasible(constraints):
        return None
    model = _solve(constraints)
    if model is None:
        return None
    return {v: x for v, x in model.items() if not v.startswith(_INTERNAL)}


def _rationally_feasible(constraints: list[IntConstraint]) -> bool:
    """One Fourier-Motzkin pass over the ``le``/``eq`` part, when some
    constraint there links two variables (bounds on single variables are
    decided at once by the recursion)."""
    linear = [c for c in constraints if c.kind in ("le", "eq")]
    if all(len(c.lin.coeffs) < 2 for c in linear):
        return True
    return is_feasible([RealConstraint(c.kind, c.lin) for c in linear])


# ---------------------------------------------------------------------------
# Core recursion
# ---------------------------------------------------------------------------

_fresh_counter = itertools.count()


def _solve(constraints: list[IntConstraint]) -> Optional[dict[str, int]]:
    """Decide a conjunction of constraints: each call takes the first
    step of the module docstring's list that applies."""
    # One step per call and per enumerated value: the recursion and the
    # enumeration are the solver's only unbounded loops, so this is
    # where a budget's deadline bites.
    _tick(kind="solver.cooper")
    live: list[IntConstraint] = []
    for c in constraints:
        if not c.lin.coeffs:
            if not _ground_ok(c.kind, c.lin.const, c.divisor):
                return None
        elif c.kind == "div" and c.lin.const % gcd(c.divisor, *(a for _, a in c.lin.coeffs)):
            return None  # d | sum(a_i x_i) + k needs gcd(d, a_i...) | k
        else:
            live.append(c)
    if not live:
        return {}
    variables = {v for c in live for v, _ in c.lin.coeffs}
    if len(variables) == 1:
        return _solve_one(variables.pop(), live)
    for c in live:
        if c.kind == "eq":
            return _eliminate(min(c.lin.variables), live)
    ranges = _ranges(live)
    if ranges is None:
        return None
    var = _enumerable(live, ranges)
    if var is not None:
        return _enumerate(var, ranges[var], live)
    if any(c.kind == "ne" for c in live):
        return _split_disequality(live)
    var = min(sorted(variables), key=lambda v: sum(1 for c in live if v in c.lin.variables))
    return _eliminate(var, live)


def _ground_ok(kind: str, value: int, divisor: int) -> bool:
    if kind == "le":
        return value <= 0
    if kind == "eq":
        return value == 0
    if kind == "ne":
        return value != 0
    return value % divisor == 0


def _eval_extend(lin: LinTerm, model: dict[str, int]) -> int:
    """Evaluate ``lin`` under ``model``, defaulting unconstrained variables
    to 0 and recording the default in the model (sound: the variable no
    longer occurs in any remaining constraint)."""
    for v in lin.variables:
        model.setdefault(v, 0)
    return lin.evaluate(model)


def _solve_one(var: str, live: list[IntConstraint]) -> Optional[dict[str, int]]:
    """Decide constraints over the single variable ``var`` directly.

    The ``le``/``eq`` constraints give an interval, the divisibilities one
    residue class ``r`` modulo ``m``, and the disequalities excluded
    points.  The answer is the class member nearest the interval's finite
    end (the least non-negative one if there is none) that is not
    excluded."""
    lows, highs = _bounds(live)
    lo, hi = lows.get(var), highs.get(var)
    r, m = 0, 1
    excluded: set[int] = set()
    for c in live:
        if c.kind == "le":
            continue  # in lo and hi already
        ((_, a),) = c.lin.coeffs
        k = c.lin.const  # the constraint is on a*var + k
        if c.kind == "eq":
            if k % a:
                return None
            b = -k // a
            lo = b if lo is None else max(lo, b)
            hi = b if hi is None else min(hi, b)
        elif c.kind == "ne":
            if k % a == 0:
                excluded.add(-k // a)
        else:
            # d | a*var + k  <=>  var = (-k/g) * (a/g)^-1  (mod d/g), g = gcd(a, d)
            d = c.divisor
            g = gcd(a, d)
            if k % g:
                return None
            d //= g
            if d == 1:
                continue
            r2 = (-k // g) * pow(a // g, -1, d) % d
            # Combine var = r (mod m) with var = r2 (mod d).
            g = gcd(m, d)
            if (r2 - r) % g:
                return None
            r += m * ((r2 - r) // g * pow(m // g, -1, d // g))
            m *= d // g
            r %= m
    if lo is not None and hi is not None and lo > hi:
        return None
    if lo is not None:
        x, step = lo + (r - lo) % m, m
    elif hi is not None:
        x, step = hi - (hi - r) % m, -m
    else:
        x, step = r, m
    while x in excluded:
        x += step
    if (lo is not None and x < lo) or (hi is not None and x > hi):
        return None
    return {var: x}


def _bounds(live: list[IntConstraint]) -> tuple[dict[str, int], dict[str, int]]:
    """The tightest lower and upper bound of each variable that the
    single-variable ``le`` constraints give."""
    lows: dict[str, int] = {}
    highs: dict[str, int] = {}
    for c in live:
        if c.kind == "le" and len(c.lin.coeffs) == 1:
            ((v, a),) = c.lin.coeffs
            k = c.lin.const  # a*v + k <= 0
            if a > 0:
                b = -k // a
                if v not in highs or b < highs[v]:
                    highs[v] = b
            else:
                b = -(k // a)  # ceil(k / -a)
                if v not in lows or b > lows[v]:
                    lows[v] = b
    return lows, highs


def _ranges(live: list[IntConstraint]) -> Optional[dict[str, tuple[int, int]]]:
    """The finite ranges ``(lo, hi)`` that single-variable bounds give,
    or None if one of them is empty."""
    lows, highs = _bounds(live)
    ranges = {}
    for v, lo in lows.items():
        if v in highs:
            if lo > highs[v]:
                return None
            ranges[v] = (lo, highs[v])
    return ranges


def _period(var: str, with_var: list[IntConstraint]) -> int:
    """The period Cooper's case split loops over at ``var``: the lcm of
    the coefficient scaling ``lam`` and of every scaled divisor."""
    lam = lcm(*(abs(c.lin.coeff(var)) for c in with_var))
    return lcm(
        lam,
        *(c.divisor * (lam // abs(c.lin.coeff(var))) for c in with_var if c.kind == "div"),
    )


def _enumerable(
    live: list[IntConstraint], ranges: dict[str, tuple[int, int]]
) -> Optional[str]:
    """The variable of smallest range among those whose range is no
    larger than the period Cooper would loop over there, or None."""
    by_size = sorted(ranges.items(), key=lambda item: (item[1][1] - item[1][0], item[0]))
    for var, (lo, hi) in by_size:
        if hi - lo < _period(var, [c for c in live if var in c.lin.variables]):
            return var
    return None


def _enumerate(
    var: str, bounds: tuple[int, int], live: list[IntConstraint]
) -> Optional[dict[str, int]]:
    """Try each value of ``var`` in ``bounds``, skipping without a
    recursive call those that break a constraint over ``var`` alone."""
    own: list[tuple[str, int, int, int]] = []
    rest: list[IntConstraint] = []
    for c in live:
        coeffs = c.lin.coeffs
        if len(coeffs) == 1 and coeffs[0][0] == var:
            own.append((c.kind, coeffs[0][1], c.lin.const, c.divisor))
        else:
            rest.append(c)
    for x in range(bounds[0], bounds[1] + 1):
        _tick(kind="solver.cooper")
        if not all(_ground_ok(kind, a * x + k, d) for kind, a, k, d in own):
            continue
        value = LinTerm.constant(x)
        model = _solve([c.substitute(var, value) for c in rest])
        if model is not None:
            model[var] = x
            return model
    return None


def _split_disequality(live: list[IntConstraint]) -> Optional[dict[str, int]]:
    """Solve without the disequalities (UNSAT there is UNSAT here), then
    split only the first disequality the model violates, into its two
    strict branches."""
    model = _solve([c for c in live if c.kind != "ne"])
    if model is None:
        return None
    for i, c in enumerate(live):
        if c.kind == "ne" and _eval_extend(c.lin, model) == 0:
            rest = live[:i] + live[i + 1 :]
            left = rest + [IntConstraint("le", c.lin.add(LinTerm.constant(1)))]
            model = _solve(left)
            if model is not None:
                return model
            right = rest + [IntConstraint("le", c.lin.negate().add(LinTerm.constant(1)))]
            return _solve(right)
    return model


def _eliminate(var: str, live: list[IntConstraint]) -> Optional[dict[str, int]]:
    """Eliminate ``var``: by substitution when an equality mentions it,
    otherwise by Cooper's case split (the caller has split away every
    disequality)."""
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
            model = _solve(new)
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

    period = _period(var, with_var)

    if not lowers:
        # F_-inf: X can go to -infinity; only divisibilities matter.
        for j in range(1, period + 1):
            new_divs = [c.substitute(fresh, LinTerm.constant(j)) for c in divs]
            model = _solve(new_divs + without)
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
            model = _solve(new + without)
            if model is not None:
                model[fresh] = _eval_extend(repl, model)
                return finish(model)
    return None
