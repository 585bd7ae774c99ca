"""Compiler from Fast ASTs to symbolic automata and transducers.

Compilation model (Section 3 of the paper):

* All plain ``lang`` declarations over one tree type form a single STA —
  they may be mutually recursive, and their names are its states.
* All plain ``trans`` declarations over one ``(in, out)`` type pair form
  a single STTR rule space — mutual recursion through ``(q y)`` calls —
  with a synthesized ``_copy`` identity state interpreting bare ``y``
  outputs.  A transducer's lookahead automaton is the program STA of its
  input type (extended with any ``def``-ined languages used in ``given``
  clauses).
* ``def`` declarations evaluate operation expressions eagerly (compose,
  restrict, pre-image, ...) into :class:`Language` / :class:`Transducer`
  values, exactly the operations of Section 3.5.

Sort checking of ``where``/output expressions happens during lowering;
errors carry source positions.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from ..automata import STA, Language, STARule
from ..guard.budget import GuardError, tick as _tick
from ..obs import metrics as obs_metrics
from ..obs import tracer as obs_tracer
from ..smt import builders as smt
from ..smt.sorts import BASIC_SORTS, BOOL, Sort
from ..smt.terms import Term
from ..transducers import (
    OutApply,
    OutNode,
    STTR,
    Transducer,
    trule,
)
from ..smt.solver import Solver
from ..trees import Tree, TreeType, make_tree_type
from . import ast
from .errors import FastNameError, FastTypeError

#: The synthesized identity state interpreting bare ``y`` in outputs.
COPY_STATE = "_copy"

#: Full front-end compiles (cache misses or uncached paths); warm
#: artifact-cache hits leave this at zero.
_OBS_COMPILES = obs_metrics.counter("fast.compile")


@dataclass
class CompiledProgram:
    """The environment a Fast program evaluates to."""

    types: dict[str, TreeType] = dc_field(default_factory=dict)
    langs: dict[str, Language] = dc_field(default_factory=dict)
    transducers: dict[str, Transducer] = dc_field(default_factory=dict)
    trees: dict[str, Tree] = dc_field(default_factory=dict)
    lang_types: dict[str, str] = dc_field(default_factory=dict)
    solver: Solver = dc_field(default_factory=Solver)


class Compiler:
    def __init__(self, program: ast.Program, solver: Solver | None = None) -> None:
        self.program = program
        self.env = CompiledProgram(solver=solver or Solver())

    @classmethod
    def from_env(cls, env: CompiledProgram) -> "Compiler":
        """A compiler evaluating against an already-built environment.

        This is how cached artifacts (:mod:`repro.exec.artifact`) run
        assert/print declarations without re-lowering anything: all the
        ``eval_*`` methods only consult ``self.env``.
        """
        compiler = cls(ast.Program(()), env.solver)
        compiler.env = env
        return compiler

    # -- entry point ---------------------------------------------------------

    def compile(self) -> CompiledProgram:
        decls = self.program.decls
        _OBS_COMPILES.inc()
        _tick(len(decls), kind="fast.decl")
        with obs_tracer.span("compile.types"):
            for d in decls:
                if isinstance(d, ast.TypeDecl):
                    self._compile_type(d)
        # Group mutually recursive lang/trans declarations up front.
        with obs_tracer.span("compile.langs"):
            self._compile_langs([d for d in decls if isinstance(d, ast.LangDecl)])
        with obs_tracer.span("compile.trans"):
            self._compile_trans_groups(
                [d for d in decls if isinstance(d, ast.TransDecl)]
            )
        with obs_tracer.span("compile.defs"):
            for d in decls:
                if isinstance(d, ast.DefLang):
                    self._register_lang(
                        d.name, self.eval_lang(d.expr), d.type_name, d.pos
                    )
                elif isinstance(d, ast.DefTrans):
                    self._register_trans(d.name, self.eval_trans(d.expr), d.pos)
                elif isinstance(d, ast.TreeDecl):
                    self._compile_tree(d)
        return self.env

    # -- types --------------------------------------------------------------

    def _compile_type(self, d: ast.TypeDecl) -> None:
        if d.name in self.env.types:
            raise FastNameError(f"type {d.name} is defined twice", d.pos)
        fields = []
        for fname, sort_name in d.fields:
            if sort_name not in BASIC_SORTS:
                raise FastTypeError(f"unknown sort {sort_name}", d.pos)
            fields.append((fname, BASIC_SORTS[sort_name]))
        try:
            self.env.types[d.name] = make_tree_type(
                d.name, fields, dict(d.constructors)
            )
        except GuardError:
            # Budget exhaustion / injected faults are degradations, not
            # type errors: wrapping them would turn a clean UNKNOWN into
            # a bogus front-end failure.
            raise
        except Exception as exc:
            raise FastTypeError(f"bad type {d.name}: {exc}", d.pos) from exc

    def _type(self, name: str, pos) -> TreeType:
        if name not in self.env.types:
            raise FastNameError(f"unknown type {name}", pos)
        return self.env.types[name]

    # -- expressions ---------------------------------------------------------

    def lower_expr(self, e: ast.Expr, fields: dict[str, Sort]) -> Term:
        """Lower an Aexp to a label-theory term, checking sorts."""
        if isinstance(e, ast.EConst):
            return smt.mk_const(e.value)
        if isinstance(e, ast.EVar):
            if e.name not in fields:
                raise FastNameError(
                    f"unknown attribute field {e.name}", e.pos
                )
            return smt.mk_var(e.name, fields[e.name])
        if isinstance(e, ast.EOp):
            args = [self.lower_expr(a, fields) for a in e.args]
            return self._apply_op(e.op, args, e.pos)
        raise FastTypeError(f"bad expression {e!r}", e.pos)

    def _apply_op(self, op: str, args: list[Term], pos) -> Term:
        def need(n: int) -> None:
            if len(args) != n:
                raise FastTypeError(f"operator {op} expects {n} arguments", pos)

        try:
            if op == "and":
                return smt.mk_and(*args)
            if op == "or":
                return smt.mk_or(*args)
            if op == "not":
                need(1)
                return smt.mk_not(args[0])
            if op == "neg":
                need(1)
                return smt.mk_neg(args[0])
            if op == "+":
                return smt.mk_add(*args)
            if op == "-":
                need(2)
                return smt.mk_sub(args[0], args[1])
            if op == "*":
                return smt.mk_mul(*args)
            if op == "%":
                need(2)
                modulus = args[1]
                from ..smt.terms import Const

                if not isinstance(modulus, Const) or not isinstance(
                    modulus.value, int
                ):
                    raise FastTypeError(
                        "the modulus of % must be an integer constant", pos
                    )
                return smt.mk_mod(args[0], modulus.value)
            if op == "=":
                need(2)
                return smt.mk_eq(args[0], args[1])
            if op == "!=":
                need(2)
                return smt.mk_ne(args[0], args[1])
            if op == "<":
                need(2)
                return smt.mk_lt(args[0], args[1])
            if op == "<=":
                need(2)
                return smt.mk_le(args[0], args[1])
            if op == ">":
                need(2)
                return smt.mk_gt(args[0], args[1])
            if op == ">=":
                need(2)
                return smt.mk_ge(args[0], args[1])
        except (FastTypeError, GuardError):
            raise
        except Exception as exc:
            raise FastTypeError(f"ill-typed use of {op}: {exc}", pos) from exc
        raise FastTypeError(f"unknown operator {op}", pos)

    # -- lang groups -----------------------------------------------------------

    def _compile_langs(self, decls: list[ast.LangDecl]) -> None:
        by_type: dict[str, list[ast.LangDecl]] = {}
        for d in decls:
            self._type(d.type_name, d.pos)
            by_type.setdefault(d.type_name, []).append(d)
        for type_name, group in by_type.items():
            tree_type = self.env.types[type_name]
            names = {d.name for d in group}
            fields = {f.name: f.sort for f in tree_type.fields}
            rules: list[STARule] = []
            for d in group:
                for r in d.rules:
                    rules.append(self._lower_lang_rule(d, r, tree_type, fields, names))
            sta = STA(tree_type, tuple(rules))
            for d in group:
                if d.name in self.env.langs:
                    raise FastNameError(f"language {d.name} defined twice", d.pos)
                self._register_lang(
                    d.name, Language(sta, d.name, self.env.solver), type_name, d.pos
                )

    def _lower_lang_rule(
        self,
        decl: ast.LangDecl,
        r: ast.LangRule,
        tree_type: TreeType,
        fields: dict[str, Sort],
        group_names: set[str],
    ) -> STARule:
        ctor = self._ctor(tree_type, r.ctor, r.pos)
        if len(r.child_vars) != ctor.rank:
            raise FastTypeError(
                f"{decl.name}: {r.ctor} has rank {ctor.rank}, "
                f"pattern binds {len(r.child_vars)} children",
                r.pos,
            )
        guard = smt.TRUE if r.where is None else self.lower_expr(r.where, fields)
        if guard.sort is not BOOL:
            raise FastTypeError(f"{decl.name}: where-clause is not Boolean", r.pos)
        lookahead = [set() for _ in range(ctor.rank)]
        var_index = {v: i for i, v in enumerate(r.child_vars)}
        for g in r.given:
            if g.var not in var_index:
                raise FastNameError(
                    f"{decl.name}: given references unknown child {g.var}", g.pos
                )
            if g.lang not in group_names:
                raise FastNameError(
                    f"{decl.name}: given references unknown language {g.lang} "
                    f"(lang declarations may only reference lang declarations "
                    f"over the same type)",
                    g.pos,
                )
            lookahead[var_index[g.var]].add(g.lang)
        return STARule(
            decl.name, r.ctor, guard, tuple(frozenset(l) for l in lookahead)
        )

    def _ctor(self, tree_type: TreeType, name: str, pos):
        try:
            return tree_type.constructor(name)
        except GuardError:
            raise
        except Exception as exc:
            raise FastTypeError(str(exc), pos) from exc

    # -- trans groups -----------------------------------------------------------

    def _compile_trans_groups(self, decls: list[ast.TransDecl]) -> None:
        by_types: dict[tuple[str, str], list[ast.TransDecl]] = {}
        for d in decls:
            self._type(d.in_type, d.pos)
            self._type(d.out_type, d.pos)
            by_types.setdefault((d.in_type, d.out_type), []).append(d)
        for (in_name, out_name), group in by_types.items():
            self._compile_trans_group(in_name, out_name, group)

    def _compile_trans_group(
        self, in_name: str, out_name: str, group: list[ast.TransDecl]
    ) -> None:
        in_type = self.env.types[in_name]
        out_type = self.env.types[out_name]
        in_fields = {f.name: f.sort for f in in_type.fields}
        names = {d.name for d in group}
        # The lookahead automaton: the program STA for the input type.
        la_sta = self._lookahead_sta_for(in_name)
        la_states = la_sta.states

        rules = []
        uses_copy = False
        for d in group:
            for tr in d.rules:
                rule, used = self._lower_trans_rule(
                    d, tr, in_type, out_type, in_fields, names, la_states
                )
                rules.append(rule)
                uses_copy = uses_copy or used
        if uses_copy and in_type != out_type:
            raise FastTypeError(
                f"bare child copies require input and output types to "
                f"coincide, got {in_name} -> {out_name}"
            )
        if in_type == out_type:
            # Synthesize the identity state interpreting bare ``y`` outputs.
            for c in in_type.constructors:
                out = OutNode(
                    c.name,
                    tuple(smt.mk_var(f.name, f.sort) for f in in_type.fields),
                    tuple(OutApply(COPY_STATE, i) for i in range(c.rank)),
                )
                rules.append(trule(COPY_STATE, c.name, out, rank=c.rank))
        for d in group:
            if d.name in self.env.transducers:
                raise FastNameError(f"transformation {d.name} defined twice", d.pos)
            sttr = STTR(
                d.name, in_type, out_type, d.name, tuple(rules), lookahead_sta=la_sta
            )
            self._register_trans(d.name, Transducer(sttr, self.env.solver), d.pos)

    def _lookahead_sta_for(self, type_name: str) -> STA:
        """All plain-lang rules over the type (their names are the states)."""
        tree_type = self.env.types[type_name]
        rules: list[STARule] = []
        seen: set = set()
        for name, lang in self.env.langs.items():
            if self.env.lang_types.get(name) == type_name and id(lang.sta) not in seen:
                seen.add(id(lang.sta))
                if lang.sta.tree_type == tree_type:
                    rules.extend(lang.sta.rules)
        return STA(tree_type, tuple(rules))

    def _lower_trans_rule(
        self,
        decl: ast.TransDecl,
        tr: ast.TransRule,
        in_type: TreeType,
        out_type: TreeType,
        in_fields: dict[str, Sort],
        trans_names: set[str],
        la_states,
    ):
        r = tr.base
        ctor = self._ctor(in_type, r.ctor, r.pos)
        if len(r.child_vars) != ctor.rank:
            raise FastTypeError(
                f"{decl.name}: {r.ctor} has rank {ctor.rank}, pattern binds "
                f"{len(r.child_vars)}",
                r.pos,
            )
        guard = smt.TRUE if r.where is None else self.lower_expr(r.where, in_fields)
        if guard.sort is not BOOL:
            raise FastTypeError(f"{decl.name}: where-clause is not Boolean", r.pos)
        var_index = {v: i for i, v in enumerate(r.child_vars)}
        lookahead = [set() for _ in range(ctor.rank)]
        for g in r.given:
            if g.var not in var_index:
                raise FastNameError(
                    f"{decl.name}: given references unknown child {g.var}", g.pos
                )
            if g.lang not in la_states:
                raise FastNameError(
                    f"{decl.name}: given references unknown language {g.lang}",
                    g.pos,
                )
            lookahead[var_index[g.var]].add(g.lang)

        used_copy = False

        def lower_out(o: ast.OutExpr):
            nonlocal used_copy
            if isinstance(o, ast.OVar):
                if o.name not in var_index:
                    raise FastNameError(
                        f"{decl.name}: output references unknown child {o.name}",
                        o.pos,
                    )
                used_copy = True
                return OutApply(COPY_STATE, var_index[o.name])
            if isinstance(o, ast.OCall):
                if o.trans not in trans_names:
                    raise FastNameError(
                        f"{decl.name}: output calls unknown transformation "
                        f"{o.trans} (only trans declarations over the same "
                        f"type pair may be called)",
                        o.pos,
                    )
                if o.var not in var_index:
                    raise FastNameError(
                        f"{decl.name}: output references unknown child {o.var}",
                        o.pos,
                    )
                return OutApply(o.trans, var_index[o.var])
            if isinstance(o, ast.OCons):
                out_ctor = self._ctor(out_type, o.ctor, o.pos)
                if len(o.children) != out_ctor.rank:
                    raise FastTypeError(
                        f"{decl.name}: output {o.ctor} has rank {out_ctor.rank}, "
                        f"got {len(o.children)} children",
                        o.pos,
                    )
                if len(o.attr_exprs) != len(out_type.fields):
                    raise FastTypeError(
                        f"{decl.name}: output {o.ctor} needs "
                        f"{len(out_type.fields)} attribute expression(s)",
                        o.pos,
                    )
                exprs = []
                for f, e in zip(out_type.fields, o.attr_exprs):
                    t = self.lower_expr(e, in_fields)
                    if t.sort != f.sort:
                        raise FastTypeError(
                            f"{decl.name}: attribute {f.name} of {o.ctor} "
                            f"expects {f.sort}, got {t.sort}",
                            e.pos,
                        )
                    exprs.append(t)
                return OutNode(
                    o.ctor, tuple(exprs), tuple(lower_out(c) for c in o.children)
                )
            raise FastTypeError(f"bad output {o!r}", o.pos)

        output = lower_out(tr.output)
        from ..transducers.sttr import STTRRule

        return (
            STTRRule(
                decl.name,
                r.ctor,
                guard,
                tuple(frozenset(l) for l in lookahead),
                output,
            ),
            used_copy,
        )

    # -- registration ----------------------------------------------------------

    def _register_lang(self, name: str, lang: Language, type_name: str, pos) -> None:
        if name in self.env.langs or name in self.env.transducers:
            raise FastNameError(f"{name} is defined twice", pos)
        self.env.langs[name] = lang
        self.env.lang_types[name] = type_name

    def _register_trans(self, name: str, trans: Transducer, pos) -> None:
        if name in self.env.langs or name in self.env.transducers:
            raise FastNameError(f"{name} is defined twice", pos)
        self.env.transducers[name] = trans

    # -- operation evaluation ------------------------------------------------------

    def eval_lang(self, e: ast.LangExpr) -> Language:
        if isinstance(e, ast.LRef):
            if e.name not in self.env.langs:
                raise FastNameError(f"unknown language {e.name}", e.pos)
            return self.env.langs[e.name]
        if isinstance(e, ast.LBinop):
            left = self.eval_lang(e.left)
            right = self.eval_lang(e.right)
            _same_type(e.op, e.pos, left.tree_type, right.tree_type)
            if e.op == "intersect":
                return left.intersect(right)
            if e.op == "union":
                return left.union(right)
            if e.op == "difference":
                return left.difference(right)
        if isinstance(e, ast.LUnop):
            arg = self.eval_lang(e.arg)
            if e.op == "complement":
                return arg.complement()
            if e.op == "minimize":
                return arg.minimize()
        if isinstance(e, ast.LDomain):
            return self.eval_trans(e.trans).domain()
        if isinstance(e, ast.LPreImage):
            trans = self.eval_trans(e.trans)
            lang = self.eval_lang(e.lang)
            _same_type("pre-image", e.pos, trans.output_type, lang.tree_type)
            return trans.pre_image(lang)
        raise FastTypeError(f"bad language expression {e!r}", e.pos)

    def eval_trans(self, e: ast.TransExpr) -> Transducer:
        if isinstance(e, ast.TRef):
            if e.name not in self.env.transducers:
                raise FastNameError(f"unknown transformation {e.name}", e.pos)
            return self.env.transducers[e.name]
        if isinstance(e, ast.TCompose):
            first = self.eval_trans(e.first)
            second = self.eval_trans(e.second)
            _same_type("compose", e.pos, first.output_type, second.input_type)
            return first.compose(second)
        if isinstance(e, ast.TRestrict):
            trans = self.eval_trans(e.trans)
            lang = self.eval_lang(e.lang)
            if e.kind == "restrict":
                _same_type(e.kind, e.pos, trans.input_type, lang.tree_type)
                return trans.restrict(lang)
            _same_type(e.kind, e.pos, trans.output_type, lang.tree_type)
            return trans.restrict_out(lang)
        raise FastTypeError(f"bad transduction expression {e!r}", e.pos)

    def eval_type_check(self, a: ast.ATypeCheck) -> Tree | None:
        """``type-check l1 t l2``: None, or an input in ``l1`` that ``t``
        maps outside ``l2``."""
        input_lang = self.eval_lang(a.input_lang)
        trans = self.eval_trans(a.trans)
        output_lang = self.eval_lang(a.output_lang)
        _same_type("type-check", a.pos, trans.input_type, input_lang.tree_type)
        _same_type("type-check", a.pos, trans.output_type, output_lang.tree_type)
        return trans.type_check(input_lang, output_lang)

    def eval_tree(self, e: ast.TreeExpr, tree_type: TreeType) -> Tree:
        if isinstance(e, ast.TreeRef):
            if e.name not in self.env.trees:
                raise FastNameError(f"unknown tree {e.name}", e.pos)
            return self.env.trees[e.name]
        if isinstance(e, ast.TreeCons):
            ctor = self._ctor(tree_type, e.ctor, e.pos)
            if len(e.attr_exprs) != len(tree_type.fields):
                raise FastTypeError(
                    f"{e.ctor} needs {len(tree_type.fields)} attribute(s), "
                    f"got {len(e.attr_exprs)}",
                    e.pos,
                )
            attrs = []
            for f, ae in zip(tree_type.fields, e.attr_exprs):
                t = self.lower_expr(ae, {})
                from ..smt.terms import Const

                if not isinstance(t, Const):
                    raise FastTypeError(
                        "tree attribute expressions must be constant", ae.pos
                    )
                attrs.append(t.value)
            if len(attrs) != len(tree_type.fields):
                raise FastTypeError(
                    f"{e.ctor} needs {len(tree_type.fields)} attribute(s)", e.pos
                )
            children = tuple(self.eval_tree(c, tree_type) for c in e.children)
            if len(children) != ctor.rank:
                raise FastTypeError(
                    f"{e.ctor} has rank {ctor.rank}, got {len(children)}", e.pos
                )
            return Tree(e.ctor, tuple(attrs), children)
        if isinstance(e, ast.TreeApply):
            trans = self.eval_trans(e.trans)
            arg = self.eval_tree(e.tree, trans.input_type)
            out = trans.apply_one(arg)
            if out is None:
                raise FastTypeError("apply: the input is outside the domain", e.pos)
            return out
        if isinstance(e, ast.TreeWitness):
            lang = self.eval_lang(e.lang)
            w = lang.witness()
            if w is None:
                raise FastTypeError("get-witness: the language is empty", e.pos)
            return w
        raise FastTypeError(f"bad tree expression {e!r}", e.pos)

    def _compile_tree(self, d: ast.TreeDecl) -> None:
        tree_type = self._type(d.type_name, d.pos)
        tree = self.eval_tree(d.expr, tree_type)
        tree_type.validate(tree)
        if d.name in self.env.trees:
            raise FastNameError(f"tree {d.name} defined twice", d.pos)
        self.env.trees[d.name] = tree


def _same_type(op: str, pos, expected: TreeType, got: TreeType) -> None:
    """The operands of ``op`` must range over the same tree type."""
    if got != expected:
        raise FastTypeError(
            f"{op}: operand over {got.name}, expected {expected.name}", pos
        )


def compile_program(program: ast.Program, solver: Solver | None = None) -> CompiledProgram:
    """Compile a parsed Fast program into its environment."""
    return Compiler(program, solver).compile()
