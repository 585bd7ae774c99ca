"""Recursive-descent parser for Fast (paper Figure 4).

Attribute expressions accept both the paper's parenthesized infix style
(``(tag != "script")``, ``(tag = "'" || tag = "\"")``) and a prefix
style (``(= tag "script")``); a Pratt parser with the usual precedence
handles the infix part.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from . import ast
from ..obs import metrics as obs_metrics
from .lexer import FastParseDepthError, FastSyntaxError, Token, tokenize

#: Whole-program parses.  ``tests/exec/test_artifact_cache.py`` asserts
#: a batch of copies of one program parses it once.
_OBS_PARSES = obs_metrics.counter("fast.parse")

#: Default cap on expression nesting.  Recursive descent spends up to
#: ~9 Python frames per parenthesis level (the Pratt precedence chain),
#: so the cap must keep ``depth * 9`` comfortably under the interpreter
#: recursion limit (~1000) — 64 leaves headroom even under pytest while
#: being far deeper than any human-written Fast program.
DEFAULT_MAX_DEPTH = 64

#: Infix binary operators by precedence level (low to high).
_PRECEDENCE = [
    {"or", "||"},
    {"and", "&&"},
    {"=", "==", "!=", "<", ">", "<=", ">="},
    {"+", "-"},
    {"*", "%"},
]

_PREFIXABLE_OPS = {
    "+",
    "-",
    "*",
    "%",
    "<",
    ">",
    "<=",
    ">=",
    "=",
    "==",
    "!=",
    "and",
    "or",
    "not",
    "&&",
    "||",
    "!",
}

_LANG_OPS = {
    "intersect",
    "union",
    "complement",
    "difference",
    "minimize",
    "domain",
    "pre-image",
}
_TRANS_OPS = {"compose", "restrict", "restrict-out"}
_TREE_OPS = {"apply", "get-witness"}


class Parser:
    def __init__(self, text: str, max_depth: int = DEFAULT_MAX_DEPTH) -> None:
        self.tokens = tokenize(text)
        self.pos = 0
        self.max_depth = max_depth
        self._depth = 0

    # -- token plumbing ----------------------------------------------------

    def _enter(self) -> None:
        """Charge one nesting level; typed error instead of RecursionError."""
        if self._depth >= self.max_depth:
            tok = self.peek()
            raise FastParseDepthError(
                f"expression nesting exceeds max_depth={self.max_depth}",
                tok.line,
                tok.column,
            )
        self._depth += 1

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def error(self, message: str, tok: Optional[Token] = None) -> FastSyntaxError:
        tok = tok or self.peek()
        return FastSyntaxError(message, tok.line, tok.column)

    def expect(self, kind: str, value: Optional[str] = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (value is not None and tok.value != value):
            want = value or kind
            raise self.error(f"expected {want!r}, found {tok.value!r}")
        return self.next()

    def at(self, kind: str, value: Optional[str] = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (value is None or tok.value == value)

    def pos_of(self, tok: Token) -> ast.Pos:
        return ast.Pos(tok.line, tok.column)

    # -- program -----------------------------------------------------------

    def parse_program(self) -> ast.Program:
        decls: list[ast.Decl] = []
        while not self.at("EOF"):
            decls.append(self.parse_decl())
        return ast.Program(tuple(decls))

    def parse_decl(self) -> ast.Decl:
        tok = self.peek()
        if tok.kind == "KW" and tok.value == "type":
            return self.parse_type_decl()
        if tok.kind == "KW" and tok.value == "lang":
            return self.parse_lang_decl()
        if tok.kind == "KW" and tok.value == "trans":
            return self.parse_trans_decl()
        if tok.kind == "KW" and tok.value == "def":
            return self.parse_def()
        if tok.kind == "KW" and tok.value == "tree":
            return self.parse_tree_decl()
        if tok.kind == "KW" and tok.value in ("assert-true", "assert-false"):
            return self.parse_assert()
        if tok.kind == "KW" and tok.value == "print":
            self.next()
            expr = self.parse_tree_expr()
            return ast.PrintDecl(self.pos_of(tok), expr)
        raise self.error(f"expected a declaration, found {tok.value!r}")

    # -- type --------------------------------------------------------------

    def parse_type_decl(self) -> ast.TypeDecl:
        start = self.expect("KW", "type")
        name = self.expect("ID").value
        fields: list[tuple[str, str]] = []
        if self.at("OP", "["):
            self.next()
            while not self.at("OP", "]"):
                fname = self.expect("ID").value
                self.expect("OP", ":")
                sort = self.expect("ID").value
                fields.append((fname, sort))
                if self.at("OP", ","):
                    self.next()
            self.expect("OP", "]")
        self.expect("OP", "{")
        ctors: list[tuple[str, int]] = []
        while not self.at("OP", "}"):
            cname = self.expect("ID").value
            self.expect("OP", "(")
            rank = int(self.expect("INT").value)
            self.expect("OP", ")")
            ctors.append((cname, rank))
            if self.at("OP", ","):
                self.next()
        self.expect("OP", "}")
        return ast.TypeDecl(self.pos_of(start), name, tuple(fields), tuple(ctors))

    # -- lang --------------------------------------------------------------

    def parse_lang_decl(self) -> ast.LangDecl:
        start = self.expect("KW", "lang")
        name = self.expect("ID").value
        self.expect("OP", ":")
        type_name = self.expect("ID").value
        self.expect("OP", "{")
        rules = [self.parse_lang_rule()]
        while self.at("OP", "|"):
            self.next()
            rules.append(self.parse_lang_rule())
        self.expect("OP", "}")
        return ast.LangDecl(self.pos_of(start), name, type_name, tuple(rules))

    def parse_lang_rule(self) -> ast.LangRule:
        start = self.peek()
        ctor = self.expect("ID").value
        child_vars: list[str] = []
        self.expect("OP", "(")
        while not self.at("OP", ")"):
            child_vars.append(self.expect("ID").value)
            if self.at("OP", ","):
                self.next()
        self.expect("OP", ")")
        where = None
        if self.at("KW", "where"):
            self.next()
            where = self.parse_expr()
        given: list[ast.Given] = []
        if self.at("KW", "given"):
            self.next()
            while self.at("OP", "("):
                gtok = self.next()
                lang = self.expect("ID").value
                var = self.expect("ID").value
                self.expect("OP", ")")
                given.append(ast.Given(lang, var, self.pos_of(gtok)))
        return ast.LangRule(
            ctor, tuple(child_vars), where, tuple(given), self.pos_of(start)
        )

    # -- trans -------------------------------------------------------------

    def parse_trans_decl(self) -> ast.TransDecl:
        start = self.expect("KW", "trans")
        name = self.expect("ID").value
        self.expect("OP", ":")
        in_type = self.expect("ID").value
        self.expect("OP", "->")
        out_type = self.expect("ID").value
        self.expect("OP", "{")
        rules = [self.parse_trans_rule()]
        while self.at("OP", "|"):
            self.next()
            rules.append(self.parse_trans_rule())
        self.expect("OP", "}")
        return ast.TransDecl(
            self.pos_of(start), name, in_type, out_type, tuple(rules)
        )

    def parse_trans_rule(self) -> ast.TransRule:
        base = self.parse_lang_rule()
        self.expect("KW", "to")
        output = self.parse_out_expr()
        return ast.TransRule(base, output)

    def parse_out_expr(self) -> ast.OutExpr:
        self._enter()
        try:
            return self._parse_out_expr()
        finally:
            self._depth -= 1

    def _parse_out_expr(self) -> ast.OutExpr:
        tok = self.peek()
        if tok.kind == "ID":
            self.next()
            return ast.OVar(self.pos_of(tok), tok.value)
        if tok.kind == "OP" and tok.value == "(":
            self.next()
            head = self.expect("ID").value
            if self.at("OP", "["):
                # (c [e1 .. em] t1 .. tn)
                self.next()
                attrs: list[ast.Expr] = []
                while not self.at("OP", "]"):
                    attrs.append(self.parse_expr())
                    if self.at("OP", ","):
                        self.next()
                self.expect("OP", "]")
                children: list[ast.OutExpr] = []
                while not self.at("OP", ")"):
                    children.append(self.parse_out_expr())
                    if self.at("OP", ","):
                        self.next()
                self.expect("OP", ")")
                return ast.OCons(
                    self.pos_of(tok), head, tuple(attrs), tuple(children)
                )
            # (q y)
            var = self.expect("ID").value
            self.expect("OP", ")")
            return ast.OCall(self.pos_of(tok), head, var)
        raise self.error("expected an output term")

    # -- def ----------------------------------------------------------------

    def parse_def(self) -> ast.Decl:
        start = self.expect("KW", "def")
        name = self.expect("ID").value
        self.expect("OP", ":")
        first_type = self.expect("ID").value
        if self.at("OP", "->"):
            self.next()
            out_type = self.expect("ID").value
            self.expect("OP", ":=")
            expr = self.parse_trans_expr()
            return ast.DefTrans(self.pos_of(start), name, first_type, out_type, expr)
        self.expect("OP", ":=")
        expr = self.parse_lang_expr()
        return ast.DefLang(self.pos_of(start), name, first_type, expr)

    # -- operation expressions ----------------------------------------------

    def parse_lang_expr(self) -> ast.LangExpr:
        self._enter()
        try:
            return self._parse_lang_expr()
        finally:
            self._depth -= 1

    def _parse_lang_expr(self) -> ast.LangExpr:
        tok = self.peek()
        if tok.kind == "ID":
            self.next()
            return ast.LRef(self.pos_of(tok), tok.value)
        self.expect("OP", "(")
        op = self.expect("ID").value
        pos = self.pos_of(tok)
        if op in ("intersect", "union", "difference"):
            left = self.parse_lang_expr()
            right = self.parse_lang_expr()
            self.expect("OP", ")")
            return ast.LBinop(pos, op, left, right)
        if op in ("complement", "minimize"):
            arg = self.parse_lang_expr()
            self.expect("OP", ")")
            return ast.LUnop(pos, op, arg)
        if op == "domain":
            trans = self.parse_trans_expr()
            self.expect("OP", ")")
            return ast.LDomain(pos, trans)
        if op == "pre-image":
            trans = self.parse_trans_expr()
            lang = self.parse_lang_expr()
            self.expect("OP", ")")
            return ast.LPreImage(pos, trans, lang)
        raise self.error(f"unknown language operation {op!r}", tok)

    def parse_trans_expr(self) -> ast.TransExpr:
        self._enter()
        try:
            return self._parse_trans_expr()
        finally:
            self._depth -= 1

    def _parse_trans_expr(self) -> ast.TransExpr:
        tok = self.peek()
        if tok.kind == "ID":
            self.next()
            return ast.TRef(self.pos_of(tok), tok.value)
        self.expect("OP", "(")
        op = self.expect("ID").value
        pos = self.pos_of(tok)
        if op == "compose":
            first = self.parse_trans_expr()
            second = self.parse_trans_expr()
            self.expect("OP", ")")
            return ast.TCompose(pos, first, second)
        if op in ("restrict", "restrict-out"):
            trans = self.parse_trans_expr()
            lang = self.parse_lang_expr()
            self.expect("OP", ")")
            return ast.TRestrict(pos, op, trans, lang)
        raise self.error(f"unknown transduction operation {op!r}", tok)

    # -- tree expressions -----------------------------------------------------

    def parse_tree_decl(self) -> ast.TreeDecl:
        start = self.expect("KW", "tree")
        name = self.expect("ID").value
        self.expect("OP", ":")
        type_name = self.expect("ID").value
        self.expect("OP", ":=")
        expr = self.parse_tree_expr()
        return ast.TreeDecl(self.pos_of(start), name, type_name, expr)

    def parse_tree_expr(self) -> ast.TreeExpr:
        self._enter()
        try:
            return self._parse_tree_expr()
        finally:
            self._depth -= 1

    def _parse_tree_expr(self) -> ast.TreeExpr:
        tok = self.peek()
        if tok.kind == "ID":
            self.next()
            return ast.TreeRef(self.pos_of(tok), tok.value)
        self.expect("OP", "(")
        pos = self.pos_of(tok)
        head = self.expect("ID").value
        if head == "apply":
            trans = self.parse_trans_expr()
            tree = self.parse_tree_expr()
            self.expect("OP", ")")
            return ast.TreeApply(pos, trans, tree)
        if head == "get-witness":
            lang = self.parse_lang_expr()
            self.expect("OP", ")")
            return ast.TreeWitness(pos, lang)
        # (c [e*] tr*)
        attrs: list[ast.Expr] = []
        if self.at("OP", "["):
            self.next()
            while not self.at("OP", "]"):
                attrs.append(self.parse_expr())
                if self.at("OP", ","):
                    self.next()
            self.expect("OP", "]")
        children: list[ast.TreeExpr] = []
        while not self.at("OP", ")"):
            children.append(self.parse_tree_expr())
            if self.at("OP", ","):
                self.next()
        self.expect("OP", ")")
        return ast.TreeCons(pos, head, tuple(attrs), tuple(children))

    # -- assertions ---------------------------------------------------------

    def parse_assert(self) -> ast.AssertDecl:
        start = self.next()
        expect_true = start.value == "assert-true"
        assertion = self.parse_assertion()
        return ast.AssertDecl(self.pos_of(start), expect_true, assertion)

    def parse_assertion(self) -> ast.Assertion:
        tok = self.peek()
        pos = self.pos_of(tok)
        if self.at("OP", "("):
            save = self.pos
            self.next()
            head = self.peek()
            if head.kind == "ID" and head.value == "is-empty":
                self.next()
                # lang or trans: try lang first, fall back to trans.
                save2 = self.pos
                try:
                    lang = self.parse_lang_expr()
                    self.expect("OP", ")")
                    return ast.AIsEmptyLang(pos, lang)
                except FastSyntaxError:
                    self.pos = save2
                    trans = self.parse_trans_expr()
                    self.expect("OP", ")")
                    return ast.AIsEmptyTrans(pos, trans)
            if head.kind == "ID" and head.value == "type-check":
                self.next()
                l1 = self.parse_lang_expr()
                t = self.parse_trans_expr()
                l2 = self.parse_lang_expr()
                self.expect("OP", ")")
                return ast.ATypeCheck(pos, l1, t, l2)
            self.pos = save
        # tree-in-lang:  TR in L   |   lang equality: L == L
        save = self.pos
        try:
            tree = self.parse_tree_expr()
            if self.at("KW", "in"):
                self.next()
                lang = self.parse_lang_expr()
                return ast.AMember(pos, tree, lang)
            self.pos = save
        except FastSyntaxError:
            self.pos = save
        left = self.parse_lang_expr()
        self.expect("OP", "==")
        right = self.parse_lang_expr()
        return ast.ALangEq(pos, left, right)

    # -- attribute expressions (Pratt parser + prefix form) -------------------

    def parse_expr(self) -> ast.Expr:
        return self._parse_infix(0)

    def _parse_infix(self, level: int) -> ast.Expr:
        if level >= len(_PRECEDENCE):
            return self._parse_atom()
        left = self._parse_infix(level + 1)
        ops = _PRECEDENCE[level]
        while (self.peek().kind in ("OP", "KW")) and self.peek().value in ops:
            op_tok = self.next()
            right = self._parse_infix(level + 1)
            left = ast.EOp(
                ast.Pos(op_tok.line, op_tok.column),
                _canon_op(op_tok.value),
                (left, right),
            )
        return left

    def _parse_atom(self) -> ast.Expr:
        self._enter()
        try:
            return self._parse_atom_inner()
        finally:
            self._depth -= 1

    def _parse_atom_inner(self) -> ast.Expr:
        tok = self.peek()
        pos = ast.Pos(tok.line, tok.column)
        if tok.kind == "INT":
            self.next()
            return ast.EConst(pos, int(tok.value))
        if tok.kind == "REAL":
            self.next()
            return ast.EConst(pos, Fraction(tok.value))
        if tok.kind == "STRING":
            self.next()
            return ast.EConst(pos, tok.value)
        if tok.kind == "KW" and tok.value in ("true", "false"):
            self.next()
            return ast.EConst(pos, tok.value == "true")
        if tok.kind == "KW" and tok.value == "not":
            self.next()
            return ast.EOp(pos, "not", (self._parse_atom(),))
        if tok.kind == "OP" and tok.value == "!":
            self.next()
            return ast.EOp(pos, "not", (self._parse_atom(),))
        if tok.kind == "OP" and tok.value == "-":
            self.next()
            return ast.EOp(pos, "neg", (self._parse_atom(),))
        if tok.kind == "ID":
            self.next()
            return ast.EVar(pos, tok.value)
        if tok.kind == "OP" and tok.value == "(":
            self.next()
            nxt = self.peek()
            if (nxt.kind in ("OP", "KW")) and nxt.value in _PREFIXABLE_OPS:
                # prefix form: (op e1 e2 ...)
                self.next()
                args: list[ast.Expr] = []
                while not self.at("OP", ")"):
                    args.append(self.parse_expr())
                    if self.at("OP", ","):
                        self.next()
                self.expect("OP", ")")
                op = "not" if nxt.value == "!" else _canon_op(nxt.value)
                return ast.EOp(pos, op, tuple(args))
            inner = self.parse_expr()
            self.expect("OP", ")")
            return inner
        raise self.error(f"expected an expression, found {tok.value!r}")


def _canon_op(op: str) -> str:
    return {"||": "or", "&&": "and", "==": "="}.get(op, op)


def parse_program(text: str, max_depth: int = DEFAULT_MAX_DEPTH) -> ast.Program:
    """Parse a Fast program from source text."""
    _OBS_PARSES.inc()
    return Parser(text, max_depth=max_depth).parse_program()


def parse_expr(text: str) -> ast.Expr:
    """Parse a single attribute expression (for tests and the REPL)."""
    p = Parser(text)
    e = p.parse_expr()
    p.expect("EOF")
    return e
