"""JSON serialization for the core objects.

A library users adopt needs persistence: automata and transducers built
by expensive compositions should be storable and reloadable.  The format
is a plain-JSON encoding of terms, tree types, STAs, and STTRs; states
(arbitrary hashable tuples/strings produced by the algebra) are encoded
structurally.

Round-trip guarantee (tested): ``load(dump(x))`` is structurally equal
to ``x`` for every supported object.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .automata.sta import STA, STARule
from .smt import builders as smt
from .smt.sorts import BASIC_SORTS, Sort
from .smt.terms import (
    Add,
    And,
    Const,
    Eq,
    Le,
    Lt,
    Mod,
    Mul,
    Neg,
    Not,
    Or,
    Term,
    Var,
    interned,
)
from .transducers.output_terms import OutApply, OutNode, OutputTerm
from .transducers.sttr import STTR, STTRRule
from .trees.tree import Tree
from .trees.types import TreeType, make_tree_type


class SerializationError(Exception):
    """Unknown tags or malformed payloads."""


# ---------------------------------------------------------------------------
# Values and states
# ---------------------------------------------------------------------------


def _value_to_json(v) -> Any:
    if isinstance(v, Fraction):
        return {"fraction": [v.numerator, v.denominator]}
    return v


def _value_from_json(v) -> Any:
    if isinstance(v, dict) and "fraction" in v:
        n, d = v["fraction"]
        return Fraction(n, d)
    return v


def _state_to_json(state) -> Any:
    if isinstance(state, tuple):
        return {"tuple": [_state_to_json(s) for s in state]}
    if isinstance(state, frozenset):
        return {"set": sorted((_state_to_json(s) for s in state), key=json.dumps)}
    if isinstance(state, (str, int, bool)) or state is None:
        return {"atom": state}
    raise SerializationError(f"unsupported state component: {state!r}")


def _state_from_json(data) -> Any:
    if "tuple" in data:
        return tuple(_state_from_json(s) for s in data["tuple"])
    if "set" in data:
        return frozenset(_state_from_json(s) for s in data["set"])
    if "atom" in data:
        return data["atom"]
    raise SerializationError(f"bad state payload: {data!r}")


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

_BINOPS = {Lt: "lt", Le: "le", Eq: "eq"}
_NARY = {Add: "add", Mul: "mul", And: "and", Or: "or"}


def term_to_json(term: Term) -> Any:
    if isinstance(term, Var):
        return {"var": term.name, "sort": term.var_sort.name}
    if isinstance(term, Const):
        return {"const": _value_to_json(term.value), "sort": term.const_sort.name}
    if isinstance(term, Neg):
        return {"neg": term_to_json(term.arg)}
    if isinstance(term, Not):
        return {"not": term_to_json(term.arg)}
    if isinstance(term, Mod):
        return {"mod": term_to_json(term.arg), "by": term.modulus}
    for cls, tag in _BINOPS.items():
        if isinstance(term, cls):
            return {tag: [term_to_json(term.left), term_to_json(term.right)]}
    for cls, tag in _NARY.items():
        if isinstance(term, cls):
            return {tag: [term_to_json(a) for a in term.args]}
    raise SerializationError(f"unsupported term: {term!r}")


def term_from_json(data: Any) -> Term:
    if "var" in data:
        return smt.mk_var(data["var"], _sort(data["sort"]))
    if "const" in data:
        value = _value_from_json(data["const"])
        sort = _sort(data["sort"])
        if sort.name == "Real" and isinstance(value, int):
            value = Fraction(value)
        return smt.mk_const(value, sort)
    if "neg" in data:
        return smt.mk_neg(term_from_json(data["neg"]))
    if "not" in data:
        return smt.mk_not(term_from_json(data["not"]))
    if "mod" in data:
        return smt.mk_mod(term_from_json(data["mod"]), data["by"])
    if "lt" in data:
        left, right = data["lt"]
        return smt.mk_lt(term_from_json(left), term_from_json(right))
    if "le" in data:
        left, right = data["le"]
        return smt.mk_le(term_from_json(left), term_from_json(right))
    if "eq" in data:
        left, right = data["eq"]
        # A raw (interned) Eq node, not mk_eq: Bool equalities must
        # round-trip structurally instead of being desugared.
        return interned(Eq, term_from_json(left), term_from_json(right))
    if "add" in data:
        return smt.mk_add(*(term_from_json(a) for a in data["add"]))
    if "mul" in data:
        return smt.mk_mul(*(term_from_json(a) for a in data["mul"]))
    if "and" in data:
        return smt.mk_and(*(term_from_json(a) for a in data["and"]))
    if "or" in data:
        return smt.mk_or(*(term_from_json(a) for a in data["or"]))
    raise SerializationError(f"bad term payload: {data!r}")


def _sort(name: str) -> Sort:
    if name not in BASIC_SORTS:
        raise SerializationError(f"unknown sort {name}")
    return BASIC_SORTS[name]


# ---------------------------------------------------------------------------
# Tree types and trees
# ---------------------------------------------------------------------------


def tree_type_to_json(tt: TreeType) -> Any:
    return {
        "name": tt.name,
        "fields": [[f.name, f.sort.name] for f in tt.fields],
        "constructors": [[c.name, c.rank] for c in tt.constructors],
    }


def tree_type_from_json(data: Any) -> TreeType:
    return make_tree_type(
        data["name"],
        [(n, _sort(s)) for n, s in data["fields"]],
        dict(data["constructors"]),
    )


def tree_to_json(tree: Tree) -> Any:
    return {
        "ctor": tree.ctor,
        "attrs": [_value_to_json(a) for a in tree.attrs],
        "children": [tree_to_json(c) for c in tree.children],
    }


def tree_from_json(data: Any) -> Tree:
    return Tree(
        data["ctor"],
        tuple(_value_from_json(a) for a in data["attrs"]),
        tuple(tree_from_json(c) for c in data["children"]),
    )


# ---------------------------------------------------------------------------
# Automata
# ---------------------------------------------------------------------------


def sta_to_json(sta: STA) -> Any:
    return {
        "tree_type": tree_type_to_json(sta.tree_type),
        "rules": [
            {
                "state": _state_to_json(r.state),
                "ctor": r.ctor,
                "guard": term_to_json(r.guard),
                "lookahead": [
                    [_state_to_json(s) for s in l] for l in r.lookahead
                ],
            }
            for r in sta.rules
        ],
    }


def sta_from_json(data: Any) -> STA:
    tt = tree_type_from_json(data["tree_type"])
    rules = tuple(
        STARule(
            _state_from_json(r["state"]),
            r["ctor"],
            term_from_json(r["guard"]),
            tuple(
                frozenset(_state_from_json(s) for s in l) for l in r["lookahead"]
            ),
        )
        for r in data["rules"]
    )
    return STA(tt, rules)


# ---------------------------------------------------------------------------
# Transducers
# ---------------------------------------------------------------------------


def _output_to_json(term: OutputTerm) -> Any:
    if isinstance(term, OutApply):
        return {"apply": _state_to_json(term.state), "child": term.index}
    if isinstance(term, OutNode):
        return {
            "node": term.ctor,
            "attrs": [term_to_json(e) for e in term.attr_exprs],
            "children": [_output_to_json(c) for c in term.children],
        }
    raise SerializationError(f"unsupported output term: {term!r}")


def _output_from_json(data: Any) -> OutputTerm:
    if "apply" in data:
        return OutApply(_state_from_json(data["apply"]), data["child"])
    if "node" in data:
        return OutNode(
            data["node"],
            tuple(term_from_json(e) for e in data["attrs"]),
            tuple(_output_from_json(c) for c in data["children"]),
        )
    raise SerializationError(f"bad output payload: {data!r}")


def sttr_to_json(sttr: STTR) -> Any:
    return {
        "name": sttr.name,
        "input_type": tree_type_to_json(sttr.input_type),
        "output_type": tree_type_to_json(sttr.output_type),
        "initial": _state_to_json(sttr.initial),
        "rules": [
            {
                "state": _state_to_json(r.state),
                "ctor": r.ctor,
                "guard": term_to_json(r.guard),
                "lookahead": [
                    [_state_to_json(s) for s in l] for l in r.lookahead
                ],
                "output": _output_to_json(r.output),
            }
            for r in sttr.rules
        ],
        "lookahead_sta": sta_to_json(sttr.lookahead_sta),
    }


def sttr_from_json(data: Any) -> STTR:
    rules = tuple(
        STTRRule(
            _state_from_json(r["state"]),
            r["ctor"],
            term_from_json(r["guard"]),
            tuple(
                frozenset(_state_from_json(s) for s in l) for l in r["lookahead"]
            ),
            _output_from_json(r["output"]),
        )
        for r in data["rules"]
    )
    return STTR(
        data["name"],
        tree_type_from_json(data["input_type"]),
        tree_type_from_json(data["output_type"]),
        _state_from_json(data["initial"]),
        rules,
        sta_from_json(data["lookahead_sta"]),
    )


# ---------------------------------------------------------------------------
# Top-level convenience
# ---------------------------------------------------------------------------

_DUMPERS = {
    Tree: ("tree", tree_to_json),
    STA: ("sta", sta_to_json),
    STTR: ("sttr", sttr_to_json),
    TreeType: ("tree_type", tree_type_to_json),
}

_LOADERS = {
    "tree": tree_from_json,
    "sta": sta_from_json,
    "sttr": sttr_from_json,
    "tree_type": tree_type_from_json,
    "term": term_from_json,
}


def dumps(obj) -> str:
    """Serialize a supported object to JSON."""
    for cls, (tag, fn) in _DUMPERS.items():
        if isinstance(obj, cls):
            return json.dumps({"kind": tag, "data": fn(obj)})
    if isinstance(obj, Term):
        return json.dumps({"kind": "term", "data": term_to_json(obj)})
    raise SerializationError(f"cannot serialize {type(obj).__name__}")


def loads(text: str):
    """Inverse of :func:`dumps`."""
    payload = json.loads(text)
    kind = payload.get("kind")
    if kind not in _LOADERS:
        raise SerializationError(f"unknown payload kind {kind!r}")
    return _LOADERS[kind](payload["data"])
