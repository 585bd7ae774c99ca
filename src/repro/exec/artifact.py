"""Compiled program artifacts: the unit the artifact cache stores.

A :class:`CompiledArtifact` is everything ``fast run/check/explain``
and the svc job executors need from a program, detached from its
source text:

* the compiled environment (types, languages, transducers, trees) —
  serialized via the :mod:`repro.serialize` primitives;
* the program's ``assert``/``print`` declarations (AST subtrees, so
  cached programs still evaluate assertions with per-assert budgets
  and provenance);
* the declaration count, so a cache hit can *replay* the front end's
  ``fast.decl`` budget charge — a budget too small to compile a
  program must stay too small when the program is already cached
  (``tests/fast/test_cli_budget.py`` pins this);
* in memory only, a memo of the assertions' *decided* verdicts, with
  the budget charge each check made, so ``explain_artifact`` decides
  each assertion once and replays the verdict and its charge on later
  hits (a budget that cannot afford the charge re-runs the check;
  ``tests/exec/test_verdict_memo.py`` pins this).  It is never
  serialized and dies with the artifact in the memory LRU.

Artifacts are JSON all the way down, registered with
:func:`repro.serialize.register` under the ``compiled_program`` kind,
so ``repro.serialize.dumps``/``loads`` round-trip them like any other
core object.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Optional

from .. import serialize
from ..obs import metrics as obs_metrics
from ..obs import tracer as obs_tracer
from ..smt.solver import Solver
from ..automata.language import Language
from ..fast import ast
from ..fast.compiler import CompiledProgram, Compiler
from ..fast.parser import parse_program
from ..transducers import Transducer

#: Version tag of the artifact JSON layout; part of the cache salt, so
#: bumping it invalidates every on-disk artifact at once.
ARTIFACT_SCHEMA = "repro.exec.artifact/v1"

_OBS_BUILDS = obs_metrics.counter("exec.artifact.builds")


class ArtifactError(serialize.SerializationError):
    """Malformed artifact payloads."""


# ---------------------------------------------------------------------------
# AST (de)serialization for assert / print declarations
# ---------------------------------------------------------------------------

#: Every dataclass reachable from an AssertDecl / PrintDecl subtree.
_AST_CLASSES = {
    cls.__name__: cls
    for cls in (
        ast.Pos,
        ast.EVar,
        ast.EConst,
        ast.EOp,
        ast.LRef,
        ast.LBinop,
        ast.LUnop,
        ast.LDomain,
        ast.LPreImage,
        ast.TRef,
        ast.TCompose,
        ast.TRestrict,
        ast.TreeRef,
        ast.TreeCons,
        ast.TreeApply,
        ast.TreeWitness,
        ast.ALangEq,
        ast.AIsEmptyLang,
        ast.AIsEmptyTrans,
        ast.AMember,
        ast.ATypeCheck,
        ast.AssertDecl,
        ast.PrintDecl,
    )
}


def _ast_to_json(obj: Any) -> Any:
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, Fraction):
        return {"$frac": [obj.numerator, obj.denominator]}
    if isinstance(obj, tuple):
        return [_ast_to_json(x) for x in obj]
    cls_name = type(obj).__name__
    if dataclasses.is_dataclass(obj) and cls_name in _AST_CLASSES:
        return {
            "$ast": cls_name,
            "fields": {
                f.name: _ast_to_json(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
            },
        }
    raise ArtifactError(f"cannot serialize AST value {obj!r}")


def _ast_from_json(data: Any) -> Any:
    if data is None or isinstance(data, (bool, int, str)):
        return data
    if isinstance(data, list):
        # Every sequence field in the Fast AST is a tuple.
        return tuple(_ast_from_json(x) for x in data)
    if isinstance(data, dict):
        if "$frac" in data:
            n, d = data["$frac"]
            return Fraction(n, d)
        if "$ast" in data:
            cls = _AST_CLASSES.get(data["$ast"])
            if cls is None:
                raise ArtifactError(f"unknown AST class {data['$ast']!r}")
            return cls(
                **{k: _ast_from_json(v) for k, v in data["fields"].items()}
            )
    raise ArtifactError(f"bad AST payload: {data!r}")


# ---------------------------------------------------------------------------
# The artifact
# ---------------------------------------------------------------------------


@dataclass
class CompiledArtifact:
    """A compiled program environment plus its runnable declarations."""

    env: CompiledProgram
    #: Assert / print declarations in source order.
    decls: tuple[ast.Decl, ...]
    #: Total declaration count of the source program (budget replay).
    decl_count: int
    #: Decided verdicts by declaration index, with their budget charge
    #: (see :func:`repro.fast.evaluator.explain_artifact`); None turns
    #: the memo off, as for artifacts built with an explicit solver.
    verdicts: Optional[dict] = field(
        default_factory=dict, compare=False, repr=False
    )

    def compiler(self) -> Compiler:
        """A :class:`Compiler` evaluating against this environment."""
        return Compiler.from_env(self.env)


def build_artifact(source: str, solver: Solver | None = None) -> CompiledArtifact:
    """Parse + compile ``source`` into an artifact (the cache-miss path).

    The whole front end runs under one ``fast.compile`` span — the span
    the compile-once-per-job regression test counts — with the familiar
    ``parse``/``compile`` child spans inside it.
    """
    with obs_tracer.span("fast.compile"):
        with obs_tracer.span("parse"):
            program = parse_program(source)
        with obs_tracer.span("compile"):
            env = Compiler(program, solver).compile()
    _OBS_BUILDS.inc()
    decls = tuple(
        d
        for d in program.decls
        if isinstance(d, (ast.AssertDecl, ast.PrintDecl))
    )
    return CompiledArtifact(
        env=env,
        decls=decls,
        decl_count=len(program.decls),
        verdicts={} if solver is None else None,
    )


def artifact_to_json(artifact: CompiledArtifact) -> dict[str, Any]:
    env = artifact.env
    return {
        "schema": ARTIFACT_SCHEMA,
        "decl_count": artifact.decl_count,
        "types": {
            name: serialize.tree_type_to_json(tt)
            for name, tt in env.types.items()
        },
        "langs": [
            {
                "name": name,
                "type": env.lang_types.get(name),
                "state": serialize._state_to_json(lang.state),
                "sta": serialize.sta_to_json(lang.sta),
            }
            for name, lang in env.langs.items()
        ],
        "transducers": [
            {"name": name, "sttr": serialize.sttr_to_json(t.sttr)}
            for name, t in env.transducers.items()
        ],
        "trees": {
            name: serialize.tree_to_json(t) for name, t in env.trees.items()
        },
        "decls": [_ast_to_json(d) for d in artifact.decls],
    }


def artifact_from_json(data: Any) -> CompiledArtifact:
    if not isinstance(data, dict) or data.get("schema") != ARTIFACT_SCHEMA:
        raise ArtifactError(
            f"bad artifact payload (schema {data.get('schema')!r}, "
            f"expected {ARTIFACT_SCHEMA!r})"
            if isinstance(data, dict)
            else f"bad artifact payload: {type(data).__name__}"
        )
    solver = Solver()
    env = CompiledProgram(solver=solver)
    for name, tt in data.get("types", {}).items():
        env.types[name] = serialize.tree_type_from_json(tt)
    for entry in data.get("langs", ()):
        env.langs[entry["name"]] = Language(
            serialize.sta_from_json(entry["sta"]),
            serialize._state_from_json(entry["state"]),
            solver,
        )
        if entry.get("type") is not None:
            env.lang_types[entry["name"]] = entry["type"]
    for entry in data.get("transducers", ()):
        env.transducers[entry["name"]] = Transducer(
            serialize.sttr_from_json(entry["sttr"]), solver
        )
    for name, t in data.get("trees", {}).items():
        env.trees[name] = serialize.tree_from_json(t)
    decls = tuple(_ast_from_json(d) for d in data.get("decls", ()))
    return CompiledArtifact(
        env=env, decls=decls, decl_count=int(data.get("decl_count", 0))
    )


serialize.register(
    "compiled_program", CompiledArtifact, artifact_to_json, artifact_from_json
)
