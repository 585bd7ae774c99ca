"""Compiled program artifacts: the unit the artifact cache stores.

A :class:`CompiledArtifact` is everything ``fast run/check/explain``
and the svc job executors need from a program, detached from its
source text:

* the compiled environment (types, languages, transducers, trees);
* the program's ``assert``/``print`` declarations (AST subtrees, so
  cached programs still evaluate assertions with per-assert budgets
  and provenance);
* the declaration count, so a cache hit can *replay* the front end's
  ``fast.decl`` budget charge — a budget too small to compile a
  program must stay too small when the program is already cached
  (``tests/fast/test_cli_budget.py`` pins this);
* a memo of the assertions' *decided* verdicts, with the budget charge
  each check made, so ``explain_artifact`` decides each assertion once
  and replays the verdict and its charge on later hits (a budget that
  cannot afford the charge re-runs the check;
  ``tests/exec/test_verdict_memo.py`` pins this).  It dies with the
  artifact when the LRU evicts it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..obs import metrics as obs_metrics
from ..obs import tracer as obs_tracer
from ..smt.solver import Solver
from ..fast import ast
from ..fast.compiler import CompiledProgram, Compiler
from ..fast.parser import parse_program

_OBS_BUILDS = obs_metrics.counter("exec.artifact.builds")


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
