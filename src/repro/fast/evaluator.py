"""Evaluation of Fast programs: assertions, counterexamples, reports.

``run_program`` compiles a program and checks every ``assert-true`` /
``assert-false``; failed emptiness assertions come with a witness tree,
mirroring the counterexample the paper's implementation prints for the
buggy sanitizer of Section 2.

``explain_program`` runs the same assertions through governed,
provenance-collecting verdicts (:func:`repro.guard.governed`), so each
answer carries the derivation that produced it — rules fired, decisive
solver queries, witness trees.  The ``fast explain`` CLI subcommand
renders the result.  ``explain_artifact`` (every served ``run`` job)
decides each assertion of a cached artifact once and replays the
verdict, with its budget charge, on later hits (``exec.verdict.replay``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from ..guard import GuardError, Verdict, chaos, governed
from ..guard.budget import affords, charge_query
from ..guard.budget import current as current_budget
from ..guard.budget import tick as _tick
from ..obs import metrics as obs_metrics
from ..obs import tracer as obs_tracer
from ..smt.solver import Solver
from ..trees.tree import Tree, format_tree
from . import ast
from .compiler import CompiledProgram, Compiler

_OBS_REPLAYS = obs_metrics.counter("exec.verdict.replay")


@dataclass
class AssertionResult:
    """Outcome of one assert declaration."""

    pos: ast.Pos
    description: str
    expected: bool
    actual: bool
    counterexample: Optional[Tree] = None

    @property
    def passed(self) -> bool:
        return self.expected == self.actual

    def render(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = f"[{status}] line {self.pos.line}: {self.description}"
        if not self.passed and self.counterexample is not None:
            line += f"\n       counterexample: {format_tree(self.counterexample)}"
        return line


@dataclass
class ProgramReport:
    """Everything a program run produced."""

    env: CompiledProgram
    assertions: list[AssertionResult] = field(default_factory=list)
    printed: list[Tree] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(a.passed for a in self.assertions)

    def render(self) -> str:
        lines = [a.render() for a in self.assertions]
        passed = sum(a.passed for a in self.assertions)
        lines.append(f"{passed}/{len(self.assertions)} assertions passed")
        return "\n".join(lines)


def _artifact_for(source: str, solver: Solver | None):
    """The compiled artifact for ``source``.

    With the default solver this goes through the artifact cache
    (:mod:`repro.exec.cache`); an explicit solver (chaos injection,
    instrumentation) bypasses caching entirely so its environment is
    never shared.
    """
    from ..exec.cache import cached_artifact

    return cached_artifact(source, solver)


def run_program(source: str, solver: Solver | None = None) -> ProgramReport:
    """Parse/fetch, compile, and evaluate a Fast program."""
    with obs_tracer.span("run_program"):
        artifact = _artifact_for(source, solver)
        return run_artifact(artifact)


def run_artifact(artifact) -> ProgramReport:
    """Evaluate the assert/print declarations of a compiled artifact."""
    env = artifact.env
    compiler = artifact.compiler()
    report = ProgramReport(env)
    for decl in artifact.decls:
        if isinstance(decl, ast.AssertDecl):
            # Per-assert solver cost: the query-count delta around the check.
            before = env.solver.stats.sat_queries
            with obs_tracer.span("assert", line=decl.pos.line) as sp:
                result = _check(compiler, decl)
                sp.set(
                    passed=result.passed,
                    sat_queries=env.solver.stats.sat_queries - before,
                )
            report.assertions.append(result)
        elif isinstance(decl, ast.PrintDecl):
            # Printing needs a type; infer from the expression when possible.
            with obs_tracer.span("print", line=decl.pos.line):
                tree = _eval_print(compiler, decl)
            report.printed.append(tree)
    return report


def _eval_print(compiler: Compiler, decl: ast.PrintDecl) -> Tree:
    if isinstance(decl.tree, ast.TreeRef):
        return compiler.eval_tree(decl.tree, None)  # type: ignore[arg-type]
    if isinstance(decl.tree, ast.TreeApply):
        return compiler.eval_tree(decl.tree, None)  # type: ignore[arg-type]
    if isinstance(decl.tree, ast.TreeWitness):
        return compiler.eval_tree(decl.tree, None)  # type: ignore[arg-type]
    raise ValueError("print expects a named tree, apply, or get-witness")


def _check(compiler: Compiler, decl: ast.AssertDecl) -> AssertionResult:
    description, check, _, _ = _assertion_plan(compiler, decl)
    _tick(kind="fast.assert")
    witness = check()
    actual = witness is None
    # A rejected member tree is not reported as a counterexample.
    counterexample = (
        witness
        if actual != decl.expect and not isinstance(decl.assertion, ast.AMember)
        else None
    )
    return AssertionResult(
        decl.pos, _title(decl, description), decl.expect, actual, counterexample
    )


def _title(decl: ast.AssertDecl, description: str) -> str:
    return f"{'assert-true' if decl.expect else 'assert-false'} {description}"


# -- explain: governed, provenance-carrying assertion checks -----------------


@dataclass
class ExplainedAssertion:
    """One assertion plus the verdict (and derivation) that decided it."""

    pos: ast.Pos
    description: str
    expected: bool
    verdict: Verdict

    @property
    def passed(self) -> Optional[bool]:
        """True/False when decided; None when the verdict is UNKNOWN."""
        if self.verdict.is_unknown:
            return None
        return self.verdict.is_proved == self.expected

    def render(self) -> str:
        status = {True: "PASS", False: "FAIL", None: "UNKNOWN"}[self.passed]
        lines = [f"[{status}] line {self.pos.line}: {self.description}"]
        for line in self.verdict.explain().splitlines():
            lines.append(f"    {line}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "line": self.pos.line,
            "assertion": self.description,
            "expected": self.expected,
            "passed": self.passed,
            **self.verdict.explain_dict(),
        }


@dataclass
class ExplainReport:
    """Every assertion of a program, explained."""

    env: CompiledProgram
    assertions: list[ExplainedAssertion] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(a.passed is True for a in self.assertions)

    @property
    def any_unknown(self) -> bool:
        return any(a.passed is None for a in self.assertions)

    def render(self) -> str:
        lines = [a.render() for a in self.assertions]
        passed = sum(a.passed is True for a in self.assertions)
        unknown = sum(a.passed is None for a in self.assertions)
        summary = f"{passed}/{len(self.assertions)} assertions passed"
        if unknown:
            summary += f" ({unknown} unknown)"
        lines.append(summary)
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {"assertions": [a.to_dict() for a in self.assertions]}


def _assertion_plan(
    compiler: Compiler, decl: ast.AssertDecl
) -> tuple[str, Callable[[], Optional[Tree]], str, str]:
    """``(description, witness-style check, proved msg, refuted msg)``.

    The one assertion dispatch of both :func:`_check` and
    :func:`explain_artifact`.  All evaluation is deferred into the
    returned callable, so under ``governed()`` it runs inside the
    ambient budget and the provenance collector.
    """
    a = decl.assertion
    if isinstance(a, ast.AIsEmptyLang):
        # `is-empty x` is syntactically ambiguous between languages and
        # transductions; resolve by name when the operand is a reference.
        if (
            isinstance(a.lang, ast.LRef)
            and a.lang.name not in compiler.env.langs
            and a.lang.name in compiler.env.transducers
        ):
            a = ast.AIsEmptyTrans(a.pos, ast.TRef(a.lang.pos, a.lang.name))
        else:
            lang_expr = a.lang
            return (
                "(is-empty <lang>)",
                lambda: compiler.eval_lang(lang_expr).witness(),
                "language is empty",
                "member tree found",
            )
    if isinstance(a, ast.AIsEmptyTrans):
        trans_expr = a.trans
        return (
            "(is-empty <trans>)",
            lambda: compiler.eval_trans(trans_expr).domain().witness(),
            "transduction domain is empty",
            "domain witness found",
        )
    if isinstance(a, ast.ALangEq):
        left_expr, right_expr = a.left, a.right
        return (
            "<lang> == <lang>",
            lambda: compiler.eval_lang(left_expr).separating_tree(
                compiler.eval_lang(right_expr)
            ),
            "languages are equal",
            "separating tree found",
        )
    if isinstance(a, ast.AMember):
        member = a

        def check_member() -> Optional[Tree]:
            lang = compiler.eval_lang(member.lang)
            tree = compiler.eval_tree(member.tree, lang.tree_type)
            return None if lang.accepts(tree) else tree

        return (
            "<tree> in <lang>",
            check_member,
            "tree is a member",
            "tree rejected by the language",
        )
    if isinstance(a, ast.ATypeCheck):
        tc = a
        return (
            "(type-check <lang> <trans> <lang>)",
            lambda: compiler.eval_type_check(tc),
            "transduction type-checks",
            "counterexample input found",
        )
    raise ValueError(f"unknown assertion {a!r}")


def explain_program(source: str, solver: Solver | None = None) -> ExplainReport:
    """Parse/fetch, compile, and *explain* every assertion of a program.

    Each assertion runs as a governed, provenance-collecting verdict:
    the result records the derivation (rules fired, decisive solver
    queries, witness trees) alongside PASS/FAIL/UNKNOWN.
    """
    with obs_tracer.span("explain_program"):
        artifact = _artifact_for(source, solver)
        return explain_artifact(artifact)


def explain_artifact(artifact) -> ExplainReport:
    """Explain the assertions of a compiled artifact (cache-hit path).

    Each assertion is decided once per artifact: the artifact's verdict
    memo replays a decided verdict, and its budget charge, on later
    calls (see :func:`_decide`).  The memo stands aside while a solver
    chaos policy is installed, so injected faults still reach the solver.
    """
    compiler = artifact.compiler()
    report = ExplainReport(artifact.env)
    memo = None if chaos.active() else artifact.verdicts
    for index, decl in enumerate(artifact.decls):
        if not isinstance(decl, ast.AssertDecl):
            continue
        description, check, proved_msg, refuted_msg = _assertion_plan(
            compiler, decl
        )
        with obs_tracer.span("explain.assert", line=decl.pos.line) as sp:
            verdict = _decide(memo, index, check, proved_msg, refuted_msg)
            sp.set(outcome=verdict.outcome.value)
        report.assertions.append(
            ExplainedAssertion(
                decl.pos, _title(decl, description), decl.expect, verdict
            )
        )
    return report


def _decide(
    memo: Optional[dict],
    key: int,
    check: Callable[[], Optional[Tree]],
    proved: str,
    refuted: str,
) -> Verdict:
    """``governed(check)``, replayed from ``memo`` when it can be.

    ``memo[key]`` holds a decided verdict (snapshot stripped) and the
    ``(steps, solver_queries)`` its check charged the innermost active
    budget, or None when no budget was active.  With no budget active a
    hit returns the verdict as is.  Under a budget a hit replays the
    recorded charge through every active budget, when they can all
    afford it; otherwise the check runs again and its charge is
    recorded.  So a budget too small to decide stays too small, and a
    hit answers what a fresh run of the artifact answers.  UNKNOWN is
    never stored.
    """
    if memo is None:
        return governed(check, proved=proved, refuted=refuted)
    budget = current_budget()
    hit = memo.get(key)
    if hit is not None:
        verdict, charge = hit
        if budget is None:
            _OBS_REPLAYS.inc()
            return verdict
        if charge is not None and affords(*charge):
            _OBS_REPLAYS.inc()
            try:
                _tick(charge[0], kind="fast.verdict")
                charge_query(charge[1])
            except GuardError as exc:  # the deadline passed
                return Verdict.unknown(
                    str(exc), getattr(exc, "snapshot", None) or budget.snapshot()
                )
            return replace(verdict, snapshot=budget.snapshot())
    before = None if budget is None else (budget.steps, budget.solver_queries)
    verdict = governed(check, proved=proved, refuted=refuted)
    if not verdict.is_unknown:
        charge = None if before is None else (
            budget.steps - before[0],
            budget.solver_queries - before[1],
        )
        memo[key] = (replace(verdict, snapshot=None), charge)
    return verdict
