"""Batch execution of Fast programs with per-file fault isolation.

The engine behind ``fast batch <dir|files...>``: collect ``.fast``
programs, wrap each as a ``run`` job, push the lot through an
:class:`~repro.svc.service.AnalysisService`, and summarize.  One
pathological program — a parser bomb, a divergent fixpoint, a
worker-killing chaos fault — costs exactly one UNKNOWN line in the
report; every other file still gets its real verdict.

Exit-code contract (``BatchReport.exit_code``):

* ``0`` — no file FAILed (UNKNOWNs are degradations, not failures);
* ``1`` — at least one file had a failing assertion (a *real* FAIL);
* ``2`` — no FAILs, but some file was a permanent ERROR (did not
  parse/compile) — distinct so scripts can tell broken inputs from
  broken properties.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field
from typing import Any, Optional

from ..guard import Budget, scope as _budget_scope
from .job import BudgetSpec, ERROR, JobResult, JobSpec, PROVED, REFUTED, UNKNOWN
from .service import AnalysisService, ServiceConfig
from .telemetry import Ledger

#: Wall-clock cap on compiling any single shared source during prewarm:
#: the supervisor must never be taken down (or stalled) by a
#: pathological program — that is what worker isolation is for.
PREWARM_DEADLINE = 10.0

#: JSON schema tag of ``fast batch --json`` output.  v2 added the
#: per-kind ``latency`` quantile block and ``summary.retries``; v3
#: dropped the top-level per-kind circuit-state map.
SCHEMA = "repro.svc.batch/v3"


def collect_program_paths(paths: list[str]) -> list[str]:
    """Expand directories into their (sorted) ``*.fast`` files."""
    out: list[str] = []
    for path in paths:
        if os.path.isdir(path):
            names = sorted(
                n for n in os.listdir(path) if n.endswith(".fast")
            )
            out.extend(os.path.join(path, n) for n in names)
        else:
            out.append(path)
    return out


def build_specs(
    paths: list[str], budget: Optional[BudgetSpec] = None
) -> list[JobSpec]:
    """One ``run`` job per program file; unreadable files still get a
    spec (with empty source) so they appear in the report as ERRORs
    rather than vanishing."""
    specs: list[JobSpec] = []
    for path in paths:
        try:
            with open(path) as f:
                source = f.read()
        except OSError as exc:
            source = f'@@unreadable: {exc}'
        specs.append(
            JobSpec(job_id=path, kind="run", source=source, budget=budget)
        )
    return specs


@dataclass
class BatchReport:
    """Results plus the summary the CLI renders."""

    results: list[JobResult] = field(default_factory=list)

    def counts(self) -> dict[str, int]:
        c = {"PROVED": 0, "REFUTED": 0, "UNKNOWN": 0, "ERROR": 0}
        for r in self.results:
            c[r.outcome] = c.get(r.outcome, 0) + 1
        return c

    @property
    def exit_code(self) -> int:
        counts = self.counts()
        if counts.get(REFUTED):
            return 1
        if counts.get(ERROR):
            return 2
        return 0

    def render(self) -> str:
        status_of = {
            PROVED: "PASS",
            REFUTED: "FAIL",
            UNKNOWN: "UNKNOWN",
            ERROR: "ERROR",
        }
        lines = []
        for r in self.results:
            line = f"[{status_of.get(r.outcome, r.outcome):7s}] {r.job_id}"
            if r.reason:
                line += f" — {r.reason}"
            if r.attempts > 1:
                line += f" (attempts: {r.attempts})"
            lines.append(line)
        counts = self.counts()
        retried = sum(1 for r in self.results if r.attempts > 1)
        summary = (
            f"{counts['PROVED']} pass, {counts['REFUTED']} fail, "
            f"{counts['UNKNOWN']} unknown, {counts['ERROR']} error "
            f"({len(self.results)} programs"
        )
        summary += f", {retried} retried)" if retried else ")"
        lines.append(summary)
        return "\n".join(lines)

    @functools.cached_property
    def ledger(self) -> Ledger:
        """The results as a serving ledger (built once)."""
        return Ledger(self.results)

    def latency(self) -> dict[str, dict[str, Any]]:
        """Per-kind latency quantiles + retry counts (worker durations)."""
        return self.ledger.summary()

    def render_stats(self) -> str:
        """The ``fast top``-style per-kind latency/retry table."""
        return "\n".join(self.ledger.render("batch stats"))

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": SCHEMA,
            "summary": {
                **{k.lower(): v for k, v in self.counts().items()},
                "programs": len(self.results),
                "retried": sum(1 for r in self.results if r.attempts > 1),
                "retries": sum(max(0, r.attempts - 1) for r in self.results),
                "exit_code": self.exit_code,
            },
            "latency": self.latency(),
            "results": [r.to_dict() for r in self.results],
        }


def prewarm_shared_sources(
    specs: list[JobSpec], deadline: float = PREWARM_DEADLINE
) -> int:
    """Dedupe job sources and pre-warm the artifact cache for shared ones.

    K files carrying the same program (one sanitizer checked against K
    page corpora, say) should compile once, not K times — so every
    source appearing in *more than one* spec is compiled here, in the
    supervisor, before dispatch.  Workers forked afterwards inherit the
    warm cache and hit it.

    Unique sources are left to the workers — compiling them here would
    serialize work the pool would otherwise do in parallel.  Each
    prewarm compile runs under its own deadline budget and failures are
    swallowed: the owning worker will produce the real, properly
    classified error.  Returns the number of sources warmed.
    """
    from ..exec import config as exec_config
    from ..exec.cache import cached_artifact

    if not exec_config.cache_enabled():
        return 0
    multiplicity: dict[str, int] = {}
    for spec in specs:
        multiplicity[spec.source] = multiplicity.get(spec.source, 0) + 1
    warmed = 0
    for source, count in multiplicity.items():
        if count < 2:
            continue
        try:
            with _budget_scope(Budget(deadline=deadline)):
                cached_artifact(source)
            warmed += 1
        except Exception:
            continue
    return warmed


def run_batch(
    paths: list[str],
    *,
    config: Optional[ServiceConfig] = None,
    budget: Optional[BudgetSpec] = None,
    service: Optional[AnalysisService] = None,
) -> BatchReport:
    """Run every program under ``paths`` through the service."""
    specs = build_specs(collect_program_paths(paths), budget)
    prewarm_shared_sources(specs)
    if service is not None:
        return BatchReport(service.run_jobs(specs))
    with AnalysisService(config) as svc:
        return BatchReport(svc.run_jobs(specs))
