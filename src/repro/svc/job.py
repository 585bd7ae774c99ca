"""Jobs: the unit of work the analysis service isolates.

A :class:`JobSpec` names one analysis over one Fast program — run the
whole program's assertions, or a single compose / typecheck / emptiness
/ equivalence query on its declarations — plus the
:class:`~repro.guard.Budget` it must respect.  Specs are plain
picklable dataclasses: the supervisor ships them to subprocess workers
over a pipe.

A :class:`JobResult` is what comes back.  Its payload is deliberately
**JSON-able** (outcome strings, rendered witness trees, snapshot and
derivation dicts) rather than live ``Language``/``Tree``/``Term``
objects: hash-consed terms must not cross process boundaries — their
identity-based caches only make sense inside one intern table — and a
JSON payload feeds ``fast batch --json`` and ``fast serve`` directly.
Failures that are *errors* (a crash, a corrupted reply, an exhausted
retry cap) travel as a structured :class:`JobFailure`, optionally
carrying the original pickled :class:`~repro.errors.ReproError`.

:func:`execute_job` is the worker-side entry point: it activates the
budget scope, dispatches on the job kind, and maps every outcome —
including budget exhaustion *outside* the governed analyses (e.g.
during parsing or compilation) — to a clean result.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..errors import ReproError
from ..guard import Budget, GuardError, Verdict, governed, scope
from ..guard.budget import BudgetSnapshot

#: Job kinds the service understands.
KINDS = ("run", "emptiness", "equivalence", "typecheck", "compose")

#: Outcome strings (the three Verdict outcomes plus ERROR for permanent
#: front-end failures: a file that does not parse is not "unknown").
PROVED, REFUTED, UNKNOWN, ERROR = "PROVED", "REFUTED", "UNKNOWN", "ERROR"


class InvalidBudget(ValueError):
    """A budget limit that cannot mean anything: wrong type, <= 0, NaN.

    Raised at *parse* time (``fast serve`` request validation, batch
    spec construction) so garbage limits are rejected with a clear
    error line instead of failing deep inside :mod:`repro.guard` —
    where a negative deadline would silently mean "already exhausted"
    and a string one would crash an arithmetic comparison mid-analysis.
    """


@dataclass(frozen=True)
class BudgetSpec:
    """The picklable limits of a :class:`~repro.guard.Budget`.

    Budgets themselves carry live consumption counters and are started
    in the worker, so only the limits cross the process boundary.
    """

    deadline: Optional[float] = None
    max_solver_queries: Optional[int] = None
    max_steps: Optional[int] = None

    def validated(self) -> "BudgetSpec":
        """This spec, after rejecting limits that cannot be meant.

        Every limit must be a positive finite number (bools are *not*
        numbers here — ``{"deadline": true}`` is a client bug, not a
        1-second budget), and the query/step caps must be integral.
        Raises :class:`InvalidBudget` naming the offending field.
        """
        for name, value, integral in (
            ("deadline", self.deadline, False),
            ("max_solver_queries", self.max_solver_queries, True),
            ("max_steps", self.max_steps, True),
        ):
            if value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise InvalidBudget(
                    f"budget.{name} must be a number, "
                    f"got {type(value).__name__}"
                )
            if value != value or value in (float("inf"), float("-inf")):
                raise InvalidBudget(f"budget.{name} must be finite")
            if value <= 0:
                raise InvalidBudget(
                    f"budget.{name} must be > 0, got {value!r}"
                )
            if integral and isinstance(value, float) and not value.is_integer():
                raise InvalidBudget(
                    f"budget.{name} must be an integer, got {value!r}"
                )
        return self

    def to_budget(self) -> Optional[Budget]:
        if (
            self.deadline is None
            and self.max_solver_queries is None
            and self.max_steps is None
        ):
            return None
        return Budget(
            deadline=self.deadline,
            max_solver_queries=self.max_solver_queries,
            max_steps=self.max_steps,
        )


@dataclass(frozen=True)
class JobSpec:
    """One isolated analysis job.

    * ``job_id`` — unique within a batch; retries reuse it (the chaos
      policy draws per ``(job_id, attempt)``);
    * ``kind`` — one of :data:`KINDS`;
    * ``source`` — the Fast program text (jobs carry source, not paths:
      workers must not depend on the supervisor's filesystem view);
    * ``args`` — kind-specific declaration names, e.g.
      ``("lang", "noTags")`` pairs (a tuple of pairs so the spec stays
      hashable and picklable);
    * ``budget`` — soft limits enforced *inside* the worker; the
      supervisor's kill timeout sits above the deadline;
    * ``trace_id`` — the request-scoped trace id minted (or accepted)
      at admission; it rides the spec into the worker so worker-side
      spans and instants carry the same id as the front-end's.
    """

    job_id: str
    kind: str
    source: str
    args: tuple[tuple[str, str], ...] = ()
    budget: Optional[BudgetSpec] = None
    trace_id: Optional[str] = None

    def arg(self, name: str) -> str:
        for key, value in self.args:
            if key == name:
                return value
        raise KeyError(f"job {self.job_id}: missing argument {name!r}")


@dataclass
class JobFailure:
    """Why an attempt (or a whole job) failed, structurally.

    * ``kind`` — ``crash`` (worker died), ``timeout`` (supervisor
      killed a hung worker), ``corrupt`` (reply failed validation),
      ``error`` (in-worker exception);
    * ``transient`` — whether the supervisor may retry (at once, up to
      its ``retries`` cap);
    * ``exception`` — the original error when it pickles (the
      :class:`~repro.errors.ReproError` hierarchy does, by contract).
    """

    kind: str
    message: str
    transient: bool = False
    error_type: Optional[str] = None
    exception: Optional[BaseException] = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "message": self.message,
            "transient": self.transient,
            "error_type": self.error_type,
        }


@dataclass
class JobResult:
    """The JSON-able outcome of one job.

    ``outcome`` is PROVED / REFUTED / UNKNOWN (the three-valued verdict
    vocabulary) or ERROR for permanent front-end failures.  For ``run``
    jobs, ``assertions`` holds the per-assertion explain dicts and the
    job-level outcome aggregates them: any FAIL ⇒ REFUTED, else any
    unknown ⇒ UNKNOWN, else PROVED.

    The supervisor fills in ``attempts`` and ``attempt_failures`` when
    the job was retried, and fabricates whole results (UNKNOWN +
    failure) for jobs that never produced one — crashes past the retry
    cap and kill timeouts.

    ``telemetry`` is the worker-side observability blob
    (:mod:`repro.svc.telemetry`): the metric deltas and span tree
    captured around this job.  It rides the pipe back to
    the supervisor, which merges it into host obs state and detaches it
    — so ``to_dict()`` (the ``fast batch --json`` / ``fast serve``
    payload) never carries it.
    """

    job_id: str
    kind: str
    outcome: str
    reason: str = ""
    witness: Optional[str] = None
    assertions: list[dict[str, Any]] = field(default_factory=list)
    snapshot: Optional[dict[str, Any]] = None
    failure: Optional[JobFailure] = None
    duration: float = 0.0
    worker_pid: Optional[int] = None
    attempts: int = 1
    attempt_failures: list[dict[str, Any]] = field(default_factory=list)
    telemetry: Optional[dict[str, Any]] = None
    trace_id: Optional[str] = None
    #: Worker self-report for the lifecycle layer, attached after every
    #: executed job: ``{"rss_bytes": int|None, "intern_terms": int,
    #: "flushes": int}``.  Unlike ``telemetry`` it is present even with
    #: obs off — the supervisor's RSS recycle threshold depends on it.
    hygiene: Optional[dict[str, Any]] = None

    def to_dict(self) -> dict[str, Any]:
        doc = {
            "job_id": self.job_id,
            "kind": self.kind,
            "outcome": self.outcome,
            "reason": self.reason,
            "witness": self.witness,
            "assertions": self.assertions,
            "snapshot": self.snapshot,
            "failure": None if self.failure is None else self.failure.to_dict(),
            "duration": self.duration,
            "worker_pid": self.worker_pid,
            "attempts": self.attempts,
            "attempt_failures": self.attempt_failures,
        }
        if self.trace_id is not None:
            doc["trace_id"] = self.trace_id
        if self.hygiene is not None:
            doc["hygiene"] = self.hygiene
        return doc

    def to_verdict(self) -> Verdict:
        """The result as the library's three-valued :class:`Verdict`.

        Crash and timeout results are UNKNOWN verdicts
        whose reason is the structured failure message; the budget
        snapshot is reconstructed when the worker got far enough to
        record one.  (The full derivation stays in the worker — the
        verdict carries a provenance *stub* via its reason.)
        """
        snapshot = None
        if self.snapshot is not None:
            snapshot = BudgetSnapshot(**self.snapshot)
        if self.outcome == PROVED:
            return Verdict.proved(self.reason, snapshot)
        if self.outcome == REFUTED:
            return Verdict.refuted(self.reason, None, snapshot)
        reason = self.reason
        if self.failure is not None:
            reason = f"{self.failure.kind}: {self.failure.message}"
        return Verdict.unknown(reason or "job did not complete", snapshot)


# -- worker-side execution ---------------------------------------------------


def _verdict_payload(verdict: Verdict) -> dict[str, Any]:
    d = verdict.explain_dict()
    return {
        "outcome": d["outcome"],
        "reason": d["reason"],
        "witness": d["witness"],
        "snapshot": d["snapshot"],
    }


def _compile(source: str):
    """One compiled artifact per job, via the artifact cache.

    Called exactly once by :func:`execute_job` and shared by every
    handler — compiling per handler (the old shape) billed a
    multi-declaration program's front end N times per job.  Warm cache
    hits skip parse/compile entirely (but replay the ``fast.decl``
    budget charge; see :mod:`repro.exec.cache`).
    """
    from ..exec.cache import cached_artifact

    return cached_artifact(source)


def _resolve_lang(env, name: str):
    if name in env.langs:
        return env.langs[name]
    raise KeyError(f"no language named {name!r} in the program")


def _resolve_trans(env, name: str):
    if name in env.transducers:
        return env.transducers[name]
    raise KeyError(f"no transducer named {name!r} in the program")


def _execute_run(spec: JobSpec, artifact) -> dict[str, Any]:
    from ..fast.evaluator import explain_artifact
    from ..obs import tracer as obs_tracer

    with obs_tracer.span("explain_program"):
        report = explain_artifact(artifact)
    assertions = [a.to_dict() for a in report.assertions]
    failed = sum(a.passed is False for a in report.assertions)
    unknown = sum(a.passed is None for a in report.assertions)
    passed = sum(a.passed is True for a in report.assertions)
    if failed:
        outcome, reason = REFUTED, f"{failed} assertion(s) failed"
    elif unknown:
        outcome, reason = UNKNOWN, f"{unknown} assertion(s) unknown"
    else:
        outcome, reason = PROVED, f"{passed}/{len(assertions)} assertions passed"
    return {
        "outcome": outcome,
        "reason": reason,
        "witness": None,
        "snapshot": None,
        "assertions": assertions,
    }


def _execute_emptiness(spec: JobSpec, artifact) -> dict[str, Any]:
    env = artifact.env
    name = spec.arg("lang")
    if name in env.langs:
        verdict = env.langs[name].is_empty_verdict()
    else:
        verdict = _resolve_trans(env, name).is_empty_verdict()
    return _verdict_payload(verdict)


def _execute_equivalence(spec: JobSpec, artifact) -> dict[str, Any]:
    env = artifact.env
    left = _resolve_lang(env, spec.arg("left"))
    right = _resolve_lang(env, spec.arg("right"))
    return _verdict_payload(left.equals_verdict(right))


def _execute_typecheck(spec: JobSpec, artifact) -> dict[str, Any]:
    env = artifact.env
    trans = _resolve_trans(env, spec.arg("trans"))
    input_lang = _resolve_lang(env, spec.arg("input"))
    output_lang = _resolve_lang(env, spec.arg("output"))
    return _verdict_payload(trans.type_check_verdict(input_lang, output_lang))


def _execute_compose(spec: JobSpec, artifact) -> dict[str, Any]:
    env = artifact.env
    first = _resolve_trans(env, spec.arg("first"))
    second = _resolve_trans(env, spec.arg("second"))
    sizes: list[tuple[int, int]] = []

    def check():
        composed = first.compose(second)
        sizes.append(composed.size())
        return None

    verdict = governed(check, proved="composition constructed")
    payload = _verdict_payload(verdict)
    if sizes:
        states, rules = sizes[0]
        payload["reason"] = f"composed: {states} states, {rules} rules"
    return payload


_EXECUTORS: dict[str, Callable[[JobSpec, Any], dict[str, Any]]] = {
    "run": _execute_run,
    "emptiness": _execute_emptiness,
    "equivalence": _execute_equivalence,
    "typecheck": _execute_typecheck,
    "compose": _execute_compose,
}


def _dispatch(spec: JobSpec) -> dict[str, Any]:
    """Compile (or fetch) the program once, then run the job's handler."""
    artifact = _compile(spec.source)
    return _EXECUTORS[spec.kind](spec, artifact)


def execute_job(spec: JobSpec) -> JobResult:
    """Run one job to a result; never raise.

    The result always carries the spec's ``trace_id`` back out — the
    worker side of request-scoped trace propagation.
    """
    result = _execute_job(spec)
    result.trace_id = spec.trace_id
    return result


def _execute_job(spec: JobSpec) -> JobResult:
    """Run one job to a result; never raise.

    Everything a job can do wrong becomes a structured result:

    * budget exhaustion / injected solver faults *outside* a governed
      analysis (parse, compile) ⇒ UNKNOWN with the guard reason;
    * front-end and backend :class:`ReproError`\\ s ⇒ ERROR with the
      pickled original attached (permanent: retrying cannot help);
    * any other exception ⇒ ERROR, flagged with its type.

    Worker *process* failures (kill, hang, corrupt reply) are not
    visible from here — the supervisor detects and classifies those.
    """
    import os
    import pickle

    if spec.kind not in _EXECUTORS:
        return JobResult(
            spec.job_id,
            spec.kind,
            ERROR,
            reason=f"unknown job kind {spec.kind!r}",
            failure=JobFailure("error", f"unknown job kind {spec.kind!r}"),
            worker_pid=os.getpid(),
        )
    budget = spec.budget.to_budget() if spec.budget is not None else None
    started = time.perf_counter()
    snapshot: Optional[dict[str, Any]] = None
    try:
        if budget is not None:
            with scope(budget):
                payload = _dispatch(spec)
            snapshot = budget.snapshot().as_dict()
        else:
            payload = _dispatch(spec)
    except GuardError as exc:
        snap = getattr(exc, "snapshot", None)
        if snap is None and budget is not None:
            snap = budget.snapshot()
        return JobResult(
            spec.job_id,
            spec.kind,
            UNKNOWN,
            reason=str(exc) or type(exc).__name__,
            snapshot=None if snap is None else snap.as_dict(),
            duration=time.perf_counter() - started,
            worker_pid=os.getpid(),
        )
    except (ReproError, KeyError, ValueError) as exc:
        carried: Optional[BaseException] = None
        try:
            pickle.dumps(exc)
            carried = exc
        except Exception:
            carried = None
        return JobResult(
            spec.job_id,
            spec.kind,
            ERROR,
            reason=str(exc),
            failure=JobFailure(
                "error",
                str(exc),
                transient=False,
                error_type=type(exc).__name__,
                exception=carried,
            ),
            duration=time.perf_counter() - started,
            worker_pid=os.getpid(),
        )
    except Exception as exc:  # unexpected: report, do not crash the worker
        return JobResult(
            spec.job_id,
            spec.kind,
            ERROR,
            reason=f"unexpected {type(exc).__name__}: {exc}",
            failure=JobFailure(
                "error",
                f"unexpected {type(exc).__name__}: {exc}",
                transient=False,
                error_type=type(exc).__name__,
            ),
            duration=time.perf_counter() - started,
            worker_pid=os.getpid(),
        )
    result = JobResult(
        spec.job_id,
        spec.kind,
        payload["outcome"],
        reason=payload.get("reason", ""),
        witness=payload.get("witness"),
        assertions=payload.get("assertions", []),
        snapshot=payload.get("snapshot") or snapshot,
        duration=time.perf_counter() - started,
        worker_pid=os.getpid(),
    )
    return result
