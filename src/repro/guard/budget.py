"""Budgets, deadlines, and the ambient resource-governance context.

Every analysis the paper promises (emptiness, equivalence, composition,
type checking, pre-image) bottoms out in worst-case-exponential
fixpoints firing thousands of solver queries.  Z3 degrades gracefully
under resource limits by answering *unknown*; this module gives our
substrate the same property.

A :class:`Budget` bundles three independent limits:

* ``deadline`` — wall-clock seconds from activation;
* ``max_solver_queries`` — solved (cache-missing) satisfiability
  queries;
* ``max_steps`` — fixpoint/fuel steps: every governed loop in the
  automata, transducer, solver, and compiler pipelines charges one step
  per iteration.

Budgets are threaded *ambiently*: :func:`scope` pushes a budget onto a
thread-local stack, and the instrumented hot loops call :func:`tick` /
:func:`charge_query`, which are near-free when the stack is empty (one
thread-local attribute load and a truthiness check).  Nested scopes all
charge — an inner budget cannot shield work from an outer one.

Exhaustion raises a typed :class:`BudgetExceeded` subclass carrying a
:class:`BudgetSnapshot` of the resources consumed.  **Abort safety**:
charges raise only *between* units of work (loop heads, query entry),
never mid-way through a cache or intern-table insertion — the solver
publishes results into its memo tables only after they are fully
computed, so any abort leaves every process-wide table consistent and
an immediate retry with a fresh budget sees only complete entries
(verified by ``tests/guard/test_abort_safety.py``).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional

from ..errors import ReproError
from ..obs import config as obs_config
from ..obs import metrics as obs_metrics
from ..obs import tracer as obs_tracer


class GuardError(ReproError):
    """Base class of resource-governance failures.

    Catching ``GuardError`` (or calling a ``*_verdict`` analysis, which
    does it for you) is the supported way to treat budget exhaustion,
    injected faults, and solver give-ups uniformly as *unknown*.
    """


class BudgetExceeded(GuardError):
    """A governed computation ran out of a resource.

    ``snapshot`` records consumption at the moment of the abort.
    """

    #: Which resource ran out (overridden by subclasses).
    resource = "budget"

    def __init__(
        self, message: str, snapshot: "BudgetSnapshot | None" = None
    ) -> None:
        super().__init__(message)
        self.snapshot = snapshot


class DeadlineExceeded(BudgetExceeded):
    """The wall-clock deadline passed."""

    resource = "deadline"


class SolverBudgetExceeded(BudgetExceeded):
    """The solver-query budget is spent."""

    resource = "solver_queries"


class StepBudgetExceeded(BudgetExceeded):
    """The fixpoint-step (fuel) budget is spent."""

    resource = "steps"


class SolverUnknown(GuardError):
    """The solver backend gave up on a query (Z3-style *unknown*).

    Our own decision procedures are complete for the label theory, so in
    practice this is raised by the fault-injection harness
    (:mod:`repro.guard.chaos`); governed analyses degrade it to an
    UNKNOWN verdict the same way they degrade budget exhaustion.
    """


@dataclass(frozen=True)
class BudgetSnapshot:
    """Consumption and limits of a budget at one instant (JSON-able)."""

    steps: int
    solver_queries: int
    elapsed: float
    deadline: Optional[float]
    max_solver_queries: Optional[int]
    max_steps: Optional[int]

    def as_dict(self) -> dict[str, object]:
        return {
            "steps": self.steps,
            "solver_queries": self.solver_queries,
            "elapsed": self.elapsed,
            "deadline": self.deadline,
            "max_solver_queries": self.max_solver_queries,
            "max_steps": self.max_steps,
        }

    def __str__(self) -> str:
        return (
            f"steps={self.steps}"
            + (f"/{self.max_steps}" if self.max_steps is not None else "")
            + f" queries={self.solver_queries}"
            + (
                f"/{self.max_solver_queries}"
                if self.max_solver_queries is not None
                else ""
            )
            + f" elapsed={self.elapsed:.3f}s"
            + (f"/{self.deadline:.3f}s" if self.deadline is not None else "")
        )


#: Budget-consumption metrics (recorded only while :mod:`repro.obs` is on).
_OBS_STEPS = obs_metrics.counter("guard.steps")
_OBS_QUERIES = obs_metrics.counter("guard.solver_queries")
_OBS_DEADLINE_ABORTS = obs_metrics.counter("guard.deadline_aborts")
_OBS_QUERY_ABORTS = obs_metrics.counter("guard.query_budget_aborts")
_OBS_STEP_ABORTS = obs_metrics.counter("guard.step_budget_aborts")

_ABORT_COUNTERS = {
    "deadline": _OBS_DEADLINE_ABORTS,
    "solver_queries": _OBS_QUERY_ABORTS,
    "steps": _OBS_STEP_ABORTS,
}


@dataclass
class Budget:
    """A bundle of resource limits plus its live consumption counters.

    Limits are all optional (None = unlimited).  A budget is inert until
    activated by :func:`scope` (or an explicit :meth:`start`); the
    deadline clock runs from activation, not construction.  The counters
    survive deactivation, so callers can snapshot what a finished (or
    aborted) run consumed.
    """

    deadline: Optional[float] = None
    max_solver_queries: Optional[int] = None
    max_steps: Optional[int] = None
    steps: int = field(default=0, init=False)
    solver_queries: int = field(default=0, init=False)
    started_at: Optional[float] = field(default=None, init=False)
    _expires_at: Optional[float] = field(default=None, init=False, repr=False)

    def start(self) -> "Budget":
        """Start the deadline clock (idempotent per activation)."""
        self.started_at = time.monotonic()
        self._expires_at = (
            None if self.deadline is None else self.started_at + self.deadline
        )
        return self

    def elapsed(self) -> float:
        if self.started_at is None:
            return 0.0
        return time.monotonic() - self.started_at

    def snapshot(self) -> BudgetSnapshot:
        return BudgetSnapshot(
            steps=self.steps,
            solver_queries=self.solver_queries,
            elapsed=self.elapsed(),
            deadline=self.deadline,
            max_solver_queries=self.max_solver_queries,
            max_steps=self.max_steps,
        )

    # -- charging ----------------------------------------------------------

    def charge_step(self, n: int, kind: str) -> None:
        self.steps += n
        if self.max_steps is not None and self.steps > self.max_steps:
            self._abort(
                StepBudgetExceeded,
                f"step budget exhausted at {kind!r} "
                f"({self.steps} > {self.max_steps})",
            )
        self._check_deadline(kind)

    def charge_query(self, n: int = 1) -> None:
        self.solver_queries += n
        if (
            self.max_solver_queries is not None
            and self.solver_queries > self.max_solver_queries
        ):
            self._abort(
                SolverBudgetExceeded,
                f"solver-query budget exhausted "
                f"({self.solver_queries} > {self.max_solver_queries})",
            )
        self._check_deadline("solver.query")

    def _check_deadline(self, kind: str) -> None:
        if self._expires_at is not None and time.monotonic() > self._expires_at:
            self._abort(
                DeadlineExceeded,
                f"deadline of {self.deadline}s exceeded at {kind!r}",
            )

    def _abort(self, exc_cls: type, message: str) -> None:
        snap = self.snapshot()
        if obs_config.ENABLED:
            _ABORT_COUNTERS[exc_cls.resource].inc()
            # An instant marks *where* in the trace the abort fired; it
            # nests under whatever pipeline span is open.
            obs_tracer.instant(
                "guard.abort", {"reason": exc_cls.resource, "detail": message}
            )
        raise exc_cls(message, snap)


class _ThreadState(threading.local):
    def __init__(self) -> None:  # called once per thread
        self.stack: list[Budget] = []


_STATE = _ThreadState()


def current() -> Optional[Budget]:
    """The innermost active budget of this thread, or None."""
    stack = _STATE.stack
    return stack[-1] if stack else None


def active() -> list[Budget]:
    """This thread's stack of active budgets, as a live list (read only).

    :func:`scope` pushes and pops this very list, so a hot loop that
    opens no scope may bind it once and call :func:`tick` only while it
    is non-empty; the charges stay exactly those of ticking every time.
    """
    return _STATE.stack


@contextmanager
def scope(
    budget: Budget | None = None,
    *,
    deadline: Optional[float] = None,
    max_solver_queries: Optional[int] = None,
    max_steps: Optional[int] = None,
) -> Iterator[Budget]:
    """Activate a budget for the dynamic extent of the ``with`` block.

    Pass an existing :class:`Budget` or the limits directly::

        with guard.scope(deadline=1.0) as b:
            lang.is_empty()
        print(b.snapshot())

    Scopes nest; every active budget on the stack is charged for work
    done in the innermost scope.
    """
    b = budget if budget is not None else Budget(
        deadline=deadline,
        max_solver_queries=max_solver_queries,
        max_steps=max_steps,
    )
    b.start()
    _STATE.stack.append(b)
    try:
        yield b
    finally:
        _STATE.stack.pop()


def tick(n: int = 1, kind: str = "step") -> None:
    """Charge ``n`` fixpoint steps against every active budget.

    The hot-path hook: governed loops call this once per iteration.
    With no active budget the cost is one thread-local load and a
    truthiness check.
    """
    stack = _STATE.stack
    if not stack:
        return
    if obs_config.ENABLED:
        _OBS_STEPS.inc(n)
    for b in stack:
        b.charge_step(n, kind)


def charge_query(n: int = 1) -> None:
    """Charge ``n`` solved satisfiability queries against every active budget."""
    stack = _STATE.stack
    if not stack:
        return
    if obs_config.ENABLED:
        _OBS_QUERIES.inc(n)
    for b in stack:
        b.charge_query(n)


def affords(steps: int, queries: int) -> bool:
    """Whether every active budget can absorb ``steps`` more steps and
    ``queries`` more solver queries without exhausting (deadlines are
    not consulted: a replayed charge takes no time)."""
    return all(
        (b.max_steps is None or b.steps + steps <= b.max_steps)
        and (
            b.max_solver_queries is None
            or b.solver_queries + queries <= b.max_solver_queries
        )
        for b in _STATE.stack
    )
