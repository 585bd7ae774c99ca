"""Fault injection for the solver facade: make degradation paths testable.

The governance story of :mod:`repro.guard` is only credible if the
abort and recovery paths actually run under test.  This module injects
deterministic, seeded failures at the solver boundary — the single
choke point every pipeline funnels through — so the chaos suite can
demonstrate that a solver fault, a blown deadline, or an exhausted
query budget each end in a clean typed outcome with consistent caches.

Injections (all off by default, all reproducible from ``seed``):

* ``fault_rate`` / ``fault_after`` — raise :class:`SolverFault`, the
  moral equivalent of the backend solver crashing;
* ``unknown_rate`` — raise
  :class:`~repro.guard.budget.SolverUnknown`, a Z3-style give-up;
* ``latency`` — sleep before each query (a slow solver must trip
  deadlines, not hang pipelines);
* ``flush_rate`` — run the coordinated cache flush
  (:func:`repro.smt.flush_all_caches`: solver memos, intern table, and
  exec LRU together) mid-flight.  This one is *semantics-preserving*:
  results must not change when every memo table evaporates at an
  arbitrary query boundary, which is exactly the cache-consistency
  contract the abort-safety tests — and the long-haul worker hygiene
  flush — rely on.  The CI chaos-smoke job runs the full tier-1 suite
  under latency + flush injection and requires it to stay green.

Since the analysis service (:mod:`repro.svc`) moved execution into
subprocess workers, the harness also injects **worker-level** faults —
the kinds of failure a supervisor must survive, not a solver:

* ``worker_kill_rate`` — the worker SIGKILLs itself before running the
  job (a hard crash: no reply, no cleanup);
* ``worker_hang_rate`` — the worker sleeps past the supervisor's kill
  timeout instead of answering;
* ``worker_corrupt_rate`` — the worker replies with a garbage payload
  instead of a :class:`~repro.svc.job.JobResult`;
* ``worker_leak_rate`` / ``worker_leak_bytes`` — the worker pins a slab
  of garbage in memory and then answers *correctly*: a slow leak, the
  fault class the lifecycle layer's RSS recycle threshold exists for.

Worker faults are decided by :class:`WorkerChaosPolicy` from the
``(seed, job_id, attempt)`` triple — not a sequential RNG — so the same
batch under the same seed always faults the same jobs on the same
attempts, *regardless of worker scheduling*, and a retried attempt can
succeed where attempt 0 was killed.

With the admission gate (:mod:`repro.svc.gate`) in front of the pool,
the harness also models **overload** faults — hostile *traffic*, not
hostile workers: :class:`OverloadChaosPolicy` deterministically decides
per request index whether a client bursts (floods the gate with extra
concurrent requests) or stalls (sleeps mid-send like a slow client).
The overload property test drives the gate with these schedules and
asserts the invariants that make shedding safe: every admitted request
gets exactly one response, every shed request gets a shed response, and
verdicts are never corrupted — only delayed or shed.

Use :class:`ChaosSolver` to wrap a single solver, :func:`inject` to
patch every :class:`~repro.smt.solver.Solver` in the process for a
``with`` block, or ``REPRO_CHAOS="seed=7,flush_rate=0.02"`` +
:func:`install_from_env` (wired into ``tests/conftest.py``) to run a
whole test session under chaos.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from ..obs import config as obs_config
from ..obs import metrics as obs_metrics
from ..smt.solver import Solver
from ..smt.terms import FALSE, TRUE
from .budget import GuardError, SolverUnknown


class SolverFault(GuardError):
    """An injected backend-solver failure (the solver "crashed")."""


_OBS_FAULTS = obs_metrics.counter("chaos.faults_injected")
_OBS_UNKNOWNS = obs_metrics.counter("chaos.unknowns_injected")
_OBS_FLUSHES = obs_metrics.counter("chaos.flushes_injected")
_OBS_DELAYS = obs_metrics.counter("chaos.queries_delayed")

_INJECTION_COUNTERS = {
    "fault": _OBS_FAULTS,
    "unknown": _OBS_UNKNOWNS,
    "flush": _OBS_FLUSHES,
    "delay": _OBS_DELAYS,
}


@dataclass
class ChaosPolicy:
    """A deterministic, seeded injection policy.

    The same seed and the same sequence of queries produce the same
    injections, so every chaos test is reproducible.  ``counts`` tracks
    what actually fired (also mirrored to ``chaos.*`` obs counters).
    """

    seed: int = 0
    fault_rate: float = 0.0
    unknown_rate: float = 0.0
    latency: float = 0.0
    flush_rate: float = 0.0
    #: Inject exactly one fault on the Nth non-trivial query (0-based);
    #: independent of the rates — the surgical knob for abort tests.
    fault_after: Optional[int] = None
    queries_seen: int = field(default=0, init=False)
    counts: dict[str, int] = field(init=False)

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)
        self.counts = {"fault": 0, "unknown": 0, "flush": 0, "delay": 0}

    def reset(self) -> None:
        """Rewind to the initial seeded state."""
        self._rng = random.Random(self.seed)
        self.queries_seen = 0
        self.counts = {"fault": 0, "unknown": 0, "flush": 0, "delay": 0}

    def _injected(self, kind: str) -> None:
        """Book-keep one fired injection (counts, obs)."""
        self.counts[kind] += 1
        if obs_config.ENABLED:
            _INJECTION_COUNTERS[kind].inc()

    def before_query(self, solver: Solver) -> None:
        """Run the injections due before one non-trivial solver query."""
        index = self.queries_seen
        self.queries_seen += 1
        if self.latency:
            self._injected("delay")
            time.sleep(self.latency)
        if self.flush_rate and self._rng.random() < self.flush_rate:
            self._injected("flush")
            # The coordinated flush (intern table + solver memos + exec
            # LRU together) — injecting the full version here keeps the
            # semantics-preserving contract honest for exactly the
            # flush long-haul workers run between jobs.
            from ..smt import flush_all_caches

            flush_all_caches(solver=solver)
        if self.fault_after is not None and index == self.fault_after:
            self._injected("fault")
            raise SolverFault(
                f"injected solver fault on query #{index} (fault_after)"
            )
        if self.fault_rate and self._rng.random() < self.fault_rate:
            self._injected("fault")
            raise SolverFault(f"injected solver fault on query #{index}")
        if self.unknown_rate and self._rng.random() < self.unknown_rate:
            self._injected("unknown")
            raise SolverUnknown(f"injected solver unknown on query #{index}")


class ChaosSolver(Solver):
    """A solver whose every non-trivial query first consults a policy.

    Drop-in for :class:`~repro.smt.solver.Solver` anywhere one is
    accepted (facades, compilers, algorithms).  The hash-consed
    ``TRUE``/``FALSE`` identity fast path stays fault-free: those are
    not solver work, so chaos does not apply to them.
    """

    def __init__(self, policy: ChaosPolicy, cache: bool = True) -> None:
        super().__init__(cache=cache)
        self.policy = policy

    def get_model(self, formula):
        if formula is not TRUE and formula is not FALSE:
            self.policy.before_query(self)
        return super().get_model(formula)


def active() -> bool:
    """Whether a solver chaos policy is installed process-wide.

    Memos that would let a request skip the solver (the artifact's
    decided-verdict memo) stand aside while this holds, so injected
    faults keep reaching the solver.
    """
    return hasattr(Solver.get_model, "chaos_policy")


def install(policy: ChaosPolicy) -> Callable[[], None]:
    """Patch ``Solver.get_model`` process-wide; returns the undo function.

    Covers :data:`~repro.smt.solver.DEFAULT_SOLVER` and every solver
    instance created before or after the call.
    """
    original = Solver.get_model

    def chaotic_get_model(self, formula, _orig=original, _policy=policy):
        if formula is not TRUE and formula is not FALSE:
            _policy.before_query(self)
        return _orig(self, formula)

    chaotic_get_model.chaos_policy = policy  # type: ignore[attr-defined]
    Solver.get_model = chaotic_get_model  # type: ignore[method-assign]

    def uninstall() -> None:
        Solver.get_model = original  # type: ignore[method-assign]

    return uninstall


@contextmanager
def inject(policy: ChaosPolicy) -> Iterator[ChaosPolicy]:
    """Process-wide chaos for the dynamic extent of a ``with`` block."""
    uninstall = install(policy)
    try:
        yield policy
    finally:
        uninstall()


@dataclass(frozen=True)
class WorkerChaosPolicy:
    """Seeded worker-level fault injection for :mod:`repro.svc`.

    Unlike :class:`ChaosPolicy` (a sequential RNG at the solver choke
    point), worker faults are decided *statelessly* from
    ``(seed, job_id, attempt)``: the policy is a pure function, so the
    same batch faults the same jobs however the supervisor schedules
    them across workers, and retries see fresh draws — a job killed on
    attempt 0 usually survives attempt 1, which is what lets the
    retry path demonstrate recovery instead of deterministic doom.

    The dataclass is frozen and picklable: the supervisor ships it to
    each worker at spawn time.
    """

    seed: int = 0
    kill_rate: float = 0.0
    hang_rate: float = 0.0
    corrupt_rate: float = 0.0
    #: Probability an attempt deliberately *leaks*: the worker pins
    #: ``leak_bytes`` of garbage in process memory and then runs the
    #: job normally.  Unlike the other faults the reply is perfectly
    #: valid — the damage is the growing RSS, which is what forces the
    #: lifecycle layer's ``--worker-max-rss`` recycle path under test.
    leak_rate: float = 0.0
    #: Bytes pinned per fired leak.
    leak_bytes: int = 8 << 20
    #: How long a "hung" worker sleeps; keep well above the supervisor's
    #: kill timeout (tests shrink both).
    hang_seconds: float = 3600.0

    def decide(self, job_id: str, attempt: int) -> Optional[str]:
        """``'kill'`` / ``'hang'`` / ``'corrupt'`` / ``'leak'`` / None.

        ``random.Random`` seeded with a string hashes it through
        SHA-512 (seeding version 2), so the draw is stable across
        processes and interpreter runs — no ``PYTHONHASHSEED``
        dependence.
        """
        if not self.active:
            return None
        r = random.Random(f"{self.seed}:{job_id}:{attempt}").random()
        if r < self.kill_rate:
            return "kill"
        if r < self.kill_rate + self.hang_rate:
            return "hang"
        if r < self.kill_rate + self.hang_rate + self.corrupt_rate:
            return "corrupt"
        if (
            r
            < self.kill_rate
            + self.hang_rate
            + self.corrupt_rate
            + self.leak_rate
        ):
            return "leak"
        return None

    @property
    def active(self) -> bool:
        return bool(
            self.kill_rate
            or self.hang_rate
            or self.corrupt_rate
            or self.leak_rate
        )


@dataclass(frozen=True)
class OverloadChaosPolicy:
    """Seeded overload traffic for the admission gate (:mod:`repro.svc.gate`).

    Where :class:`WorkerChaosPolicy` perturbs the *execution* side, this
    policy perturbs the *arrival* side: it deterministically decides, per
    request index, whether a client floods the gate with a burst of
    extra requests or stalls mid-send like a slow client.  Like the
    worker policy it is a pure function of ``(seed, index)`` — no
    sequential RNG — so the same seed produces the same traffic shape
    however threads interleave, which is what makes the overload
    property test (served + shed partition, exactly one response each)
    reproducible.
    """

    seed: int = 0
    #: Probability a request index starts a burst flood.
    burst_rate: float = 0.0
    #: Extra concurrent requests injected per burst.
    burst_size: int = 8
    #: Probability a client stalls (sleeps) before sending its request.
    stall_rate: float = 0.0
    #: How long a stalled client sleeps before completing its send.
    stall_seconds: float = 0.05

    def decide(self, index: int) -> Optional[str]:
        """``'burst'`` / ``'stall'`` / None for request ``index``.

        Stable across processes and runs (string-seeded ``Random``
        hashes through SHA-512), and independent draws per index, so a
        schedule can be replayed or enumerated without generating it in
        order.
        """
        if not (self.burst_rate or self.stall_rate):
            return None
        r = random.Random(f"{self.seed}:overload:{index}").random()
        if r < self.burst_rate:
            return "burst"
        if r < self.burst_rate + self.stall_rate:
            return "stall"
        return None


#: Spec keys understood by :func:`worker_policy_from_spec`; ignored by
#: :func:`policy_from_spec` so one ``REPRO_CHAOS`` string can carry both
#: solver- and worker-level faults.
_WORKER_KEYS = {
    "worker_kill_rate": ("kill_rate", float),
    "worker_hang_rate": ("hang_rate", float),
    "worker_corrupt_rate": ("corrupt_rate", float),
    "worker_hang_seconds": ("hang_seconds", float),
    "worker_leak_rate": ("leak_rate", float),
    "worker_leak_bytes": ("leak_bytes", int),
}

def _parse_spec(spec: str) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ValueError(f"bad chaos spec item {item!r} (expected key=value)")
        key, _, value = item.partition("=")
        pairs[key.strip()] = value.strip()
    return pairs


def policy_from_spec(spec: str) -> ChaosPolicy:
    """Parse ``"seed=7,latency=0.0002,flush_rate=0.02"`` into a policy.

    Keys are the :class:`ChaosPolicy` field names; values are ints for
    ``seed``/``fault_after`` and floats otherwise.  ``worker_*`` keys
    (see :func:`worker_policy_from_spec`) are ignored here.
    """
    kwargs: dict[str, object] = {}
    for key, value in _parse_spec(spec).items():
        if key in ("seed", "fault_after"):
            kwargs[key] = int(value)
        elif key in ("fault_rate", "unknown_rate", "latency", "flush_rate"):
            kwargs[key] = float(value)
        elif key in _WORKER_KEYS:
            continue
        else:
            raise ValueError(f"unknown chaos spec key {key!r}")
    return ChaosPolicy(**kwargs)  # type: ignore[arg-type]


def worker_policy_from_spec(spec: str) -> Optional[WorkerChaosPolicy]:
    """The :class:`WorkerChaosPolicy` of a spec, or None when inert.

    Shares the ``seed`` key with the solver policy; only ``worker_*``
    keys activate it, so plain solver-chaos specs return None.
    """
    pairs = _parse_spec(spec) if spec else {}
    kwargs: dict[str, object] = {}
    for key, (field_name, conv) in _WORKER_KEYS.items():
        if key in pairs:
            kwargs[field_name] = conv(pairs[key])
    if not kwargs:
        return None
    if "seed" in pairs:
        kwargs["seed"] = int(pairs["seed"])
    policy = WorkerChaosPolicy(**kwargs)  # type: ignore[arg-type]
    return policy if policy.active else None


def install_from_env(var: str = "REPRO_CHAOS") -> Optional[Callable[[], None]]:
    """Install chaos from an environment spec, if set; returns the undo.

    The CI chaos-smoke job exports ``REPRO_CHAOS`` and lets
    ``tests/conftest.py`` call this, so the whole tier-1 suite runs
    against a perturbed solver.
    """
    import os

    spec = os.environ.get(var, "")
    if not spec:
        return None
    return install(policy_from_spec(spec))
