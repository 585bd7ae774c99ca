"""The subprocess worker: one process, one job at a time, crash-isolated.

A worker is a child process running :func:`_worker_main`: an endless
``recv job -> execute -> send result`` loop over a duplex pipe.  The
supervisor side holds a :class:`Worker` handle bundling the process,
the pipe, and respawn logic.  Everything that can go wrong in a worker
— a segfaulting solver path, an OOM kill, a divergent fixpoint — is
contained: the process dies or hangs, the supervisor notices (sentinel
or kill timeout), and the pool respawns a fresh worker.

Chaos: when a :class:`~repro.guard.chaos.WorkerChaosPolicy` is
configured, each received ``(job, attempt)`` first consults it and may

* SIGKILL itself (``kill`` — the supervisor sees a dead sentinel),
* sleep past the supervisor's kill timeout (``hang``),
* reply with a garbage payload (``corrupt`` — exercising reply
  validation),
* pin a slab of garbage in memory and then answer correctly (``leak``
  — exercising the lifecycle layer's RSS recycle threshold).

Lifecycle: every spawn — initial, crash respawn, proactive recycle —
takes a fresh, never-reused **generation** number, and the handle
tracks ``jobs_served`` / ``spawned_at`` / last self-reported RSS so the
pool can retire workers that cross :class:`~repro.svc.lifecycle.
LifecyclePolicy` thresholds.  The worker side runs hygiene between
jobs: past ``max_terms`` interned terms it consistency-checks the
caches and then flushes them all in one coordinated step
(:func:`repro.smt.flush_all_caches`).

The default start method is ``fork`` where available (Linux): workers
inherit the warmed import state and the hash-consed term table for
free, and spawn in ~1 ms.  ``spawn`` is used elsewhere; it works but
pays an interpreter start per worker.
"""

from __future__ import annotations

import itertools
import mmap
import multiprocessing
import os
import signal
import time
from typing import Any, Optional

from ..guard.chaos import WorkerChaosPolicy
from ..obs import config as obs_config
from .job import JobSpec
from .lifecycle import LifecyclePolicy, current_rss_bytes, next_generation
from .telemetry import execute_with_telemetry

#: Payload a chaos-corrupted worker sends instead of a JobResult.
_CORRUPT_PAYLOAD = ("\x00corrupt\x00", "injected by WorkerChaosPolicy")

#: Chaos-leaked slabs; module-level so they stay pinned for the life of
#: the worker process, exactly like a real leak would.
_LEAKED: list[mmap.mmap] = []

_worker_ids = itertools.count(1)


def default_start_method() -> str:
    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


def _reset_inherited_state() -> None:
    """Forget governance/observability state copied in by fork.

    A forked worker inherits the parent's active budget stack, metric
    registry values, and tracer span state; charging a parent budget
    from a child, double-counting the parent's counters into a
    telemetry blob, or parenting worker spans under a copied supervisor
    span would all be silent nonsense.
    """
    try:
        from ..guard import budget as guard_budget

        guard_budget._STATE.stack = []
    except Exception:
        pass
    try:
        from ..obs import metrics as obs_metrics
        from ..obs import tracer as obs_tracer

        obs_metrics.REGISTRY.reset()
        obs_tracer.reset_after_fork()
    except Exception:
        pass


def _resident_slab(size: int) -> mmap.mmap:
    """``size`` bytes of fresh anonymous memory, every page written.

    A ``bytearray`` may be carved from heap memory a freed object left
    resident (the worker inherits its parent's heap at fork), so it
    need not grow the RSS it is meant to inflate; a new mapping whose
    pages are all written always does.
    """
    slab = mmap.mmap(-1, size)
    for offset in range(0, size, mmap.PAGESIZE):
        slab[offset] = 1
    return slab


def _hygiene_report(flushes: int) -> dict:
    """The per-job self-report the supervisor's RSS threshold reads."""
    try:
        from ..smt import terms as terms_mod

        intern_terms = terms_mod.intern_table_size()
    except Exception:
        intern_terms = -1
    return {
        "rss_bytes": current_rss_bytes(),
        "intern_terms": intern_terms,
        "flushes": flushes,
    }


def _maybe_flush_between_jobs(lifecycle: Optional[LifecyclePolicy]) -> bool:
    """In-worker memory hygiene: bounded intern table between jobs.

    When the interned-term count crosses ``lifecycle.max_terms``, the
    caches are first verified (sampled
    :func:`repro.guard.check_solver_consistency` — the abort-safety
    machinery, so a flush can never paper over corrupted state) and
    then dropped together via :func:`repro.smt.flush_all_caches`.
    Consistency violations propagate: a worker whose caches fail the
    check dies loudly and is respawned, rather than serving from
    suspect state.
    """
    if lifecycle is None or lifecycle.max_terms is None:
        return False
    from ..smt import terms as terms_mod

    if terms_mod.intern_table_size() <= lifecycle.max_terms:
        return False
    from ..smt import flush_all_caches

    flush_all_caches(check=True)
    return True


def _worker_main(
    conn,
    chaos: Optional[WorkerChaosPolicy],
    telemetry: bool = False,
    lifecycle: Optional[LifecyclePolicy] = None,
) -> None:
    """The worker loop; exits on a ``None`` message or a closed pipe."""
    _reset_inherited_state()
    # Record only what will be shipped back.
    obs_config.enabled(telemetry)
    flushes = 0
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        spec, attempt = message
        fault = chaos.decide(spec.job_id, attempt) if chaos is not None else None
        if fault == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        if fault == "hang":
            time.sleep(chaos.hang_seconds)  # the supervisor kills us first
        if fault == "corrupt":
            try:
                conn.send(_CORRUPT_PAYLOAD)
            except (BrokenPipeError, OSError):
                break
            continue
        if fault == "leak":
            # Pin garbage, then answer correctly: the damage is RSS.
            _LEAKED.append(_resident_slab(chaos.leak_bytes))
        result = execute_with_telemetry(spec, attempt, telemetry)
        result.hygiene = _hygiene_report(flushes)
        try:
            conn.send(result)
        except (BrokenPipeError, OSError):
            break
        except Exception:
            # The telemetry blob smuggled in something unpicklable;
            # better a blobless reply than a crashed worker.
            result.telemetry = None
            try:
                conn.send(result)
            except Exception:
                break
        # Hygiene runs *after* the reply is on the wire, so the flush
        # cost lands in idle time, never in a job's latency.
        if _maybe_flush_between_jobs(lifecycle):
            flushes += 1
    conn.close()


class Worker:
    """Supervisor-side handle: process + pipe + respawn."""

    def __init__(
        self,
        ctx,
        chaos: Optional[WorkerChaosPolicy] = None,
        telemetry: bool = False,
        lifecycle: Optional[LifecyclePolicy] = None,
    ) -> None:
        self.ctx = ctx
        self.chaos = chaos
        self.telemetry = telemetry
        self.lifecycle = lifecycle
        self.worker_id = next(_worker_ids)
        self.spawns = 0
        self.process: Any = None
        self.conn: Any = None
        #: Never-reused generation number, fresh per (re)spawn.
        self.generation: int = 0
        #: Supervisor-clock timestamp of the last (re)spawn.
        self.spawned_at: float = 0.0
        #: Valid replies finalized since the last (re)spawn.
        self.jobs_served: int = 0
        #: Last RSS the worker self-reported (bytes), None before the
        #: first reply of this generation.
        self.rss_bytes: Optional[int] = None
        self.spawn()

    def spawn(self) -> None:
        """(Re)start the child process with a fresh pipe."""
        parent_conn, child_conn = self.ctx.Pipe(duplex=True)
        self.process = self.ctx.Process(
            target=_worker_main,
            args=(
                child_conn,
                self.chaos,
                self.telemetry,
                self.lifecycle,
            ),
            daemon=True,
            name=f"repro-svc-worker-{self.worker_id}",
        )
        self.process.start()
        child_conn.close()
        self.conn = parent_conn
        self.spawns += 1
        self.generation = next_generation()
        self.spawned_at = time.monotonic()
        self.jobs_served = 0
        self.rss_bytes = None

    @property
    def age(self) -> float:
        """Seconds since this generation (re)spawned."""
        return time.monotonic() - self.spawned_at

    # -- state -------------------------------------------------------------

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid if self.process is not None else None

    @property
    def sentinel(self) -> int:
        return self.process.sentinel

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    @property
    def exitcode(self) -> Optional[int]:
        return self.process.exitcode if self.process is not None else None

    # -- protocol ----------------------------------------------------------

    def dispatch(self, spec: JobSpec, attempt: int) -> None:
        """Send one job; raises OSError/BrokenPipeError if the pipe died."""
        self.conn.send((spec, attempt))

    def kill(self) -> None:
        """SIGKILL the child and reap it (used for hung workers)."""
        if self.process is not None and self.process.is_alive():
            self.process.kill()
        if self.process is not None:
            self.process.join()
        if self.conn is not None:
            self.conn.close()

    def stop(self, grace: float = 1.0) -> None:
        """Polite shutdown: send the stop message, then escalate."""
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        if self.process is not None:
            self.process.join(timeout=grace)
            if self.process.is_alive():
                self.process.kill()
                self.process.join()
        if self.conn is not None:
            self.conn.close()
