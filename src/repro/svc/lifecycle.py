"""Worker lifecycle policy: generations, recycle thresholds, RSS sampling.

A long-running server must not let any single worker process live
forever: the hash-consed intern table, the solver memo caches, and the
exec artifact LRU all grow monotonically within a process, so a worker
that serves days of traffic leaks by design.  The fix is *proactive
recycling* — each worker carries a monotonically increasing
**generation** number, and the supervisor retires it for a ready
replacement when it crosses any configured threshold:

* ``max_jobs`` — jobs served since (re)spawn (reason ``"jobs"``);
* ``max_rss_bytes`` — resident set size self-reported by the worker
  after each job (reason ``"rss"``);
* ``max_age`` — wall-clock seconds since (re)spawn (reason ``"age"``).

Workers additionally run *in-process* hygiene between jobs: when the
intern table grows past ``max_terms``, the worker verifies cache
consistency (:func:`repro.guard.check_solver_consistency`, sampled)
and then flushes every term-holding cache in one coordinated step
(:func:`repro.smt.flush_all_caches`).

RSS sampling strategy: ``/proc/self/statm`` gives *current* resident
pages on Linux (field 2 × page size) — cheap (one small read, no
syscall fan-out) and reflects frees.  Where procfs is unavailable the
fallback is ``resource.getrusage(RUSAGE_SELF).ru_maxrss``, which is a
*high-water* mark (never decreases) — still a sound recycle trigger,
merely a conservative one.  On Linux ``ru_maxrss`` is kilobytes; on
macOS it is bytes; the fallback normalizes.
"""

from __future__ import annotations

import itertools
import os
import re
from dataclasses import dataclass
from typing import Optional

#: Recycle reasons, in the order thresholds are consulted.
REASON_JOBS = "jobs"
REASON_RSS = "rss"
REASON_AGE = "age"
RECYCLE_REASONS = (REASON_JOBS, REASON_RSS, REASON_AGE)

#: Process-wide generation counter.  Every successful worker spawn —
#: initial, crash respawn, or proactive recycle — takes the next value,
#: so generation numbers are never reused within a supervisor process.
_generations = itertools.count(1)


def next_generation() -> int:
    """Allocate a fresh, never-reused worker generation number."""
    return next(_generations)


_SIZE_RE = re.compile(r"^\s*(\d+(?:\.\d+)?)\s*([KMGT]I?B?|B)?\s*$", re.I)
_SIZE_UNITS = {
    "B": 1,
    "K": 1 << 10,
    "M": 1 << 20,
    "G": 1 << 30,
    "T": 1 << 40,
}


def parse_size(text: str) -> int:
    """Parse a human size string (``64M``, ``1.5G``, ``4096``) to bytes.

    Accepted suffixes: ``B``, ``K``/``KB``/``KiB``, ``M``, ``G``, ``T``
    (case-insensitive); no suffix means bytes.  Raises ``ValueError``
    on anything else so CLI flag errors stay loud.
    """
    match = _SIZE_RE.match(str(text))
    if match is None:
        raise ValueError(f"unparseable size {text!r} (try 64M, 1G, 4096)")
    value = float(match.group(1))
    unit = (match.group(2) or "B").upper()
    return int(value * _SIZE_UNITS[unit[0]])


def current_rss_bytes() -> Optional[int]:
    """Resident set size of *this* process in bytes, or None.

    Prefers ``/proc/self/statm`` (current residency, reflects frees);
    falls back to ``getrusage`` high-water where procfs is missing.
    """
    return rss_of_pid(None)


def rss_of_pid(pid: Optional[int]) -> Optional[int]:
    """RSS in bytes for ``pid`` (None = self) via procfs, with a
    getrusage fallback for the self case only."""
    path = "/proc/self/statm" if pid is None else f"/proc/{pid}/statm"
    try:
        with open(path, "r", encoding="ascii") as fh:
            fields = fh.read().split()
        return int(fields[1]) * (os.sysconf("SC_PAGE_SIZE") or 4096)
    except (OSError, IndexError, ValueError):
        pass
    if pid is not None:
        return None
    try:
        import resource
        import sys

        ru = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # Linux reports KiB, macOS reports bytes.
        return int(ru) if sys.platform == "darwin" else int(ru) * 1024
    except Exception:
        return None


@dataclass(frozen=True)
class LifecyclePolicy:
    """Recycle thresholds for one worker generation.

    All fields are optional; a policy with nothing set is inert (the
    pool behaves exactly as before this layer existed).  The policy is
    frozen and picklable: the supervisor ships it to each worker so the
    in-process hygiene half (``max_terms``) runs child-side while the
    jobs/RSS/age half is enforced supervisor-side.
    """

    #: Retire a worker after this many jobs served since (re)spawn.
    max_jobs: Optional[int] = None
    #: Retire a worker whose self-reported RSS exceeds this many bytes.
    max_rss_bytes: Optional[int] = None
    #: Retire a worker older than this many wall-clock seconds.
    max_age: Optional[float] = None
    #: In-worker hygiene: when ``terms.intern_table_size()`` exceeds
    #: this between jobs, the worker consistency-checks and then runs
    #: :func:`repro.smt.flush_all_caches`.
    max_terms: Optional[int] = None

    def active(self) -> bool:
        """True when any supervisor-side threshold is configured."""
        return (
            self.max_jobs is not None
            or self.max_rss_bytes is not None
            or self.max_age is not None
        )

    def recycle_reason(
        self,
        *,
        jobs_served: int,
        rss_bytes: Optional[int],
        age: float,
    ) -> Optional[str]:
        """First threshold crossed, as a reason string, or None."""
        if self.max_jobs is not None and jobs_served >= self.max_jobs:
            return REASON_JOBS
        if (
            self.max_rss_bytes is not None
            and rss_bytes is not None
            and rss_bytes > self.max_rss_bytes
        ):
            return REASON_RSS
        if self.max_age is not None and age >= self.max_age:
            return REASON_AGE
        return None
