"""The artifact cache: an in-process LRU keyed by the program source.

Fast compiles a program once and then runs it.  The cache makes that
"once" hold per process: :class:`ArtifactCache` (default 32 entries)
maps a program's source text to its :class:`CompiledArtifact`, so a
hit costs a dict lookup.  Forked svc workers inherit the supervisor's
memory for free, like the hash-consed term table — which is why
``fast batch`` compiles shared sources in the supervisor before it
forks (:func:`repro.svc.batch.prewarm_shared_sources`).  Nothing is
written to disk.  Failed compiles are never stored (exceptions
propagate before the put), so a broken program errors afresh on every
request.

Budget discipline: a cache hit **replays** the front end's
``fast.decl`` budget charge (one step per declaration of the original
program).  A budget too small to compile a program must stay too small
when the program is already cached — otherwise caching would change
verdicts, not just latency.  The same holds one layer up: an artifact
carries the verdicts ``explain_artifact`` already decided, and a later
call **replays** each verdict with the steps and solver queries its
check charged (``exec.verdict.replay``), or re-runs the check when the
active budgets cannot afford that charge.

Metrics: ``exec.cache.hit`` / ``exec.cache.miss`` / ``exec.cache.store``
/ ``exec.verdict.replay`` (glossary in DESIGN.md §8).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional

from ..guard.budget import tick as _tick
from ..obs import metrics as obs_metrics
from ..smt.solver import Solver
from . import config
from .artifact import CompiledArtifact, build_artifact

_OBS_HITS = obs_metrics.counter("exec.cache.hit")
_OBS_MISSES = obs_metrics.counter("exec.cache.miss")
_OBS_STORES = obs_metrics.counter("exec.cache.store")


class ArtifactCache:
    """A thread-safe LRU of compiled artifacts, keyed by program source."""

    def __init__(self, capacity: int = 32) -> None:
        self.capacity = capacity
        self._memory: OrderedDict[str, CompiledArtifact] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, source: str) -> Optional[CompiledArtifact]:
        """The cached artifact for ``source``, or None (counted miss)."""
        with self._lock:
            artifact = self._memory.get(source)
            if artifact is not None:
                self._memory.move_to_end(source)
        if artifact is None:
            _OBS_MISSES.inc()
        else:
            _OBS_HITS.inc()
        return artifact

    def put(self, source: str, artifact: CompiledArtifact) -> None:
        """Store ``artifact``; past ``capacity``, evict the least recent."""
        with self._lock:
            self._memory[source] = artifact
            self._memory.move_to_end(source)
            while len(self._memory) > self.capacity:
                self._memory.popitem(last=False)
        _OBS_STORES.inc()

    def clear(self) -> None:
        with self._lock:
            self._memory.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)


#: The process-wide cache every caller shares (forked svc workers
#: inherit it, like the hash-consed term table).
DEFAULT_CACHE = ArtifactCache()


def cached_artifact(
    source: str,
    solver: Optional[Solver] = None,
    cache: Optional[ArtifactCache] = None,
) -> CompiledArtifact:
    """The artifact for ``source``: cached when possible, built otherwise.

    With an explicit ``solver`` the cache is bypassed entirely — a
    custom solver changes compile-time behaviour (chaos injection,
    instrumentation), so its environment must not be shared.
    """
    if solver is not None or not config.cache_enabled():
        return build_artifact(source, solver)
    c = cache if cache is not None else DEFAULT_CACHE
    artifact = c.get(source)
    if artifact is not None:
        # Replay the front end's budget charge (see module docstring).
        _tick(artifact.decl_count, kind="fast.decl")
        return artifact
    artifact = build_artifact(source)
    c.put(source, artifact)
    return artifact
