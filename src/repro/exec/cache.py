"""The persistent artifact cache: memory LRU over an on-disk layer.

Content addressing: the key is the SHA-256 of the program source
prefixed with a **version salt** — the library version plus the
artifact schema tag — so upgrading either invalidates every stored
artifact without any cleanup logic.  Failed compiles are never stored
(exceptions propagate before the put), so a broken program errors
afresh on every request.

Layers:

* an in-process LRU (:class:`ArtifactCache`, default 32 entries) —
  hit cost is a dict lookup;
* an on-disk JSON layer under ``REPRO_CACHE_DIR`` (default
  ``~/.cache/repro``), written atomically (temp file + rename) so
  concurrent workers can share it without torn reads.  Disk failures
  (read or write) degrade to cache misses, never to errors.

Integrity: each disk entry is an **envelope** — the artifact payload
plus the SHA-256 of its canonical JSON — verified on every load.  A
truncated file, a bit-flipped byte, or a stale schema all fail closed:
the entry is dropped, the program recompiles, and the incident is
counted under ``exec.cache.disk_errors``.  Corruption can cost a
recompile; it can never produce a wrong program.

Encoding: a store encodes the payload once, canonically (sorted keys,
compact separators, the C encoder), then hashes and writes those same
bytes — ``{"sha256":"<hex>","payload":<canonical text>}`` in one write.
A load re-encodes the parsed payload canonically to check it, so an
entry in any JSON layout with the same content stays valid.

Budget discipline: a cache hit **replays** the front end's
``fast.decl`` budget charge (one step per declaration of the original
program).  A budget too small to compile a program must stay too small
when the program is already cached — otherwise caching would change
verdicts, not just latency.  The same holds one layer up: a memory
artifact carries the verdicts ``explain_artifact`` already decided, and
a later call **replays** each verdict with the steps and solver queries
its check charged (``exec.verdict.replay``), or re-runs the check when
the active budgets cannot afford that charge.

Metrics: ``exec.cache.hit`` / ``exec.cache.miss`` / ``exec.cache.store``
/ ``exec.cache.prewarm`` / ``exec.cache.disk_errors`` /
``exec.verdict.replay`` (glossary in DESIGN.md §8).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
from collections import OrderedDict
from typing import Optional

from .. import __version__
from ..guard.budget import tick as _tick
from ..obs import metrics as obs_metrics
from ..smt.solver import Solver
from . import config
from .artifact import (
    ARTIFACT_SCHEMA,
    CompiledArtifact,
    artifact_from_json,
    artifact_to_json,
    build_artifact,
)

_OBS_HITS = obs_metrics.counter("exec.cache.hit")
_OBS_MISSES = obs_metrics.counter("exec.cache.miss")
_OBS_STORES = obs_metrics.counter("exec.cache.store")
_OBS_PREWARM = obs_metrics.counter("exec.cache.prewarm")
_OBS_DISK_ERRORS = obs_metrics.counter("exec.cache.disk_errors")

#: Key prefix: same source + different library/schema = different key.
_SALT = f"{__version__}:{ARTIFACT_SCHEMA}"


def _canonical(payload: object) -> str:
    """A payload's canonical JSON: the text the checksum is taken over."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _digest(blob: str) -> str:
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _payload_digest(payload: object) -> str:
    """SHA-256 of a payload's canonical JSON (the envelope checksum)."""
    return _digest(_canonical(payload))


def cache_key(source: str) -> str:
    """Content address of a program source under the current salt."""
    h = hashlib.sha256()
    h.update(_SALT.encode("utf-8"))
    h.update(b"\x00")
    h.update(source.encode("utf-8"))
    return h.hexdigest()


class ArtifactCache:
    """Two-layer (memory LRU + disk JSON) artifact cache."""

    def __init__(
        self, capacity: int = 32, directory: Optional[str] = None
    ) -> None:
        self.capacity = capacity
        #: None = resolve ``REPRO_CACHE_DIR`` at each disk access, so
        #: tests and the CLI can repoint the cache without rebuilding it.
        self.directory = directory
        self._memory: OrderedDict[str, CompiledArtifact] = OrderedDict()
        self._lock = threading.Lock()

    # -- paths -------------------------------------------------------------

    def _dir(self) -> str:
        return self.directory if self.directory is not None else config.cache_dir()

    def _path(self, key: str) -> str:
        return os.path.join(self._dir(), f"{key}.json")

    # -- layers ------------------------------------------------------------

    def get(self, source: str) -> Optional[CompiledArtifact]:
        """The cached artifact for ``source``, or None (counted miss)."""
        key = cache_key(source)
        with self._lock:
            artifact = self._memory.get(key)
            if artifact is not None:
                self._memory.move_to_end(key)
        if artifact is not None:
            _OBS_HITS.inc()
            return artifact
        artifact = self._load_disk(key)
        if artifact is not None:
            self._remember(key, artifact)
            _OBS_HITS.inc()
            return artifact
        _OBS_MISSES.inc()
        return None

    def put(self, source: str, artifact: CompiledArtifact) -> None:
        """Store in memory, and on disk when the disk layer works."""
        key = cache_key(source)
        self._remember(key, artifact)
        self._store_disk(key, artifact)

    def _remember(self, key: str, artifact: CompiledArtifact) -> None:
        with self._lock:
            self._memory[key] = artifact
            self._memory.move_to_end(key)
            while len(self._memory) > self.capacity:
                self._memory.popitem(last=False)

    def _load_disk(self, key: str) -> Optional[CompiledArtifact]:
        path = self._path(key)
        try:
            with open(path, encoding="utf-8") as f:
                envelope = json.load(f)
            payload = envelope["payload"]
            if envelope.get("sha256") != _payload_digest(payload):
                raise ValueError(f"artifact checksum mismatch: {path}")
            return artifact_from_json(payload)
        except FileNotFoundError:
            return None
        except Exception:
            # Corrupt / truncated / stale / unreadable entry: count it,
            # drop it, and recompile — never trust a bad byte.
            _OBS_DISK_ERRORS.inc()
            try:
                os.unlink(path)
            except OSError:
                pass
            return None

    def _store_disk(self, key: str, artifact: CompiledArtifact) -> None:
        directory = self._dir()
        try:
            os.makedirs(directory, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
            try:
                # One canonical encoding, hashed and written as is
                # (json.dump to a file would re-encode in pure Python).
                blob = _canonical(artifact_to_json(artifact))
                with os.fdopen(fd, "w", encoding="utf-8") as f:
                    f.write(f'{{"sha256":"{_digest(blob)}","payload":{blob}}}')
                os.replace(tmp, self._path(key))
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except Exception:
            return  # read-only/full disk degrades to a memory-only cache
        _OBS_STORES.inc()

    # -- maintenance -------------------------------------------------------

    def prewarm_plan(self, limit: int = 8) -> tuple[str, ...]:
        """Keys of the most recent disk artifacts, newest first.

        A *plan* is cheap (one ``listdir`` + ``stat``s, no JSON loads)
        and picklable, so a supervisor can compute it once and ship the
        same key list to every spawned/recycled/respawned worker —
        rather than each fresh worker re-scanning the cache directory
        from scratch (see :meth:`prewarm_from_keys`).
        """
        directory = self._dir()
        try:
            names = [
                n for n in os.listdir(directory) if n.endswith(".json")
            ]
        except OSError:
            return ()
        def mtime(name: str) -> float:
            try:
                return os.path.getmtime(os.path.join(directory, name))
            except OSError:
                return 0.0
        names.sort(key=mtime, reverse=True)
        return tuple(
            name[: -len(".json")] for name in names[: max(0, limit)]
        )

    def prewarm_from_keys(self, keys) -> int:
        """Lift the given disk artifacts into memory (best effort).

        Counted under ``exec.cache.prewarm``, not as hits; missing or
        corrupt entries are skipped — a stale plan costs nothing but
        the attempted loads.
        """
        loaded = 0
        for key in keys:
            with self._lock:
                if key in self._memory:
                    continue
            artifact = self._load_disk(key)
            if artifact is not None:
                self._remember(key, artifact)
                _OBS_PREWARM.inc()
                loaded += 1
        return loaded

    def prewarm_from_disk(self, limit: int = 8) -> int:
        """Load the most recent disk artifacts into memory (best effort).

        Workers call this at spawn so the first job for a recently-seen
        program is a memory hit; equivalent to executing a fresh
        :meth:`prewarm_plan` immediately.
        """
        return self.prewarm_from_keys(self.prewarm_plan(limit))

    def clear(self, disk: bool = False) -> None:
        """Drop the memory layer; with ``disk=True`` also the disk layer."""
        with self._lock:
            self._memory.clear()
        if disk:
            directory = self._dir()
            try:
                for name in os.listdir(directory):
                    if name.endswith(".json"):
                        try:
                            os.unlink(os.path.join(directory, name))
                        except OSError:
                            pass
            except OSError:
                pass

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)


#: The process-wide cache every caller shares (forked svc workers
#: inherit its memory layer for free, like the hash-consed term table).
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
