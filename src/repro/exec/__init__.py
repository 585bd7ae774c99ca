"""The compiled execution tier (ROADMAP item: warm-path performance).

Two layers sit between the Fast front end and the STTR interpreter:

* :mod:`repro.exec.compiled` — closure lowering.  An
  :class:`~repro.transducers.sttr.STTR` is compiled once into a
  :class:`~repro.exec.compiled.CompiledSTTR`: per-(state, symbol)
  dispatch tables indexed by minterm id (the sign vector of the
  symbol's distinct guards), so each node evaluates every distinct
  guard at most once, and rule bodies lowered to pre-resolved
  output-assembly closures.  ``Transducer.apply`` routes through the
  compiled form; the interpreter in :mod:`repro.transducers.run` stays
  the reference oracle (property-tested equivalent).

* :mod:`repro.exec.cache` — the artifact cache.  A whole compiled
  program environment (:mod:`repro.exec.artifact`) is kept in an
  in-process LRU keyed by the program source, which forked svc workers
  inherit, so two consecutive jobs for the same program never parse
  twice.

Both layers are observable (``exec.*`` metrics, DESIGN.md §8) and
optional: ``REPRO_EXEC=interp`` forces the interpreter,
``REPRO_CACHE=off`` disables the artifact cache (see
:mod:`repro.exec.config`).
"""

from .artifact import CompiledArtifact, build_artifact
from .cache import ArtifactCache, DEFAULT_CACHE, cached_artifact
from .compiled import CompiledSTTR, run_compiled_checked

__all__ = [
    "ArtifactCache",
    "CompiledArtifact",
    "CompiledSTTR",
    "DEFAULT_CACHE",
    "build_artifact",
    "cached_artifact",
    "run_compiled_checked",
]
