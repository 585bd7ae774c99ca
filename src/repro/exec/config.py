"""Environment knobs for the compiled execution tier.

All knobs are read at *call* time, not import time, so tests (and the
benchmark harness) can flip them per scenario without reimporting:

* ``REPRO_EXEC`` — ``compiled`` (default) routes ``Transducer.apply``
  through the closure-lowered form; ``interp`` forces the reference
  interpreter.
* ``REPRO_CACHE`` — ``off`` / ``0`` / ``no`` disables the artifact
  cache entirely (every request parses and compiles from source).
"""

from __future__ import annotations

import os

_OFF = ("off", "0", "no", "false")


def compiled_enabled() -> bool:
    """Route transducer execution through the compiled tier?"""
    return os.environ.get("REPRO_EXEC", "compiled").lower() != "interp"


def cache_enabled() -> bool:
    """Is the artifact cache on?"""
    return os.environ.get("REPRO_CACHE", "on").lower() not in _OFF

