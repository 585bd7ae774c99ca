"""Timing in reference seconds, which cancels the host's speed swings.

The shared virtual machines this benchmark runs on change speed by up to
a half over seconds to minutes: a fixed pure-Python loop shows it, with
no other process of the benchmark running.  Raw wall times then swing
from run to run far more than any change to the program would move them.

So the benchmark times a fixed reference computation right before and
right after every measured operation, and reports the operation's wall
time divided by the mean of those two reference times, times
:data:`REF_SECONDS`.  The result is the operation's time on a host that
runs the reference in exactly ``REF_SECONDS``.  A faster program reads
fewer reference seconds; a host that slows everything down alike leaves
the reading unchanged.
"""

from __future__ import annotations

import gc
import time

#: The duration one reference computation stands for.
REF_SECONDS = 1e-3


def _reference_work() -> int:
    """A fixed mix of the interpreter work the program does: dict
    lookups and stores, small allocations, string building."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(2000):
        key = (i * 7919) % 1009
        table[key] = table.get(key, 0) + i
        acc += len(str(i)) + len((i, key, acc))
    return acc + len(table)


def reference_seconds() -> float:
    """Wall time of one reference computation.  The garbage collector is
    off meanwhile, so the reference never pays for the workload's
    garbage."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _reference_work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(before: float, after: float) -> float:
    """Factor from wall seconds to reference seconds for an interval
    bracketed by reference times ``before`` and ``after``."""
    return 2 * REF_SECONDS / (before + after)
