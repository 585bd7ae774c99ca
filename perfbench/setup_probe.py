"""One cold set-up of a workload, timed in a fresh process.

Prints the time from before the program is imported until the workload
is ready for its first measured operation, in reference seconds (see
``refclock.py``; the reference is timed before and after the set-up):

* sanitize: the sanitizer compiled into a composed transducer;
* analyze: the compiler and evaluator imported;
* serve: the serving loop started and its first answer written.

Run by ``run.py`` with ``REPRO_CACHE_DIR`` pointing at an empty
directory, as ``python3 perfbench/setup_probe.py <workload>``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import refclock  # noqa: E402


def _reference() -> float:
    return statistics.median(refclock.reference_seconds() for _ in range(5))


BEFORE = _reference()
START = time.perf_counter()

import inputs  # noqa: E402

_PING = """\
type BT[v : Int]{L(0), N(2)}
lang pos : BT { N(l, r) where (v > 0) given (pos l) (pos r) | L() }
assert-false (is-empty pos)
"""


def sanitize() -> float:
    from repro.apps.html import fast_sanitizer_source
    from repro.exec.cache import cached_artifact

    cached_artifact(fast_sanitizer_source(inputs.SANITIZE_POLICY)).env.transducers["rem_esc"]
    return time.perf_counter()


def analyze() -> float:
    import repro.exec.cache  # noqa: F401
    import repro.fast.evaluator  # noqa: F401

    return time.perf_counter()


def serve() -> float:
    from repro.svc import RequestLimits, ServiceConfig, serve_lines

    answered: list[float] = []

    class Out:
        def write(self, text: str) -> None:
            if not answered:
                answered.append(time.perf_counter())

        def flush(self) -> None:
            pass

    line = json.dumps({"id": "ping", "kind": "run", "source": _PING})
    with open(os.devnull, "w") as err:
        serve_lines(iter([line]), Out(), ServiceConfig(jobs=1), limits=RequestLimits(), err=err)
    return answered[0]


if __name__ == "__main__":
    ready = {"sanitize": sanitize, "analyze": analyze, "serve": serve}[sys.argv[1]]()
    print((ready - START) * refclock.scale(BEFORE, _reference()))
