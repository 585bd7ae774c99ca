"""The compiled execution tier's artifact cache: cold vs. warm cost.

Two measurements:

* **Interleaved cold/warm single runs** — the same program through
  ``run_program`` with the cache cleared before every cold run and
  left warm for the paired warm run.  Cold pays parse + compile + a
  fresh solver; warm is a dict lookup plus evaluation against the
  cached environment.  Gate: warm p50 strictly
  below cold p50.

* **Warm-pool batch over a duplicated corpus** — ``fast batch``'s
  engine over 12 files carrying 3 distinct programs (4 copies each),
  run twice in one process.  The supervisor pre-warms every shared
  source once (3 compiles, not 12) before it forks the pool, workers
  inherit the supervisor's cache, and the second batch never parses at
  all.

The benchmark scopes ``REPRO_CACHE=on`` itself because
``benchmarks/conftest.py`` runs everything else cache-off to keep the
older gated baselines honest.

Counters under ``--obs-json`` are deterministic on the supervisor side
(``fast.parse``, ``exec.cache.miss``) and are gated in
``BENCH_baseline.json`` under ``exec_compile_cache``.

Run directly for a quick report::

    PYTHONPATH=src python benchmarks/bench_exec_compile_cache.py
"""

from __future__ import annotations

import contextlib
import os
import statistics
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.exec.cache import DEFAULT_CACHE  # noqa: E402
from repro.fast.evaluator import run_program  # noqa: E402
from repro.obs import metrics as obs_metrics  # noqa: E402
from repro.svc import ServiceConfig  # noqa: E402
from repro.svc.batch import run_batch  # noqa: E402

#: Interleaved cold/warm rounds; fixed so gated counters are exact.
ROUNDS = int(os.environ.get("EXEC_CACHE_ROUNDS", 6))

_EXAMPLES = os.path.join(
    os.path.dirname(__file__), "..", "examples", "fast_programs"
)

with open(os.path.join(_EXAMPLES, "list_analysis.fast")) as _f:
    PROGRAM = _f.read()

#: Three distinct cheap programs for the duplicated batch corpus.
VARIANTS = [
    """\
type BT[v : Int]{{L(0), N(2)}}
lang pos : BT {{ N(l, r) where (v > {k}) given (pos l) (pos r) | L() }}
assert-false (is-empty pos)
""".format(k=k)
    for k in (0, 1, 2)
]
COPIES = 4


@contextlib.contextmanager
def cache_env():
    """Scoped REPRO_CACHE=on over an empty cache, state restored."""
    saved = os.environ.get("REPRO_CACHE")
    os.environ["REPRO_CACHE"] = "on"
    DEFAULT_CACHE.clear()
    try:
        yield
    finally:
        DEFAULT_CACHE.clear()
        if saved is None:
            os.environ.pop("REPRO_CACHE", None)
        else:
            os.environ["REPRO_CACHE"] = saved


def measure_cold_warm() -> dict[str, float]:
    """Interleaved cold/warm runs of the Figure 8 list-analysis program."""
    cold: list[float] = []
    warm: list[float] = []
    with cache_env():
        for _ in range(ROUNDS):
            DEFAULT_CACHE.clear()
            t0 = time.perf_counter()
            run_program(PROGRAM)
            cold.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            run_program(PROGRAM)
            warm.append(time.perf_counter() - t0)
    return {
        "rounds": float(ROUNDS),
        "cold_p50_ms": statistics.median(cold) * 1e3,
        "cold_p95_ms": obs_metrics.percentile(sorted(cold), 0.95) * 1e3,
        "warm_p50_ms": statistics.median(warm) * 1e3,
        "warm_p95_ms": obs_metrics.percentile(sorted(warm), 0.95) * 1e3,
    }


def measure_batch() -> dict[str, float]:
    """Two batches over a duplicated corpus against one cache."""
    counter = obs_metrics.REGISTRY.counter
    with tempfile.TemporaryDirectory() as corpus_dir:
        for v, source in enumerate(VARIANTS):
            for c in range(COPIES):
                path = os.path.join(corpus_dir, f"v{v}_copy{c}.fast")
                with open(path, "w") as f:
                    f.write(source)
        with cache_env():
            stores_before = counter("exec.cache.store").snapshot()
            hits_before = counter("exec.cache.hit").snapshot()
            config = ServiceConfig(jobs=2)
            t0 = time.perf_counter()
            first = run_batch([corpus_dir], config=config)
            first_wall = time.perf_counter() - t0
            first_stores = counter("exec.cache.store").snapshot() - stores_before
            t0 = time.perf_counter()
            second = run_batch([corpus_dir], config=config)
            second_wall = time.perf_counter() - t0
            prewarm_hits = counter("exec.cache.hit").snapshot() - hits_before
    for report in (first, second):
        undecided = [
            r.job_id
            for r in report.results
            if r.outcome not in ("PROVED", "REFUTED")
        ]
        assert not undecided, f"undecided jobs in a fault-free batch: {undecided}"
    return {
        "files": float(len(VARIANTS) * COPIES),
        "distinct": float(len(VARIANTS)),
        "first_wall_ms": first_wall * 1e3,
        "second_wall_ms": second_wall * 1e3,
        "first_p50_ms": first.latency()["run"]["p50_ms"],
        "second_p50_ms": second.latency()["run"]["p50_ms"],
        "supervisor_stores": float(first_stores),
        "supervisor_prewarm_hits": float(prewarm_hits),
    }


def render(single: dict[str, float], batch: dict[str, float]) -> str:
    return "\n".join(
        [
            f"single program (list_analysis.fast), {ROUNDS} interleaved rounds:",
            f"  cold  p50 {single['cold_p50_ms']:7.1f} ms   "
            f"p95 {single['cold_p95_ms']:7.1f} ms   (parse+compile+fresh solver)",
            f"  warm  p50 {single['warm_p50_ms']:7.1f} ms   "
            f"p95 {single['warm_p95_ms']:7.1f} ms   (artifact-cache hit)",
            f"batch: {int(batch['files'])} files, "
            f"{int(batch['distinct'])} distinct programs, warm pool x2:",
            f"  first  wall {batch['first_wall_ms']:7.0f} ms   "
            f"job p50 {batch['first_p50_ms']:6.1f} ms   "
            f"(supervisor compiled {int(batch['supervisor_stores'])} shared sources)",
            f"  second wall {batch['second_wall_ms']:7.0f} ms   "
            f"job p50 {batch['second_p50_ms']:6.1f} ms   "
            f"(prewarm hits: {int(batch['supervisor_prewarm_hits'])})",
        ]
    )


def test_exec_compile_cache(report):
    single = measure_cold_warm()
    batch = measure_batch()
    report("compiled-tier artifact cache (cold vs warm)", render(single, batch))
    # The whole point of the tier: a warm run never re-does front-end work.
    assert single["warm_p50_ms"] < single["cold_p50_ms"], (
        f"warm p50 {single['warm_p50_ms']:.1f} ms is not below cold p50 "
        f"{single['cold_p50_ms']:.1f} ms — the cache is not paying for itself"
    )
    # Dedup: 12 files, 3 distinct sources, exactly 3 supervisor compiles.
    assert batch["supervisor_stores"] == batch["distinct"]
    # The second batch's prewarm finds every shared source already cached.
    assert batch["supervisor_prewarm_hits"] >= batch["distinct"]


if __name__ == "__main__":  # pragma: no cover
    single = measure_cold_warm()
    batch = measure_batch()
    print(render(single, batch))
