"""Benchmark of the Fast reproduction: sanitize, analyze and serve.

Usage, from the repository root::

    python3 perfbench/run.py --workload sanitize --seed 1 --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``sanitize`` -- Section 5.1: synthetic HTML pages from 1.25 to 20 KB
  sanitized by the composed Fast transducer that removes ``script``,
  whose compiled program the artifact cache holds.  Outputs must equal
  the hand-fused DOM sanitizer's.
* ``analyze`` -- Sections 2, 5.2 and 5.4: a distinct Fast program per
  operation (map/filter lists, sanitizer safety, AR tagger conflicts),
  compiled and its assertions checked.  No cache can help.  Verdicts
  must equal the answers known from how each program was built.
* ``serve`` -- requests through the ``fast serve --stdin-jsonl`` serving
  loop with one worker, each repeating a program of a 24-program corpus
  that the worker's artifact cache holds.  Verdicts are checked as for
  ``analyze``.

Each is a closed loop with a single caller.  Every time is read in
reference seconds, which cancels the host's speed swings (see
``refclock.py``).  With ``--trace 0`` the program's observability is off
and the last line reports the end-to-end metrics: median and 90th
percentile latency per operation, operations per second of cycle time
(see ``workloads.py``), and ``setup_s``, the median of five cold
set-ups, each in a fresh process (see ``setup_probe.py``).  With
``--trace 1`` observability is on and the last line reports the
per-layer table of ``workloads.py`` instead, as mean milliseconds per
operation, plus the program's own counts; a readable copy of the table
goes to standard error.  Units name the reference clock: ``ref_ms`` is a
reference millisecond.  ``setup_s`` keeps the unit ``s`` but is read in
reference seconds too.

The program runs from ``src/`` as checked out; nothing is built.  All
files the run writes (the artifact cache, temporary files) live in a
fresh directory under ``.bench_build/`` that is removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60

#: Environment variables that change the program's behaviour; the
#: benchmark measures its defaults.
_PROGRAM_ENV = (
    "REPRO_CHAOS",
    "REPRO_EXEC",
    "REPRO_CACHE",
    "REPRO_CACHE_DIR",
    "REPRO_OBS",
    "XDG_CACHE_HOME",
)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def setup_seconds(workload: str, workdir: Path) -> float:
    """Median of several cold set-ups, each in its own process."""
    times = []
    for i in range(SETUP_REPEATS):
        env = dict(os.environ, REPRO_CACHE_DIR=str(workdir / f"setup-{i}"))
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=SETUP_TIMEOUT_S, check=True,
        )
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def end_to_end(tally, setup_s: float) -> dict:
    ops = tally.scaled()
    lat = [latency for latency, _, _ in ops]
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8]
    return {
        "latency_p50_ms": _metric(statistics.median(lat) * 1e3, "ref_ms"),
        "latency_p90_ms": _metric(p90 * 1e3, "ref_ms"),
        "throughput_ops_s": _metric(len(ops) / sum(cycle for _, cycle, _ in ops), "1/ref_s"),
        "setup_s": _metric(setup_s, "s"),
    }


def per_layer(tally, workload: str) -> dict:
    from workloads import LAYERS

    ops = tally.scaled()
    n = len(ops)
    mean_ms = sum(latency for latency, _, _ in ops) / n * 1e3
    rows = {layer: sum(layers.get(layer, 0.0) for _, _, layers in ops) / n * 1e3 for layer in LAYERS}
    rest = max(0.0, mean_ms - sum(rows.values()))
    hits, misses = tally.counters["exec.cache.hit"], tally.counters["exec.cache.miss"]
    lines = [f"layer table, {workload}: mean reference ms per operation over {n} operations"]
    lines += [f"  {layer:<9} {ms:10.4f}" for layer, ms in rows.items()]
    lines += [f"  {'unattr':<9} {rest:10.4f}", f"  {'total':<9} {mean_ms:10.4f}"]
    print("\n".join(lines), file=sys.stderr)
    metrics = {f"{layer}_ms": _metric(ms, "ref_ms") for layer, ms in rows.items()}
    metrics["unattributed_pct"] = _metric(100.0 * rest / mean_ms, "%")
    metrics["solver_queries"] = _metric(tally.counters["solver.sat_queries"] / n, "count")
    metrics["artifact_hit_pct"] = _metric(100.0 * hits / max(1, hits + misses), "%")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sanitize", "analyze", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {SRC / 'repro'}; run from a checkout", file=sys.stderr)
        return 2
    for var in _PROGRAM_ENV:
        os.environ.pop(var, None)
    workdir = ROOT / ".bench_build" / f"perfbench-{os.getpid()}"
    (workdir / "tmp").mkdir(parents=True)
    os.environ["REPRO_CACHE_DIR"] = str(workdir / "cache")
    os.environ["TMPDIR"] = str(workdir / "tmp")
    sys.path[:0] = [str(SRC), str(HERE)]
    try:
        import workloads

        tally = workloads.WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
        if args.trace:
            metrics = per_layer(tally, args.workload)
        else:
            metrics = end_to_end(tally, setup_seconds(args.workload, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
