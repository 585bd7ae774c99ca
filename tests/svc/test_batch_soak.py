"""Batch soak over the example corpus through the real CLI.

Two ``fast batch examples/fast_programs`` runs as subprocesses:

* fault-free, with ``--profile-json``/``--trace-json``: the JSON report,
  the merged cross-process trace and the host profile must all show the
  workers' work, and the ``svc.*`` counters must match the
  ``svc_batch_examples`` baseline exactly (``repro.obs.diff``, slack 0);
* under seed-11 worker-kill chaos with retries: killed attempts retry,
  and no decided verdict (PROVED/REFUTED) flips.
"""

import json
import os
import pathlib
import subprocess
import sys

import repro
from repro.obs import diff as obs_diff

ROOT = pathlib.Path(__file__).resolve().parents[2]

#: Seed 11 SIGKILLs the first attempt of two of the five programs
#: (fault schedules are a pure function of (seed, job_id, attempt), and
#: the job ids are the relative paths, so this is reproducible anywhere).
CHAOS = "seed=11,worker_kill_rate=0.1"


def _batch(*flags, chaos=None):
    """``fast batch examples/fast_programs --jobs 4 --json`` from the repo
    root; returns (exit code, parsed JSON report)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p
        for p in (
            str(pathlib.Path(repro.__file__).resolve().parents[1]),
            env.get("PYTHONPATH"),
        )
        if p
    )
    env.pop("REPRO_CHAOS", None)
    if chaos is not None:
        env["REPRO_CHAOS"] = chaos
    proc = subprocess.run(
        [sys.executable, "-m", "repro.fast.cli", "batch",
         "examples/fast_programs", "--jobs", "4", "--json", *flags],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    return proc.returncode, json.loads(proc.stdout)


def _worker_tracks(trace_path):
    """Balanced B/E event lists per worker pid (pid 1 is the host)."""
    trace = json.loads(trace_path.read_text(encoding="utf-8"))["traceEvents"]
    names = {str(e.get("name", "")) for e in trace}
    assert "svc.pool.run" in names and "svc.job" in names, names
    tracks = {}
    for e in trace:
        if e.get("ph") in ("B", "E") and e.get("pid") != 1:
            tracks.setdefault(e["pid"], []).append(e)
    return tracks


def test_batch_soak(tmp_path):
    obs_path = tmp_path / "svc-batch.obs.json"
    trace_path = tmp_path / "svc-batch.trace.json"
    code, doc = _batch(
        "--profile-json", str(obs_path), "--trace-json", str(trace_path)
    )
    # sanitizer_buggy.fast FAILs by design; nothing else may.
    assert code == 1, doc["summary"]
    assert doc["schema"] == "repro.svc.batch/v3", doc["schema"]
    s = doc["summary"]
    assert s["refuted"] == 1 and s["exit_code"] == 1, s
    assert s["unknown"] == 0 and s["error"] == 0, s
    # Per-kind latency quantiles ship in the JSON report.
    lat = doc["latency"]["run"]
    assert lat["count"] == 5 and lat["retries"] == 0, lat
    assert 0 < lat["p50_ms"] <= lat["p95_ms"] <= lat["p99_ms"], lat

    # Cross-process telemetry: one Perfetto track per worker pid, each
    # with balanced B/E nesting rooted at svc.job, enclosing
    # worker-side spans.
    tracks = _worker_tracks(trace_path)
    assert len(tracks) >= 2, f"want >=2 worker tracks: {list(tracks)}"
    for pid, evs in tracks.items():
        depth = 0
        for e in evs:
            if e["ph"] == "B":
                if depth == 0:
                    assert e["name"] == "svc.job", (pid, e["name"])
                depth += 1
            else:
                depth -= 1
            assert depth >= 0, f"unbalanced worker track {pid}"
        assert depth == 0, f"unbalanced worker track {pid}"
        inner = {e["name"] for e in evs if e["name"] != "svc.job"}
        assert inner, f"worker track {pid} has no worker-side spans"

    # Worker metric deltas folded into the host profile: the supervisor
    # runs no solver, so nonzero solver.* counters prove worker-side
    # work was accounted.
    prof = json.loads(obs_path.read_text(encoding="utf-8"))["metrics"]
    assert prof["solver.sat_queries"] > 0, prof

    # The gated svc.* counters match the baseline exactly.
    assert obs_diff.main([
        "--baseline", str(ROOT / "BENCH_baseline.json"),
        "--bench", "svc_batch_examples",
        "--snapshot", str(obs_path),
        "--slack", "0",
    ]) == 0

    # Worker kills must not flip verdicts.
    code, chaos = _batch("--retries", "3", chaos=CHAOS)
    assert code <= 2, chaos["summary"]
    base = {r["job_id"]: r["outcome"] for r in doc["results"]}
    after = {r["job_id"]: r["outcome"] for r in chaos["results"]}
    assert set(base) == set(after)
    for job, outcome in after.items():
        if outcome in ("PROVED", "REFUTED"):
            assert outcome == base[job], (job, base[job], outcome)
    # Seed 11 really kills workers: the soak is vacuous unless at least
    # one job needed a retry to reach its verdict.
    assert chaos["summary"]["retried"] >= 1, chaos["summary"]
