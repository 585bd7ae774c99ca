"""End-to-end artifact cache smoke through the real CLI.

Two identical ``fast batch`` runs over the example corpus share one
cache directory.  The second (warm) run must be served entirely from
cached artifacts — zero parses and zero compiles anywhere, supervisor
or workers, and nonzero cache hits — while producing the exact same
verdicts as the cold run that filled the cache.
"""

import json
import os
import pathlib
import subprocess
import sys

import repro

ROOT = pathlib.Path(__file__).resolve().parents[2]
EXAMPLES = ROOT / "examples" / "fast_programs"


def _batch(tmp_path, cache_dir, name):
    """Run ``fast batch`` once; return (results JSON, metrics snapshot)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p
        for p in (
            str(pathlib.Path(repro.__file__).resolve().parents[1]),
            env.get("PYTHONPATH"),
        )
        if p
    )
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    obs_path = tmp_path / f"{name}.obs.json"
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.fast.cli",
            "batch",
            str(EXAMPLES),
            "--jobs",
            "2",
            "--json",
            "--profile-json",
            str(obs_path),
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    # 1 = some assertion failed: sanitizer_buggy.fast is meant to.
    assert proc.returncode in (0, 1), proc.stderr
    out = json.loads(proc.stdout)
    metrics = json.loads(obs_path.read_text(encoding="utf-8"))["metrics"]
    return out, metrics


def test_warm_batch_is_served_from_the_cache(tmp_path):
    cache_dir = tmp_path / "shared-cache"
    cold_out, cold = _batch(tmp_path, cache_dir, "cold")
    warm_out, warm = _batch(tmp_path, cache_dir, "warm")

    assert cold.get("fast.parse", 0) > 0, cold.get("fast.parse")
    assert warm.get("fast.parse", 0) == 0, warm.get("fast.parse")
    assert warm.get("fast.compile", 0) == 0, warm.get("fast.compile")
    assert warm.get("exec.cache.hit", 0) > 0, warm.get("exec.cache.hit")

    cold_v = {r["job_id"]: r["outcome"] for r in cold_out["results"]}
    warm_v = {r["job_id"]: r["outcome"] for r in warm_out["results"]}
    assert cold_v
    assert cold_v == warm_v
