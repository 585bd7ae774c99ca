"""Worker-lifecycle endurance smoke through the real CLI.

One minute of paced ``run`` requests into ``fast serve --stdin-jsonl``
with tight recycle thresholds (``--worker-max-jobs 5``,
``--worker-max-rss 64M``) and seeded worker leak chaos.  Every request
must be answered exactly once, no verdict may flip, the pool must
recycle and respawn workers repeatedly, and the process must drain to
exit 0, leaving a non-empty Perfetto trace of the recycles.

Marked ``slow``: it runs only under ``pytest --run-slow``.  The CI
endurance-smoke job runs it with ``--basetemp`` and uploads the
profile and trace it leaves there.
"""

import json
import os
import pathlib
import subprocess
import sys
import threading
import time

import pytest

import repro

SOAK_SECONDS = 60.0

#: Half the jobs pin 8 MiB and then answer correctly: a slow leak, which
#: the 64M RSS threshold exists for.
CHAOS = "seed=7,worker_leak_rate=0.5,worker_leak_bytes=8388608"

PROGRAM = (
    "type BT[v : Int]{L(0), N(2)}\n"
    "lang pos : BT { N(l, r) where (v > 0) "
    "given (pos l) (pos r) | L() }\n"
    "assert-false (is-empty pos)\n"
)


@pytest.mark.slow
def test_recycle_soak_under_leak_chaos(tmp_path):
    obs_path = tmp_path / "endurance.obs.json"
    trace_path = tmp_path / "endurance.trace.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p
        for p in (
            str(pathlib.Path(repro.__file__).resolve().parents[1]),
            env.get("PYTHONPATH"),
        )
        if p
    )
    env["REPRO_CHAOS"] = CHAOS
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.fast.cli", "serve", "--stdin-jsonl",
         "--jobs", "2", "--worker-max-jobs", "5", "--worker-max-rss", "64M",
         "--profile-json", str(obs_path), "--trace-json", str(trace_path)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )

    replies = {}

    def reader():
        for line in proc.stdout:
            doc = json.loads(line)
            replies[doc["id"]] = doc

    t = threading.Thread(target=reader, daemon=True)
    t.start()

    sent = 0
    deadline = time.monotonic() + SOAK_SECONDS
    while time.monotonic() < deadline:
        for _ in range(10):
            proc.stdin.write(json.dumps(
                {"id": f"soak-{sent}", "kind": "run", "source": PROGRAM}
            ) + "\n")
            sent += 1
        proc.stdin.flush()
        # Pace the stream so the soak spans the whole minute instead of
        # queueing one giant burst.
        time.sleep(0.25)

    proc.stdin.close()
    code = proc.wait(timeout=300)
    t.join(timeout=120)

    # Exactly one response per request, and a clean drain.
    assert code == 0, f"serve exited {code}"
    assert len(replies) == sent, (len(replies), sent)

    # Verdict stability: leak chaos pins memory but answers honestly;
    # nothing may flip to REFUTED/ERROR.
    outcomes = {}
    for doc in replies.values():
        key = doc.get("outcome", "?")
        outcomes[key] = outcomes.get(key, 0) + 1
    assert outcomes.get("REFUTED", 0) == 0, outcomes
    assert outcomes.get("ERROR", 0) == 0, outcomes
    assert outcomes.get("PROVED", 0) > 0, outcomes

    # The thresholds really fired, repeatedly.
    m = json.loads(obs_path.read_text(encoding="utf-8"))["metrics"]
    assert m.get("svc.recycles", 0) >= 3, m.get("svc.recycles")
    assert m.get("svc.gate.unanswered", 0) == 0, m
    assert m.get("svc.worker_spawns", 0) >= 3, m

    # The trace is Perfetto-loadable evidence of the recycles.
    trace = json.loads(trace_path.read_text(encoding="utf-8"))["traceEvents"]
    assert trace, "empty endurance trace"
