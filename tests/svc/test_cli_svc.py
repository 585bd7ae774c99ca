"""``fast batch`` / ``fast serve`` through the real CLI entry point."""

from __future__ import annotations

import io
import json

import pytest

from repro import obs
from repro.fast.cli import EXIT_ERROR, EXIT_OK, main

PASSING = """\
type BT[v : Int]{L(0), N(2)}
lang pos : BT { N(l, r) where (v > 0) given (pos l) (pos r) | L() }
assert-false (is-empty pos)
"""

FAILING = """\
type BT[v : Int]{L(0), N(2)}
lang pos : BT { N(l, r) where (v > 0) given (pos l) (pos r) | L() }
assert-true (is-empty pos)
"""

BROKEN = "type )))"


@pytest.fixture(autouse=True)
def restore_obs():
    yield
    obs.enabled(False)
    obs.reset()


@pytest.fixture()
def programs(tmp_path):
    def write(sources: dict[str, str]) -> str:
        for name, source in sources.items():
            (tmp_path / name).write_text(source)
        return str(tmp_path)

    return write


class TestBatchExitCodes:
    def test_all_passing_is_0(self, programs):
        d = programs({"a.fast": PASSING, "b.fast": PASSING})
        assert main(["batch", d, "--jobs", "2"]) == 0

    def test_any_failing_assertion_is_1(self, programs):
        d = programs({"a.fast": PASSING, "b.fast": FAILING})
        assert main(["batch", d, "--jobs", "2"]) == 1

    def test_errors_without_failures_is_2(self, programs):
        d = programs({"a.fast": PASSING, "b.fast": BROKEN})
        assert main(["batch", d, "--jobs", "2"]) == 2

    def test_broken_file_does_not_mask_failures(self, programs):
        d = programs({"a.fast": FAILING, "b.fast": BROKEN})
        assert main(["batch", d, "--jobs", "2"]) == 1


class TestBatchOutput:
    def test_render_lists_every_file(self, programs, capsys):
        d = programs({"a.fast": PASSING, "b.fast": FAILING})
        main(["batch", d, "--jobs", "2"])
        out = capsys.readouterr().out
        assert "[PASS   ]" in out and "[FAIL   ]" in out
        assert "1 pass, 1 fail, 0 unknown, 0 error (2 programs)" in out

    def test_json_schema_and_summary(self, programs, capsys):
        d = programs({"a.fast": PASSING, "b.fast": BROKEN})
        main(["batch", d, "--json", "--jobs", "2"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.svc.batch/v3"
        assert doc["summary"]["proved"] == 1
        assert doc["summary"]["error"] == 1
        assert doc["summary"]["retries"] == 0
        assert doc["summary"]["exit_code"] == 2
        assert len(doc["results"]) == 2

    def test_json_latency_block_has_quantiles(self, programs, capsys):
        d = programs({"a.fast": PASSING, "b.fast": PASSING})
        main(["batch", d, "--json", "--jobs", "2"])
        doc = json.loads(capsys.readouterr().out)
        lat = doc["latency"]["run"]
        assert lat["count"] == 2
        assert lat["retries"] == 0
        assert 0 < lat["p50_ms"] <= lat["p95_ms"] <= lat["p99_ms"]
        assert lat["p99_ms"] <= lat["max_ms"]
        assert "breakers" not in doc

    def test_stats_flag_prints_table_to_stderr(self, programs, capsys):
        d = programs({"a.fast": PASSING})
        main(["batch", d, "--jobs", "1", "--stats"])
        err = capsys.readouterr().err
        assert "== batch stats ==" in err
        assert "run" in err and "p95" in err
        assert "breakers" not in err

    def test_per_job_budget_flags_flow_to_workers(self, programs, capsys):
        d = programs({"a.fast": PASSING})
        assert main(["batch", d, "--max-steps", "1", "--jobs", "1"]) == 0
        out = capsys.readouterr().out
        assert "UNKNOWN" in out  # budget exhausted inside the worker


class TestBatchObservability:
    def test_profile_json_has_svc_counters_and_spans(
        self, programs, tmp_path
    ):
        d = programs({"a.fast": PASSING, "b.fast": FAILING})
        prof = tmp_path / "prof.json"
        main(["batch", d, "--jobs", "2", "--profile-json", str(prof)])
        doc = json.loads(prof.read_text())
        assert doc["metrics"]["svc.jobs_submitted"] == 2
        assert doc["metrics"]["svc.jobs_completed"] == 2
        assert doc["metrics"]["svc.jobs_failed"] == 1
        assert doc["metrics"]["svc.worker_spawns"] >= 1
        assert doc["metrics"]["svc.job_latency"]["count"] == 2

        def span_names(node, acc):
            acc.add(node["name"])
            for child in node.get("children", []):
                span_names(child, acc)
            return acc

        names = set()
        for root in doc["trace"]:
            span_names(root, names)
        assert "svc.pool.run" in names
        assert "svc.job" in names

    def test_perfetto_trace_has_svc_events(self, programs, tmp_path):
        d = programs({"a.fast": PASSING})
        trace = tmp_path / "trace.json"
        main(["batch", d, "--jobs", "1", "--trace-json", str(trace)])
        events = json.loads(trace.read_text())
        if isinstance(events, dict):
            events = events["traceEvents"]
        names = {str(e.get("name", "")) for e in events}
        assert any(n.startswith("svc.pool") for n in names)
        assert "svc.worker.spawn" in names
        assert "svc.job" in names

    def test_flamegraph_folds_worker_spans_under_worker_job(
        self, programs, tmp_path
    ):
        d = programs({"a.fast": PASSING})
        folded = tmp_path / "batch.folded"
        main(["batch", d, "--jobs", "1", "--flamegraph", str(folded)])
        stacks = [line.rsplit(" ", 1)[0] for line in folded.read_text().splitlines()]
        # The worker's track folds on its own, rooted at its svc.job.
        assert "svc.job;explain_program" in stacks
        assert any(s.startswith("svc.pool.run") for s in stacks)


class TestServeCommand:
    def test_requires_stdin_jsonl_flag(self, capsys):
        assert main(["serve"]) == EXIT_ERROR
        assert "--stdin-jsonl" in capsys.readouterr().err

    def test_serves_jsonl_from_stdin(self, monkeypatch, capsys):
        request = json.dumps(
            {"id": "r1", "kind": "run", "source": PASSING}
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(request + "\n"))
        assert main(["serve", "--stdin-jsonl", "--jobs", "1"]) == EXIT_OK
        captured = capsys.readouterr()
        doc = json.loads(captured.out.strip())
        assert doc["job_id"] == "r1"
        assert doc["outcome"] == "PROVED"
        assert "served 1 jobs" in captured.err

    def test_listen_wants_host_port(self, capsys):
        assert main(["serve", "--http", "nonsense"]) == EXIT_ERROR
        assert "HOST:PORT" in capsys.readouterr().err

    def test_listen_serves_and_drains_on_sigterm(self, tmp_path):
        """The full deployment story: spawn the CLI, serve over HTTP,
        SIGTERM, graceful drain, exit 0."""
        import http.client
        import os
        import re
        import signal
        import subprocess
        import sys as sys_mod

        import repro

        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(
            os.path.dirname(os.path.abspath(repro.__file__))
        )
        proc = subprocess.Popen(
            [
                sys_mod.executable,
                "-m",
                "repro.fast.cli",
                "serve",
                "--http",
                "127.0.0.1:0",
                "--jobs",
                "1",
                "--drain-timeout",
                "15",
            ],
            env=env,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            banner = proc.stderr.readline()
            match = re.search(r"http listening on ([\d.]+):(\d+)", banner)
            assert match, f"no listen banner: {banner!r}"
            host, port = match.group(1), int(match.group(2))
            conn = http.client.HTTPConnection(host, port, timeout=30)
            try:
                conn.request(
                    "POST",
                    "/v1/analyze",
                    body=json.dumps(
                        {"id": "r1", "kind": "run", "source": PASSING}
                    ),
                )
                resp = conn.getresponse()
                reply = json.loads(resp.read())
            finally:
                conn.close()
            assert resp.status == 200
            assert reply["id"] == "r1"
            assert reply["outcome"] == "PROVED"
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == EXIT_OK
            assert "drained; served 1 jobs" in proc.stderr.read()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stderr.close()

    def test_stats_flag_prints_summary(self, monkeypatch, capsys):
        request = json.dumps(
            {"id": "r1", "kind": "run", "source": PASSING}
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(request + "\n"))
        assert main(["serve", "--stdin-jsonl", "--jobs", "1", "--stats"]) == EXIT_OK
        captured = capsys.readouterr()
        # Result lines on stdout stay pure protocol.
        assert json.loads(captured.out.strip())["job_id"] == "r1"
        assert "== svc stats ==" in captured.err
        assert "1 jobs in" in captured.err
