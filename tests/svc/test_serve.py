"""The JSONL request parser and the serve loop (library level)."""

from __future__ import annotations

import io
import json
import multiprocessing
import os
import threading

import pytest

from repro import obs
from repro.obs import tracer as obs_tracer
from repro.svc import ServiceConfig
from repro.svc.job import InvalidBudget
from repro.svc.serve import (
    RequestError,
    RequestLimits,
    parse_line,
    parse_request,
    serve_lines,
)

PASSING = """\
type BT[v : Int]{L(0), N(2)}
lang pos : BT { N(l, r) where (v > 0) given (pos l) (pos r) | L() }
assert-false (is-empty pos)
"""


class TestParseRequest:
    def test_inline_source(self):
        spec = parse_request(
            json.dumps({"id": "a", "kind": "run", "source": "x"}), "d"
        )
        assert spec.job_id == "a"
        assert spec.kind == "run"
        assert spec.source == "x"

    def test_file_source(self, tmp_path):
        p = tmp_path / "p.fast"
        p.write_text(PASSING)
        spec = parse_request(json.dumps({"file": str(p)}), "line-1")
        assert spec.source == PASSING
        assert spec.job_id == "line-1"  # default id

    def test_args_and_budget(self):
        spec = parse_request(
            json.dumps(
                {
                    "kind": "emptiness",
                    "source": "x",
                    "args": {"lang": "pos"},
                    "budget": {"deadline": 2.5, "max_steps": 10},
                }
            ),
            "d",
        )
        assert spec.arg("lang") == "pos"
        assert spec.budget.deadline == 2.5
        assert spec.budget.max_steps == 10

    @pytest.mark.parametrize(
        "line, match",
        [
            ("not json", "bad JSON"),
            ('["list"]', "JSON object"),
            ('{"kind": "bogus", "source": "x"}', "unknown kind"),
            ('{"kind": "run"}', "'source' or 'file'"),
            ('{"source": "x", "args": 7}', "'args' must be an object"),
        ],
    )
    def test_junk_raises_value_error(self, line, match):
        with pytest.raises(ValueError, match=match):
            parse_request(line, "d")


class TestPathConfinement:
    """``file`` requests are confined to the serve root — a serving
    endpoint that reads any path a client names is an arbitrary-file-
    read oracle."""

    def test_relative_file_under_root_is_read(self, tmp_path):
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "p.fast").write_text(PASSING)
        limits = RequestLimits(root=str(tmp_path))
        spec = parse_request(
            json.dumps({"file": "sub/p.fast"}), "d", limits
        )
        assert spec.source == PASSING

    def test_absolute_path_is_rejected(self, tmp_path):
        target = tmp_path / "p.fast"
        target.write_text(PASSING)
        limits = RequestLimits(root=str(tmp_path))
        with pytest.raises(ValueError, match="absolute"):
            parse_request(json.dumps({"file": str(target)}), "d", limits)

    def test_dotdot_escape_is_rejected(self, tmp_path):
        root = tmp_path / "root"
        root.mkdir()
        (tmp_path / "secret.fast").write_text("leak")
        limits = RequestLimits(root=str(root))
        with pytest.raises(ValueError, match="escapes the serve root"):
            parse_request(
                json.dumps({"file": "../secret.fast"}), "d", limits
            )

    def test_symlink_escape_is_rejected(self, tmp_path):
        root = tmp_path / "root"
        root.mkdir()
        (tmp_path / "secret.fast").write_text("leak")
        (root / "link.fast").symlink_to(tmp_path / "secret.fast")
        limits = RequestLimits(root=str(root))
        with pytest.raises(ValueError, match="escapes the serve root"):
            parse_request(
                json.dumps({"file": "link.fast"}), "d", limits
            )

    def test_no_root_disables_file_requests(self, tmp_path):
        (tmp_path / "p.fast").write_text(PASSING)
        limits = RequestLimits(root=None)
        with pytest.raises(ValueError, match="disabled"):
            parse_request(json.dumps({"file": "p.fast"}), "d", limits)

    def test_oversized_inline_source_is_rejected(self):
        limits = RequestLimits(max_source_bytes=16)
        with pytest.raises(ValueError, match="limit is 16"):
            parse_request(
                json.dumps({"source": "x" * 64}), "d", limits
            )

    def test_oversized_file_is_rejected_before_reading(self, tmp_path):
        (tmp_path / "big.fast").write_text("x" * 64)
        limits = RequestLimits(root=str(tmp_path), max_source_bytes=16)
        with pytest.raises(ValueError, match="limit is 16"):
            parse_request(json.dumps({"file": "big.fast"}), "d", limits)

    def test_missing_file_is_a_clean_error(self, tmp_path):
        limits = RequestLimits(root=str(tmp_path))
        with pytest.raises(ValueError, match="cannot read"):
            parse_request(json.dumps({"file": "nope.fast"}), "d", limits)

    def test_legacy_no_limits_still_reads_files(self, tmp_path):
        # parse_request without limits keeps its historical behaviour
        # (trusted local callers: fast batch, the test suite itself).
        p = tmp_path / "p.fast"
        p.write_text(PASSING)
        spec = parse_request(json.dumps({"file": str(p)}), "d")
        assert spec.source == PASSING


class TestBudgetValidation:
    """Budget fields are validated at parse time with a typed error —
    garbage must bounce at the door, not explode inside a worker."""

    @pytest.mark.parametrize(
        "budget, match",
        [
            ({"deadline": -1}, "deadline"),
            ({"deadline": 0}, "deadline"),
            ({"deadline": "soon"}, "deadline"),
            ({"deadline": float("nan")}, "deadline"),
            ({"deadline": True}, "deadline"),
            ({"max_steps": -5}, "max_steps"),
            ({"max_steps": 2.5}, "max_steps"),
            ({"max_solver_queries": 0}, "max_solver_queries"),
            ({"max_solver_queries": "many"}, "max_solver_queries"),
        ],
    )
    def test_bad_budget_raises_invalid_budget(self, budget, match):
        line = json.dumps({"source": "x", "budget": budget})
        with pytest.raises(InvalidBudget, match=match):
            parse_request(line, "d")

    def test_unknown_budget_key_is_rejected(self):
        line = json.dumps({"source": "x", "budget": {"deadlnie": 2.0}})
        with pytest.raises(ValueError, match="deadlnie"):
            parse_request(line, "d")

    def test_valid_budget_passes(self):
        line = json.dumps(
            {
                "source": "x",
                "budget": {
                    "deadline": 1.5,
                    "max_steps": 100,
                    "max_solver_queries": 10,
                },
            }
        )
        spec = parse_request(line, "d")
        assert spec.budget.deadline == 1.5

    def test_invalid_budget_is_a_value_error(self):
        # Typed, but still catchable by the generic request handler.
        assert issubclass(InvalidBudget, ValueError)


class TestParseLine:
    def test_health_probe(self):
        req = parse_line(json.dumps({"id": "h1", "kind": "health"}), "d")
        assert req.health and req.client_id == "h1" and req.spec is None

    def test_tenant_extraction(self):
        req = parse_line(
            json.dumps({"source": "x", "tenant": "team-a"}), "d"
        )
        assert req.tenant == "team-a"
        assert req.spec.source == "x"

    def test_bad_tenant_rejected(self):
        with pytest.raises(RequestError, match="tenant"):
            parse_line(json.dumps({"source": "x", "tenant": 7}), "d")

    @pytest.mark.parametrize(
        "tenant",
        ["", "a\n[svc] forged", "team a", "\x7f", "t" * 129, "caf\u00e9"],
    )
    def test_tenant_must_be_a_printable_token(self, tenant):
        # A tenant is printed raw in the --stats rows: a newline in it
        # would forge a stats line.
        with pytest.raises(RequestError, match="tenant") as info:
            parse_line(
                json.dumps({"id": "q", "source": "x", "tenant": tenant}), "d"
            )
        assert info.value.client_id == "q"
        assert parse_line(
            json.dumps({"source": "x", "tenant": "t" * 128}), "d"
        ).tenant == "t" * 128

    def test_request_error_carries_client_id(self):
        # The error line must correlate with the request that caused
        # it, even though no job was ever built.
        with pytest.raises(RequestError) as info:
            parse_line(json.dumps({"id": "req-9", "kind": "run"}), "d")
        assert info.value.client_id == "req-9"


class _BrokenPipe(io.StringIO):
    """An output stream whose client hangs up after N writes."""

    def __init__(self, writes_before_break: int) -> None:
        super().__init__()
        self.remaining = writes_before_break

    def write(self, s: str) -> int:
        if self.remaining <= 0:
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(s)

    def flush(self) -> None:
        self.remaining -= 1
        super().flush()


class TestServeLines:
    def test_mixed_good_and_bad_lines(self):
        lines = [
            json.dumps({"id": "good", "kind": "run", "source": PASSING}),
            "",  # blank lines are skipped silently
            "garbage",
            json.dumps({"id": "bad-kind", "kind": "nope", "source": "x"}),
        ]
        out = io.StringIO()
        served = serve_lines(iter(lines), out, ServiceConfig(jobs=1))
        replies = [json.loads(l) for l in out.getvalue().splitlines()]
        assert served == 1
        assert len(replies) == 3
        assert replies[0]["outcome"] == "PROVED"
        assert "bad JSON" in replies[1]["error"]
        assert "unknown kind" in replies[2]["error"]
        # Error lines carry synthetic line-N ids for correlation.
        assert replies[1]["id"] == "line-3"

    def test_error_line_keeps_the_client_id(self):
        lines = [json.dumps({"id": "mine", "kind": "run"})]  # no source
        out = io.StringIO()
        serve_lines(iter(lines), out, ServiceConfig(jobs=1))
        reply = json.loads(out.getvalue())
        assert reply["id"] == "mine"
        assert "'source' or 'file'" in reply["error"]

    def test_health_request(self):
        lines = [json.dumps({"id": "probe", "kind": "health"})]
        out = io.StringIO()
        served = serve_lines(iter(lines), out, ServiceConfig(jobs=1))
        assert served == 0
        doc = json.loads(out.getvalue())
        assert doc["id"] == "probe"
        assert doc["ready"] is True
        assert doc["counters"]["admitted"] == 0
        assert "breakers" not in doc

    def test_health_request_carries_worker_lifecycle(self):
        # The same health reply as the socket and HTTP front-ends.
        lines = [json.dumps({"id": "probe", "kind": "health"})]
        out = io.StringIO()
        serve_lines(iter(lines), out, ServiceConfig(jobs=1))
        doc = json.loads(out.getvalue())
        assert [w["jobs_served"] for w in doc["lifecycle"]["workers"]] == [0]

    def test_retained_root_spans_stay_under_the_cap(self, monkeypatch):
        # With obs on, every request leaves root spans behind; a server
        # that runs for days must keep at most MAX_ROOTS of them.
        monkeypatch.setattr(obs_tracer, "MAX_ROOTS", 20)
        request = json.dumps({"kind": "run", "source": PASSING})
        obs.reset()
        try:
            with obs.observed():
                served = serve_lines(
                    iter([request] * 12), io.StringIO(), ServiceConfig(jobs=1)
                )
            assert served == 12
            assert len(obs_tracer.retained()) == 20
            dropped = obs.counter("obs.trace.dropped_roots").value
            assert dropped > 0
        finally:
            obs.reset()

    def test_broken_pipe_ends_the_loop_cleanly(self):
        # The client hangs up after the first reply: the loop must
        # return its served count — no traceback, no further work.
        lines = [
            json.dumps({"id": f"r{i}", "kind": "run", "source": PASSING})
            for i in range(4)
        ]
        out = _BrokenPipe(writes_before_break=1)
        served = serve_lines(iter(lines), out, ServiceConfig(jobs=1))
        assert served == 1
        assert len(out.getvalue().splitlines()) == 1

    def test_stop_event_drains_between_requests(self):
        stop = threading.Event()
        lines = [json.dumps({"id": "r1", "kind": "run", "source": PASSING})]

        def lines_then_stop():
            yield from lines
            stop.set()
            yield json.dumps(
                {"id": "r2", "kind": "run", "source": PASSING}
            )

        out = io.StringIO()
        served = serve_lines(
            lines_then_stop(), out, ServiceConfig(jobs=1), stop=stop
        )
        assert served == 1  # r1 answered, r2 never admitted
        replies = [json.loads(l) for l in out.getvalue().splitlines()]
        assert [r["id"] for r in replies] == ["r1"]

    def test_deadline_ceiling_is_clamped_onto_jobs(self):
        from repro.svc import GateConfig

        lines = [
            json.dumps(
                {
                    "id": "r1",
                    "kind": "run",
                    "source": PASSING,
                    "budget": {"deadline": 9999.0},
                }
            )
        ]
        out = io.StringIO()
        served = serve_lines(
            iter(lines),
            out,
            ServiceConfig(jobs=1),
            gate_config=GateConfig(max_deadline=30.0, workers=1),
        )
        assert served == 1
        assert json.loads(out.getvalue())["outcome"] == "PROVED"

    @pytest.mark.skipif(
        not hasattr(os, "sched_getaffinity"), reason="no CPU affinity API"
    )
    def test_loop_and_its_workers_share_one_cpu(self):
        # The loop waits out every job, so it runs itself and the
        # workers it starts on one CPU, and hands the caller's CPU set
        # back when it returns.
        before = os.sched_getaffinity(0)
        seen = []

        def lines():
            yield json.dumps({"id": "r1", "kind": "run", "source": PASSING})
            seen.append(os.sched_getaffinity(0))
            seen.extend(
                os.sched_getaffinity(child.pid)
                for child in multiprocessing.active_children()
                if child.name.startswith("repro-svc-worker-")
            )

        out = io.StringIO()
        assert serve_lines(lines(), out, ServiceConfig(jobs=2)) == 1
        assert len(seen) == 3  # the loop and two workers
        assert len(seen[0]) == 1 and seen[0] <= before
        assert all(cpus == seen[0] for cpus in seen)
        assert os.sched_getaffinity(0) == before

    def test_quota_shed_over_stdin(self):
        from repro.svc import GateConfig

        lines = [
            json.dumps({"id": f"r{i}", "kind": "run", "source": PASSING})
            for i in range(3)
        ]
        out = io.StringIO()
        served = serve_lines(
            iter(lines),
            out,
            ServiceConfig(jobs=1),
            gate_config=GateConfig(
                tenant_rate=0.001, tenant_burst=2, workers=1
            ),
        )
        replies = [json.loads(l) for l in out.getvalue().splitlines()]
        assert served == 2
        assert [r.get("shed", False) for r in replies] == [
            False,
            False,
            True,
        ]
        assert replies[2]["reason"] == "quota"
        assert replies[2]["retry_after"] > 0


class TestDrainShedLedger:
    """Requests still queued when the drain deadline passes are shed
    ``draining`` — and every stats view counts those sheds, because they
    all read the gate's one ledger."""

    def test_drain_sheds_reach_every_stats_view(self):
        from tests.exposition import parse_exposition
        from repro.svc import GateConfig, HttpFrontEnd
        from repro.svc.telemetry import stats_summary

        front = HttpFrontEnd(
            port=0,
            config=ServiceConfig(jobs=1),
            gate_config=GateConfig(
                drain_timeout=0.0, max_queue=16, workers=1
            ),
        )
        replies = []
        for i in range(6):
            front.handle_line(
                json.dumps({"id": f"q{i}", "kind": "run", "source": PASSING}),
                f"q{i}",
                replies.append,
            )
        assert replies == []  # all six are queued, none answered yet
        # Drain before the dispatcher starts: with a zero drain timeout
        # it sheds the whole queue without dispatching anything.
        front.initiate_drain()
        front.start()
        assert front.wait(30.0)
        assert front.served == 0

        assert len(replies) == 6
        assert all(r["shed"] and r["reason"] == "draining" for r in replies)
        assert front.health_doc()["counters"]["shed_total"] == 6

        stats = []
        front.handle_line(json.dumps({"id": "s", "kind": "stats"}), "s",
                          stats.append)
        ledger = stats[0]["stats"]
        assert ledger["all"]["shed"] == {"draining": 6}
        assert ledger["kind"]["run"]["shed_total"] == 6

        fams = parse_exposition(front.metrics_text())
        assert fams["svc_kind_shed_total"][(("kind", "run"),)] == 6.0
        assert fams["svc_tenant_shed_total"][(("tenant", "default"),)] == 6.0

        assert "shed: 6 (draining=6)" in stats_summary(front.gate)
