"""Cross-process telemetry: worker blobs, clock alignment, trace merge.

Three layers of coverage:

* unit — the clock handshake math and the worker-side blob builder
  (span cap, restore-on-exit, disabled mode), all in-process;
* merge — :func:`repro.svc.telemetry.consume_blob` against valid,
  hostile, and fuzzed blobs (a corrupt blob must merge *nothing*);
* golden — a real 2-worker pool run whose exported Perfetto trace must
  show one track per worker pid, each ``svc.job`` span enclosing the
  worker-side solver/automata spans, balanced per track — including
  when chaos kills workers mid-job.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.guard.chaos import WorkerChaosPolicy
from repro.obs import config as obs_config
from repro.obs import metrics as obs_metrics
from repro.obs import tracer as obs_tracer
from repro.obs.export import chrome_trace
from repro.svc import JobSpec, WorkerPool
from repro.svc.gate import AdmissionGate, GateConfig, Ticket
from repro.svc.job import ERROR, JobResult, PROVED, UNKNOWN
from repro.svc import telemetry as tel
from repro.svc.worker import _reset_inherited_state

PASSING = """\
type BT[v : Int]{L(0), N(2)}
lang pos : BT { N(l, r) where (v > 0) given (pos l) (pos r) | L() }
assert-false (is-empty pos)
"""



@pytest.fixture(autouse=True)
def restore_obs():
    yield
    obs.enabled(False)
    obs.reset()


def find_seed(predicate, limit=2000):
    for seed in range(limit):
        if predicate(seed):
            return seed
    pytest.fail(f"no chaos seed under {limit} matches the fault schedule")


# -- clock handshake ---------------------------------------------------------


class TestClockHandshake:
    def test_ping_pong_shapes(self):
        assert tel.is_ping((tel.CLOCK_PING,))
        assert not tel.is_ping(("something", 1))
        pong = tel.make_pong()
        assert tel.is_pong(pong)
        assert not tel.is_pong((tel.CLOCK_PONG, 1))  # wrong arity
        assert not tel.is_pong("not a tuple")

    def test_offset_is_midpoint_estimate(self):
        pong = (tel.CLOCK_PONG, 123, 50.0)
        # Supervisor clock runs 100s ahead: sent at 149, received at 151.
        offset = tel.clock_offset_from_pong(pong, 149.0, 151.0)
        assert offset == pytest.approx(100.0)

    def test_offset_rejects_junk(self):
        assert tel.clock_offset_from_pong(("junk",), 0.0, 1.0) is None
        assert (
            tel.clock_offset_from_pong((tel.CLOCK_PONG, 1, "NaNish"), 0.0, 1.0)
            is None
        )


# -- worker-side capture -----------------------------------------------------


class TestWorkerCapture:
    def test_disabled_config_attaches_no_blob(self):
        spec = JobSpec("j", "run", PASSING)
        assert tel.execute_with_telemetry(spec, 0, False).telemetry is None

    def test_blob_shape_and_span_nesting(self):
        spec = JobSpec("j", "run", PASSING)
        result = tel.execute_with_telemetry(spec, 0, True)
        blob = result.telemetry
        assert blob is not None
        assert isinstance(blob["pid"], int)
        assert "events" not in blob  # the span tree is the trace record
        # Everything the job did sits under one svc.job root span.
        assert len(blob["spans"]) == 1
        root = blob["spans"][0]
        assert root["name"] == "svc.job"
        assert root["attrs"]["job"] == "j"
        assert root["start"] + root["duration"] <= blob["t_end"]
        child_names = {c["name"] for c in root["children"]}
        assert "explain_program" in child_names
        for child in root["children"]:  # children start inside the job
            assert root["start"] <= child["start"]
        # Worker-side solver activity was measured, not just spanned.
        assert blob["counters"].get("solver.sat_queries", 0) > 0
        json.dumps(blob)  # the whole blob must be JSON-able

    def test_span_cap_truncates_and_flags(self, monkeypatch):
        monkeypatch.setattr(tel, "MAX_SPANS", 3)
        spec = JobSpec("j", "run", PASSING)
        blob = tel.execute_with_telemetry(spec, 0, True).telemetry

        def count(nodes):
            return sum(1 + count(n["children"]) for n in nodes)

        assert count(blob["spans"]) <= 3
        assert blob["spans_truncated"] is True

    def test_host_obs_state_is_restored(self):
        obs.enabled(False)
        tel.execute_with_telemetry(JobSpec("j", "run", PASSING), 0, True)
        assert obs_config.ENABLED is False
        assert obs_tracer.trace() == []  # worker spans don't leak
        assert obs_tracer.retained() == []


# -- supervisor-side merge ---------------------------------------------------


def _run_blob(job_id="j"):
    return tel.execute_with_telemetry(
        JobSpec(job_id, "run", PASSING), 0, True
    ).telemetry


def _walk(spans):
    for sp in spans:
        yield sp
        yield from _walk(sp.children)


def _count(docs):
    return sum(1 + _count(d["children"]) for d in docs)


class TestMerge:
    def test_valid_blob_folds_counters_and_events(self):
        blob = _run_blob()
        queries = blob["counters"]["solver.sat_queries"]
        obs.enabled(True)
        obs_metrics.REGISTRY.reset()
        result = JobResult("j", "run", PROVED, telemetry=dict(blob))
        spans = tel.consume_blob(result, clock_offset=0.0)
        assert result.telemetry is None  # detached
        # Every shipped span comes back, on the worker pid's track.
        assert len(list(_walk(spans))) == _count(blob["spans"])
        assert {(sp.pid, sp.tid) for sp in _walk(spans)} == {
            (blob["pid"], blob["pid"])
        }
        assert (
            obs_metrics.REGISTRY.counter("solver.sat_queries").value == queries
        )
        assert obs_metrics.REGISTRY.counter("svc.telemetry.blobs").value == 1

    def test_clock_offset_shifts_timestamps(self):
        blob = _run_blob()
        [root] = tel.consume_blob(
            JobResult("j", "run", PROVED, telemetry=dict(blob)),
            clock_offset=1000.0,
        )
        assert root.start == pytest.approx(blob["spans"][0]["start"] + 1000.0)
        assert root.duration == blob["spans"][0]["duration"]

    def test_corrupt_blob_merges_nothing(self):
        blob = _run_blob()
        obs.enabled(True)
        obs_metrics.REGISTRY.reset()
        bad = dict(blob, spans=blob["spans"] + [{"name": "x"}])
        out = tel.consume_blob(
            JobResult("j", "run", PROVED, telemetry=bad), None
        )
        # All-or-nothing: no span and no counter of the blob merged.
        assert out == []
        assert obs_metrics.REGISTRY.counter("solver.sat_queries").value == 0
        assert (
            obs_metrics.REGISTRY.counter("svc.telemetry.merge_errors").value
            == 1
        )

    def test_missing_blob_is_a_cheap_noop(self):
        result = JobResult("j", "run", PROVED)
        assert tel.consume_blob(result, None) == []

    def test_graft_spans_rebuilds_worker_tree(self):
        blob = _run_blob()
        obs.enabled(True)
        with obs_tracer.span("svc.job", job="j") as sp:
            pass
        sp.children.extend(
            tel.consume_blob(JobResult("j", "run", PROVED, telemetry=blob), 0.0)
        )
        assert sp.children[0].name == "svc.job"
        names = {c.name for c in sp.children[0].children}
        assert "explain_program" in names

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        blob=st.recursive(
            st.none()
            | st.booleans()
            | st.integers()
            | st.floats(allow_nan=False)
            | st.text(max_size=8),
            lambda inner: st.lists(inner, max_size=4)
            | st.dictionaries(
                st.sampled_from(
                    ["pid", "counters", "hists", "spans", "name", "attrs",
                     "start", "duration", "children", "t_end", "junk"]
                ),
                inner,
                max_size=6,
            ),
            max_leaves=12,
        )
    )
    def test_fuzzed_blobs_never_corrupt_the_journal(self, blob):
        obs.enabled(True)
        result = JobResult("j", "run", PROVED)
        result.telemetry = blob
        spans = tel.consume_blob(result, None)  # must never raise
        assert result.telemetry is None
        for sp in _walk(spans):  # merged spans are closed and well-formed
            assert isinstance(sp.start, float) and isinstance(sp.tid, int)
            assert sp.duration is not None and sp.duration >= 0
        json.dumps(chrome_trace(spans))  # and export to valid JSON
        obs.enabled(False)


# -- fork hygiene (satellite) ------------------------------------------------


class TestResetInheritedState:
    def test_reset_clears_registry_and_tracer(self):
        obs.enabled(True)
        obs_metrics.REGISTRY.counter("solver.sat_queries").inc(99)
        with obs_tracer.span("stale"):
            pass
        with obs_tracer.span("still-open") as open_span:
            _reset_inherited_state()
            # Inherited values are gone: counters zeroed, spans dropped.
            assert (
                obs_metrics.REGISTRY.counter("solver.sat_queries").value == 0
            )
            assert obs_tracer.trace() == []
            assert obs_tracer.retained() == []
            assert obs_tracer._state().stack == []
        del open_span


# -- golden end-to-end trace -------------------------------------------------


def _worker_tracks(trace_doc):
    """pid -> ordered B/E events, for non-supervisor tracks."""
    tracks: dict[int, list[dict]] = {}
    for ev in trace_doc["traceEvents"]:
        if ev.get("pid") != 1 and ev.get("ph") in ("B", "E"):
            tracks.setdefault(ev["pid"], []).append(ev)
    return tracks


class TestGoldenTrace:
    def test_two_worker_batch_has_two_balanced_tracks(self):
        specs = [JobSpec(f"job-{i}", "run", PASSING) for i in range(6)]
        obs.reset()
        with obs.observed():
            with WorkerPool(2) as pool:
                results = pool.run_jobs(specs, retries=2)
            doc = chrome_trace()
        assert all(r.outcome == PROVED for r in results)
        assert all(r.telemetry is None for r in results)  # consumed

        tracks = _worker_tracks(doc)
        assert len(tracks) == 2  # one track per worker pid
        meta = {
            (e["pid"], e["name"])
            for e in doc["traceEvents"]
            if e.get("ph") == "M"
        }
        assert (1, "process_name") in meta
        for wpid in tracks:
            assert (wpid, "process_name") in meta
            assert (wpid, "thread_name") in meta

        for wpid, evs in tracks.items():
            depth = 0
            inner_names = set()
            for ev in evs:
                if ev["ph"] == "B":
                    if depth == 0:
                        # Track roots are exactly the svc.job wrappers.
                        assert ev["name"] == "svc.job"
                    else:
                        inner_names.add(ev["name"])
                    depth += 1
                else:
                    depth -= 1
                    assert depth >= 0, f"unbalanced track {wpid}"
            assert depth == 0, f"unbalanced track {wpid}"
            # Worker-side analysis spans nest inside the jobs.
            assert "explain_program" in inner_names
            assert any(n.startswith(("emptiness", "antichain")) or n == "assert"
                       for n in inner_names)

        # Folded worker metrics: solver activity visible host-side.
        assert (
            obs_metrics.REGISTRY.counter("solver.sat_queries").value > 0
        )
        assert (
            obs_metrics.REGISTRY.counter("svc.telemetry.blobs").value == 6
        )
        hist = obs_metrics.REGISTRY.histogram("svc.job_latency.run")
        assert hist.count == 6
        assert hist.quantile(0.95) >= hist.quantile(0.5) > 0

    def test_killed_worker_never_corrupts_the_merge(self):
        # Attempt 0 killed, attempt 1 clean: the job's only blob comes
        # from the surviving attempt; the murdered one merges nothing.
        seed = find_seed(
            lambda s: (p := WorkerChaosPolicy(seed=s, kill_rate=0.5)).decide(
                "victim", 0
            )
            == "kill"
            and p.decide("victim", 1) is None
        )
        chaos = WorkerChaosPolicy(seed=seed, kill_rate=0.5)
        obs.reset()
        with obs.observed():
            with WorkerPool(1, chaos=chaos) as pool:
                [result] = pool.run_jobs(
                    [JobSpec("victim", "run", PASSING)], retries=2
                )
            doc = chrome_trace()
        assert result.outcome == PROVED and result.attempts == 2
        assert (
            obs_metrics.REGISTRY.counter("svc.telemetry.merge_errors").value
            == 0
        )
        tracks = _worker_tracks(doc)
        assert len(tracks) == 1  # only the surviving attempt has a track
        for evs in tracks.values():
            depth = 0
            for ev in evs:
                depth += 1 if ev["ph"] == "B" else -1
                assert depth >= 0
            assert depth == 0

    def test_all_kills_leave_host_journal_clean(self):
        chaos = WorkerChaosPolicy(seed=0, kill_rate=1.0)
        obs.reset()
        with obs.observed():
            with WorkerPool(1, chaos=chaos) as pool:
                [result] = pool.run_jobs(
                    [JobSpec("doomed", "run", PASSING)],
                    retries=1,
                )
            doc = chrome_trace()
        assert result.outcome == UNKNOWN
        assert _worker_tracks(doc) == {}  # no blob ever arrived
        assert (
            obs_metrics.REGISTRY.counter("svc.telemetry.blobs").value == 0
        )
        assert (
            obs_metrics.REGISTRY.counter("svc.telemetry.merge_errors").value
            == 0
        )

    def test_telemetry_off_ships_nothing(self):
        obs.reset()
        with WorkerPool(1) as pool:  # obs off at pool start -> no telemetry
            [result] = pool.run_jobs([JobSpec("quiet", "run", PASSING)])
        assert result.outcome == PROVED
        assert result.telemetry is None
        assert pool.telemetry is False


# -- rolling stats block (--stats) -------------------------------------------


class _Clock:
    def __init__(self, now: float = 100.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _result(kind="run", duration=0.02, outcome=PROVED):
    return JobResult(
        job_id="x", kind=kind, outcome=outcome, duration=duration,
        attempts=1, worker_pid=1234,
    )


def _admit(gate: AdmissionGate, tenant: str):
    return gate.admit(JobSpec("q", "run", "x"), tenant)


class TestServeStatsLine:
    """The rolling ``--stats`` block and closing table, rendered from
    the admission gate's ledger."""

    def test_line_has_one_row_per_active_tenant(self):
        clock = _Clock()
        gate = AdmissionGate(GateConfig(max_queue=1), clock=clock)
        gate.note_served(_result(), tenant="team-a")
        gate.note_served(_result(duration=0.04), tenant="team-a")
        gate.note_served(_result(kind="emptiness"), tenant="team-b")
        _admit(gate, "team-b")  # fills the one-slot queue
        assert _admit(gate, "team-b").reason == "queue-full"
        block = tel.stats_line(gate)
        lines = block.splitlines()
        assert lines[0].startswith("[svc] ")
        tenant_rows = [l for l in lines[1:] if "tenant=" in l]
        assert len(tenant_rows) == 2
        row_a = next(l for l in tenant_rows if "tenant=team-a" in l)
        row_b = next(l for l in tenant_rows if "tenant=team-b" in l)
        assert "served=2 shed=0" in row_a
        assert "served=1 shed=1" in row_b
        assert "run n=2 p50=" in lines[0]

    def test_idle_tenants_age_out_of_the_block(self):
        # Tenant rows count since the previous block: a tenant with no
        # traffic in between prints no row.
        clock = _Clock()
        gate = AdmissionGate(clock=clock)
        gate.note_served(_result(), tenant="team-a")
        gate.note_served(_result(), tenant="team-b")
        mark = (clock(), gate.ledger.by_tenant())
        clock.advance(10.0)
        gate.note_served(_result(), tenant="team-b")
        gate.note_served(_result(outcome=ERROR), tenant="team-b")
        block = tel.stats_line(gate, since=mark)
        lines = block.splitlines()
        assert lines[0].startswith("[svc] 0.2 jobs/s")
        assert lines[1:] == [
            "[svc]   tenant=team-b served=2 shed=0 errors=1"
        ]

    def test_block_is_one_write_on_the_serving_path(self):
        """serve_lines emits the whole multi-line block in a single
        err.write() so concurrent stderr writers can't interleave a
        partial stats line."""
        import io

        from repro.svc import GateConfig, ServiceConfig
        from repro.svc.serve import serve_lines

        class CountingErr(io.StringIO):
            def __init__(self):
                super().__init__()
                self.writes = []

            def write(self, s):
                self.writes.append(s)
                return super().write(s)

        req = json.dumps(
            {"id": "s1", "kind": "run", "source": PASSING,
             "tenant": "team-a"}
        )
        err = CountingErr()
        out = io.StringIO()
        serve_lines(
            iter([req, req]), out, ServiceConfig(jobs=1),
            gate_config=GateConfig(max_queue=4, workers=1),
            stats=True, err=err,
            stats_interval=1e-9,  # force a rolling line per request
        )
        blocks = [w for w in err.writes if "tenant=" in w]
        assert blocks, "no stats block carried a tenant row"
        for block in blocks:
            # Complete block per write: starts at a line head, every
            # embedded row intact, terminated by the newline the writer
            # appended.
            assert block.startswith("[svc]") or block.startswith("==")
            assert block.endswith("\n")
            for row in block.rstrip("\n").splitlines()[1:]:
                assert row.startswith("[svc]") or row.startswith(" ") or (
                    row and not row.startswith("tenant=")
                )

    def test_summary_keeps_shed_breakdown(self):
        clock = _Clock()
        # A two-token bucket and a one-slot queue: the first request
        # queues, the second sheds queue-full, the third finds the
        # bucket dry (the clock never moves) and sheds quota.
        gate = AdmissionGate(
            GateConfig(max_queue=1, tenant_rate=1.0, tenant_burst=2),
            clock=clock,
        )
        gate.note_served(_result(), tenant="t")
        assert isinstance(_admit(gate, "t"), Ticket)
        assert _admit(gate, "t").reason == "queue-full"
        assert _admit(gate, "t").reason == "quota"
        summary = tel.stats_summary(gate)
        assert "shed: 2" in summary
        assert "quota=1" in summary
        assert "queue-full=1" in summary
