"""Tests for the trace exporters: Chrome/Perfetto traces and flamegraphs
rendered from span trees."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.obs import export, tracer
from repro.obs import metrics as obs_metrics


@pytest.fixture(autouse=True)
def clean_obs():
    """Each test starts and ends with obs disabled and no spans."""
    obs.enabled(False)
    obs.reset()
    yield
    obs.enabled(False)
    obs.reset()


def _span(name, start, duration, *children, tid=7, **attrs):
    """A closed span built by hand (times in seconds)."""
    sp = tracer.Span(name, attrs)
    sp.start, sp.duration, sp.tid = start, duration, tid
    sp.children = list(children)
    return sp


def _assert_balanced(evs):
    depth: dict[tuple, int] = {}
    for e in evs:
        track = (e["pid"], e.get("tid"))
        if e["ph"] == "B":
            depth[track] = depth.get(track, 0) + 1
        elif e["ph"] == "E":
            depth[track] -= 1
            assert depth[track] >= 0
    assert all(d == 0 for d in depth.values())


class TestJournal:
    """The tracer's retained root store, the bounded record every
    exporter reads."""

    def test_emit_and_events_roundtrip(self):
        obs.enabled(True)
        with obs.span("work", k=1):
            obs.instant("mark", {"n": 3})
        obs.instant("after")
        [work, after] = tracer.retained()
        assert (work.name, work.attrs) == ("work", {"k": 1})
        [mark] = work.children
        assert (mark.name, mark.attrs, mark.duration) == ("mark", {"n": 3}, 0.0)
        assert (after.name, after.duration) == ("after", 0.0)
        # start times are monotone within one thread
        assert work.start <= mark.start <= after.start

    def test_ring_drops_oldest(self, monkeypatch):
        monkeypatch.setattr(tracer, "MAX_ROOTS", 4)
        obs.enabled(True)
        for i in range(10):
            obs.instant("n", {"i": i})
        assert [sp.attrs["i"] for sp in tracer.retained()] == [6, 7, 8, 9]
        assert obs_metrics.REGISTRY.counter("obs.trace.dropped_roots").value == 6

    def test_clear_resets(self):
        obs.enabled(True)
        for _ in range(3):
            with obs.span("n"):
                pass
        obs.reset()
        assert tracer.retained() == []
        assert export.chrome_trace()["traceEvents"] == []


class TestInstrumentation:
    def test_spans_emit_begin_end(self):
        obs.enabled(True)
        with obs.span("outer", kind="t"):
            with obs.span("inner"):
                pass
        evs = export.chrome_trace()["traceEvents"]
        assert [(e["ph"], e["name"]) for e in evs] == [
            ("B", "outer"),
            ("B", "inner"),
            ("E", "inner"),
            ("E", "outer"),
        ]
        # span attrs ride along on the B event
        assert evs[0]["args"] == {"kind": "t"}


class TestChromeTrace:
    def test_balanced_nesting_and_monotonic_timestamps(self):
        obs.enabled(True)
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        with obs.span("sibling"):
            pass
        doc = export.chrome_trace()
        evs = doc["traceEvents"]
        assert all(e["pid"] == tracer.PID for e in evs)
        depth = 0
        last_ts = -1.0
        for e in evs:
            assert e["ts"] >= last_ts  # single-threaded: globally monotone
            last_ts = e["ts"]
            if e["ph"] == "B":
                depth += 1
            elif e["ph"] == "E":
                depth -= 1
                assert depth >= 0
        assert depth == 0

    def test_orphan_end_dropped_after_ring_truncation(self, monkeypatch):
        # Past the root cap the oldest roots go whole, so the export
        # stays balanced and holds only the newest roots.
        monkeypatch.setattr(tracer, "MAX_ROOTS", 3)
        obs.enabled(True)
        for i in range(5):
            with obs.span(f"root-{i}"):
                with obs.span("child"):
                    pass
        evs = export.chrome_trace()["traceEvents"]
        _assert_balanced(evs)
        roots = [e["name"] for e in evs if e["ph"] == "B" and e["name"] != "child"]
        assert roots == ["root-2", "root-3", "root-4"]
        assert obs_metrics.REGISTRY.counter("obs.trace.dropped_roots").value == 2

    def test_unclosed_begin_gets_synthetic_end(self):
        open_span = _span("open", 1.0, None, _span("done", 2.0, 1.0))
        doc = export.chrome_trace([open_span])
        pairs = [(e["ph"], e["name"]) for e in doc["traceEvents"]]
        assert pairs == [("B", "open"), ("B", "done"), ("E", "done"), ("E", "open")]
        synth = doc["traceEvents"][-1]
        assert synth["args"].get("synthetic") is True
        # closed at the export instant, after everything recorded
        assert synth["ts"] == max(e["ts"] for e in doc["traceEvents"])

    def test_counter_and_instant_events(self):
        obs.enabled(True)
        with obs.span("work"):
            obs.counter("solver.sat_queries").inc(5)
            with tracer.trace_context("req-1"):
                obs.instant("chaos.fault", {"query": 3})
        evs = export.chrome_trace()["traceEvents"]
        # Counters stay in the registry snapshot, not in the trace.
        assert not [e for e in evs if e["ph"] == "C"]
        [instant] = [e for e in evs if e["name"] == "chaos.fault"]
        assert instant["ph"] == "i"
        assert instant["args"] == {"query": 3, "trace_id": "req-1"}
        assert [e["ph"] for e in evs] == ["B", "i", "E"]

    def test_write_chrome_trace_is_valid_json(self, tmp_path):
        path = str(tmp_path / "out.trace.json")
        obs.enabled(True)
        with obs.span("a"):
            pass
        export.write_chrome_trace(path)
        doc = json.load(open(path))
        assert doc["displayTimeUnit"] == "ms"
        assert len(doc["traceEvents"]) == 2


class TestFlamegraph:
    def test_self_time_subtracts_children(self):
        outer = _span("outer", 0.0, 20e-6, _span("inner", 4e-6, 12e-6))
        assert export.collapsed_stacks([outer]) == ["outer 8", "outer;inner 12"]

    def test_lines_parse_and_merge_across_threads(self):
        roots = [_span("work", 0.0, 1.0, tid=1), _span("work", 0.0, 2.0, tid=2)]
        lines = export.collapsed_stacks(roots)
        assert len(lines) == 1
        stack, value = lines[0].rsplit(" ", 1)
        assert stack == "work"
        assert int(value) == 3_000_000  # merged self-time in µs

    def test_write_flamegraph(self, tmp_path):
        path = str(tmp_path / "out.folded")
        obs.enabled(True)
        with obs.span("root"):
            with obs.span("leaf"):
                pass
        export.write_flamegraph(path)
        lines = open(path).read().splitlines()
        assert any(l.startswith("root ") for l in lines)
        assert any(l.startswith("root;leaf ") for l in lines)
        for l in lines:
            stack, value = l.rsplit(" ", 1)
            assert stack
            assert int(value) >= 0
