"""Tests for snapshot diffing and the regression gate (repro.obs.diff)."""

from __future__ import annotations

import io
import json

import pytest

from repro.obs import diff


def _snapshot(metrics, trace=()):
    return {"schema": "repro.obs/v1", "metrics": metrics, "trace": list(trace)}


class TestFlatten:
    def test_numbers_pass_through_and_bools_skip(self):
        doc = _snapshot({"a": 3, "rate": 0.5, "flag": True})
        flat = diff.flatten_counters(doc)
        assert flat == {"a": 3, "rate": 0.5}

    def test_histograms_split_into_count_sum_mean(self):
        doc = _snapshot({"h": {"count": 4, "sum": 10.0, "mean": 2.5}})
        flat = diff.flatten_counters(doc)
        assert flat == {"h.count": 4, "h.sum": 10.0, "h.mean": 2.5}

    def test_bare_metrics_dict_accepted(self):
        assert diff.flatten_counters({"x": 1}) == {"x": 1}


class TestSpanTotals:
    def test_aggregates_nested_spans_by_name(self):
        trace = [
            {
                "name": "outer",
                "duration_ms": 10.0,
                "children": [
                    {"name": "inner", "duration_ms": 3.0},
                    {"name": "inner", "duration_ms": 4.0},
                ],
            }
        ]
        totals = diff.span_totals(_snapshot({}, trace))
        assert totals["outer"] == (1, 10.0)
        assert totals["inner"] == (2, 7.0)


class TestRenderDiff:
    def test_counters_and_spans_sections(self):
        before = _snapshot({"q": 10}, [{"name": "s", "duration_ms": 1.0}])
        after = _snapshot({"q": 15, "new": 1}, [{"name": "s", "duration_ms": 2.0}])
        out = io.StringIO()
        diff.render_diff(before, after, out=out)
        text = out.getvalue()
        assert "== counters ==" in text
        assert "== span timings (aggregated by name) ==" in text
        assert "+5" in text  # the q delta
        assert "(added)" in text  # the new counter


def _baseline(guard, tolerances=None):
    entry = {"guard": guard}
    if tolerances:
        entry["tolerances"] = tolerances
    return {"schema": "repro.bench-baseline/v2", "benchmarks": {"b": entry}}


class TestGate:
    def test_within_tolerance_passes(self):
        base = _baseline({"solver.sat_queries": 100})
        snap = _snapshot({"solver.sat_queries": 110})
        assert diff.gate(base, "b", snap, out=io.StringIO()) == 0

    def test_regression_fails(self):
        base = _baseline({"solver.sat_queries": 100})
        snap = _snapshot({"solver.sat_queries": 200})
        assert diff.gate(base, "b", snap, out=io.StringIO()) == 1

    def test_per_counter_tolerance_overrides_default(self):
        # 100 -> 240: fails at the default 20% but passes at 300%.
        base = _baseline(
            {"solver.sat_queries": 100}, {"solver.sat_queries": 3.0}
        )
        snap = _snapshot({"solver.sat_queries": 240})
        assert diff.gate(base, "b", snap, out=io.StringIO()) == 0

    def test_missing_counter_fails(self):
        base = _baseline({"solver.sat_queries": 100})
        assert diff.gate(base, "b", _snapshot({}), out=io.StringIO()) == 1

    def test_unknown_benchmark_is_usage_error(self):
        base = _baseline({})
        assert diff.gate(base, "nope", _snapshot({}), out=io.StringIO()) == 2

    def test_empty_guard_passes_with_warning(self):
        out = io.StringIO()
        assert diff.gate(_baseline({}), "b", _snapshot({}), out=out) == 0
        assert "no guarded counters" in out.getvalue()


class TestMain:
    # Output *content* is asserted through render_diff/gate directly
    # (their out= parameter); main() tests only check the exit codes.

    def test_pairwise_mode(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps(_snapshot({"q": 1})))
        b.write_text(json.dumps(_snapshot({"q": 2})))
        assert diff.main([str(a), str(b)]) == 0

    def test_gate_mode(self, tmp_path):
        base = tmp_path / "base.json"
        snap = tmp_path / "snap.json"
        base.write_text(json.dumps(_baseline({"q": 100})))
        snap.write_text(json.dumps(_snapshot({"q": 105})))
        ok = diff.main(
            ["--baseline", str(base), "--bench", "b", "--snapshot", str(snap)]
        )
        assert ok == 0
        snap.write_text(json.dumps(_snapshot({"q": 500})))
        assert diff.main(
            ["--baseline", str(base), "--bench", "b", "--snapshot", str(snap)]
        ) == 1

    def test_gate_mode_needs_all_three_flags(self, tmp_path):
        with pytest.raises(SystemExit):
            diff.main(["--baseline", "x.json"])
