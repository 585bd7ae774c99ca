"""The ``fast explain`` subcommand and always-emitted observability outputs."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import obs
from repro.fast.cli import (
    EXIT_ASSERTION_FAILED,
    EXIT_BUDGET,
    EXIT_ERROR,
    EXIT_OK,
    main,
)

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "fast_programs"

PASSING = """\
type BT[v : Int]{L(0), N(2)}
lang pos : BT { N(l, r) where (v > 0) given (pos l) (pos r) | L() }
assert-false (is-empty pos)
"""

FAILING_ASSERT = """\
type BT[v : Int]{L(0), N(2)}
lang pos : BT { N(l, r) where (v > 0) given (pos l) (pos r) | L() }
assert-true (is-empty pos)
"""


@pytest.fixture(autouse=True)
def restore_obs():
    """The CLI flips global obs state; put it back after each test."""
    yield
    obs.enabled(False)
    obs.reset()


@pytest.fixture()
def program(tmp_path):
    def write(source: str, name: str = "prog.fast") -> str:
        p = tmp_path / name
        p.write_text(source)
        return str(p)

    return write


class TestExplain:
    def test_passing_program_exits_ok(self, program, capsys):
        assert main(["explain", program(PASSING)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "[PASS]" in out
        assert "1/1 assertions passed" in out

    def test_failing_assert_exits_1_with_derivation(self, program, capsys):
        assert main(["explain", program(FAILING_ASSERT)]) == EXIT_ASSERTION_FAILED
        out = capsys.readouterr().out
        assert "[FAIL]" in out
        assert "derivation:" in out
        assert "rule fired:" in out
        assert "decisive query:" in out

    def test_sanitizer_example_names_rules_and_queries(self, capsys):
        # Acceptance: the Section 2/5.1 sanitizer analysis explains itself.
        path = str(EXAMPLES / "sanitizer_buggy.fast")
        assert main(["explain", path]) == EXIT_ASSERTION_FAILED
        out = capsys.readouterr().out
        assert "rule fired:" in out
        assert "decisive query:" in out
        assert "witness:" in out

    def test_json_output(self, program, capsys):
        assert main(["explain", "--json", program(FAILING_ASSERT)]) == 1
        doc = json.loads(capsys.readouterr().out)
        (entry,) = doc["assertions"]
        assert entry["passed"] is False
        assert entry["derivation"]  # non-empty derivation tree
        assert entry["witness"]

    def test_budget_exhaustion_exits_3(self, program, capsys):
        # A unique guard constant so the process-wide solver cache can't
        # answer for free (cache hits don't charge the budget).
        fresh = PASSING.replace("(v > 0)", "(v > 987001)")
        rc = main(["explain", program(fresh), "--max-solver-queries", "0"])
        assert rc == EXIT_BUDGET
        assert "[UNKNOWN]" in capsys.readouterr().out

    def test_front_end_error_exits_2(self, program):
        assert main(["explain", program("type )((")]) == EXIT_ERROR


class TestAlwaysEmitOutputs:
    """Satellite bugfix: observability outputs survive every exit path."""

    def test_profile_json_on_assertion_failure(self, program, tmp_path):
        out = tmp_path / "obs.json"
        rc = main(["run", program(FAILING_ASSERT), "--profile-json", str(out)])
        assert rc == EXIT_ASSERTION_FAILED
        doc = json.loads(out.read_text())
        assert doc["metrics"]["solver.sat_queries"] > 0

    def test_profile_json_on_unreadable_file(self, tmp_path, capsys):
        out = tmp_path / "obs.json"
        rc = main(["run", str(tmp_path / "missing.fast"),
                   "--profile-json", str(out)])
        assert rc == EXIT_ERROR
        assert out.exists()  # used to be skipped on the OSError path
        json.loads(out.read_text())

    def test_profile_json_on_front_end_error(self, program, tmp_path, capsys):
        out = tmp_path / "obs.json"
        rc = main(["run", program("type )(("), "--profile-json", str(out)])
        assert rc == EXIT_ERROR
        assert out.exists()

    def test_profile_json_on_budget_exhaustion(self, program, tmp_path, capsys):
        out = tmp_path / "obs.json"
        # Unique constant: the shared solver cache must not absorb the query.
        fresh = PASSING.replace("(v > 0)", "(v > 987002)")
        rc = main(
            ["run", program(fresh), "--max-solver-queries", "0",
             "--profile-json", str(out)]
        )
        assert rc == EXIT_BUDGET
        assert out.exists()

    def test_unwritable_output_warns_without_masking_exit(
        self, program, tmp_path, capsys
    ):
        rc = main(
            ["run", program(PASSING),
             "--profile-json", str(tmp_path / "nodir" / "obs.json")]
        )
        assert rc == EXIT_OK  # the command's own result wins
        assert "could not write observability output" in capsys.readouterr().err


def _assert_balanced(evs):
    """Balanced B/E nesting: what Perfetto needs to render slices."""
    depth = 0
    for e in evs:
        if e["ph"] == "B":
            depth += 1
        elif e["ph"] == "E":
            depth -= 1
        assert depth >= 0, "unbalanced trace"
    assert depth == 0, "unbalanced trace"


class TestTraceFlags:
    def test_trace_json_loads_as_chrome_trace(self, program, tmp_path):
        out = tmp_path / "run.trace.json"
        rc = main(["run", program(PASSING), "--trace-json", str(out)])
        assert rc == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["displayTimeUnit"] == "ms"
        evs = doc["traceEvents"]
        assert any(e["name"] == "run_program" for e in evs)
        _assert_balanced(evs)

    def test_sanitizer_buggy_trace_is_balanced(self, tmp_path):
        """The CI trace export smoke: a failing example still writes a
        Perfetto-loadable trace (valid JSON, balanced B/E nesting)."""
        out = tmp_path / "smoke.trace.json"
        rc = main(
            ["run", str(EXAMPLES / "sanitizer_buggy.fast"),
             "--trace-json", str(out),
             "--flamegraph", str(tmp_path / "smoke.folded")]
        )
        assert rc in (EXIT_OK, EXIT_ASSERTION_FAILED)
        _assert_balanced(json.loads(out.read_text())["traceEvents"])

    def test_trace_emitted_on_failure_too(self, program, tmp_path):
        out = tmp_path / "fail.trace.json"
        rc = main(["run", program(FAILING_ASSERT), "--trace-json", str(out)])
        assert rc == EXIT_ASSERTION_FAILED
        assert json.loads(out.read_text())["traceEvents"]

    def test_flamegraph_lines_parse(self, program, tmp_path):
        out = tmp_path / "run.folded"
        rc = main(["run", program(PASSING), "--flamegraph", str(out)])
        assert rc == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines
        for line in lines:
            stack, value = line.rsplit(" ", 1)
            assert stack
            assert int(value) >= 0
        assert any(l.startswith("run_program") for l in lines)
