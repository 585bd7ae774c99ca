"""CLI exit codes, the default ``run`` command, and ``--profile``."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import obs
from repro.fast import cli
from repro.fast.cli import (
    EXIT_ASSERTION_FAILED,
    EXIT_ERROR,
    EXIT_INTERNAL,
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
    """--profile flips the global obs flag; put it back after each test."""
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


class TestExitCodes:
    def test_ok(self, program):
        assert main(["run", program(PASSING)]) == EXIT_OK

    def test_assertion_failure_is_1(self, program, capsys):
        assert main(["run", program(FAILING_ASSERT)]) == EXIT_ASSERTION_FAILED
        assert "FAIL" in capsys.readouterr().out

    def test_parse_error_is_2(self, program, capsys):
        assert main(["run", program("type )((")]) == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_compile_error_is_2(self, program, capsys):
        bad = PASSING.replace("(pos l)", "(nope l)")
        assert main(["run", program(bad)]) == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_missing_file_is_2(self, capsys):
        assert main(["run", "/nonexistent.fast"]) == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_exit_codes_documented_in_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        help_text = capsys.readouterr().out
        assert "exit codes" in help_text
        assert "assertion failure" in help_text

    def test_distinct_codes(self, program):
        # the satellite's point: 1 and 2 are distinguishable
        assert main(["run", program(FAILING_ASSERT)]) != main(
            ["run", program("syntax error !")]
        )


#: Two tree types and one language and transducer over each.
TWO_TYPES = """\
type BT[v : Int]{L(0), N(2)}
type UT[v : Int]{nil(0), cons(1)}
lang pos : BT { N(l, r) where (v > 0) given (pos l) (pos r) | L() }
lang any : UT { nil() | cons(y) }
trans id : BT -> BT { L() to (L [v]) | N(l, r) to (N [v] (id l) (id r)) }
trans ul : UT -> UT { nil() to (nil [v]) | cons(y) to (cons [v] (ul y)) }
"""

#: One use per operator of a BT operand with a UT one.
MIXED_TYPES = {
    "compose": "def c : BT -> BT := (compose id ul)",
    "restrict": "def c : BT -> BT := (restrict id any)",
    "restrict-out": "def c : BT -> BT := (restrict-out id any)",
    "pre-image": "def c : BT := (pre-image id any)",
    "type-check": "assert-true (type-check pos id any)",
    "intersect": "def c : BT := (intersect pos any)",
    "union": "def c : BT := (union pos any)",
    "difference": "def c : BT := (difference pos any)",
}


class TestOperandTypes:
    @pytest.mark.parametrize("op", sorted(MIXED_TYPES))
    def test_mixed_tree_types_are_a_type_error(self, op, program, capsys):
        path = program(TWO_TYPES + MIXED_TYPES[op] + "\n")
        # `check` evaluates definitions, not assertions.
        commands = ["run"] if op == "type-check" else ["run", "check"]
        for command in commands:
            assert main([command, path]) == EXIT_ERROR
            err = capsys.readouterr().err
            assert f"error: {op}: operand over UT, expected BT (line 7" in err

    def test_uncaught_exception_is_internal(self, program, capsys, monkeypatch):
        def crash(source):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "run_program", crash)
        assert main(["run", program(PASSING)]) == EXIT_INTERNAL
        assert "internal error: RuntimeError: boom" in capsys.readouterr().err


class TestDefaultCommand:
    def test_bare_file_runs(self, program, capsys):
        assert main([program(PASSING)]) == EXIT_OK
        assert "assertions passed" in capsys.readouterr().out

    def test_explicit_commands_still_work(self, program, capsys):
        assert main(["check", program(PASSING)]) == EXIT_OK
        assert "ok" in capsys.readouterr().out
        assert main(["fmt", program(PASSING)]) == EXIT_OK


class TestProfile:
    def test_profile_prints_trace_and_metrics(self, capsys):
        path = EXAMPLES / "world_tagger.fast"
        assert main(["--profile", str(path)]) == EXIT_OK
        err = capsys.readouterr().err
        assert "== trace ==" in err and "== metrics ==" in err
        # per-phase timings
        for phase in ("parse", "compile", "assert"):
            assert phase in err
        # solver cache hit-rate and composition state counts
        assert "solver.cache_hit_rate" in err
        assert "compose.states_explored" in err

    def test_profile_with_subcommand(self, program, capsys):
        assert main(["run", "--profile", program(PASSING)]) == EXIT_OK
        assert "== trace ==" in capsys.readouterr().err

    def test_profile_json(self, program, tmp_path):
        out = tmp_path / "obs.json"
        assert main(["--profile-json", str(out), program(PASSING)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["schema"] == obs.SCHEMA
        assert "solver.sat_queries" in doc["metrics"]
        assert any(t["name"] == "run_program" for t in doc["trace"])

    def test_no_profile_no_report(self, program, capsys):
        assert main(["run", program(PASSING)]) == EXIT_OK
        assert "== trace ==" not in capsys.readouterr().err
