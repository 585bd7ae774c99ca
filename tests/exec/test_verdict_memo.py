"""The artifact's memo of decided assertion verdicts.

``explain_artifact`` decides each assertion of an artifact once and, on
later calls, replays the verdict and the budget charge its check made.
These tests pin what makes that invisible except in latency:

* a hit explains every assertion exactly as the first run did;
* a budget too small to decide stays too small, and UNKNOWN is never
  stored;
* a hit under a budget charges what the first run charged;
* an installed solver chaos policy bypasses the memo, so the faults it
  injects still reach the solver.
"""

from __future__ import annotations

import pathlib
import random

import pytest

from perfbench import inputs
from repro.exec.artifact import build_artifact
from repro.exec.cache import cached_artifact
from repro.fast.evaluator import explain_artifact
from repro.guard import Budget, scope
from repro.guard.chaos import ChaosPolicy, inject
from repro.obs import metrics as obs_metrics

ROOT = pathlib.Path(__file__).resolve().parents[2]

EXAMPLES = {
    p.stem: p.read_text(encoding="utf-8")
    for p in sorted((ROOT / "examples" / "fast_programs").glob("*.fast"))
}
#: One program from each perfbench family, as ``analyze``/``serve`` send.
PERFBENCH = {
    family.__name__: family(random.Random(1), safe).source
    for family, safe in (
        (inputs.lists_program, False),
        (inputs.sanitizer_program, True),
        (inputs.taggers_program, False),
    )
}
SOURCES = {**EXAMPLES, **PERFBENCH}

#: A single-assertion program, so a budget is charged by one check only.
ONE_ASSERTION = EXAMPLES["sanitizer_fixed"]

_REPLAYS = obs_metrics.counter("exec.verdict.replay")


def _without_elapsed(doc: dict) -> dict:
    """``ExplainReport.to_dict()`` minus each ``snapshot.elapsed``."""
    for a in doc["assertions"]:
        if a["snapshot"] is not None:
            a["snapshot"].pop("elapsed")
    return doc


def _large() -> Budget:
    return Budget(max_steps=10**9, max_solver_queries=10**9)


@pytest.mark.cache_sensitive
@pytest.mark.parametrize("name", sorted(SOURCES))
def test_hit_explains_like_the_first_run(name):
    source = SOURCES[name]
    artifact = cached_artifact(source)
    before = _REPLAYS.value
    first = explain_artifact(artifact)
    assert _REPLAYS.value == before, "the first run must decide, not replay"
    assert cached_artifact(source) is artifact
    second = explain_artifact(artifact)
    assert _REPLAYS.value - before == len(first.assertions) > 0
    assert second.to_dict() == first.to_dict()

    # Under a budget too: equal reports (bar the clock), and the
    # verdicts a memo-less artifact decides afresh.
    with scope(_large()):
        budgeted = explain_artifact(artifact).to_dict()
    with scope(_large()):
        replayed = explain_artifact(artifact).to_dict()
    assert _without_elapsed(replayed) == _without_elapsed(budgeted)
    fresh = build_artifact(source)
    fresh.verdicts = None
    fresh_verdicts = [
        (a.verdict.outcome, a.verdict.reason, a.verdict.witness)
        for a in explain_artifact(fresh).assertions
    ]
    assert fresh_verdicts == [
        (a.verdict.outcome, a.verdict.reason, a.verdict.witness)
        for a in second.assertions
    ]


@pytest.mark.parametrize(
    "record_first", [False, pytest.param(True, marks=pytest.mark.cache_sensitive)]
)
def test_budget_too_small_to_decide_stays_unknown(record_first):
    artifact = cached_artifact(ONE_ASSERTION)
    if record_first:
        with scope(_large()):
            assert explain_artifact(artifact).ok
        recorded = dict(artifact.verdicts)
        assert recorded
    for _ in range(2):
        with scope(max_steps=5):
            report = explain_artifact(artifact)
        assert [a.passed for a in report.assertions] == [None]
        assert report.assertions[0].verdict.is_unknown
    # UNKNOWN is never stored; a recorded verdict stays as it was.
    assert artifact.verdicts == (recorded if record_first else {})


@pytest.mark.cache_sensitive
@pytest.mark.parametrize("name", ["list_analysis", "world_tagger", "lists_program"])
def test_hit_charges_what_the_first_run_charged(name):
    artifact = cached_artifact(SOURCES[name])
    # Compiling warmed the solver's memo; a cold one makes the first
    # run charge solver queries, which the hit must charge again.
    artifact.env.solver.clear_cache()
    with scope(_large()) as first:
        explain_artifact(artifact)
    assert first.steps > 0 and first.solver_queries > 0
    before = _REPLAYS.value
    with scope(_large()) as hit:
        explain_artifact(artifact)
    assert _REPLAYS.value - before == len(artifact.verdicts)
    assert (hit.steps, hit.solver_queries) == (
        first.steps,
        first.solver_queries,
    )


@pytest.mark.cache_sensitive
def test_unaffordable_charge_reruns_the_check():
    # Record a charge on a cold solver memo, so it includes solver
    # queries.  A warm memo-less run decides without them; under a query
    # budget one short of the recorded charge, the hit must answer (and
    # charge) exactly what that memo-less run does.
    artifact = cached_artifact(ONE_ASSERTION)
    artifact.env.solver.clear_cache()
    with scope(_large()) as recorded:
        explain_artifact(artifact)
    assert recorded.solver_queries > 0
    twin = build_artifact(ONE_ASSERTION)
    twin.verdicts = None
    explain_artifact(twin)
    tight = recorded.solver_queries - 1
    with scope(max_solver_queries=tight) as hit:
        got = explain_artifact(artifact).assertions[0].verdict
    with scope(max_solver_queries=tight) as fresh:
        want = explain_artifact(twin).assertions[0].verdict
    assert want.is_proved
    assert got.outcome == want.outcome
    assert (hit.steps, hit.solver_queries) == (fresh.steps, fresh.solver_queries)


@pytest.mark.cache_sensitive
def test_chaos_still_reaches_the_solver():
    artifact = cached_artifact(ONE_ASSERTION)
    assert explain_artifact(artifact).ok
    assert artifact.verdicts, "the verdict must be memoized before chaos"
    with inject(ChaosPolicy(fault_after=0)) as policy:
        report = explain_artifact(artifact)
    assert policy.counts["fault"] == 1
    assert report.assertions[0].verdict.is_unknown
    assert "injected solver fault" in report.assertions[0].verdict.reason


def test_explicit_solver_artifacts_keep_no_memo():
    from repro.smt.solver import Solver

    artifact = cached_artifact(ONE_ASSERTION, solver=Solver())
    assert artifact.verdicts is None
    assert explain_artifact(artifact).ok
    assert artifact.verdicts is None
