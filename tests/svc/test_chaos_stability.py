"""Verdict stability under worker chaos (the robustness property).

The contract of the fault-isolated service: injected worker faults —
kills, corrupted replies — may cost *completeness* (a job degrades to
UNKNOWN when its retries run out) but never *soundness* (a PROVED can
not become REFUTED or vice versa).  We run the same batch fault-free
and under several chaos seeds and check every decided outcome agrees
with the fault-free baseline.
"""

from __future__ import annotations

import pytest

from repro.guard.chaos import WorkerChaosPolicy
from repro.svc import AnalysisService, JobSpec, ServiceConfig
from repro.svc.job import ERROR, PROVED, REFUTED

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

LANGS = """\
type BT[v : Int]{L(0), N(2)}
lang anyTree : BT { L() | N(l, r) given (anyTree l) (anyTree r) }
lang posLeaf : BT { L() where (v > 0) }
"""


def specs():
    return [
        JobSpec("pass", "run", PASSING),
        JobSpec("fail", "run", FAILING),
        JobSpec("broken", "run", BROKEN),
        JobSpec("nonempty", "emptiness", PASSING, args=(("lang", "pos"),)),
        JobSpec(
            "ineq",
            "equivalence",
            LANGS,
            args=(("left", "anyTree"), ("right", "posLeaf")),
        ),
    ]


def outcomes(config):
    with AnalysisService(config) as svc:
        return {r.job_id: r.outcome for r in svc.run_jobs(specs())}


BASELINE = {
    "pass": PROVED,
    "fail": REFUTED,
    "broken": ERROR,
    "nonempty": REFUTED,
    "ineq": REFUTED,
}


def test_fault_free_baseline():
    config = ServiceConfig(
        jobs=2, worker_chaos=WorkerChaosPolicy()  # inert: blocks env chaos
    )
    assert outcomes(config) == BASELINE


@pytest.mark.parametrize("seed", [1, 7, 23])
def test_chaos_never_flips_a_decided_verdict(seed):
    config = ServiceConfig(
        jobs=2,
        retries=2,
        worker_chaos=WorkerChaosPolicy(
            seed=seed, kill_rate=0.3, corrupt_rate=0.2
        ),
    )
    chaotic = outcomes(config)  # must not raise: supervisor survives all
    assert set(chaotic) == set(BASELINE)
    for job_id, outcome in chaotic.items():
        if outcome in (PROVED, REFUTED, ERROR):
            # Decided (or permanently errored) ⇒ identical to baseline.
            assert outcome == BASELINE[job_id], (
                f"seed {seed} flipped {job_id}: "
                f"{BASELINE[job_id]} -> {outcome}"
            )
        # else UNKNOWN: an allowed degradation, never a wrong answer.
