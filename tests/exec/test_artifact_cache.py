"""The artifact cache: LRU, counters, bypasses, budget discipline.

The autouse ``_isolated_artifact_cache`` fixture (tests/conftest.py)
clears the process-wide LRU around every test, so counter assertions
here are deltas, never absolutes.
"""

import os
import pathlib

import pytest

from repro import obs
from repro.errors import ReproError
from repro.exec.cache import DEFAULT_CACHE, ArtifactCache, cached_artifact
from repro.fast.cli import EXIT_BUDGET, EXIT_OK, main
from repro.fast.evaluator import run_artifact
from repro.obs import metrics as obs_metrics
from repro.smt import Solver
from repro.svc import ServiceConfig
from repro.svc.batch import run_batch

EASY = """\
type BT[v : Int]{L(0), N(2)}
lang pos : BT { N(l, r) where (v > 0) given (pos l) (pos r) | L() }
assert-false (is-empty pos)
"""

EXAMPLES_DIR = (
    pathlib.Path(__file__).resolve().parents[2] / "examples" / "fast_programs"
)

OTHER = EASY.replace("v > 0", "v > 1")
THIRD = EASY.replace("v > 0", "v > 2")

COUNTERS = (
    "exec.cache.hit",
    "exec.cache.miss",
    "exec.cache.store",
    "exec.artifact.builds",
    "fast.parse",
)


def counts():
    return {name: obs_metrics.REGISTRY.counter(name).snapshot() for name in COUNTERS}


def delta(before, name):
    return obs_metrics.REGISTRY.counter(name).snapshot() - before[name]


class TestLayers:
    def test_memory_hit_returns_same_object(self):
        before = counts()
        first = cached_artifact(EASY)
        second = cached_artifact(EASY)
        assert second is first
        assert delta(before, "exec.cache.miss") == 1
        assert delta(before, "exec.cache.hit") == 1
        assert delta(before, "exec.artifact.builds") == 1
        assert delta(before, "fast.parse") == 1
        assert delta(before, "exec.cache.store") == 1

    def test_lru_evicts_oldest(self):
        cache = ArtifactCache(capacity=2)
        for source in (EASY, OTHER, THIRD):
            cached_artifact(source, cache=cache)
        assert len(cache) == 2
        assert EASY not in cache._memory
        assert THIRD in cache._memory


class TestBypasses:
    def test_env_off_disables_cache(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "off")
        before = counts()
        first = cached_artifact(EASY)
        second = cached_artifact(EASY)
        assert second is not first
        assert delta(before, "exec.artifact.builds") == 2
        assert delta(before, "exec.cache.hit") == 0
        assert delta(before, "exec.cache.miss") == 0

    def test_explicit_solver_bypasses_cache(self):
        cached_artifact(EASY)
        before = counts()
        artifact = cached_artifact(EASY, solver=Solver())
        assert delta(before, "exec.artifact.builds") == 1
        assert delta(before, "exec.cache.hit") == 0
        assert run_artifact(artifact).ok

    def test_failed_compile_is_never_stored(self):
        bad = "type )(("
        with pytest.raises(ReproError):
            cached_artifact(bad)
        assert len(DEFAULT_CACHE) == 0
        with pytest.raises(ReproError):
            cached_artifact(bad)


class TestBudgetDiscipline:
    def test_warm_check_still_hits_step_budget(self, tmp_path):
        """A budget too small to compile must stay too small when cached."""
        path = tmp_path / "prog.fast"
        path.write_text(EASY)
        assert main(["check", str(path)]) == EXIT_OK  # warms the cache
        assert main(["check", "--max-steps", "1", str(path)]) == EXIT_BUDGET

    def test_warm_check_with_room_passes(self, tmp_path):
        path = tmp_path / "prog.fast"
        path.write_text(EASY)
        assert main(["check", str(path)]) == EXIT_OK
        assert main(["check", "--max-steps", "1000", str(path)]) == EXIT_OK

    def test_no_cache_flag(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "on")
        path = tmp_path / "prog.fast"
        path.write_text(EASY)
        before = counts()
        assert main(["check", "--no-cache", str(path)]) == EXIT_OK
        assert os.environ["REPRO_CACHE"] == "off"
        assert delta(before, "exec.cache.miss") == 0


@pytest.fixture
def recording():
    """Obs on, so worker counter deltas fold into this process's registry."""
    obs.enabled(True)
    obs.reset()
    yield
    obs.enabled(False)
    obs.reset()


def _write_copies(directory, source, copies):
    directory.mkdir()
    for i in range(copies):
        (directory / f"copy{i}.fast").write_text(source, encoding="utf-8")
    return directory


def test_cache_writes_no_file(tmp_path, monkeypatch):
    """The cache lives in memory: a compile and a batch leave no file."""
    home = tmp_path / "home"
    home.mkdir()
    # Every place a disk cache could resolve to, checked below.
    monkeypatch.setenv("HOME", str(home))
    monkeypatch.setenv("XDG_CACHE_HOME", str(home / ".cache"))
    monkeypatch.setenv("REPRO_CACHE_DIR", str(home / "repro-cache"))
    monkeypatch.setenv("REPRO_CACHE", "on")
    corpus = _write_copies(tmp_path / "corpus", EASY, 2)
    assert run_artifact(cached_artifact(EASY)).ok
    report = run_batch([str(corpus)], config=ServiceConfig(jobs=2))
    assert {r.outcome for r in report.results} == {"PROVED"}
    assert list(home.rglob("*")) == []


@pytest.mark.cache_sensitive
def test_batch_builds_a_shared_program_once(tmp_path, monkeypatch, recording):
    """Four copies of one program: one parse and one build in all.

    The supervisor compiles the shared source before it forks the pool,
    so both workers inherit the artifact and every job is a hit.  The
    verdicts match a cache-off run of the same corpus.
    """
    monkeypatch.setenv("REPRO_CACHE", "on")
    source = (EXAMPLES_DIR / "list_analysis.fast").read_text(encoding="utf-8")
    corpus = _write_copies(tmp_path / "corpus", source, 4)
    config = ServiceConfig(jobs=2)
    before = counts()
    cached = run_batch([str(corpus)], config=config)
    assert delta(before, "fast.parse") == 1
    assert delta(before, "exec.artifact.builds") == 1
    assert delta(before, "exec.cache.hit") == 4

    DEFAULT_CACHE.clear()
    monkeypatch.setenv("REPRO_CACHE", "off")
    uncached = run_batch([str(corpus)], config=config)
    verdicts = {r.job_id: r.outcome for r in cached.results}
    assert len(verdicts) == 4
    assert set(verdicts.values()) <= {"PROVED", "REFUTED"}
    assert verdicts == {r.job_id: r.outcome for r in uncached.results}
