"""The artifact cache: layers, counters, bypasses, budget discipline.

The autouse ``_isolated_artifact_cache`` fixture (tests/conftest.py)
points ``REPRO_CACHE_DIR`` at a per-test tmp dir and clears the
process-wide memory layer around every test, so counter assertions here
are deltas, never absolutes.
"""

import hashlib
import json
import os
import pathlib

import pytest

from repro.errors import ReproError
from repro.exec.artifact import CompiledArtifact, build_artifact
from repro.exec.cache import DEFAULT_CACHE, ArtifactCache, cache_key, cached_artifact
from repro.fast.cli import EXIT_BUDGET, EXIT_OK, main
from repro.fast.evaluator import explain_artifact, run_artifact
from repro.obs import metrics as obs_metrics
from repro.smt import Solver

EASY = """\
type BT[v : Int]{L(0), N(2)}
lang pos : BT { N(l, r) where (v > 0) given (pos l) (pos r) | L() }
assert-false (is-empty pos)
"""

OTHER = EASY.replace("v > 0", "v > 1")
THIRD = EASY.replace("v > 0", "v > 2")

COUNTERS = (
    "exec.cache.hit",
    "exec.cache.miss",
    "exec.cache.store",
    "exec.cache.disk_errors",
    "exec.artifact.builds",
    "fast.parse",
)


def counts():
    return {name: obs_metrics.REGISTRY.counter(name).snapshot() for name in COUNTERS}


def delta(before, name):
    return obs_metrics.REGISTRY.counter(name).snapshot() - before[name]


def cache_dir():
    return os.environ["REPRO_CACHE_DIR"]


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

    def test_disk_hit_after_memory_clear(self):
        before = counts()
        cached_artifact(EASY)
        DEFAULT_CACHE.clear()  # memory only; the disk entry survives
        artifact = cached_artifact(EASY)
        assert isinstance(artifact, CompiledArtifact)
        assert delta(before, "fast.parse") == 1  # never re-parsed
        assert delta(before, "exec.cache.hit") == 1
        # The revived artifact actually evaluates.
        report = run_artifact(artifact)
        assert report.ok

    def test_corrupt_disk_entry_is_dropped_and_recompiled(self):
        cached_artifact(EASY)
        DEFAULT_CACHE.clear()
        path = os.path.join(cache_dir(), f"{cache_key(EASY)}.json")
        with open(path, "w") as f:
            f.write("{not json")
        before = counts()
        artifact = cached_artifact(EASY)
        assert isinstance(artifact, CompiledArtifact)
        assert delta(before, "exec.cache.miss") == 1
        assert delta(before, "exec.artifact.builds") == 1
        assert not os.path.exists(path) or os.path.getsize(path) > 20

    def test_lru_evicts_oldest(self):
        cache = ArtifactCache(capacity=2)
        for source in (EASY, OTHER, THIRD):
            cached_artifact(source, cache=cache)
        assert len(cache) == 2
        assert cache_key(EASY) not in cache._memory
        assert cache_key(THIRD) in cache._memory

    def test_prewarm_lifts_disk_entries_into_memory(self):
        cached_artifact(EASY)
        cached_artifact(OTHER)
        DEFAULT_CACHE.clear()
        assert len(DEFAULT_CACHE) == 0
        before = counts()
        loaded = DEFAULT_CACHE.prewarm_from_disk()
        assert loaded == 2
        assert len(DEFAULT_CACHE) == 2
        # Prewarm is not a hit; the next get is (a memory one).
        assert delta(before, "exec.cache.hit") == 0
        cached_artifact(EASY)
        assert delta(before, "exec.cache.hit") == 1


class TestIntegrity:
    """Disk corruption degrades to a counted miss — never a wrong program.

    Every disk entry is a checksummed envelope; these tests vandalize
    the stored bytes in the ways real disks do (truncation, bit flips)
    and check the cache fails closed: recompile, count the incident
    under ``exec.cache.disk_errors``, drop the bad entry.
    """

    def _entry_path(self):
        return os.path.join(cache_dir(), f"{cache_key(EASY)}.json")

    def _vandalize(self, mutate):
        """Warm the disk entry, clear memory, and corrupt the file."""
        cached_artifact(EASY)
        DEFAULT_CACHE.clear()
        path = self._entry_path()
        with open(path, "rb") as f:
            blob = f.read()
        with open(path, "wb") as f:
            f.write(mutate(blob))
        return path

    def test_truncated_entry_is_counted_miss(self):
        path = self._vandalize(lambda blob: blob[: len(blob) // 2])
        before = counts()
        artifact = cached_artifact(EASY)
        report = run_artifact(artifact)
        assert report.ok
        assert delta(before, "exec.cache.miss") == 1
        assert delta(before, "exec.cache.disk_errors") == 1
        assert delta(before, "exec.artifact.builds") == 1

    def test_bit_flip_inside_payload_is_detected(self):
        # Flip one bit deep inside the payload: still valid-enough JSON
        # structure in many positions, but the checksum always catches
        # it — a silently-altered artifact must never be revived.
        def flip(blob):
            i = (3 * len(blob)) // 4
            return blob[:i] + bytes([blob[i] ^ 0x01]) + blob[i + 1 :]

        self._vandalize(flip)
        before = counts()
        artifact = cached_artifact(EASY)
        assert run_artifact(artifact).ok
        assert delta(before, "exec.cache.hit") == 0
        assert delta(before, "exec.cache.disk_errors") == 1
        assert delta(before, "exec.artifact.builds") == 1

    def test_unenveloped_legacy_entry_is_dropped(self):
        # A pre-envelope cache file (raw payload, no checksum) is
        # treated as corrupt: dropped, counted, recompiled.
        cached_artifact(EASY)
        path = self._entry_path()
        with open(path, encoding="utf-8") as f:
            payload = json.load(f)["payload"]
        with open(path, "w", encoding="utf-8") as f:
            json.dump(payload, f)
        DEFAULT_CACHE.clear()
        before = counts()
        assert run_artifact(cached_artifact(EASY)).ok
        assert delta(before, "exec.cache.disk_errors") == 1

    def test_corrupt_entry_is_unlinked_and_rewritten(self):
        path = self._vandalize(lambda blob: b"\x00" + blob)
        before = counts()
        cached_artifact(EASY)
        # The bad entry was replaced by a fresh, loadable envelope.
        DEFAULT_CACHE.clear()
        assert cached_artifact(EASY) is not None
        assert delta(before, "exec.cache.disk_errors") == 1
        assert delta(before, "exec.cache.store") == 1

    def test_missing_file_is_a_plain_miss_not_a_disk_error(self):
        before = counts()
        cached_artifact(EASY)  # no disk entry yet: plain miss
        assert delta(before, "exec.cache.miss") == 1
        assert delta(before, "exec.cache.disk_errors") == 0


EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parents[2] / "examples" / "fast_programs")
    .glob("*.fast")
)


def _without_query_counts(node):
    """Drop the ``queries`` provenance notes of an explain dict, recursively.

    They count the solver calls a derivation actually made: a fresh
    artifact shares the solver its compile warmed, a revived one starts
    with a cold solver, so the counts differ by design while verdicts,
    rules, decisive queries and witnesses may not.
    """
    if isinstance(node, list):
        return [_without_query_counts(n) for n in node]
    if not isinstance(node, dict):
        return node
    return {
        k: _without_query_counts(
            [c for c in v if c.get("kind") != "queries"]
            if k == "children"
            else v
        )
        for k, v in node.items()
    }


class TestDiskEncoding:
    """A stored entry is one canonical encoding, hashed and written once."""

    def _entry_text(self, source=EASY):
        cached_artifact(source)
        path = os.path.join(cache_dir(), f"{cache_key(source)}.json")
        with open(path, encoding="utf-8") as f:
            return path, f.read()

    def test_entry_is_exactly_one_canonical_encoding(self):
        _path, text = self._entry_text()
        envelope = json.loads(text)
        payload_text = text[text.index('"payload":') + len('"payload":') : -1]
        canonical = json.dumps(
            json.loads(payload_text), sort_keys=True, separators=(",", ":")
        )
        assert payload_text == canonical
        digest = hashlib.sha256(payload_text.encode("utf-8")).hexdigest()
        assert envelope["sha256"] == digest
        assert text == f'{{"sha256":"{digest}","payload":{payload_text}}}'

    def test_entry_written_by_json_dump_still_loads(self):
        # The layout written before stores encoded the payload once:
        # json.dump of the envelope, default separators, insertion-order
        # keys.  Same content, same checksum: it must stay a hit.
        path, text = self._entry_text()
        envelope = json.loads(text)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(envelope, f)
        DEFAULT_CACHE.clear()
        before = counts()
        assert run_artifact(cached_artifact(EASY)).ok
        assert delta(before, "exec.cache.hit") == 1
        assert delta(before, "exec.cache.disk_errors") == 0
        assert delta(before, "exec.artifact.builds") == 0

    @pytest.mark.parametrize("program", EXAMPLES, ids=lambda p: p.stem)
    def test_disk_revived_artifact_explains_like_fresh(self, program):
        # Memory-vs-disk redundant pair: the revived artifact (sorted
        # env dict order after the round trip) must explain every
        # assertion exactly as the freshly built one does.
        source = program.read_text(encoding="utf-8")
        fresh = cached_artifact(source)
        DEFAULT_CACHE.clear()
        before = counts()
        revived = cached_artifact(source)
        assert revived is not fresh
        assert delta(before, "exec.cache.hit") == 1
        assert delta(before, "exec.artifact.builds") == 0
        fresh_report = explain_artifact(fresh).to_dict()
        revived_report = explain_artifact(revived).to_dict()
        assert fresh_report["assertions"]
        assert _without_query_counts(revived_report) == _without_query_counts(
            fresh_report
        )


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
        assert not os.path.exists(
            os.path.join(cache_dir(), f"{cache_key(bad)}.json")
        )
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


def test_version_salt_changes_key(monkeypatch):
    from repro.exec import cache as cache_mod

    key = cache_key(EASY)
    monkeypatch.setattr(cache_mod, "_SALT", "other-version:other-schema")
    assert cache_mod.cache_key(EASY) != key


class TestPrewarmPlan:
    """The plan/apply split that worker respawns ride.

    A supervisor computes the key plan once (cheap: listdir + stats)
    and ships the same tuple to every spawned or recycled worker, so
    replacements warm in one pass with no directory re-scan.
    """

    def test_plan_lists_newest_first_without_loading(self):
        cached_artifact(EASY)
        cached_artifact(OTHER)
        before = counts()
        plan = DEFAULT_CACHE.prewarm_plan()
        assert set(plan) == {cache_key(EASY), cache_key(OTHER)}
        assert plan[0] == cache_key(OTHER)  # newest first
        # Planning is metadata-only: no hits, no prewarm loads.
        assert delta(before, "exec.cache.hit") == 0

    def test_plan_respects_limit(self):
        for source in (EASY, OTHER, THIRD):
            cached_artifact(source)
        assert len(DEFAULT_CACHE.prewarm_plan(limit=2)) == 2

    def test_plan_on_empty_dir_is_empty(self):
        assert DEFAULT_CACHE.prewarm_plan() == ()

    def test_prewarm_from_keys_lifts_exactly_the_plan(self):
        cached_artifact(EASY)
        cached_artifact(OTHER)
        plan = DEFAULT_CACHE.prewarm_plan()
        DEFAULT_CACHE.clear()
        loaded = DEFAULT_CACHE.prewarm_from_keys(plan)
        assert loaded == 2
        assert len(DEFAULT_CACHE) == 2

    def test_stale_plan_entries_are_skipped(self):
        cached_artifact(EASY)
        plan = DEFAULT_CACHE.prewarm_plan() + ("not-a-real-key",)
        DEFAULT_CACHE.clear()
        assert DEFAULT_CACHE.prewarm_from_keys(plan) == 1

    def test_in_memory_entries_are_not_reloaded(self):
        cached_artifact(EASY)
        plan = DEFAULT_CACHE.prewarm_plan()
        # Still resident: applying the plan loads nothing.
        assert DEFAULT_CACHE.prewarm_from_keys(plan) == 0

    def test_prewarm_from_disk_is_plan_plus_apply(self):
        cached_artifact(EASY)
        cached_artifact(OTHER)
        DEFAULT_CACHE.clear()
        assert DEFAULT_CACHE.prewarm_from_disk() == 2
