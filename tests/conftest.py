"""Session-level hooks.

Setting ``REPRO_CHAOS`` (e.g. ``seed=7,latency=0.0002,flush_rate=0.02``)
runs the whole suite against a chaos-patched solver — the CI chaos-smoke
job uses a *semantics-preserving* policy (latency + cache flushes) and
requires the full tier-1 suite to stay green under it.
"""

from __future__ import annotations

import os

import pytest

_UNDO = None


def pytest_addoption(parser):
    parser.addoption(
        "--run-slow",
        action="store_true",
        default=False,
        help="also run tests marked slow (minute-long soaks through the "
        "real CLI)",
    )


def pytest_configure(config):
    global _UNDO
    config.addinivalue_line(
        "markers",
        "slow: minute-long soak through the real CLI; runs only with "
        "--run-slow",
    )
    config.addinivalue_line(
        "markers",
        "cache_sensitive: asserts exact memo-cache hit counts; skipped "
        "under REPRO_CHAOS flush injection, which empties caches at "
        "random query boundaries (semantics stay covered, counts don't)",
    )
    if os.environ.get("REPRO_CHAOS"):
        from repro.guard.chaos import install_from_env

        _UNDO = install_from_env()


def pytest_collection_modifyitems(config, items):
    if not config.getoption("--run-slow"):
        skip_slow = pytest.mark.skip(reason="slow soak; pass --run-slow")
        for item in items:
            if item.get_closest_marker("slow"):
                item.add_marker(skip_slow)
    if not os.environ.get("REPRO_CHAOS"):
        return
    skip = pytest.mark.skip(
        reason="cache-hit-count assertion; invalid under chaos flush injection"
    )
    for item in items:
        if item.get_closest_marker("cache_sensitive"):
            item.add_marker(skip)


def pytest_unconfigure(config):
    global _UNDO
    if _UNDO is not None:
        _UNDO()
        _UNDO = None


@pytest.fixture(autouse=True)
def _isolated_artifact_cache():
    """Empty the artifact cache's LRU around every test.

    Cross-test cache hits would silently skip parse/compile — breaking
    exact solver-query-count and budget-exhaustion assertions — so every
    test starts cold unless it warms the cache itself.
    """
    from repro.exec.cache import DEFAULT_CACHE

    DEFAULT_CACHE.clear()
    yield
    DEFAULT_CACHE.clear()
