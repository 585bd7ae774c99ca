"""Shared infrastructure for the benchmark harness.

Each benchmark reproduces one table or figure of the paper's evaluation
(see DESIGN.md's experiment index).  Benchmarks register their
paper-style tables via the ``report`` fixture; everything registered is
dumped in the terminal summary, so ``pytest benchmarks/ --benchmark-only
| tee bench_output.txt`` captures both pytest-benchmark's timing stats
and the reproduced tables/series.

Observability: pass ``--obs-json PATH`` to enable :mod:`repro.obs` for
the whole run and dump the end-of-run metric snapshot (solver query
counts, cache hit-rates, composition state counts, ...) to ``PATH`` as
schema-versioned JSON — future perf PRs can diff counters, not just
wall-clock.  Setting ``REPRO_OBS=1`` (without a path) also enables
recording; either way the metric table is appended to the terminal
summary.  Pass ``--trace-json PATH`` to also enable recording and write
the run's retained span trees as a Chrome/Perfetto trace-event file
(open it at ``ui.perfetto.dev``).

Environment knobs (all optional):

* ``FIG6_TAGGERS``  — taggers for the Figure 6 histogram (default 40;
  the paper uses 100, which takes a few minutes: 4,950 pairs).
* ``FIG7_MAX_N``    — largest composition count for Figure 7 (default 512).
* ``SEC51_PAGES``   — how many of the 10 page sizes to sweep (default 10).
"""

from __future__ import annotations

import os

import pytest

from repro import obs

_REPORTS: list[tuple[str, str]] = []


def add_report(title: str, body: str) -> None:
    _REPORTS.append((title, body))


@pytest.fixture()
def report():
    """Register a paper-style result table for the terminal summary."""
    return add_report


def pytest_addoption(parser):
    parser.addoption(
        "--obs-json",
        action="store",
        default=None,
        metavar="PATH",
        help="enable repro.obs and write the end-of-run metric snapshot "
        "to PATH as JSON (diffable across PRs)",
    )
    parser.addoption(
        "--trace-json",
        action="store",
        default=None,
        metavar="PATH",
        help="enable repro.obs and write the run's spans as a "
        "Chrome/Perfetto trace-event file (open at ui.perfetto.dev)",
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "soak: long-running endurance benchmark (hundreds to thousands "
        "of jobs through real worker pools); deselect with -m 'not soak' "
        "for a quick benchmark pass",
    )
    if config.getoption("--obs-json") or config.getoption("--trace-json"):
        obs.enabled(True)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _REPORTS:
        terminalreporter.section("reproduced paper tables & figures")
        for title, body in _REPORTS:
            terminalreporter.write_line("")
            terminalreporter.write_line(f"--- {title} ---")
            for line in body.rstrip().splitlines():
                terminalreporter.write_line(line)
    if obs.is_enabled():
        terminalreporter.section("repro.obs metrics")
        for line in obs.render_metrics().splitlines():
            terminalreporter.write_line(line)
        path = config.getoption("--obs-json")
        if path:
            with open(path, "w") as f:
                f.write(obs.render_json())
                f.write("\n")
            terminalreporter.write_line(f"(snapshot written to {path})")
        trace_path = config.getoption("--trace-json")
        if trace_path:
            obs.write_chrome_trace(trace_path)
            terminalreporter.write_line(
                f"(trace written to {trace_path}: "
                f"{len(obs.tracer.retained())} root spans, "
                f"{obs.counter('obs.trace.dropped_roots').value} dropped "
                f"by the root cap)"
            )


def env_int(name: str, default: int) -> int:
    try:
        return int(os.environ.get(name, default))
    except ValueError:
        return default


def pytest_sessionstart(session):
    # The artifact cache would skip the parse/compile work several gated
    # baselines measure (svc_batch_examples exact counts, telemetry
    # overhead ratios), so benchmarks run cache-off unless a benchmark —
    # bench_exec_compile_cache — opts back in explicitly.
    os.environ.setdefault("REPRO_CACHE", "off")
