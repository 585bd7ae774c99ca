"""Observability for the reproduction: spans, metrics, reports.

Usage::

    from repro import obs

    obs.enabled(True)                 # or REPRO_OBS=1, or `with obs.observed():`
    with obs.span("compose", t1="a", t2="b") as sp:
        ...
        sp.set(states=42)
    obs.counter("solver.sat_queries").inc()

    print(obs.render_text())          # span tree + metric table
    doc = obs.snapshot()              # schema-versioned dict (JSON-able)

Everything is **off by default**; when disabled, :func:`span` returns a
shared no-op object and instrumented call sites skip recording behind a
single flag check (see :mod:`repro.obs.config`), so the instrumented
hot loops stay within noise of un-instrumented timings.

Submodules: :mod:`~repro.obs.config` (the switch),
:mod:`~repro.obs.tracer` (span trees: thread-local stacks, one
retained root store),
:mod:`~repro.obs.metrics` (counter/gauge/histogram registry),
:mod:`~repro.obs.report` (text/JSON emitters),
:mod:`~repro.obs.export` (Chrome/Perfetto traces & flamegraphs, rendered
from the span trees),
:mod:`~repro.obs.diff` (snapshot diffing & the CI regression gate),
:mod:`~repro.obs.provenance` (derivation recording for verdicts),
:mod:`~repro.obs.live` (the Prometheus exposition of a server).
"""

from __future__ import annotations

# NB: `diff` is deliberately not imported here — it doubles as the
# `python -m repro.obs.diff` CLI, and importing it from the package
# would trigger the runpy double-import warning in that mode.
from . import export, live, provenance
from .config import enabled, is_enabled, observed
from .export import chrome_trace, collapsed_stacks, write_chrome_trace, write_flamegraph
from .live import render_prometheus
from .metrics import (
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    Registry,
    counter,
    gauge,
    histogram,
)
from .report import (
    SCHEMA,
    render_json,
    render_metrics,
    render_text,
    render_trace,
    snapshot,
)
from .tracer import (
    NULL_SPAN,
    Span,
    current,
    current_trace_id,
    instant,
    reset_retained,
    reset_trace,
    span,
    trace,
    trace_context,
)


def reset() -> None:
    """Zero all registered metrics and drop every thread's retained spans."""
    REGISTRY.reset()
    reset_retained()


__all__ = [
    "export",
    "provenance",
    "chrome_trace",
    "collapsed_stacks",
    "write_chrome_trace",
    "write_flamegraph",
    "enabled",
    "is_enabled",
    "observed",
    "span",
    "current",
    "current_trace_id",
    "trace_context",
    "instant",
    "trace",
    "reset_trace",
    "Span",
    "NULL_SPAN",
    "live",
    "render_prometheus",
    "counter",
    "gauge",
    "histogram",
    "Counter",
    "Gauge",
    "Histogram",
    "Registry",
    "REGISTRY",
    "SCHEMA",
    "snapshot",
    "render_json",
    "render_text",
    "render_trace",
    "render_metrics",
    "reset",
]
