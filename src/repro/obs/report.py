"""Report emitters: the trace tree and metric table, as text and JSON.

The JSON document is schema-versioned (:data:`SCHEMA`) so future PRs can
diff ``BENCH_*.json`` snapshots across revisions without guessing the
layout.  Derived ratios (currently the solver cache hit-rate) are
computed here at snapshot time rather than maintained incrementally on
the hot path.
"""

from __future__ import annotations

import json
from typing import Any

from .metrics import REGISTRY, Histogram, Registry
from .tracer import Span, trace

#: Version tag embedded in every JSON snapshot.
SCHEMA = "repro.obs/v1"


def _derived(metrics: dict[str, Any]) -> dict[str, Any]:
    """Ratios computed from raw counters at snapshot time."""
    out: dict[str, Any] = {}
    queries = metrics.get("solver.sat_queries")
    hits = metrics.get("solver.cache_hits")
    if isinstance(queries, int) and isinstance(hits, int):
        out["solver.cache_hit_rate"] = round(hits / queries, 4) if queries else 0.0
    return out


def span_to_dict(span: Span) -> dict[str, Any]:
    return {
        "name": span.name,
        "duration_ms": (
            None if span.duration is None else round(span.duration * 1e3, 3)
        ),
        "attrs": dict(span.attrs),
        "children": [span_to_dict(c) for c in span.children],
    }


def snapshot(registry: Registry | None = None, include_trace: bool = True) -> dict:
    """The full machine-readable report (metrics + this thread's trace)."""
    reg = registry if registry is not None else REGISTRY
    metrics = reg.snapshot()
    metrics.update(_derived(metrics))
    doc: dict[str, Any] = {"schema": SCHEMA, "metrics": metrics}
    if include_trace:
        doc["trace"] = [span_to_dict(s) for s in trace()]
    return doc


def render_json(registry: Registry | None = None, indent: int | None = 2) -> str:
    return json.dumps(snapshot(registry), indent=indent, sort_keys=False)


# -- text rendering ----------------------------------------------------------


def _render_span(span: Span, prefix: str, is_last: bool, lines: list[str]) -> None:
    connector = "`- " if is_last else "|- "
    dur = "  (open)" if span.duration is None else f"  {span.duration * 1e3:8.2f} ms"
    attrs = ""
    if span.attrs:
        attrs = "  [" + ", ".join(f"{k}={v}" for k, v in span.attrs.items()) + "]"
    lines.append(f"{prefix}{connector}{span.name}{dur}{attrs}")
    child_prefix = prefix + ("   " if is_last else "|  ")
    for i, c in enumerate(span.children):
        _render_span(c, child_prefix, i == len(span.children) - 1, lines)


def render_trace() -> str:
    """This thread's span tree, one line per span, indented by depth."""
    roots = trace()
    if not roots:
        return "(no spans recorded)"
    lines: list[str] = []
    for i, root in enumerate(roots):
        _render_span(root, "", i == len(roots) - 1, lines)
    return "\n".join(lines)


def _format_value(value: Any) -> str:
    if isinstance(value, dict):  # histogram snapshot
        text = (
            f"n={value['count']} sum={value['sum']:g} "
            f"min={value['min']:g} max={value['max']:g} mean={value['mean']:.2f}"
        )
        if "p50" in value:
            text += (
                f" p50={value['p50']:g} p95={value['p95']:g} "
                f"p99={value['p99']:g}"
            )
        return text
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def render_metrics(registry: Registry | None = None) -> str:
    """The metric table: one ``name  value`` row per metric, sorted."""
    reg = registry if registry is not None else REGISTRY
    metrics = reg.snapshot()
    metrics.update(_derived(metrics))
    if not metrics:
        return "(no metrics recorded)"
    width = max(len(name) for name in metrics)
    return "\n".join(
        f"{name:<{width}}  {_format_value(value)}"
        for name, value in sorted(metrics.items())
    )


def render_text(registry: Registry | None = None) -> str:
    """Human-readable report: trace tree followed by the metric table."""
    return (
        "== trace ==\n"
        + render_trace()
        + "\n\n== metrics ==\n"
        + render_metrics(registry)
    )
