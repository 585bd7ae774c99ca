"""``repro.obs.live``: Prometheus text exposition for a running server.

Everything else in :mod:`repro.obs` describes a *run* after the fact.
:func:`render_prometheus` renders what a serving process holds *now*,
in the text exposition format (version 0.0.4), for ``GET /metrics``:

* the admission gate's readiness, queue and counters (``svc_gate_*``);
* its serving ledger (:class:`repro.svc.telemetry.Ledger`): cumulative
  per-kind and per-tenant served/error/shed counters and a per-kind
  worker-latency summary.  The ledger — not the obs registry — feeds
  them, so the exposition agrees exactly with the wire-level
  served/shed partition even with observability off, and a scraper
  takes windows with ``rate()``;
* the worker pool's lifecycle gauges;
* optionally the process-wide metric registry.
"""

from __future__ import annotations

import re
from typing import Any, Optional

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_NAME_FIX = re.compile(r"[^a-zA-Z0-9_:]")


def metric_name(name: str, prefix: str = "") -> str:
    """A registry metric name as a legal Prometheus metric name."""
    out = _NAME_FIX.sub("_", prefix + name)
    if not _NAME_OK.match(out):
        out = "_" + out
    return out


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _fmt_value(value: float) -> str:
    if isinstance(value, float) and value != int(value):
        return repr(value)
    return str(int(value))


class _Exposition:
    """Accumulates samples; renders TYPE lines once per family."""

    def __init__(self) -> None:
        self._families: dict[str, list[str]] = {}

    def add(
        self,
        name: str,
        kind: str,
        value: float,
        labels: Optional[dict[str, str]] = None,
        help_text: Optional[str] = None,
        suffix: str = "",
    ) -> None:
        """One sample of family ``name``, named ``name + suffix`` (a
        summary's ``_sum``/``_count`` samples belong to its family)."""
        lines = self._families.get(name)
        if lines is None:
            lines = self._families[name] = []
            if help_text:
                lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")
        sample = name + suffix
        if labels:
            rendered = ",".join(
                f'{k}="{_escape_label(str(v))}"' for k, v in labels.items()
            )
            lines.append(f"{sample}{{{rendered}}} {_fmt_value(value)}")
        else:
            lines.append(f"{sample} {_fmt_value(value)}")

    def render(self) -> str:
        return "\n".join(
            line for lines in self._families.values() for line in lines
        ) + "\n"

    def summary(
        self,
        name: str,
        snap: dict[str, Any],
        labels: dict[str, str],
        help_text: Optional[str] = None,
    ) -> None:
        """A histogram snapshot as one summary family: p50/p95/p99
        quantiles plus ``_sum`` and ``_count``."""
        for q in ("p50", "p95", "p99"):
            self.add(
                name, "summary", snap[q],
                {**labels, "quantile": f"0.{q[1:]}"}, help_text,
            )
        self.add(name, "summary", snap["sum"], labels, suffix="_sum")
        self.add(name, "summary", snap["count"], labels, suffix="_count")


def _ledger_families(exp: _Exposition, ledger: Any) -> None:
    """The serving ledger's per-kind and per-tenant families."""
    for dim, groups in (
        ("kind", ledger.by_kind()), ("tenant", ledger.by_tenant())
    ):
        for name, attr, help_text in (
            ("served", "served", "requests answered by a worker"),
            ("errors", "errors", "answered requests with outcome ERROR"),
            ("shed", "shed_total", "requests refused with a shed response"),
        ):
            for value, counts in sorted(groups.items()):
                exp.add(
                    f"svc_{dim}_{name}_total", "counter",
                    getattr(counts, attr), labels={dim: value},
                    help_text=f"{help_text}, by {dim}",
                )
    for kind, snap in ledger.latency().items():
        exp.add(
            "svc_kind_retries_total", "counter", snap["retries"],
            labels={"kind": kind}, help_text="job retries, by kind",
        )
        if snap["count"]:
            exp.summary(
                "svc_job_duration_seconds", snap, {"kind": kind},
                "worker execution time per job, by kind",
            )


def render_prometheus(
    *,
    gate: Any = None,
    registry: Any = None,
    pool: Any = None,
) -> str:
    """The server's state in Prometheus text exposition format.

    * ``gate`` — an :class:`~repro.svc.gate.AdmissionGate`; its health
      feeds ``svc_gate_*``, and its ledger the cumulative
      ``svc_kind_*_total{kind}`` / ``svc_tenant_*_total{tenant}``
      counters and the ``svc_job_duration_seconds{kind}`` summary, so
      the exposition matches the wire exactly, independent of the obs
      flag.
    * ``registry`` — an :class:`~repro.obs.metrics.Registry`; every
      registered counter/gauge/histogram, name-sanitized under the
      ``repro_`` prefix (histograms as summaries).
    * ``pool`` — a :class:`~repro.svc.pool.WorkerPool`; per-worker
      lifecycle gauges (``svc_worker_rss_bytes``,
      ``svc_worker_generation``, ``svc_worker_jobs_served``, labelled
      by worker id) and ``svc_recycles_total{reason=...}`` from the
      pool's own ledger — like the gate, valid with obs off.
    """
    exp = _Exposition()
    if pool is not None:
        snapshot = pool.lifecycle_snapshot()
        for row in snapshot["workers"]:
            labels = {"worker": str(row["worker"])}
            exp.add(
                "svc_worker_generation", "gauge",
                float(row["generation"]), labels=labels,
                help_text="never-reused generation number per worker slot",
            )
            exp.add(
                "svc_worker_jobs_served", "gauge",
                float(row["jobs_served"]), labels=labels,
                help_text="jobs served by the current generation",
            )
            if row["rss_bytes"] is not None:
                exp.add(
                    "svc_worker_rss_bytes", "gauge",
                    float(row["rss_bytes"]), labels=labels,
                    help_text="worker-self-reported resident set size",
                )
        for reason, count in sorted(snapshot["recycles"].items()):
            exp.add(
                "svc_recycles_total", "counter", float(count),
                labels={"reason": reason},
                help_text="proactive worker recycles by threshold",
            )
    if gate is not None:
        health = gate.health()
        counters = health["counters"]
        exp.add(
            "svc_gate_ready", "gauge", 1.0 if health["ready"] else 0.0,
            help_text="1 while the gate admits new requests",
        )
        exp.add("svc_gate_uptime_seconds", "gauge", health["uptime"])
        exp.add("svc_gate_queue_depth", "gauge", health["queue_depth"])
        exp.add("svc_gate_inflight", "gauge", health["inflight"])
        exp.add(
            "svc_gate_admitted_total", "counter", counters["admitted"],
            help_text="requests past admission control",
        )
        exp.add(
            "svc_gate_served_total", "counter", counters["served"],
            help_text="requests answered by a worker (any outcome)",
        )
        for reason, count in sorted(counters["shed"].items()):
            exp.add(
                "svc_gate_shed_total", "counter", count,
                labels={"reason": reason},
                help_text="requests refused with a shed response",
            )
        _ledger_families(exp, gate.ledger)
    if registry is not None:
        from .metrics import Counter, Gauge, Histogram

        for name in sorted(registry._metrics):
            metric = registry._metrics[name]
            pname = metric_name(name, prefix="repro_")
            if isinstance(metric, Counter):
                exp.add(pname, "counter", metric.value)
            elif isinstance(metric, Gauge):
                exp.add(pname, "gauge", metric.value)
            elif isinstance(metric, Histogram):
                exp.summary(pname, metric.snapshot(), {})
    return exp.render()
