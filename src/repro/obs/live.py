"""``repro.obs.live``: rolling-window telemetry for long-running servers.

Everything else in :mod:`repro.obs` describes a *run*: counters that
grow forever, histograms over every observation since process start,
span trees you export after the fact.  A serving process has no "after
the fact" — and once workloads stream unboundedly, whole-run aggregates
stop meaning anything (a p95 over six hours of traffic says nothing
about the last minute's brownout).  This module keeps *recent* truth:

* :class:`RollingWindow` — a ring of fixed-width time buckets, each
  holding counter deltas and a bounded latency sample.  Advancing the
  clock lazily retires expired buckets, so a window's totals, rates,
  and quantiles always describe exactly the last ``span`` seconds, in
  O(buckets) with no background thread.

* :class:`LiveStats` — the serving aggregator: one set of windows
  (default 10 s / 1 min / 5 min) per dimension value, where dimensions
  are the overall stream, the job *kind*, and the *tenant*.  The
  serving admission gate owns one and records every served and shed
  event into it, with latencies; it snapshots to a JSON-able
  dict (the ``stats`` request kind and ``fast serve --stats``) and to
  flat gauge samples for the ``/metrics`` exposition.

* :func:`render_prometheus` — Prometheus text exposition (version
  0.0.4) over the pieces a server holds: its admission-gate ledger
  (counters and live windows), its worker pool, and (optionally) the
  process-wide metric registry.  The gate ledger — not the obs
  registry — feeds the ``svc_gate_*`` families and the window gauges,
  so the exposition agrees exactly with the wire-level served/shed
  partition even with observability off.

**Bucket math.**  A window of ``span`` seconds uses ``buckets`` ring
slots of width ``span / buckets``.  An event at time ``t`` lands in
absolute slot ``i = floor(t / width)``, stored at ``i % buckets``; the
slot remembers ``i`` so a later reader can tell a live bucket from a
stale one left by a previous lap of the ring.  Reads sum only slots
whose absolute index is within the last ``buckets`` slots of *now* —
expired buckets are skipped (and reused on write), so totals decay in
steps of one bucket width.  The reported window therefore covers
between ``span - width`` and ``span`` seconds; finer decay is bought
with more buckets, not more bookkeeping.
"""

from __future__ import annotations

import re
import threading
import time
from typing import Any, Callable, Iterable, Optional

from .metrics import percentile

#: Default windows: (label, span seconds).  Ten buckets each — totals
#: decay in 1 s / 6 s / 30 s steps respectively.
DEFAULT_WINDOWS: tuple[tuple[str, float], ...] = (
    ("10s", 10.0),
    ("1m", 60.0),
    ("5m", 300.0),
)

#: Latency samples kept per bucket (a bounded everything-else-dropped
#: prefix; with 10 buckets a window quantile sees up to 640 samples).
BUCKET_SAMPLES = 64


class _Bucket:
    """One ring slot: counter deltas + a bounded latency sample."""

    __slots__ = ("index", "counts", "samples", "observed")

    def __init__(self) -> None:
        self.index = -1  # absolute slot index; -1 = never used
        self.counts: dict[str, int] = {}
        self.samples: list[float] = []
        self.observed = 0

    def reset(self, index: int) -> None:
        self.index = index
        self.counts.clear()
        self.samples.clear()
        self.observed = 0


class RollingWindow:
    """Counters + latency quantiles over the trailing ``span`` seconds.

    Thread-safe; all operations are O(buckets).  The clock is
    injectable so tests can march time deterministically.
    """

    def __init__(
        self,
        span: float,
        buckets: int = 10,
        clock: Callable[[], float] = time.monotonic,
        bucket_samples: int = BUCKET_SAMPLES,
    ) -> None:
        if span <= 0:
            raise ValueError(f"span must be > 0, got {span}")
        if buckets < 2:
            raise ValueError(f"need >= 2 buckets, got {buckets}")
        self.span = float(span)
        self.buckets = buckets
        self.width = self.span / buckets
        self.clock = clock
        self.bucket_samples = bucket_samples
        self._ring = [_Bucket() for _ in range(buckets)]
        self._lock = threading.Lock()

    # -- writes ------------------------------------------------------------

    def _bucket_now(self) -> _Bucket:
        index = int(self.clock() / self.width)
        bucket = self._ring[index % self.buckets]
        if bucket.index != index:
            bucket.reset(index)
        return bucket

    def inc(self, key: str, n: int = 1) -> None:
        with self._lock:
            bucket = self._bucket_now()
            bucket.counts[key] = bucket.counts.get(key, 0) + n

    def observe(self, value: float) -> None:
        """Record one latency sample into the current bucket."""
        with self._lock:
            bucket = self._bucket_now()
            bucket.observed += 1
            if len(bucket.samples) < self.bucket_samples:
                bucket.samples.append(value)

    # -- reads -------------------------------------------------------------

    def _live(self) -> Iterable[_Bucket]:
        floor = int(self.clock() / self.width) - self.buckets + 1
        for bucket in self._ring:
            if bucket.index >= floor:
                yield bucket

    def total(self, key: str) -> int:
        with self._lock:
            return sum(b.counts.get(key, 0) for b in self._live())

    def totals(self) -> dict[str, int]:
        out: dict[str, int] = {}
        with self._lock:
            for bucket in self._live():
                for key, n in bucket.counts.items():
                    out[key] = out.get(key, 0) + n
        return out

    def rate(self, key: str) -> float:
        """Events per second for ``key`` over the window span."""
        return self.total(key) / self.span

    def quantiles(self, qs: tuple[float, ...] = (0.5, 0.95, 0.99)) -> dict[str, float]:
        with self._lock:
            samples = sorted(
                v for b in self._live() for v in b.samples
            )
        return {f"p{int(q * 100)}": percentile(samples, q) for q in qs}

    def sample_count(self) -> int:
        with self._lock:
            return sum(b.observed for b in self._live())

    def snapshot(self) -> dict[str, Any]:
        """JSON-able view: totals, per-second rates, latency quantiles."""
        totals = self.totals()
        doc: dict[str, Any] = {
            "span_s": self.span,
            "counts": totals,
            "rates": {k: round(v / self.span, 4) for k, v in totals.items()},
        }
        doc.update(
            {k: round(v, 6) for k, v in self.quantiles().items()}
        )
        return doc


class LiveStats:
    """Per-kind / per-tenant rolling serving statistics.

    One :class:`RollingWindow` per (window label, dimension value);
    dimensions come into existence on first use, so idle tenants cost
    nothing.  The special dimension value ``"all"`` aggregates the
    whole stream.  Event keys: ``served``, ``error`` (served with
    outcome ERROR), ``shed`` plus ``shed.<reason>``.
    """

    def __init__(
        self,
        windows: tuple[tuple[str, float], ...] = DEFAULT_WINDOWS,
        clock: Callable[[], float] = time.monotonic,
        buckets: int = 10,
    ) -> None:
        self.windows = windows
        self.clock = clock
        self.buckets = buckets
        self._lock = threading.Lock()
        # (window label) -> (dimension key like "all" / "kind:run" /
        # "tenant:team-a") -> RollingWindow
        self._wins: dict[str, dict[str, RollingWindow]] = {
            label: {} for label, _ in windows
        }

    def _window(self, label: str, span: float, dim: str) -> RollingWindow:
        wins = self._wins[label]
        win = wins.get(dim)
        if win is None:
            with self._lock:
                win = wins.setdefault(
                    dim, RollingWindow(span, self.buckets, self.clock)
                )
        return win

    def _each(self, dims: Iterable[str]):
        for label, span in self.windows:
            for dim in dims:
                yield self._window(label, span, dim)

    @staticmethod
    def _dims(kind: Optional[str], tenant: Optional[str]) -> list[str]:
        dims = ["all"]
        if kind:
            dims.append(f"kind:{kind}")
        if tenant:
            dims.append(f"tenant:{tenant}")
        return dims

    # -- recording ---------------------------------------------------------

    def record_served(
        self,
        kind: str,
        tenant: str,
        duration: float,
        outcome: str = "",
    ) -> None:
        """One answered job (any verdict; ERROR also counts ``error``)."""
        for win in self._each(self._dims(kind, tenant)):
            win.inc("served")
            if outcome == "ERROR":
                win.inc("error")
            win.observe(duration)

    def record_shed(
        self, reason: str, tenant: str = "", kind: str = ""
    ) -> None:
        for win in self._each(self._dims(kind, tenant)):
            win.inc("shed")
            win.inc(f"shed.{reason}")

    # -- reading -----------------------------------------------------------

    def tenants(self) -> list[str]:
        seen: set[str] = set()
        for wins in self._wins.values():
            seen.update(
                d[len("tenant:"):] for d in wins if d.startswith("tenant:")
            )
        return sorted(seen)

    def kinds(self) -> list[str]:
        seen: set[str] = set()
        for wins in self._wins.values():
            seen.update(
                d[len("kind:"):] for d in wins if d.startswith("kind:")
            )
        return sorted(seen)

    def window(self, label: str, dim: str = "all") -> Optional[RollingWindow]:
        return self._wins.get(label, {}).get(dim)

    def snapshot(self) -> dict[str, Any]:
        """The JSON payload of the ``stats`` request kind.

        ``{"windows": {label: {dim: window-snapshot}}}`` with dims
        grouped as ``all`` / ``kind`` / ``tenant`` maps.
        """
        out: dict[str, Any] = {"windows": {}}
        for label, _span in self.windows:
            wins = self._wins[label]
            grouped: dict[str, Any] = {"all": None, "kind": {}, "tenant": {}}
            for dim, win in sorted(wins.items()):
                snap = win.snapshot()
                if dim == "all":
                    grouped["all"] = snap
                elif dim.startswith("kind:"):
                    grouped["kind"][dim[len("kind:"):]] = snap
                elif dim.startswith("tenant:"):
                    grouped["tenant"][dim[len("tenant:"):]] = snap
            out["windows"][label] = grouped
        return out

    def gauge_samples(self) -> list[tuple[str, dict[str, str], float]]:
        """Flat ``(name, labels, value)`` samples for the exposition."""
        samples: list[tuple[str, dict[str, str], float]] = []
        for label, _span in self.windows:
            for dim, win in sorted(self._wins[label].items()):
                labels = {"window": label}
                if dim.startswith("kind:"):
                    labels["kind"] = dim[len("kind:"):]
                elif dim.startswith("tenant:"):
                    labels["tenant"] = dim[len("tenant:"):]
                elif dim != "all":
                    continue
                for key, total in sorted(win.totals().items()):
                    if key.startswith("shed."):
                        continue  # per-reason totals ride the gate ledger
                    samples.append(
                        (f"svc_window_{key}", dict(labels), float(total))
                    )
                if win.sample_count():
                    for q, value in win.quantiles().items():
                        qlabels = dict(labels)
                        qlabels["quantile"] = f"0.{q[1:]}"
                        samples.append(
                            ("svc_window_latency_seconds", qlabels, value)
                        )
        return samples


# -- Prometheus text exposition ----------------------------------------------

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
        self._families: dict[str, tuple[str, list[str]]] = {}
        self._order: list[str] = []

    def add(
        self,
        name: str,
        kind: str,
        value: float,
        labels: Optional[dict[str, str]] = None,
        help_text: Optional[str] = None,
    ) -> None:
        family = self._families.get(name)
        if family is None:
            lines: list[str] = []
            if help_text:
                lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")
            family = (kind, lines)
            self._families[name] = family
            self._order.append(name)
        _kind, lines = family
        if labels:
            rendered = ",".join(
                f'{k}="{_escape_label(str(v))}"' for k, v in labels.items()
            )
            lines.append(f"{name}{{{rendered}}} {_fmt_value(value)}")
        else:
            lines.append(f"{name} {_fmt_value(value)}")

    def render(self) -> str:
        out: list[str] = []
        for name in self._order:
            out.extend(self._families[name][1])
        return "\n".join(out) + "\n"


def render_prometheus(
    *,
    gate: Any = None,
    registry: Any = None,
    pool: Any = None,
) -> str:
    """The server's state in Prometheus text exposition format.

    * ``gate`` — an :class:`~repro.svc.gate.AdmissionGate`; its own
      ledger feeds ``svc_gate_*`` and its :class:`LiveStats` the window
      totals and latency quantile gauges, so the exposition matches
      the wire exactly, independent of the obs flag.
    * ``registry`` — an :class:`~repro.obs.metrics.Registry`; every
      registered counter/gauge/histogram, name-sanitized under the
      ``repro_`` prefix (histograms as quantile gauges + _count/_sum).
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
        for name, labels, value in gate.live.gauge_samples():
            exp.add(name, "gauge", value, labels=labels)
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
                snap = metric.snapshot()
                for q in ("p50", "p95", "p99"):
                    exp.add(
                        pname, "gauge", snap[q],
                        labels={"quantile": f"0.{q[1:]}"},
                    )
                exp.add(f"{pname}_count", "counter", snap["count"])
                exp.add(f"{pname}_sum", "counter", snap["sum"])
    return exp.render()
