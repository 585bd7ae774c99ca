"""Cross-process telemetry: ship worker observability over the job boundary.

PR 5 moved the expensive analyses into supervised subprocess workers —
and severed them from the observability stack: a forked worker drops
the inherited journal (rightly — appending to the parent's now-private
ring would be silent nonsense), so every ``--trace-json`` capture of
``fast batch``/``fast serve`` showed opaque ``svc.job`` boxes with no
solver or automata spans inside, and ``--profile-json`` counted zero
solver work however hard the workers were grinding.

This module restores end-to-end visibility without giving up process
isolation, in three pieces:

**Worker side** (:func:`execute_with_telemetry`).  Around each job the
worker installs a *fresh* bounded journal ring, zeroes the (fork- or
job-copied) metric registry, and clears the tracer; after the job it
packages everything observed into a size-capped, JSON-able *telemetry
blob* attached to the :class:`~repro.svc.job.JobResult`:

* the journal events, timestamped on the worker's own
  ``perf_counter`` timeline (drop-oldest at ``max_events``; the drop
  count travels with the blob — no silent truncation);
* the metric deltas (registry was zeroed at job start, so the
  post-job snapshot *is* the per-job delta; histograms ship their
  reservoir so quantiles survive the merge);
* the top-level span tree, node-capped at ``max_spans``.

**Clock alignment** (:func:`clock_offset_from_pong`).  ``perf_counter``
timelines are per-process, so at worker spawn the supervisor plays one
NTP-style ping/pong: it stamps ``t0``, pings, the worker pongs back its
own ``perf_counter``, the supervisor stamps ``t1`` and estimates
``offset = (t0 + t1) / 2 - t_worker``.  Adding ``offset`` to a worker
timestamp lands it on the supervisor's timeline, accurate to half the
pipe round-trip (microseconds on a fork pool).

**Supervisor side** (:func:`consume_blob`).  When a valid result
arrives, its blob is folded into the host observability state:

* journal events are re-timestamped and appended to the host journal
  under a per-worker-pid track (plus an ``M`` registration event that
  :func:`repro.obs.export.chrome_trace` turns into Perfetto
  process/thread metadata) — the trace finally shows *what the worker
  did inside* each ``svc.job``;
* counter deltas are folded into the host registry, so
  ``--profile-json`` and the ``repro.obs.diff`` CI gate count worker
  solver work;
* the span tree is grafted under the supervisor's ``svc.job`` span.

Crash safety is structural: a killed/hung worker never sends a result,
so there is no blob and therefore nothing to merge — the host journal
only ever receives complete, per-track-balanced fragments.  A blob that
fails to merge (corrupted in flight) is dropped whole and counted in
``svc.telemetry.merge_errors``; it cannot poison the host state.

Everything is off by default: telemetry engages only when
:mod:`repro.obs` recording is enabled in the supervisor (``REPRO_OBS``,
``--profile``, ``--trace-json``, …) or a :class:`TelemetryConfig` is
set explicitly on the :class:`~repro.svc.service.ServiceConfig`.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Optional

from ..obs import config as obs_config
from ..obs import journal as obs_journal
from ..obs import metrics as obs_metrics
from ..obs import tracer as obs_tracer
from ..obs.journal import Event, Journal
from ..obs.live import LiveStats
from ..obs.metrics import Counter, Gauge, Histogram
from ..obs.report import span_to_dict
from .job import JobResult, JobSpec, execute_job

if TYPE_CHECKING:
    from .breaker import BreakerRegistry
    from .gate import AdmissionGate

#: Handshake message markers (tuple heads on the worker pipe).
CLOCK_PING = "__repro_clock_ping__"
CLOCK_PONG = "__repro_clock_pong__"

#: Journal event name of a worker-track registration ("M" phase).
TRACK_EVENT = "svc.worker.track"

_OBS_BLOBS = obs_metrics.counter("svc.telemetry.blobs")
_OBS_EVENTS = obs_metrics.counter("svc.telemetry.events")
_OBS_DROPPED = obs_metrics.counter("svc.telemetry.dropped")
_OBS_MERGE_ERRORS = obs_metrics.counter("svc.telemetry.merge_errors")


@dataclass(frozen=True)
class TelemetryConfig:
    """Picklable worker-telemetry knobs (shipped at worker spawn).

    * ``enabled`` — capture at all?  (The pool also skips merge work
      entirely when no config is set.)
    * ``max_events`` — per-job journal ring capacity.  The ring drops
      oldest on overflow; the blob reports how many were dropped and
      the supervisor surfaces the total as ``svc.telemetry.dropped``.
    * ``max_spans`` — span-tree nodes shipped per blob (depth-first
      budget; the blob flags truncation).
    """

    enabled: bool = True
    max_events: int = 8192
    max_spans: int = 512


def default_config() -> Optional[TelemetryConfig]:
    """Telemetry for the current obs state: on iff recording is on."""
    return TelemetryConfig() if obs_config.ENABLED else None


# -- clock handshake ---------------------------------------------------------


def is_ping(message: Any) -> bool:
    return (
        isinstance(message, tuple) and len(message) >= 1
        and message[0] == CLOCK_PING
    )


def is_pong(message: Any) -> bool:
    return (
        isinstance(message, tuple) and len(message) == 3
        and message[0] == CLOCK_PONG
    )


def make_pong() -> tuple[str, int, float]:
    """The worker's handshake reply: pid and its clock now."""
    return (CLOCK_PONG, os.getpid(), time.perf_counter())


def clock_offset_from_pong(
    pong: Any, t_sent: float, t_received: float
) -> Optional[float]:
    """Supervisor-side: the worker→supervisor clock offset, or None.

    ``t_sent``/``t_received`` bracket the round trip on the
    supervisor's ``perf_counter``; the worker's timestamp is assumed to
    sit at the midpoint (symmetric pipe latency), so the estimate is
    off by at most half the round trip.
    """
    if not is_pong(pong):
        return None
    t_worker = pong[2]
    if not isinstance(t_worker, (int, float)):
        return None
    return (t_sent + t_received) / 2.0 - t_worker


# -- worker side -------------------------------------------------------------


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return str(value)


def _spans_to_dicts(
    roots: list[obs_tracer.Span], budget: int
) -> tuple[list[dict[str, Any]], bool]:
    """Span trees as dicts, depth-first, at most ``budget`` nodes."""
    remaining = budget
    truncated = False

    def convert(span: obs_tracer.Span) -> Optional[dict[str, Any]]:
        nonlocal remaining, truncated
        if remaining <= 0:
            truncated = True
            return None
        remaining -= 1
        doc = span_to_dict(span)
        doc["attrs"] = _jsonable(doc["attrs"])
        children = []
        for child in span.children:
            c = convert(child)
            if c is None:
                break
            children.append(c)
        doc["children"] = children
        return doc

    out = []
    for root in roots:
        doc = convert(root)
        if doc is None:
            break
        out.append(doc)
    return out, truncated


def _metric_deltas(
    registry: obs_metrics.Registry,
) -> tuple[dict[str, Any], dict[str, Any]]:
    """Split the (job-zeroed) registry into scalar and histogram deltas."""
    counters: dict[str, Any] = {}
    hists: dict[str, Any] = {}
    for name, metric in registry._metrics.items():
        if isinstance(metric, Histogram):
            if metric.count:
                hists[name] = metric.state()
        elif isinstance(metric, (Counter, Gauge)):
            if metric.value:
                counters[name] = metric.value
    return counters, hists


def execute_with_telemetry(
    spec: JobSpec, attempt: int, config: Optional[TelemetryConfig]
) -> JobResult:
    """Worker-side: run one job, capturing a telemetry blob if enabled.

    The job runs under a fresh bounded journal and a zeroed metric
    registry, inside a worker-side ``svc.job`` span — so the blob's
    events and deltas are exactly this job's, never a residue of the
    fork parent or a previous job on this worker.  The previous journal
    and obs flag are restored however the job exits.
    """
    if config is None or not config.enabled:
        with obs_tracer.trace_context(spec.trace_id):
            return execute_job(spec)

    previous_journal = obs_journal.ACTIVE
    was_enabled = obs_config.ENABLED
    job_journal = Journal(capacity=config.max_events)
    obs_metrics.REGISTRY.reset()
    obs_tracer.reset_trace()
    obs_journal.ACTIVE = job_journal
    obs_config.enabled(True)
    t_start = time.perf_counter()
    try:
        # Re-establish the request's trace context inside the worker:
        # the id rode in on the spec, and binding it here stamps the
        # worker-side svc.job span (and everything under it) with the
        # same trace_id the front-end stamped on its spans.
        with obs_tracer.trace_context(spec.trace_id):
            with obs_tracer.span(
                "svc.job",
                job=spec.job_id,
                kind=spec.kind,
                attempt=attempt,
                pid=os.getpid(),
            ):
                result = execute_job(spec)
    finally:
        t_end = time.perf_counter()
        obs_journal.ACTIVE = previous_journal
        obs_config.enabled(was_enabled)

    counters, hists = _metric_deltas(obs_metrics.REGISTRY)
    spans, spans_truncated = _spans_to_dicts(
        obs_tracer.trace(), config.max_spans
    )
    obs_tracer.reset_trace()
    from .lifecycle import current_rss_bytes

    result.telemetry = {
        "pid": os.getpid(),
        "attempt": attempt,
        "t_start": t_start,
        "t_end": t_end,
        # Worker self-report: the lifecycle layer's RSS recycle
        # threshold keys off the same sample (see result.hygiene).
        "rss_bytes": current_rss_bytes(),
        "events": [
            [ts, ph, name, _jsonable(data)]
            for ts, _tid, ph, name, data in job_journal.events()
        ],
        "events_emitted": job_journal.emitted,
        "dropped": job_journal.dropped,
        "counters": counters,
        "hists": hists,
        "spans": spans,
        "spans_truncated": spans_truncated,
    }
    return result


# -- supervisor side ---------------------------------------------------------


def consume_blob(
    result: JobResult, clock_offset: Optional[float]
) -> Optional[dict[str, Any]]:
    """Detach and merge a result's telemetry blob into host obs state.

    Journal events are aligned to the supervisor timeline (falling back
    to right-edge alignment when the handshake never completed) and
    appended to the active host journal under the worker's pid-track;
    counter deltas and histogram states fold into the host registry.
    Returns the blob (for span grafting at finalize) or None.

    Merge is all-or-nothing per blob: any malformed structure aborts
    the whole merge — counted in ``svc.telemetry.merge_errors`` — so a
    corrupted blob can never leave partial garbage in the host journal.
    """
    blob = result.telemetry
    result.telemetry = None
    if not isinstance(blob, dict):
        return None
    try:
        events = _aligned_events(blob, clock_offset)
        counters = blob.get("counters", {})
        hists = blob.get("hists", {})
        if not (isinstance(counters, dict) and isinstance(hists, dict)):
            raise ValueError("malformed telemetry blob")
        host_journal = obs_journal.ACTIVE
        if host_journal is not None and events:
            host_journal.extend(events)
        for name, delta in counters.items():
            if isinstance(delta, bool) or not isinstance(delta, (int, float)):
                continue
            if delta > 0:
                try:
                    obs_metrics.REGISTRY.counter(str(name)).inc(int(delta))
                except TypeError:  # host registered the name as another type
                    pass
        for name, state in hists.items():
            if isinstance(state, dict):
                try:
                    obs_metrics.REGISTRY.histogram(str(name)).merge(state)
                except TypeError:
                    pass
    except Exception:
        if obs_config.ENABLED:
            _OBS_MERGE_ERRORS.inc()
        return None
    if obs_config.ENABLED:
        _OBS_BLOBS.inc()
        _OBS_EVENTS.inc(len(events))
        dropped = blob.get("dropped", 0)
        if isinstance(dropped, int) and dropped > 0:
            _OBS_DROPPED.inc(dropped)
    return blob


def _aligned_events(
    blob: dict[str, Any], clock_offset: Optional[float]
) -> list[Event]:
    """The blob's events on the supervisor timeline, worker-pid track."""
    raw = blob.get("events", [])
    pid = int(blob["pid"])
    if not isinstance(raw, list):
        raise ValueError("telemetry events must be a list")
    if clock_offset is None:
        # Handshake never completed: pin the blob's right edge to "now"
        # (it was received moments after t_end) so it still lands on
        # the host timeline in roughly the right place.
        clock_offset = time.perf_counter() - float(blob["t_end"])
    out: list[Event] = []
    if raw or blob.get("spans"):
        out.append((
            float(blob["t_start"]) + clock_offset,
            pid,
            "M",
            TRACK_EVENT,
            {"pid": pid, "name": f"svc-worker {pid}"},
        ))
    for ev in raw:
        ts, ph, name, data = ev
        out.append((float(ts) + clock_offset, pid, str(ph), str(name), data))
    return out


def graft_spans(parent: Any, blob: Optional[dict[str, Any]]) -> None:
    """Attach a blob's worker span tree under a live supervisor span.

    Rebuilds :class:`~repro.obs.tracer.Span` objects from the shipped
    dicts and appends them as children of ``parent`` (the supervisor's
    ``svc.job`` span), so ``--profile-json`` trace trees and
    ``repro.obs.diff`` span aggregation see worker-side work.  No-op on
    the null span (obs disabled) or a missing blob.
    """
    if blob is None or not isinstance(parent, obs_tracer.Span):
        return
    spans = blob.get("spans")
    if not isinstance(spans, list):
        return
    try:
        for doc in spans:
            span = _span_from_dict(doc)
            if span is not None:
                parent.children.append(span)
    except Exception:
        if obs_config.ENABLED:
            _OBS_MERGE_ERRORS.inc()


def _span_from_dict(doc: Any) -> Optional[obs_tracer.Span]:
    if not isinstance(doc, dict) or "name" not in doc:
        return None
    attrs = doc.get("attrs")
    span = obs_tracer.Span(
        str(doc["name"]), dict(attrs) if isinstance(attrs, dict) else {}
    )
    duration_ms = doc.get("duration_ms")
    if isinstance(duration_ms, (int, float)):
        span.duration = duration_ms / 1e3
    else:
        span.duration = 0.0
    for child_doc in doc.get("children", ()):
        child = _span_from_dict(child_doc)
        if child is not None:
            span.children.append(child)
    return span


# -- serving statistics ------------------------------------------------------

#: The latency quantiles every serving view reports.
_QS = ("p50", "p95", "p99")


class KindLatency:
    """Per-kind worker latency and retry counts, fed from results.

    One stand-alone (unregistered, un-journaled) :class:`Histogram` per
    job kind plus a retry count: the ledger behind ``fast batch
    --json``'s ``latency`` block and every ``--stats`` table, so it
    works with observability off.  Only results that reached a worker
    (``worker_pid`` set) count toward latency — crashes past the retry
    cap and open breakers have no duration — but every result counts
    its retries.  Quantiles are exact up to
    :data:`Histogram.RESERVOIR_SIZE` jobs per kind and a seeded
    reservoir estimate above that; count, mean and max stay exact.
    """

    def __init__(self, results: Iterable[JobResult] = ()) -> None:
        self.hists: dict[str, Histogram] = {}
        self.retries: dict[str, int] = {}
        for result in results:
            self.record(result)

    def record(self, result: JobResult) -> None:
        kind = result.kind
        self.retries[kind] = (
            self.retries.get(kind, 0) + max(0, result.attempts - 1)
        )
        if result.worker_pid is not None:
            hist = self.hists.get(kind)
            if hist is None:  # a Histogram seeds its own RNG: build once
                hist = self.hists[kind] = Histogram()
            hist.observe(result.duration)

    def summary(self) -> dict[str, dict[str, Any]]:
        """The JSON ``latency`` block: per kind, count/retries + ms."""
        out: dict[str, dict[str, Any]] = {}
        for kind in sorted(self.retries):
            hist = self.hists.get(kind)
            entry: dict[str, Any] = {
                "count": hist.count if hist is not None else 0,
                "retries": self.retries[kind],
            }
            if hist is not None:
                snap = hist.snapshot()
                for key in (*_QS, "mean", "max"):
                    entry[f"{key}_ms"] = round(snap[key] * 1e3, 3)
            out[kind] = entry
        return out

    def render(self, title: str) -> list[str]:
        """The ``fast top``-style per-kind table, one string per row."""
        lines = [
            f"== {title} ==",
            f"{'kind':<12} {'jobs':>6} {'retries':>8} "
            f"{'p50':>9} {'p95':>9} {'p99':>9} {'max':>9}",
        ]
        for kind, entry in self.summary().items():
            if entry["count"]:
                ms = " ".join(
                    f"{entry[key + '_ms']:>7.1f}ms" for key in (*_QS, "max")
                )
            else:
                ms = f"{'-':>9} {'-':>9} {'-':>9} {'-':>9}"
            lines.append(
                f"{kind:<12} {entry['count']:>6} {entry['retries']:>8} {ms}"
            )
        return lines


def breaker_line(states: dict[str, str]) -> list[str]:
    """``breakers: kind=state ...`` as a row list (empty when none)."""
    if not states:
        return []
    return [
        "breakers: " + " ".join(f"{k}={v}" for k, v in sorted(states.items()))
    ]


#: LiveStats window the rolling line's per-tenant rows report from.
LINE_WINDOW = "1m"


def _tenant_rows(live: LiveStats) -> list[str]:
    """One row per active tenant over the short live window."""
    labels = [label for label, _ in live.windows]
    if not labels:
        return []
    label = LINE_WINDOW if LINE_WINDOW in labels else labels[0]
    rows = []
    for tenant in live.tenants():
        win = live.window(label, f"tenant:{tenant}")
        if win is None:
            continue
        totals = win.totals()
        served = totals.get("served", 0)
        shed = totals.get("shed", 0)
        if not served and not shed:
            continue  # idle this window: no row
        parts = [
            f"tenant={tenant}",
            f"window={label}",
            f"served={served}",
            f"shed={shed}",
        ]
        errors = totals.get("error", 0)
        if errors:
            parts.append(f"errors={errors}")
        if win.sample_count():
            q = win.quantiles()
            parts.extend(f"{k}={q[k] * 1e3:.1f}ms" for k in _QS)
        rows.append("[svc]   " + " ".join(parts))
    return rows


def stats_line(
    gate: "AdmissionGate",
    breakers: Optional["BreakerRegistry"] = None,
    since: Optional[tuple[float, int]] = None,
) -> str:
    """One rolling ``--stats`` block read from the gate's ledger.

    ``since`` is the ``(time, gate.served)`` mark of the previous block
    (default: gate start), so the rate covers just this interval.  The
    first line is the overall rate/kind summary; one indented row per
    active tenant follows.  The caller must emit the whole block with a
    single write so it cannot interleave with other stderr traffic.
    """
    started, served_then = since or (gate.started, 0)
    elapsed = max(gate.clock() - started, 1e-9)
    parts = [f"{(gate.served - served_then) / elapsed:.1f} jobs/s"]
    shed_total = sum(gate.shed.values())
    if shed_total:
        parts.append(f"shed={shed_total}")
    for kind, entry in gate.latency.summary().items():
        if entry["count"]:
            parts.append(
                f"{kind} n={entry['count']} "
                + " ".join(f"{q}={entry[q + '_ms']:.1f}ms" for q in _QS)
            )
    if breakers is not None:
        parts.extend(breaker_line(breakers.states()))
    return "\n".join(["[svc] " + " | ".join(parts)] + _tenant_rows(gate.live))


def stats_summary(
    gate: "AdmissionGate", breakers: Optional["BreakerRegistry"] = None
) -> str:
    """The closing ``--stats`` table of ``fast serve``, from the gate."""
    lines = gate.latency.render("svc stats")
    elapsed = max(gate.clock() - gate.started, 1e-9)
    lines.append(
        f"{gate.served} jobs in {elapsed:.1f}s "
        f"({gate.served / elapsed:.1f} jobs/s)"
    )
    shed = {reason: n for reason, n in sorted(gate.shed.items()) if n}
    if shed:
        breakdown = " ".join(f"{reason}={n}" for reason, n in shed.items())
        lines.append(f"shed: {sum(shed.values())} ({breakdown})")
    if breakers is not None:
        lines.extend(breaker_line(breakers.states()))
    return "\n".join(lines)
