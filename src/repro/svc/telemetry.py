"""Cross-process telemetry: ship worker observability over the job boundary.

The expensive analyses run in supervised subprocess workers, whose
spans and counters live in the worker's own process.  Without help,
every ``--trace-json`` capture of ``fast batch``/``fast serve`` would
show opaque ``svc.job`` boxes with no solver or automata spans inside,
and ``--profile-json`` would count zero solver work however hard the
workers were grinding.  This module carries both back without giving
up process isolation, in three pieces:

**Worker side** (:func:`execute_with_telemetry`).  Around each job the
worker zeroes the (fork- or job-copied) metric registry and records
with obs on; after the job it packages what it observed into a
JSON-able *telemetry blob* attached to the
:class:`~repro.svc.job.JobResult`:

* the span tree under the worker's ``svc.job`` span, each span's
  ``start`` on the worker's own ``perf_counter`` timeline, node-capped
  at :data:`MAX_SPANS` (the blob flags truncation);
* the metric deltas (the registry was zeroed at job start, so the
  post-job snapshot *is* the per-job delta; histograms ship their
  reservoir so quantiles survive the merge).

**Clock alignment** (:func:`clock_offset_from_pong`).  ``perf_counter``
timelines are per-process, so at worker spawn the supervisor plays one
NTP-style ping/pong: it stamps ``t0``, pings, the worker pongs back its
own ``perf_counter``, the supervisor stamps ``t1`` and estimates
``offset = (t0 + t1) / 2 - t_worker``.  Adding ``offset`` to a worker
timestamp lands it on the supervisor's timeline, accurate to half the
pipe round-trip (microseconds on a fork pool).

**Supervisor side** (:func:`consume_blob`).  When a valid result
arrives, its counter deltas fold into the host registry, so
``--profile-json`` and the ``repro.obs.diff`` CI gate count worker
solver work, and its span tree is rebuilt shifted by the worker's clock
offset with the worker's pid as its track.  The pool grafts that tree
under the supervisor's ``svc.job`` span, so profile trees, span
totals, and the Perfetto export (one track per worker pid) show *what
the worker did inside* each job.

Crash safety is structural: a killed/hung worker never sends a result,
so there is no blob and therefore nothing to merge.  A blob that fails
to merge (corrupted in flight) is dropped whole and counted in
``svc.telemetry.merge_errors``; it cannot poison the host state.

Telemetry is on iff :mod:`repro.obs` recording is on when the pool
starts (``REPRO_OBS``, ``--profile``, ``--trace-json``, ...).

**The serving ledger** (:class:`Ledger`) is always on: the cumulative
record of served and shed jobs, and of per-kind worker latency, that
every serving view renders (``health``, ``/metrics``, the ``stats``
request, ``--stats``, ``fast batch --json``).
"""

from __future__ import annotations

import math
import os
import threading
import time
from typing import TYPE_CHECKING, Any, Iterable, Optional

from ..obs import config as obs_config
from ..obs import metrics as obs_metrics
from ..obs import tracer as obs_tracer
from ..obs.metrics import Counter, Gauge, Histogram
from .job import ERROR, JobResult, JobSpec, execute_job

if TYPE_CHECKING:
    from .gate import AdmissionGate

#: Handshake message markers (tuple heads on the worker pipe).
CLOCK_PING = "__repro_clock_ping__"
CLOCK_PONG = "__repro_clock_pong__"

#: Span-tree nodes shipped per blob (depth-first budget).
MAX_SPANS = 512

_OBS_BLOBS = obs_metrics.counter("svc.telemetry.blobs")
_OBS_MERGE_ERRORS = obs_metrics.counter("svc.telemetry.merge_errors")


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
        children = []
        for child in span.children:
            c = convert(child)
            if c is None:
                break
            children.append(c)
        return {
            "name": span.name,
            "attrs": _jsonable(span.attrs),
            "start": span.start,
            "duration": span.duration or 0.0,
            "children": children,
        }

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
    spec: JobSpec, attempt: int, telemetry: bool
) -> JobResult:
    """Worker-side: run one job, capturing a telemetry blob if enabled.

    The job runs with recording on, under a zeroed metric registry and
    inside a worker-side ``svc.job`` span — so the blob's spans and
    deltas are exactly this job's, never a residue of the fork parent
    or a previous job on this worker.  The obs flag is restored and the
    job's spans dropped however the job exits.
    """
    if not telemetry:
        with obs_tracer.trace_context(spec.trace_id):
            return execute_job(spec)

    was_enabled = obs_config.ENABLED
    obs_metrics.REGISTRY.reset()
    obs_tracer.reset_trace()
    obs_config.enabled(True)
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
        obs_config.enabled(was_enabled)

    counters, hists = _metric_deltas(obs_metrics.REGISTRY)
    spans, spans_truncated = _spans_to_dicts(obs_tracer.trace(), MAX_SPANS)
    obs_tracer.reset_trace()
    from .lifecycle import current_rss_bytes

    result.telemetry = {
        "pid": os.getpid(),
        "t_end": t_end,
        # Worker self-report: the lifecycle layer's RSS recycle
        # threshold keys off the same sample (see result.hygiene).
        "rss_bytes": current_rss_bytes(),
        "counters": counters,
        "hists": hists,
        "spans": spans,
        "spans_truncated": spans_truncated,
    }
    return result


# -- supervisor side ---------------------------------------------------------


def consume_blob(
    result: JobResult, clock_offset: Optional[float]
) -> list[obs_tracer.Span]:
    """Detach and merge a result's telemetry blob into host obs state.

    Counter deltas and histogram states fold into the host registry.
    Returns the worker's span tree, rebuilt on the supervisor timeline
    (falling back to right-edge alignment when the handshake never
    completed) on the worker pid's track, for the pool to graft under
    its ``svc.job`` span; empty when there is no blob.

    Merge is all-or-nothing per blob: any malformed structure aborts
    the whole merge — counted in ``svc.telemetry.merge_errors`` — so a
    corrupted blob can never leave partial garbage in the host state.
    """
    blob = result.telemetry
    result.telemetry = None
    if not isinstance(blob, dict):
        return []
    try:
        pid = int(blob["pid"])
        if clock_offset is None:
            # Handshake never completed: pin the blob's right edge to
            # "now" (it was received moments after t_end) so it still
            # lands on the host timeline in roughly the right place.
            clock_offset = time.perf_counter() - float(blob["t_end"])
        spans = [_span_from_dict(doc, pid, clock_offset) for doc in blob["spans"]]
        counters = blob["counters"]
        hists = blob["hists"]
        if not (isinstance(counters, dict) and isinstance(hists, dict)):
            raise ValueError("malformed telemetry blob")
    except Exception:
        if obs_config.ENABLED:
            _OBS_MERGE_ERRORS.inc()
        return []
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
    if obs_config.ENABLED:
        _OBS_BLOBS.inc()
    return spans


def _span_from_dict(doc: Any, pid: int, offset: float) -> obs_tracer.Span:
    """One shipped span dict as a closed span on the worker's track;
    raises on anything malformed."""
    attrs, children = doc["attrs"], doc["children"]
    start = float(doc["start"]) + offset
    duration = float(doc["duration"])
    if not (
        isinstance(attrs, dict) and isinstance(children, list)
        and math.isfinite(start) and math.isfinite(duration) and duration >= 0
    ):
        raise ValueError("malformed telemetry span")
    span = obs_tracer.Span(str(doc["name"]), dict(attrs))
    span.start, span.duration = start, duration
    span.pid = span.tid = pid
    span.children = [_span_from_dict(c, pid, offset) for c in children]
    return span


# -- serving statistics ------------------------------------------------------

#: The latency quantiles every serving view reports.
_QS = ("p50", "p95", "p99")

#: Distinct tenants the ledger keeps rows for; every later tenant is
#: counted under :data:`OTHER_TENANT`, so a client minting tenant names
#: cannot grow the ledger (or ``/metrics``) without bound.
MAX_TENANTS = 256
OTHER_TENANT = "_other"


class Counts:
    """Served, errored and shed jobs of one ledger row (sheds per reason)."""

    __slots__ = ("served", "errors", "shed")

    def __init__(self) -> None:
        self.served = 0
        self.errors = 0
        self.shed: dict[str, int] = {}

    @property
    def shed_total(self) -> int:
        return sum(self.shed.values())

    def add(self, other: "Counts") -> None:
        self.served += other.served
        self.errors += other.errors
        for reason, n in other.shed.items():
            self.shed[reason] = self.shed.get(reason, 0) + n

    def to_dict(self) -> dict[str, Any]:
        return {
            "served": self.served,
            "errors": self.errors,
            "shed": dict(sorted(self.shed.items())),
            "shed_total": self.shed_total,
        }


class Ledger:
    """The serving ledger: every served and shed job, cumulatively.

    Counts served, errored (outcome ERROR) and shed jobs per (kind,
    tenant), sheds per reason, retries per kind, and keeps one
    :class:`Histogram` of worker durations per kind — the serving
    tier's only latency estimator (exact up to 512 jobs per kind, a
    uniform reservoir above).  Latency counts only results that reached
    a worker (``worker_pid`` set).  The admission gate records each
    event into its ledger once and ``fast batch`` builds one from its
    results; every serving view renders it.  Windows are the reader's
    business: deltas between two reads, as the rolling ``--stats``
    block and Prometheus' ``rate()`` take them.
    """

    def __init__(self, results: Iterable[JobResult] = ()) -> None:
        self._lock = threading.Lock()
        self._rows: dict[tuple[str, str], Counts] = {}
        self._tenants: set[str] = set()
        self._retries: dict[str, int] = {}
        self._hists: dict[str, Histogram] = {}
        for result in results:
            self.record_served(result)

    def _row(self, kind: str, tenant: str) -> Counts:
        """The (kind, tenant) row; the caller holds the lock."""
        if tenant not in self._tenants:
            if len(self._tenants) < MAX_TENANTS:
                self._tenants.add(tenant)
            else:
                tenant = OTHER_TENANT
        row = self._rows.get((kind, tenant))
        if row is None:
            row = self._rows[(kind, tenant)] = Counts()
        return row

    # -- recording ---------------------------------------------------------

    def record_served(self, result: JobResult, tenant: str = "default") -> None:
        """One answered job (any outcome)."""
        kind = result.kind
        with self._lock:
            row = self._row(kind, tenant)
            row.served += 1
            if result.outcome == ERROR:
                row.errors += 1
            self._retries[kind] = (
                self._retries.get(kind, 0) + max(0, result.attempts - 1)
            )
            if result.worker_pid is not None:
                hist = self._hists.get(kind)
                if hist is None:  # a Histogram seeds its own RNG: build once
                    hist = self._hists[kind] = Histogram()
                hist.observe(result.duration)

    def record_shed(self, kind: str, tenant: str, reason: str) -> None:
        """One refused request, whichever stage refused it."""
        with self._lock:
            shed = self._row(kind, tenant).shed
            shed[reason] = shed.get(reason, 0) + 1

    # -- reading -----------------------------------------------------------

    def _grouped(self, index: Optional[int]) -> dict[str, Counts]:
        """Rows summed by kind (0), by tenant (1), or into one "" row."""
        out: dict[str, Counts] = {}
        with self._lock:
            for key, row in self._rows.items():
                group = "" if index is None else key[index]
                total = out.get(group)
                if total is None:
                    total = out[group] = Counts()
                total.add(row)
        return out

    def total(self) -> Counts:
        return self._grouped(None).get("") or Counts()

    def by_kind(self) -> dict[str, Counts]:
        return self._grouped(0)

    def by_tenant(self) -> dict[str, Counts]:
        return self._grouped(1)

    def latency(self) -> dict[str, dict[str, Any]]:
        """Per served kind: ``retries`` plus the duration histogram's
        snapshot in seconds (just ``count`` 0 when no job of the kind
        reached a worker)."""
        with self._lock:
            retries = sorted(self._retries.items())
            hists = dict(self._hists)
        return {
            kind: {
                **(hists[kind].snapshot() if kind in hists else {"count": 0}),
                "retries": n,
            }
            for kind, n in retries
        }

    def summary(self) -> dict[str, dict[str, Any]]:
        """The JSON ``latency`` block: per kind, count/retries + ms."""
        out: dict[str, dict[str, Any]] = {}
        for kind, snap in self.latency().items():
            entry = out[kind] = {
                "count": snap["count"], "retries": snap["retries"]
            }
            if snap["count"]:
                for key in (*_QS, "mean", "max"):
                    entry[f"{key}_ms"] = round(snap[key] * 1e3, 3)
        return out

    def snapshot(self) -> dict[str, Any]:
        """The payload of the ``stats`` request kind: the totals, one
        row per kind (with its ``latency`` entry) and one per tenant."""
        latency = self.summary()
        return {
            "all": self.total().to_dict(),
            "kind": {
                kind: {
                    **counts.to_dict(),
                    "latency": latency.get(kind, {"count": 0, "retries": 0}),
                }
                for kind, counts in sorted(self.by_kind().items())
            },
            "tenant": {
                tenant: counts.to_dict()
                for tenant, counts in sorted(self.by_tenant().items())
            },
        }

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


#: Where a rolling ``--stats`` block counts from: the time of the
#: previous block and the ledger's per-tenant rows at that moment.
StatsMark = tuple[float, dict[str, Counts]]


def stats_line(
    gate: "AdmissionGate",
    since: Optional[StatsMark] = None,
    until: Optional[StatsMark] = None,
) -> str:
    """One rolling ``--stats`` block read from the gate's ledger.

    ``since`` is the mark of the previous block (default: gate start)
    and ``until`` the one this block ends at (default: now), so the
    rate and the tenant rows cover just this interval.  The first line
    is the overall rate/kind summary; one indented row per tenant that
    was served or shed in the interval follows.  The caller must emit
    the whole block with a single write so it cannot interleave with
    other stderr traffic.
    """
    started, before = since or (gate.started, {})
    ended, tenants = until or (gate.clock(), gate.ledger.by_tenant())
    total = Counts()
    for counts in tenants.values():
        total.add(counts)
    served = total.served - sum(c.served for c in before.values())
    elapsed = max(ended - started, 1e-9)
    parts = [f"{served / elapsed:.1f} jobs/s"]
    if total.shed:
        parts.append(f"shed={total.shed_total}")
    for kind, entry in gate.ledger.summary().items():
        if entry["count"]:
            parts.append(
                f"{kind} n={entry['count']} "
                + " ".join(f"{q}={entry[q + '_ms']:.1f}ms" for q in _QS)
            )
    lines = ["[svc] " + " | ".join(parts)]
    for tenant, now in sorted(tenants.items()):
        then = before.get(tenant) or Counts()
        served = now.served - then.served
        shed = now.shed_total - then.shed_total
        if not served and not shed:
            continue  # idle since the previous block: no row
        row = f"[svc]   tenant={tenant} served={served} shed={shed}"
        errors = now.errors - then.errors
        if errors:
            row += f" errors={errors}"
        lines.append(row)
    return "\n".join(lines)


def stats_summary(gate: "AdmissionGate") -> str:
    """The closing ``--stats`` table of ``fast serve``, from the gate."""
    lines = gate.ledger.render("svc stats")
    total = gate.ledger.total()
    elapsed = max(gate.clock() - gate.started, 1e-9)
    lines.append(
        f"{total.served} jobs in {elapsed:.1f}s "
        f"({total.served / elapsed:.1f} jobs/s)"
    )
    if total.shed:
        breakdown = " ".join(f"{r}={n}" for r, n in sorted(total.shed.items()))
        lines.append(f"shed: {total.shed_total} ({breakdown})")
    return "\n".join(lines)
