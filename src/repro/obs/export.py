"""Journal exporters: Chrome/Perfetto trace-event JSON and flamegraphs.

* :func:`chrome_trace` renders a :class:`~repro.obs.journal.Journal`
  into the Chrome trace-event format — a ``{"traceEvents": [...]}``
  document with ``B``/``E`` duration events, ``C`` counter events, and
  ``i`` instant events — loadable in Perfetto (``ui.perfetto.dev``)
  and ``chrome://tracing``.
* :func:`collapsed_stacks` folds the same journal into collapsed-stack
  lines (``root;child;leaf <self-time-us>``) consumed by flamegraph
  tools (``flamegraph.pl``, speedscope, inferno).

Both exporters sanitize the stream: a ring buffer may have overwritten
the ``B`` of a recorded ``E`` (or vice versa at the tail), so unmatched
``E`` events are dropped and still-open ``B`` events are synthetically
closed at the last observed timestamp.  The output therefore always has
balanced nesting and per-thread monotonic timestamps, whatever the ring
truncated.

**Worker tracks.**  :mod:`repro.svc.telemetry` merges subprocess-worker
journal fragments into the supervisor's journal with ``tid`` set to the
worker's pid and one ``M``-phase track-registration event per merged
blob (``data = {"pid": ..., "name": ...}``).  :func:`chrome_trace`
turns those registrations into Chrome ``process_name``/``thread_name``
metadata events and routes the registered tids to their own ``pid`` in
the output, so every worker appears as its own process track in
Perfetto — with its ``svc.job`` spans enclosing the worker-side
solver/automata spans.  Balancing is per track, so a worker killed
mid-job can never corrupt the supervisor's own track.
"""

from __future__ import annotations

import json
from typing import Any, Optional

from .journal import Event, Journal, ACTIVE

#: Synthetic process id for trace events (single-process system).
PID = 1


def _resolve_events(
    journal: Optional[Journal], events: Optional[list[Event]]
) -> tuple[list[Event], float]:
    if events is None:
        j = journal if journal is not None else ACTIVE
        if j is None:
            return [], 0.0
        events = j.events()
        t0 = j.t0
    else:
        t0 = events[0][0] if events else 0.0
    if events:
        # Merged worker events may carry (aligned) timestamps earlier
        # than anything the host emitted; scan so no event goes negative.
        t0 = min(t0, min(ev[0] for ev in events))
    return events, t0


def _sanitize(events: list[Event]) -> dict[int, list[Event]]:
    """Split by thread and balance B/E pairs per thread.

    Unmatched ``E`` events (their ``B`` was overwritten by the ring) are
    dropped; unmatched ``B`` events get a synthetic ``E`` at the last
    timestamp seen on that thread.
    """
    by_tid: dict[int, list[Event]] = {}
    stacks: dict[int, list[Event]] = {}
    last_ts: dict[int, float] = {}
    for ev in events:
        ts, tid, ph, name, data = ev
        out = by_tid.setdefault(tid, [])
        last_ts[tid] = max(last_ts.get(tid, ts), ts)
        if ph == "B":
            stacks.setdefault(tid, []).append(ev)
            out.append(ev)
        elif ph == "E":
            stack = stacks.get(tid)
            if stack:
                stack.pop()
                out.append(ev)
            # else: orphan E (B lost to the ring) -> drop
        else:
            out.append(ev)
    # Close any span still open at the end of the stream.
    for tid, stack in stacks.items():
        ts = last_ts.get(tid, 0.0)
        for open_b in reversed(stack):
            by_tid[tid].append((ts, tid, "E", open_b[3], {"synthetic": True}))
    return by_tid


def _us(ts: float, t0: float) -> float:
    return round((ts - t0) * 1e6, 3)


def chrome_trace(
    journal: Optional[Journal] = None,
    *,
    events: Optional[list[Event]] = None,
) -> dict[str, Any]:
    """The journal as a Chrome trace-event document (a JSON-able dict).

    Defaults to the active journal; pass ``journal=`` or raw
    ``events=`` to export something else.
    """
    events, t0 = _resolve_events(journal, events)
    out: list[dict[str, Any]] = []
    # Worker-track registrations ("M" events): tid -> {"pid", "name"}.
    tracks: dict[int, dict[str, Any]] = {}
    for _ts, tid, ph, _name, data in events:
        if ph == "M" and isinstance(data, dict) and "pid" in data:
            tracks[tid] = data
    if tracks:
        out.append(
            {"name": "process_name", "ph": "M", "pid": PID,
             "args": {"name": "fast supervisor"}}
        )
        for tid, meta in sorted(tracks.items()):
            wpid = int(meta["pid"])
            label = str(meta.get("name", f"svc-worker {wpid}"))
            out.append(
                {"name": "process_name", "ph": "M", "pid": wpid,
                 "args": {"name": label}}
            )
            out.append(
                {"name": "thread_name", "ph": "M", "pid": wpid, "tid": tid,
                 "args": {"name": label}}
            )
    guard_totals: dict[tuple[int, str], float] = {}
    for tid, evs in sorted(_sanitize(events).items()):
        track_pid = int(tracks[tid]["pid"]) if tid in tracks else PID
        for ts, _tid, ph, name, data in evs:
            if ph == "M":  # consumed by the registration pre-scan
                continue
            e: dict[str, Any] = {
                "name": name,
                "ph": ph,
                "ts": _us(ts, t0),
                "pid": track_pid,
                "tid": tid,
            }
            if ph in ("B", "E"):
                if isinstance(data, dict) and data:
                    e["args"] = {k: _jsonable(v) for k, v in data.items()}
            elif ph == "C":
                e["args"] = {"value": data}
            elif ph == "G":
                # Guard charges are deltas; accumulate them into a
                # running total so budget consumption is visible as a
                # counter track in the viewer.
                key = (tid, name)
                guard_totals[key] = guard_totals.get(key, 0) + (data or 1)
                e["ph"] = "C"
                e["name"] = f"guard.{name}"
                e["args"] = {"value": guard_totals[key]}
            else:  # "I" and anything future -> instant event
                e["ph"] = "i"
                e["s"] = "t"
                if isinstance(data, dict) and data:
                    e["args"] = {k: _jsonable(v) for k, v in data.items()}
            out.append(e)
    return {"traceEvents": out, "displayTimeUnit": "ms"}


def _jsonable(v: Any) -> Any:
    if isinstance(v, (str, int, float, bool)) or v is None:
        return v
    return str(v)


def events_for_trace(
    trace_id: str,
    journal: Optional[Journal] = None,
    *,
    events: Optional[list[Event]] = None,
) -> list[Event]:
    """The journal events belonging to one request, by ``trace_id``.

    A span/instant belongs to the request when its data dict carries
    the id (the tracer's trace context stamps it); an ``E`` event whose
    matching ``B`` was stamped belongs too, because B/E share the live
    attrs dict.  Feed the result back to :func:`chrome_trace` via
    ``events=`` to export a single request's merged track::

        doc = chrome_trace(events=events_for_trace("req-7"))
    """
    events, _t0 = _resolve_events(journal, events)
    return [
        ev
        for ev in events
        if isinstance(ev[4], dict) and ev[4].get("trace_id") == trace_id
    ]


def write_chrome_trace(path: str, journal: Optional[Journal] = None) -> None:
    """Write :func:`chrome_trace` output to ``path`` as JSON."""
    with open(path, "w") as f:
        f.write(json.dumps(chrome_trace(journal)) + "\n")


def collapsed_stacks(
    journal: Optional[Journal] = None,
    *,
    events: Optional[list[Event]] = None,
) -> list[str]:
    """The journal folded into collapsed-stack flamegraph lines.

    Each line is ``frame;frame;frame <self-time-us>``: the *self* time
    of that stack (span time minus child-span time), in integer
    microseconds.  Identical stacks across threads merge.
    """
    events, _t0 = _resolve_events(journal, events)
    totals: dict[tuple[str, ...], float] = {}
    for _tid, evs in sorted(_sanitize(events).items()):
        # stack of [name, begin_ts, child_time]
        stack: list[list[Any]] = []
        for ts, _t, ph, name, _data in evs:
            if ph == "B":
                stack.append([name, ts, 0.0])
            elif ph == "E" and stack:
                frame_name, begin, child_time = stack.pop()
                total = max(0.0, ts - begin)
                self_time = max(0.0, total - child_time)
                if stack:
                    stack[-1][2] += total
                path = tuple(f[0] for f in stack) + (frame_name,)
                totals[path] = totals.get(path, 0.0) + self_time
    return [
        ";".join(path) + f" {int(round(seconds * 1e6))}"
        for path, seconds in sorted(totals.items())
    ]


def write_flamegraph(path: str, journal: Optional[Journal] = None) -> None:
    """Write :func:`collapsed_stacks` lines to ``path``."""
    with open(path, "w") as f:
        for line in collapsed_stacks(journal):
            f.write(line)
            f.write("\n")
