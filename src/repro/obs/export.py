"""Span-tree exporters: Chrome/Perfetto trace-event JSON and flamegraphs.

Both exporters read span trees — by default every thread's retained
roots (:func:`repro.obs.tracer.retained`):

* :func:`chrome_trace` renders them in the Chrome trace-event format — a
  ``{"traceEvents": [...]}`` document with a ``B``/``E`` pair per span
  (its attrs as ``args``) and an ``i`` event per instant (a zero-length
  span without children) — loadable in Perfetto (``ui.perfetto.dev``)
  and ``chrome://tracing``.
* :func:`collapsed_stacks` folds them into collapsed-stack lines
  (``root;child;leaf <self-time-us>``) consumed by flamegraph tools
  (``flamegraph.pl``, speedscope, inferno).

A span tree is balanced by construction, so the output always has
balanced nesting per track; a span still open at export time (another
thread mid-request) is closed at the export instant with
``"synthetic": true`` in its args.

**Tracks.**  A span's track is its ``(pid, tid)``: this process and the
thread that opened it.  :mod:`repro.svc.telemetry` grafts each worker's
``svc.job`` subtree under the supervisor's ``svc.job`` span with the
worker's pid as both, already shifted onto the supervisor clock, so
every worker appears as its own process track in Perfetto — named by
``process_name``/``thread_name`` metadata — with its ``svc.job`` spans
enclosing the worker-side solver/automata spans.
"""

from __future__ import annotations

import json
import time
from typing import Any, Iterable, Iterator, Optional

from . import tracer
from .tracer import PID, Span


def _jsonable(v: Any) -> Any:
    if isinstance(v, (str, int, float, bool)) or v is None:
        return v
    return str(v)


def _tracks(roots: Iterable[Span]) -> dict[tuple[int, int], list[Span]]:
    """The top-level spans of each track, in start order.

    A child on another track than its parent (a grafted worker
    subtree) starts a top-level entry of its own track.
    """
    tracks: dict[tuple[int, int], list[Span]] = {}

    def visit(sp: Span, parent_track: Optional[tuple[int, int]]) -> None:
        track = (sp.pid, sp.tid)
        if track != parent_track:
            tracks.setdefault(track, []).append(sp)
        for child in sp.children:
            visit(child, track)

    for root in roots:
        visit(root, None)
    for spans in tracks.values():
        spans.sort(key=lambda sp: sp.start)
    return tracks


def _is_instant(sp: Span) -> bool:
    return sp.duration == 0.0 and not sp.children


def _same_track(sp: Span) -> Iterator[Span]:
    """The children of ``sp`` that ran on its track."""
    return (c for c in sp.children if (c.pid, c.tid) == (sp.pid, sp.tid))


def chrome_trace(roots: Optional[Iterable[Span]] = None) -> dict[str, Any]:
    """Span trees as a Chrome trace-event document (a JSON-able dict).

    Defaults to every thread's retained roots; pass ``roots=`` (e.g.
    :func:`spans_for_trace` output) to export something else.
    """
    tracks = _tracks(tracer.retained() if roots is None else roots)
    now = time.perf_counter()
    starts = [sp.start for spans in tracks.values() for sp in spans]
    t0 = min(starts) if starts else 0.0

    def us(ts: float) -> float:
        return round((ts - t0) * 1e6, 3)

    out: list[dict[str, Any]] = []
    workers = sorted({pid for pid, _tid in tracks if pid != PID})
    if workers:
        out.append(
            {"name": "process_name", "ph": "M", "pid": PID,
             "args": {"name": "fast supervisor"}}
        )
    for wpid in workers:
        label = f"svc-worker {wpid}"
        for meta in ("process_name", "thread_name"):
            out.append(
                {"name": meta, "ph": "M", "pid": wpid, "tid": wpid,
                 "args": {"name": label}}
            )

    def emit(sp: Span) -> None:
        instant = _is_instant(sp)
        e: dict[str, Any] = {
            "name": sp.name, "ph": "i" if instant else "B",
            "ts": us(sp.start), "pid": sp.pid, "tid": sp.tid,
        }
        if sp.attrs:
            e["args"] = {k: _jsonable(v) for k, v in sp.attrs.items()}
        out.append(e)
        if instant:
            e["s"] = "t"
            return
        for child in _same_track(sp):
            emit(child)
        end: dict[str, Any] = {
            "name": sp.name, "ph": "E", "pid": sp.pid, "tid": sp.tid,
        }
        if sp.duration is None:
            end["ts"] = us(now)
            end["args"] = {"synthetic": True}
        else:
            end["ts"] = us(sp.start + sp.duration)
        out.append(end)

    for _track, spans in sorted(tracks.items()):
        for sp in spans:
            emit(sp)
    return {"traceEvents": out, "displayTimeUnit": "ms"}


def spans_for_trace(
    trace_id: str, roots: Optional[Iterable[Span]] = None
) -> list[Span]:
    """The spans belonging to one request, by ``trace_id``.

    Returns the topmost spans stamped with the id (the tracer's trace
    context stamps every span opened under it, so their subtrees are
    the request's).  Feed the result back to :func:`chrome_trace` to
    export a single request's merged tracks::

        doc = chrome_trace(spans_for_trace("req-7"))
    """
    found: list[Span] = []

    def visit(sp: Span) -> None:
        if sp.attrs.get("trace_id") == trace_id:
            found.append(sp)
            return
        for child in sp.children:
            visit(child)

    for root in tracer.retained() if roots is None else roots:
        visit(root)
    return found


def write_chrome_trace(path: str, roots: Optional[Iterable[Span]] = None) -> None:
    """Write :func:`chrome_trace` output to ``path`` as JSON."""
    with open(path, "w") as f:
        f.write(json.dumps(chrome_trace(roots)) + "\n")


def collapsed_stacks(roots: Optional[Iterable[Span]] = None) -> list[str]:
    """Span trees folded into collapsed-stack flamegraph lines.

    Each line is ``frame;frame;frame <self-time-us>``: the *self* time
    of that stack (span duration minus its children's), in integer
    microseconds.  Each track folds on its own — a grafted worker
    subtree starts its own stacks — and identical stacks merge.
    Instants are not frames.
    """
    now = time.perf_counter()
    totals: dict[tuple[str, ...], float] = {}

    def duration(sp: Span) -> float:
        return now - sp.start if sp.duration is None else sp.duration

    def fold(sp: Span, path: tuple[str, ...]) -> None:
        path = path + (sp.name,)
        children = [c for c in _same_track(sp) if not _is_instant(c)]
        self_time = max(0.0, duration(sp) - sum(duration(c) for c in children))
        totals[path] = totals.get(path, 0.0) + self_time
        for child in children:
            fold(child, path)

    for spans in _tracks(tracer.retained() if roots is None else roots).values():
        for sp in spans:
            if not _is_instant(sp):
                fold(sp, ())
    return [
        ";".join(path) + f" {int(round(seconds * 1e6))}"
        for path, seconds in sorted(totals.items())
    ]


def write_flamegraph(path: str, roots: Optional[Iterable[Span]] = None) -> None:
    """Write :func:`collapsed_stacks` lines to ``path``."""
    with open(path, "w") as f:
        for line in collapsed_stacks(roots):
            f.write(line)
            f.write("\n")
