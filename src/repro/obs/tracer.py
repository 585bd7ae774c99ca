"""Hierarchical span tracer: thread-local stacks, one retained root store.

A *span* is a named, timed region of execution with key/value
attributes::

    with obs.span("compose", t1=first.name, t2=second.name) as sp:
        ...
        sp.set(states=len(done), rules=len(rules))

Spans nest: a span opened while another is active becomes its child, so
a full run yields a trace *tree* (rendered by :mod:`repro.obs.report`,
exported to Perfetto and flamegraphs by :mod:`repro.obs.export`).
Each thread gets an independent stack, so traces from concurrent
threads never interleave; :func:`trace` / :func:`reset_trace` read and
drop the calling thread's roots.  Every thread's root spans are kept in
one process-wide store, oldest first and capped at :data:`MAX_ROOTS`
(the oldest root is dropped and counted in ``obs.trace.dropped_roots``),
so an exporter sees the spans of every thread, finished ones included,
and a long-running server with recording on holds bounded memory.

When recording is disabled (:mod:`repro.obs.config`), :func:`span`
returns a shared no-op object and records nothing.

**Request-scoped trace context.**  A serving front-end follows one
request across threads and processes by its ``trace_id``.  The tracer
holds a thread-local context id (:func:`trace_context` /
:func:`current_trace_id`); while one is set, every span opened on the
thread is stamped with a ``trace_id`` attribute automatically, so the
whole subtree of work done on behalf of a request carries the id into
Perfetto exports without each call site threading it through by hand.
The context travels wherever the code sends it explicitly — the service
layer re-establishes it inside worker processes from the
:class:`~repro.svc.job.JobSpec`.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Iterator, Optional

from . import config, metrics

#: Root spans retained across all threads; past it the oldest is dropped.
MAX_ROOTS = 4096

#: Chrome-trace process id of spans recorded in this process (a span
#: grafted in from a worker process carries the worker's pid instead).
PID = 1

_DROPPED = metrics.counter("obs.trace.dropped_roots")


class Span:
    """One timed region.  Use as a context manager.

    ``pid``/``tid`` name the track the span ran on: this process and
    the opening thread, or — for a span grafted in from a worker — the
    worker's pid for both.
    """

    __slots__ = ("name", "attrs", "start", "duration", "children", "pid", "tid")

    def __init__(self, name: str, attrs: dict[str, Any]) -> None:
        self.name = name
        self.attrs = attrs
        self.start: float = 0.0
        self.duration: Optional[float] = None  # None while still open
        self.children: list[Span] = []
        self.pid = PID
        self.tid = 0

    def set(self, **attrs: Any) -> None:
        """Attach (or overwrite) key/value attributes on this span."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        state = _state()
        _attach(self, state)
        state.stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        # Exception safety: the span always closes and records, and the
        # exception (if any) is noted on the span before propagating.
        self.duration = time.perf_counter() - self.start
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        state = _state()
        if state.stack and state.stack[-1] is self:
            state.stack.pop()
        elif self in state.stack:  # pragma: no cover - defensive
            state.stack.remove(self)
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ms = "open" if self.duration is None else f"{self.duration * 1e3:.2f}ms"
        return f"Span({self.name!r}, {ms}, attrs={self.attrs})"


class _NullSpan:
    """The shared do-nothing span handed out while recording is off."""

    __slots__ = ()

    def set(self, **attrs: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = _NullSpan()


class _ThreadState(threading.local):
    def __init__(self) -> None:  # called once per thread
        self.stack: list[Span] = []
        self.trace_id: Optional[str] = None
        self.tid = threading.get_ident()
        #: Tags this thread's entries in the root store; unlike the
        #: ident, never reused by a later thread.
        self.key = object()


_STATE = _ThreadState()

#: Every thread's root spans, oldest first: ``(thread key, span)``.
_ROOTS: deque[tuple[object, Span]] = deque()
_ROOTS_LOCK = threading.Lock()


def _state() -> _ThreadState:
    return _STATE


def _attach(sp: Span, state: _ThreadState) -> None:
    """Stamp a just-opened span and hang it under the open span, or
    retain it as a root."""
    sp.tid = state.tid
    if state.trace_id is not None and "trace_id" not in sp.attrs:
        sp.attrs["trace_id"] = state.trace_id
    if state.stack:
        state.stack[-1].children.append(sp)
    else:
        with _ROOTS_LOCK:
            if len(_ROOTS) >= MAX_ROOTS:
                _ROOTS.popleft()
                _DROPPED.inc()
            _ROOTS.append((state.key, sp))


def span(name: str, **attrs: Any):
    """Open a new span (no-op while recording is disabled)."""
    if not config.ENABLED:
        return NULL_SPAN
    return Span(name, attrs)


def current():
    """The innermost open span of this thread (no-op span if none)."""
    if not config.ENABLED:
        return NULL_SPAN
    stack = _state().stack
    return stack[-1] if stack else NULL_SPAN


def current_trace_id() -> Optional[str]:
    """The request trace id bound to this thread, or None."""
    return _state().trace_id


@contextmanager
def trace_context(trace_id: Optional[str]) -> Iterator[None]:
    """Bind a request ``trace_id`` to this thread for a ``with`` block.

    While bound, every span opened on the thread is stamped with a
    ``trace_id`` attribute (unless the call site set one explicitly).
    Contexts nest: the previous id is restored on exit.  Binding
    ``None`` clears the context for the block.  Cheap enough to run
    with recording off — one thread-local store either way.
    """
    state = _state()
    previous = state.trace_id
    state.trace_id = trace_id
    try:
        yield
    finally:
        state.trace_id = previous


def instant(name: str, data: Optional[dict[str, Any]] = None) -> None:
    """Record one instant: a zero-length span stamped with the trace context.

    Decision points that are not regions (a shed, a quota refusal, a
    worker spawn) use this so the request they belong to is followable
    in the exported trace, where a zero-length span without children
    becomes a Chrome instant event.  No-op while recording is disabled.
    """
    if not config.ENABLED:
        return
    sp = Span(name, dict(data) if data else {})
    _attach(sp, _state())
    sp.start = time.perf_counter()
    sp.duration = 0.0


def trace() -> list[Span]:
    """This thread's retained root spans, in start order."""
    key = _state().key
    with _ROOTS_LOCK:
        return [sp for owner, sp in _ROOTS if owner is key]


def reset_trace() -> None:
    """Drop this thread's root spans (open spans stay on the stack)."""
    key = _state().key
    with _ROOTS_LOCK:
        kept = [entry for entry in _ROOTS if entry[0] is not key]
        _ROOTS.clear()
        _ROOTS.extend(kept)


def retained() -> list[Span]:
    """Every thread's retained root spans, oldest first."""
    with _ROOTS_LOCK:
        return [sp for _owner, sp in _ROOTS]


def reset_retained() -> None:
    """Drop every thread's root spans."""
    with _ROOTS_LOCK:
        _ROOTS.clear()


def reset_after_fork() -> None:
    """Forget the tracer state a forked child copied from its parent.

    The copied roots and this thread's open stack belong to the parent,
    and the root-store lock may have been held by another parent
    thread at the fork, so the child gets a fresh one.
    """
    global _ROOTS_LOCK
    _ROOTS_LOCK = threading.Lock()
    _ROOTS.clear()
    _state().stack.clear()
