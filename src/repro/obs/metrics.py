"""Named counters, gauges, and histograms.

The module-level registry maps metric names (dotted, e.g.
``solver.sat_queries``) to metric objects.  Instrumented modules obtain
their handles once at import time::

    _SAT = metrics.counter("solver.sat_queries")
    ...
    if config.ENABLED:
        _SAT.inc()

:func:`reset` zeroes every registered metric **in place**, so handles
held by instrumented modules stay valid across resets.

Updates are thread-safe: each metric carries its own lock, so worker
threads hammering the same counter cannot lose increments or corrupt a
histogram's aggregates (``tests/obs/test_thread_safety.py``).

Stand-alone metrics (e.g. the private per-solver counters in
:class:`~repro.smt.solver.SolverStats`) have ``name=None`` and stay out
of the registry.
"""

from __future__ import annotations

import random
import threading
from typing import Any, Optional, Sequence, Union

Number = Union[int, float]


def percentile(sorted_values: Sequence[Number], q: float) -> float:
    """The ``q``-quantile (0..1) of an already-sorted sequence.

    Linear interpolation between closest ranks; 0.0 for an empty
    sequence.  The one quantile estimator: :class:`Histogram` quantiles
    and the benchmarks' latency summaries both use it.
    """
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return float(sorted_values[0])
    idx = q * (len(sorted_values) - 1)
    lo = int(idx)
    frac = idx - lo
    if lo + 1 >= len(sorted_values):
        return float(sorted_values[-1])
    return sorted_values[lo] * (1.0 - frac) + sorted_values[lo + 1] * frac


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value", "name", "_lock")

    def __init__(self, name: Optional[str] = None) -> None:
        self.value: int = 0
        self.name = name
        self._lock = threading.Lock()

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self.value += n

    def reset(self) -> None:
        with self._lock:
            self.value = 0

    def snapshot(self) -> int:
        return self.value


class Gauge:
    """A last-write-wins value (sizes, rates, levels)."""

    __slots__ = ("value", "name", "_lock")

    def __init__(self, name: Optional[str] = None) -> None:
        self.value: Number = 0
        self.name = name
        self._lock = threading.Lock()

    def set(self, value: Number) -> None:
        self.value = value

    def add(self, delta: Number) -> None:
        """Atomic relative update (queue depths, in-flight counts).

        Unlike :meth:`set`, concurrent adders must not lose updates —
        the serving gate's queue-depth gauge is bumped from many
        connection threads and decremented by the dispatcher.
        """
        with self._lock:
            self.value += delta

    def reset(self) -> None:
        self.value = 0

    def snapshot(self) -> Number:
        return self.value


class Histogram:
    """Streaming aggregate of observed values, with quantiles.

    Besides the running count/sum/min/max, a fixed-size **reservoir**
    (Vitter's algorithm R, seeded deterministically) keeps a uniform
    sample of everything observed, so :meth:`quantile` can report
    p50/p95/p99 without storing the full stream.  While ``count`` is at
    most :data:`RESERVOIR_SIZE` the sample is the whole population and
    the quantiles are exact.
    """

    RESERVOIR_SIZE = 512

    __slots__ = (
        "count", "total", "min", "max", "name",
        "reservoir_size", "_samples", "_rng", "_lock",
    )

    def __init__(
        self,
        name: Optional[str] = None,
        reservoir_size: int = RESERVOIR_SIZE,
    ) -> None:
        self.count: int = 0
        self.total: Number = 0
        self.min: Number | None = None
        self.max: Number | None = None
        self.name = name
        self.reservoir_size = reservoir_size
        self._samples: list[Number] = []
        self._rng = random.Random(0x5EED)
        self._lock = threading.Lock()

    def observe(self, value: Number) -> None:
        with self._lock:
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value
            self._sample_locked(value)

    def _sample_locked(self, value: Number) -> None:
        if len(self._samples) < self.reservoir_size:
            self._samples.append(value)
        else:
            i = self._rng.randrange(self.count)
            if i < self.reservoir_size:
                self._samples[i] = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The estimated ``q``-quantile (exact while count <= reservoir)."""
        with self._lock:
            samples = sorted(self._samples)
        return percentile(samples, q)

    def merge(self, state: dict[str, Any]) -> None:
        """Fold another histogram's :meth:`state` into this one.

        Used by the supervisor to absorb worker-side histograms shipped
        in telemetry blobs: aggregates add up exactly; the shipped
        sample list is folded into this reservoir (weighted by the
        merged count), keeping the quantiles approximately right.
        """
        count = state.get("count", 0)
        if not isinstance(count, int) or count <= 0:
            return
        with self._lock:
            self.count += count
            self.total += state.get("sum", 0)
            for bound, better in (("min", min), ("max", max)):
                v = state.get(bound)
                if isinstance(v, (int, float)):
                    mine = getattr(self, bound)
                    setattr(self, bound, v if mine is None else better(mine, v))
            for value in state.get("samples", ())[: self.reservoir_size]:
                if isinstance(value, (int, float)):
                    self._sample_locked(value)

    def reset(self) -> None:
        with self._lock:
            self.count = 0
            self.total = 0
            self.min = None
            self.max = None
            self._samples.clear()

    def snapshot(self) -> dict[str, Number]:
        with self._lock:
            samples = sorted(self._samples)
        return {
            "count": self.count,
            "sum": self.total,
            "min": 0 if self.min is None else self.min,
            "max": 0 if self.max is None else self.max,
            "mean": self.mean,
            "p50": percentile(samples, 0.50),
            "p95": percentile(samples, 0.95),
            "p99": percentile(samples, 0.99),
        }

    def state(self) -> dict[str, Any]:
        """:meth:`snapshot` plus the raw reservoir, for :meth:`merge`.

        This is what telemetry blobs carry across the process boundary;
        ``snapshot()`` deliberately excludes the sample list so JSON
        reports stay small.
        """
        doc = self.snapshot()
        with self._lock:
            doc["samples"] = list(self._samples)
        return doc


Metric = Union[Counter, Gauge, Histogram]


class Registry:
    """A named collection of metrics; creation is thread-safe."""

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, cls) -> Metric:
        m = self._metrics.get(name)
        if m is None:
            with self._lock:
                m = self._metrics.setdefault(name, cls(name))
        if not isinstance(m, cls):
            raise TypeError(
                f"metric {name!r} is a {type(m).__name__}, not a {cls.__name__}"
            )
        return m

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)  # type: ignore[return-value]

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)  # type: ignore[return-value]

    def reset(self) -> None:
        """Zero every metric in place (handles stay valid)."""
        for m in self._metrics.values():
            m.reset()

    def snapshot(self) -> dict[str, object]:
        """Name -> plain-value snapshot, sorted by name."""
        return {
            name: self._metrics[name].snapshot()
            for name in sorted(self._metrics)
        }

    def __contains__(self, name: str) -> bool:
        return name in self._metrics


#: The process-wide default registry.
REGISTRY = Registry()


def counter(name: str) -> Counter:
    return REGISTRY.counter(name)


def gauge(name: str) -> Gauge:
    return REGISTRY.gauge(name)


def histogram(name: str) -> Histogram:
    return REGISTRY.histogram(name)
