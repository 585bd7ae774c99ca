"""Per-analysis-kind circuit breakers: fail fast on poisonous workloads.

Retry with backoff handles *sporadic* failures; it makes *systematic*
ones worse.  A job kind that crashes every worker it touches (a solver
path that segfaults, a composition that OOMs) would, with retries
alone, grind the pool through ``jobs × (1 + retries)`` doomed
executions.  The circuit breaker pattern (Nygard, *Release It!*) caps
the damage with a three-state machine per job kind:

* **CLOSED** — normal dispatch; consecutive failures are counted,
  successes reset the count;
* **OPEN** — after ``failure_threshold`` consecutive failures: jobs of
  this kind are rejected *without dispatch* as immediate UNKNOWN
  verdicts (reason ``circuit breaker open``) until ``cooldown``
  elapses;
* **HALF_OPEN** — after the cooldown, one probe job is let through:
  success closes the breaker, failure re-opens it (and restarts the
  cooldown).

The clock is injectable so tests drive the cooldown deterministically.
Breakers live in the :class:`~repro.svc.service.AnalysisService`, not
the pool, so their state persists across batches in a long-lived
service (``fast serve``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..obs import config as obs_config
from ..obs import metrics as obs_metrics
from ..obs import tracer as obs_tracer

CLOSED, OPEN, HALF_OPEN = "closed", "open", "half-open"

_OBS_TRIPS = obs_metrics.counter("svc.breaker_trips")
_OBS_REJECTIONS = obs_metrics.counter("svc.breaker_rejections")
_OBS_CLOSES = obs_metrics.counter("svc.breaker_closes")


@dataclass
class BreakerConfig:
    """Shared knobs for every per-kind breaker of a service."""

    #: Consecutive failures that trip CLOSED -> OPEN.
    failure_threshold: int = 5
    #: Seconds OPEN before allowing a HALF_OPEN probe.
    cooldown: float = 30.0


class CircuitBreaker:
    """One breaker (one job kind): closed -> open -> half-open."""

    def __init__(
        self,
        kind: str,
        config: Optional[BreakerConfig] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.kind = kind
        self.config = config or BreakerConfig()
        self.clock = clock
        self.state = CLOSED
        self.consecutive_failures = 0
        self.opened_at: Optional[float] = None
        #: Totals for reports (not reset by state transitions).
        self.rejected = 0
        self.trips = 0

    def allow(self) -> bool:
        """May a job of this kind be dispatched right now?

        OPEN breakers transition to HALF_OPEN when the cooldown has
        elapsed; the call that observes the transition wins the single
        probe slot (the supervisor is single-threaded, so there is no
        probe race).
        """
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            assert self.opened_at is not None
            if self.clock() - self.opened_at >= self.config.cooldown:
                self.state = HALF_OPEN
                obs_tracer.instant(
                    "svc.breaker.half_open",
                    {"kind": self.kind},
                )
                return True
            self.rejected += 1
            if obs_config.ENABLED:
                _OBS_REJECTIONS.inc()
            return False
        # HALF_OPEN: the probe is already in flight; queue-mates wait.
        self.rejected += 1
        if obs_config.ENABLED:
            _OBS_REJECTIONS.inc()
        return False

    def record_success(self) -> None:
        """The dispatched job came back (any clean result counts).

        A clean UNKNOWN — budget exhaustion inside the worker — is a
        *service* success: the worker survived and answered.  Breakers
        protect pool capacity, not analysis completeness.
        """
        self.consecutive_failures = 0
        if self.state != CLOSED:
            self.state = CLOSED
            self.opened_at = None
            if obs_config.ENABLED:
                _OBS_CLOSES.inc()
            obs_tracer.instant("svc.breaker.close", {"kind": self.kind})

    def record_failure(self) -> None:
        """The dispatched job failed (crash, timeout, corrupt reply)."""
        self.consecutive_failures += 1
        if self.state == HALF_OPEN:
            # The probe failed: straight back to OPEN, fresh cooldown.
            self._trip()
        elif (
            self.state == CLOSED
            and self.consecutive_failures >= self.config.failure_threshold
        ):
            self._trip()

    def _trip(self) -> None:
        self.state = OPEN
        self.opened_at = self.clock()
        self.trips += 1
        if obs_config.ENABLED:
            _OBS_TRIPS.inc()
        obs_tracer.instant(
            "svc.breaker.trip",
            {"kind": self.kind, "failures": self.consecutive_failures},
        )


@dataclass
class BreakerRegistry:
    """Per-kind breakers sharing one config and clock."""

    config: BreakerConfig = field(default_factory=BreakerConfig)
    clock: Callable[[], float] = time.monotonic
    breakers: dict[str, CircuitBreaker] = field(default_factory=dict)

    def get(self, kind: str) -> CircuitBreaker:
        if kind not in self.breakers:
            self.breakers[kind] = CircuitBreaker(kind, self.config, self.clock)
        return self.breakers[kind]

    def states(self) -> dict[str, str]:
        """Each consulted kind's breaker state (``closed``/``open``/...)."""
        return {kind: b.state for kind, b in self.breakers.items()}
