"""The live clock: :class:`~repro.transport.Clock` on an asyncio loop.

Where the simulation owns virtual time and advances it by executing
events, the live runtime *reads* time from the event loop's monotonic
clock and schedules timers through ``loop.call_later``.  Times are
seconds since the clock was constructed (the node's boot), so a live
``now`` looks exactly like a sim ``now``: starts near 0, never goes
backwards, and protocol timeouts written in seconds mean wall seconds.

What the live clock does **not** give:

* determinism — two live runs of the same scenario differ in exact
  timings (the cross-validation harness compares *verdicts*, not
  schedules);
* ``run_until``/``run_for`` — the loop runs itself; harness code awaits
  :func:`asyncio.sleep` instead;
* ordering precision — asyncio timers fire "no earlier than", with OS
  scheduling jitter on top.  Protocol correctness here never depends on
  exact firing order, only on timeouts being comfortably larger than
  real message delays (the same η ≫ link-delay requirement the paper's
  systems state).
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass
from typing import Callable

__all__ = ["Backoff", "Deadline", "LiveClock"]

_INF = float("inf")


@dataclass(frozen=True)
class Backoff:
    """Bounded-exponential retry schedule with full jitter.

    The supervisor contract of every live control-plane interaction
    (spawn handshake, TCP control channel, HTTP serve): attempt,
    sleep ``min(cap, base * factor**i) * uniform(0.5, 1)``, retry —
    up to ``attempts`` tries total — then declare the peer dead with a
    one-line error naming what was tried.  Jitter keeps a campaign's
    retries from thundering in phase; the RNG is injectable so tests
    can pin the schedule.
    """

    base: float = 0.05
    factor: float = 2.0
    cap: float = 0.5
    attempts: int = 4

    def __post_init__(self) -> None:
        if self.base <= 0 or self.factor < 1 or self.cap < self.base:
            raise ValueError("backoff needs base > 0, factor >= 1, "
                             "cap >= base")
        if self.attempts < 1:
            raise ValueError("backoff needs at least one attempt")

    def delays(self, rng: random.Random | None = None) -> list[float]:
        """The jittered sleep after each failed attempt but the last."""
        rng = rng if rng is not None else random
        return [min(self.cap, self.base * self.factor ** i)
                * rng.uniform(0.5, 1.0)
                for i in range(self.attempts - 1)]


class Deadline:
    """A wall-clock budget: ``remaining`` shrinks, ``expired`` is final.

    Wraps ``time.monotonic`` so supervised operations can bound every
    blocking step (connect, read, join) by what is left of the overall
    budget rather than a fixed per-step timeout.
    """

    def __init__(self, budget_s: float) -> None:
        if budget_s <= 0:
            raise ValueError("deadline budget must be positive")
        self.budget_s = budget_s
        self._start = time.monotonic()

    @property
    def elapsed(self) -> float:
        """Seconds since the deadline started."""
        return time.monotonic() - self._start

    @property
    def remaining(self) -> float:
        """Seconds left in the budget (never negative)."""
        return max(0.0, self.budget_s - self.elapsed)

    @property
    def expired(self) -> bool:
        """Whether the budget is spent."""
        return self.remaining <= 0.0


class LiveClock:
    """Monotonic clock + timers on an :class:`asyncio` event loop.

    Implements the :class:`repro.transport.Clock` protocol.  ``now`` is
    ``loop.time()`` minus the construction instant, so it is comparable
    across the clock's lifetime but **not** across OS processes — each
    node of a live cluster has its own epoch (they boot within a spawn
    stagger of each other; report mergers treat cross-node times as
    approximately aligned).

    ``events_executed`` counts fired callbacks, mirroring the kernel
    counter reports read from a :class:`~repro.sim.engine.Simulation`.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop | None = None) -> None:
        self._loop = loop if loop is not None else asyncio.get_running_loop()
        self._epoch = self._loop.time()
        self.events_executed = 0
        self._timers_scheduled = 0
        self._timers_cancelled = 0

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        """The event loop this clock schedules on."""
        return self._loop

    @property
    def now(self) -> float:
        """Seconds since the clock was constructed (monotonic)."""
        return self._loop.time() - self._epoch

    # ------------------------------------------------------------------
    # Clock protocol
    # ------------------------------------------------------------------

    def call_after(self, delay: float,
                   action: Callable[[], None]) -> asyncio.TimerHandle:
        """Run ``action`` no earlier than ``delay`` seconds from now.

        Returns the :class:`asyncio.TimerHandle`, whose idempotent
        ``cancel()`` satisfies :class:`repro.transport.TimerHandle`.
        """
        self._timers_scheduled += 1

        def fire() -> None:
            self.events_executed += 1
            action()

        return self._loop.call_later(max(0.0, delay), fire)

    def call_at(self, time: float, action: Callable[[], None],
                tie: tuple[float, int] | None = None) -> asyncio.TimerHandle:
        """Run ``action`` at the absolute clock time ``time``.

        ``tie`` is accepted and ignored: asyncio has no same-time order
        to keep (see :meth:`repro.sim.engine.Simulation.call_at`).
        """
        return self.call_after(time - self.now, action)

    @property
    def cursor(self) -> tuple[float, float, float]:
        """``(now, inf, inf)``: on a live clock every tick due by now has run.

        The live analogue of :attr:`repro.sim.engine.Simulation.cursor`;
        a resumed timer chain skips every tick due at or before now.
        """
        return (self.now, _INF, _INF)

    def post_after(self, delay: float, action: Callable[[], None]) -> None:
        """Handle-free :meth:`call_after` (fire-and-forget deliveries)."""
        self.call_after(delay, action)

    def post_at(self, time: float, action: Callable[[], None]) -> None:
        """Handle-free :meth:`call_at`."""
        self.call_at(time, action)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def profile(self) -> dict[str, int]:
        """Counters for the report's ``sim.profile`` block."""
        return {
            "timers_scheduled": self._timers_scheduled,
            "callbacks_fired": self.events_executed,
        }
