"""Event representation for the discrete-event kernel.

A :class:`ScheduledEvent` is an action bound to a simulated time.  The
engine queues it inside a ``(time, arm_time, seq, event)`` entry, and
events run in ``(time, arm_time, seq)`` order: ``arm_time`` is the
simulated time at which the event was scheduled and ``seq`` the engine's
insertion counter.  For an ordinary event that is exactly the order in
which events for one instant were scheduled, because ``seq`` only grows
as time advances.  A periodic timer chain keys each re-arm by the grid
time it was armed at and the ``seq`` of the chain's first arm, so a
chain's order key is a function of its period grid and origin alone —
see :meth:`repro.sim.engine.Simulation.call_at` and
:meth:`repro.sim.process.Process.park_timer`.  Either way every run is
deterministic.

Cancellation is *lazy*: cancelling tombstones the event in O(1) — the
action reference is dropped immediately (so closures and the protocol
state they capture are freed right away) and the engine discards the
tombstone when it reaches the top of the heap, or earlier during a
compaction sweep (see :meth:`repro.sim.engine.Simulation` internals).
Nothing is ever removed from the middle of the heap, which keeps every
heap operation O(log n).  Tombstones come from explicit cancels and from
timer resets to an *earlier* deadline; a reset to a later deadline, the
common case of a failure detector's watch timer, cancels nothing (see
:meth:`repro.sim.process.Process.set_timer`).

Under the calendar-queue scheduler, only cancellable events (those with
an :class:`EventHandle`, from ``call_at``/``call_after``) live on the
overflow heap; fire-and-forget events go to the calendar buckets and
are never tombstoned — which is what keeps tombstone accounting and
compaction heap-only and cheap.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.sim.engine import Simulation

__all__ = ["ScheduledEvent", "EventHandle"]


class ScheduledEvent:
    """An action scheduled at an absolute simulated time.

    Not created directly — use :meth:`repro.sim.engine.Simulation.call_at`.
    """

    __slots__ = ("action", "cancelled", "fired")

    def __init__(self, action: Callable[[], None] | None) -> None:
        self.action = action
        self.cancelled = False
        self.fired = False

    def __lt__(self, other: "ScheduledEvent") -> bool:
        # Reached only when two queue entries share a whole order key: a
        # parked timer's tombstone and the tick that resumed it.  They
        # are interchangeable (the tombstone never runs).
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"<ScheduledEvent{state}>"


class EventHandle:
    """A caller-facing handle that can cancel a scheduled event."""

    __slots__ = ("_entry", "_sim")

    def __init__(self, entry: tuple[float, float, int, ScheduledEvent],
                 sim: "Simulation | None" = None) -> None:
        self._entry = entry
        self._sim = sim

    @property
    def time(self) -> float:
        """The simulated time the event is scheduled for."""
        return self._entry[0]

    @property
    def tie(self) -> tuple[float, int]:
        """The event's ``(arm_time, seq)``, its order among same-time events."""
        return (self._entry[1], self._entry[2])

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called."""
        return self._entry[3].cancelled

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent, O(1).

        The event object stays in the engine's heap as a tombstone (it is
        skipped when popped), but its action — and everything the action
        closes over — is released immediately.
        """
        event = self._entry[3]
        if event.cancelled:
            return
        event.cancelled = True
        event.action = None
        # Cancelling after the event already ran is a no-op; only events
        # still sitting in the heap count toward tombstone accounting.
        if not event.fired and self._sim is not None:
            self._sim._note_cancelled()
