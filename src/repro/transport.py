"""The transport seam: what protocol code may assume about its substrate.

Every protocol process in this repository — the Omega variants in
:mod:`repro.core`, the consensus stacks in :mod:`repro.consensus` — is
written against two narrow duck-typed surfaces, passed to
:class:`~repro.sim.process.Process` as ``sim`` and ``network``:

:class:`Clock`
    Time and timers: ``now``, ``call_after``/``call_at`` returning a
    cancellable :class:`TimerHandle` (``call_at`` takes an optional
    same-time ``tie`` key), ``cursor`` (how far the clock has run, in
    same-time order), and the handle-free ``post_after`` for
    fire-and-forget events.

:class:`Transport`
    Peers and messages: ``register``/``process``/``pids``,
    ``send``/``broadcast``, the crash/recovery notes, and the
    per-transport :class:`~repro.obs.observer.ObserverHub` through which
    every observable event flows.

Two implementations exist:

* the deterministic simulation — :class:`~repro.sim.engine.Simulation`
  (Clock) and :class:`~repro.sim.network.Network` (Transport), where
  time is virtual and every run is a pure function of the seed; and
* the live asyncio backend — :class:`~repro.live.runtime.LiveClock`
  and :class:`~repro.live.transport.LiveTransport`, where time is the
  event loop's monotonic clock and messages cross real UDP sockets.

The contract the protocols actually rely on (and that the conformance
suite in ``tests/test_transport_conformance.py`` pins for both
backends) is spelled out in ``docs/TRANSPORT.md``; the short version:

* **Timers**: ``call_after(d, f)`` runs ``f`` no earlier than ``d``
  seconds from ``now``; cancellation is idempotent and exact in the sim,
  best-effort-exact (asyncio semantics) live.
* **Messages**: ``send`` may drop, delay, and (live, or under
  duplication faults) duplicate, but never corrupts or invents
  messages; a crashed sender raises, a crashed/unstarted receiver
  silently drops (recorded on the hub); messages from a previous
  incarnation of a recovered sender are dropped as
  ``stale_incarnation``.
* **Ordering**: no FIFO guarantee on any link, in either backend.
* **Observability**: both backends dispatch the same
  :class:`~repro.obs.observer.Observer` event vocabulary through
  ``hub``, so recorders, metrics and report builders work unchanged.

These are :class:`typing.Protocol` classes used for documentation and
static structural checks only — nothing isinstance-checks them at
runtime, and the hot paths stay monomorphic.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.observer import ObserverHub
    from repro.sim.messages import Message
    from repro.sim.process import Process

__all__ = ["TimerHandle", "Clock", "Transport", "TransportError"]


class TransportError(RuntimeError):
    """Raised on transport misuse (unknown pid, sending while crashed...).

    The simulation backend raises its historical
    :class:`~repro.sim.network.NetworkError`; the live backend raises
    this.  Both subclass :class:`RuntimeError`, and code that must catch
    either should catch that.
    """


@runtime_checkable
class TimerHandle(Protocol):
    """What ``call_after``/``call_at`` return: something cancellable.

    ``cancel()`` is idempotent and safe after the timer fired.  The sim
    returns :class:`~repro.sim.events.EventHandle`; the live backend
    wraps :class:`asyncio.TimerHandle`.
    """

    def cancel(self) -> None:
        """Disarm the timer; a no-op if it already fired or was cancelled."""


@runtime_checkable
class Clock(Protocol):
    """Time source and timer scheduler a :class:`~repro.sim.process.Process` runs on.

    Simulated clocks start at 0 and advance only when events execute;
    the live clock starts at 0 when the runtime boots and advances with
    the event loop's monotonic time.  Either way, ``now`` is seconds and
    never goes backwards.
    """

    @property
    def now(self) -> float:
        """Current time in seconds."""
        ...

    def call_after(self, delay: float,
                   action: Callable[[], None]) -> TimerHandle:
        """Schedule ``action`` to run ``delay`` seconds from now."""
        ...

    def call_at(self, time: float, action: Callable[[], None],
                tie: tuple[float, int] | None = None) -> TimerHandle:
        """Schedule ``action`` at the absolute time ``time``.

        ``tie`` — ``(arm_time, seq)`` — pins the event's order among
        same-time events on a simulated clock; a live clock ignores it.
        """
        ...

    @property
    def cursor(self) -> tuple:
        """How far the clock has run, as a ``(time, arm_time, seq)`` key."""
        ...

    def post_after(self, delay: float, action: Callable[[], None]) -> None:
        """Handle-free ``call_after`` for events never cancelled (deliveries)."""
        ...


@runtime_checkable
class Transport(Protocol):
    """Message fabric a :class:`~repro.sim.process.Process` sends through.

    Implementations own an :class:`~repro.obs.observer.ObserverHub` and
    dispatch the full observer event vocabulary (sends, deliveries,
    drops, packet accounting, lifecycle) through it; see
    ``docs/TRANSPORT.md`` for the per-event guarantees each backend
    gives.
    """

    @property
    def hub(self) -> "ObserverHub":
        """The transport's observer fan-out point."""
        ...

    @property
    def pids(self) -> list[int]:
        """All known pids (local and remote), sorted."""
        ...

    def register(self, process: "Process") -> None:
        """Attach a local process; called by ``Process.__init__``."""
        ...

    def process(self, pid: int) -> "Process":
        """The local process with this pid (raises on unknown/remote pids)."""
        ...

    def send(self, src: int, dst: int, message: "Message") -> None:
        """Send ``message`` from ``src`` to ``dst``; raises if ``src`` crashed."""
        ...

    def broadcast(self, src: int, message: "Message") -> None:
        """Send ``message`` from ``src`` to every other known pid."""
        ...

    def note_crash(self, pid: int) -> None:
        """Record that ``pid`` went down (dispatches ``on_crash``)."""
        ...

    def note_recover(self, pid: int, incarnation: int) -> None:
        """Record that ``pid`` came back as ``incarnation``."""
        ...
