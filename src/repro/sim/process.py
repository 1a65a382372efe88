"""Actor-style process runtime.

A :class:`Process` is the unit of computation of the model: it reacts to
message deliveries and timer expirations, can send/broadcast messages,
and can crash.  A crash makes the process *down*: it neither sends,
receives, nor fires timers, and all volatile state of the runtime
(timers, pause buffers, unsynced storage writes) is gone.  Under the
default crash-stop reading (DESIGN.md §1.1) down is forever; the
crash-recovery extension (docs/RECOVERY.md) adds :meth:`Process.recover`,
which brings the process back as a fresh **incarnation** — volatile
state reset, durable state (see :class:`~repro.sim.storage.StableStorage`)
intact, and in-flight messages from the previous incarnation discarded
by the network.

Protocols subclass :class:`Process` and override the hooks:

``on_start()``
    Called once when the process is started (arm initial timers, send
    the first round of messages).

``on_message(message)``
    Called for every delivered message.

``on_timer(key)``
    Called when the timer named ``key`` expires.  Periodic timers
    re-arm themselves *before* dispatching, so a handler that wants to
    stop the cycle calls :meth:`cancel_timer` (or :meth:`park_timer` to
    pause it).

``on_crash()``
    Last hook before the process goes silent; useful for checkers.

``on_recover()``
    First hook of a new incarnation; reload durable state from
    :attr:`storage` and re-arm timers here.

Besides the permanent crash, a process can be **paused** and later
**resumed** (think SIGSTOP, a long GC pause, a VM migration).  While
paused it sends nothing, dispatches no timer handlers, and processes no
deliveries; incoming messages are buffered and handed to ``on_message``
at resume time, and one-shot timers that expired during the pause fire
(late) at resume.  Periodic timers keep re-arming silently so their
cycle survives the freeze.  Pauses are how the nemesis fault injector
(:mod:`repro.sim.nemesis`) provokes false suspicions without leaving
the crash-stop model.

Timers are named by an arbitrary hashable key.  Setting a one-shot timer
that already exists resets it (the usual "reset timer_p" of the
pseudocode in this literature), and the reset is *lazy*: when the armed
event fires no later than the new deadline, the reset only records that
deadline, and the early event re-arms itself once at it instead of
firing.  A failure detector's watch timer is reset on every heartbeat
but expires only on a missed one, so this turns a cancel plus a fresh
event per heartbeat into one extra event per timeout period.  A reset to
an *earlier* deadline cancels and re-arms as usual.  Either way the
timer fires exactly once, at the float ``now + delay`` of its last
reset.

A periodic timer is a *chain* of ticks on a float grid: each tick is
due one period (added, never recomputed) after the previous one.  On a
simulated clock every tick runs in ``(time, arm_time, seq)`` order with
the key ``(due, previous due, seq of the chain's first arm)`` — a
function of the grid and the chain's origin alone (see
:mod:`repro.sim.engine`).  That is what makes **parking** exact: a
handler that has nothing to do on its ticks for a while (a silent
non-leader's heartbeat) calls :meth:`park_timer`, which cancels the
pending tick but keeps its due time and arm time, and a later
:meth:`unpark_timer` walks the grid forward to the first tick whose key
still lies ahead of the running event and re-arms it with that key.
The ticks that come after are the same events, in the same same-time
order, as those of a chain that was never parked; only the skipped
ticks — which would have found nothing to do — are gone.  A tick due
exactly at the resuming instant runs only if its key lies after the
running event's (:attr:`Simulation.cursor
<repro.sim.engine.Simulation.cursor>`), just as the never-parked tick
would have.

A process does not touch the simulator directly: everything it needs
from its substrate goes through the two duck-typed surfaces of
:mod:`repro.transport` — ``sim`` only as a :class:`~repro.transport.Clock`
(``now``, ``cursor``, ``call_after``/``call_at``/``post_after``) and
``network`` only as a :class:`~repro.transport.Transport` (``register``,
``send``/``broadcast``, the crash/recovery notes, ``hub``).  That seam is what
lets the *same* process classes run on the deterministic
:class:`~repro.sim.engine.Simulation`/:class:`~repro.sim.network.Network`
pair or on the live asyncio backend
(:class:`~repro.live.runtime.LiveClock` /
:class:`~repro.live.transport.LiveTransport`) unchanged; the parameter
annotations below name the sim types because that is the default and
reference backend.  See ``docs/TRANSPORT.md`` for the exact contract
and the sim-versus-live guarantee table.
"""

from __future__ import annotations

from functools import partial
from typing import Hashable

from repro.sim.engine import Simulation
from repro.sim.events import EventHandle
from repro.sim.messages import Message
from repro.sim.network import Network
from repro.sim.storage import StableStorage

__all__ = ["Process", "ProcessError"]


class ProcessError(RuntimeError):
    """Raised on process lifecycle misuse (recovering an up process...)."""


class Process:
    """A crashable (and recoverable) process on a clock and a transport.

    ``sim`` is any :class:`~repro.transport.Clock`, ``network`` any
    :class:`~repro.transport.Transport` — the sim pair in simulation
    runs, the live pair in ``python -m repro live`` runs.  The
    annotations name the sim classes as the reference implementation.
    """

    def __init__(self, pid: int, sim: Simulation, network: Network) -> None:
        self.pid = pid
        self.sim = sim
        self.network = network
        self.incarnation = 0
        self._crashed = False
        self._started = False
        self._paused = False
        self._storage: StableStorage | None = None
        self._timers: dict[Hashable, EventHandle] = {}
        # One-shot timers only: key -> [armed, deadline], the time the
        # pending event fires and the time the timer is due (later when
        # the timer was lazily reset since it was armed).
        self._due: dict[Hashable, list[float]] = {}
        # Periodic timers only: key -> [period, due, arm, origin, parked],
        # the pending (or parked) tick's time and the grid time it was
        # armed at, and the seq of the chain's first arm — together the
        # tick's (time, arm_time, seq) order key.
        self._chains: dict[Hashable, list] = {}
        self._held_messages: list[Message] = []
        self._missed_timers: list[Hashable] = []
        network.register(self)

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.sim.now

    @property
    def crashed(self) -> bool:
        """Whether this process is down (permanent unless :meth:`recover`)."""
        return self._crashed

    @property
    def storage(self) -> StableStorage:
        """This process's stable storage, attached lazily on first use.

        Processes that never touch storage never build one (and pay
        nothing); processes that need configured storage call
        :meth:`attach_storage` before first use.
        """
        if self._storage is None:
            self._storage = StableStorage(self.pid, self.sim,
                                          hub=self.network.hub)
        return self._storage

    def attach_storage(self, storage: StableStorage) -> StableStorage:
        """Install a configured :class:`StableStorage` (before first use)."""
        if self._storage is not None:
            raise ProcessError(
                f"process {self.pid} already has stable storage attached")
        self._storage = storage
        return storage

    @property
    def started(self) -> bool:
        """Whether :meth:`start` has run."""
        return self._started

    @property
    def paused(self) -> bool:
        """Whether the process is currently frozen (see :meth:`pause`)."""
        return self._paused

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Run the ``on_start`` hook.  Idempotent; no-op when crashed."""
        if self._started or self._crashed:
            return
        self._started = True
        self.on_start()

    def crash(self) -> None:
        """Crash the process: cancel all timers and go silent (down).

        All volatile state — timers, pause buffers, unsynced storage
        writes — is lost.  Down is permanent under crash-stop; the
        crash-recovery extension may later call :meth:`recover`.
        """
        if self._crashed:
            return
        self._crashed = True
        self._paused = False
        for handle in self._timers.values():
            handle.cancel()
        self._timers.clear()
        self._due.clear()
        self._chains.clear()
        self._held_messages.clear()
        self._missed_timers.clear()
        if self._storage is not None:
            self._storage.note_crash()
        self.network.note_crash(self.pid)
        self.on_crash()

    def recover(self) -> None:
        """Bring a down process back as a fresh incarnation.

        Volatile state was already lost at crash time; durable storage
        survives.  The incarnation number increments (monotone across
        the process's lifetime), the network discards any still-in-flight
        messages sent by previous incarnations, and the ``on_recover``
        hook runs to reload durable state and re-arm timers.

        Raises :class:`ProcessError` if the process is not down —
        recovering an up process (including double-recovery) is a
        harness bug, not a fault to model.
        """
        if not self._crashed:
            raise ProcessError(
                f"process {self.pid} is up (incarnation {self.incarnation}); "
                f"recover() requires a crashed process")
        self._crashed = False
        self._paused = False
        self.incarnation += 1
        self.network.note_recover(self.pid, self.incarnation)
        self.on_recover()

    def pause(self) -> None:
        """Freeze the process: no sends, no handler dispatch, until resume.

        Idempotent; a no-op on crashed processes.  Deliveries and expired
        one-shot timers are queued and replayed by :meth:`resume`.
        """
        if self._crashed or self._paused:
            return
        self._paused = True
        self.network.hub.pause(self.sim.now, self.pid)

    def resume(self) -> None:
        """Unfreeze the process and replay what it missed while paused.

        One-shot timers that expired during the pause fire first (late,
        at the current time), then buffered deliveries are dispatched in
        arrival order.  Idempotent; a no-op on crashed processes.
        """
        if self._crashed or not self._paused:
            return
        self._paused = False
        self.network.hub.resume(self.sim.now, self.pid)
        missed, self._missed_timers = self._missed_timers, []
        held, self._held_messages = self._held_messages, []
        for position, key in enumerate(missed):
            if self._crashed:
                return
            if self._paused:  # handler re-paused us: keep the remainder
                self._missed_timers = missed[position:] + self._missed_timers
                self._held_messages = held + self._held_messages
                return
            self.on_timer(key)
        for position, message in enumerate(held):
            if self._crashed:
                return
            if self._paused:
                self._held_messages = held[position:] + self._held_messages
                return
            self.on_message(message)

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------

    def send(self, dst: int, message: Message) -> None:
        """Send a message to ``dst``; ignored while crashed or paused."""
        if self._crashed or self._paused:
            return
        self.network.send(self.pid, dst, message)

    def broadcast(self, message: Message) -> None:
        """Send to every other process; ignored while crashed or paused."""
        if self._crashed or self._paused:
            return
        self.network.broadcast(self.pid, message)

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------

    def set_timer(self, key: Hashable, delay: float) -> None:
        """Arm (or reset) the one-shot timer ``key`` to fire after ``delay``.

        Resetting to a deadline no earlier than the pending event's time
        only records the deadline (see the module docstring); a periodic
        ``key`` becomes a one-shot.
        """
        if self._crashed:
            return
        deadline = self.sim.now + delay
        due = self._due.get(key)
        if due is not None and due[0] <= deadline:
            due[1] = deadline
            return
        self.cancel_timer(key)
        self._due[key] = [deadline, deadline]
        self._timers[key] = self.sim.call_at(deadline, partial(self._fire, key))

    def set_periodic(self, key: Hashable, period: float) -> None:
        """Arm the timer ``key`` to fire every ``period`` units until cancelled.

        Starts a fresh chain: a previous (or parked) chain on ``key`` is
        cancelled, and the new chain's grid starts at ``now``.
        """
        if period <= 0:
            raise ValueError("period must be positive")
        if self._crashed:
            return
        self.cancel_timer(key)  # also clears any previous chain for the key
        now = self.sim.now
        handle = self.sim.call_at(now + period, partial(self._fire, key))
        # Live timer handles carry no tie key; the live clock ignores ties.
        tie = getattr(handle, "tie", None)
        self._chains[key] = [period, now + period, now,
                             tie[1] if tie is not None else 0, False]
        self._timers[key] = handle

    def park_timer(self, key: Hashable) -> None:
        """Stop the periodic timer ``key`` from ticking until unparked.

        The pending tick is cancelled, but its due time and arm time are
        kept exactly, so :meth:`unpark_timer` resumes the chain on the
        same grid with the same order key (module docstring).  A no-op
        unless ``key`` is an armed periodic timer.
        """
        chain = self._chains.get(key)
        if chain is None or chain[4]:
            return
        chain[4] = True
        self._timers.pop(key).cancel()

    def unpark_timer(self, key: Hashable) -> None:
        """Resume the parked periodic timer ``key`` on its grid.

        Re-arms the first tick whose ``(time, arm_time, seq)`` key lies
        ahead of the clock's :attr:`cursor` — at the current instant
        itself if the never-parked tick would still be queued behind the
        running event.  A no-op unless ``key`` is parked.
        """
        chain = self._chains.get(key)
        if chain is None or not chain[4]:
            return
        period, due, arm, origin, _ = chain
        cursor = self.sim.cursor
        while (due, arm, origin) < cursor:  # this tick would have run
            arm = due
            due += period
        chain[1:] = [due, arm, origin, False]
        self._timers[key] = self.sim.call_at(
            due, partial(self._fire, key), (arm, origin))

    def cancel_timer(self, key: Hashable) -> None:
        """Disarm timer ``key`` (and end its periodic chain).  Idempotent."""
        handle = self._timers.pop(key, None)
        if handle is not None:
            handle.cancel()
        self._due.pop(key, None)
        self._chains.pop(key, None)

    def has_timer(self, key: Hashable) -> bool:
        """Whether timer ``key`` is currently armed (a parked one is not)."""
        return key in self._timers

    def _fire(self, key: Hashable) -> None:
        if self._crashed:  # crash raced the event; stay silent
            return
        due = self._due.get(key)
        if due is not None:
            if due[1] > self.sim.now:
                # Lazily reset since armed: re-arm once at the recorded
                # deadline, paused or not (nothing has expired yet).
                due[0] = due[1]
                self._timers[key] = self.sim.call_at(
                    due[1], partial(self._fire, key))
                return
            del self._due[key]
        self._timers.pop(key, None)
        chain = self._chains.get(key)
        if chain is not None:
            # Re-arm before dispatch so on_timer may cancel (or park) the
            # chain.  The next tick is due one period after this one and
            # keyed by this tick's time and the chain's origin.
            arm, nxt = chain[1], chain[1] + chain[0]
            now = self.sim.now
            while nxt <= now:  # a live tick ran late: skip what it overslept
                arm, nxt = nxt, nxt + chain[0]
            chain[1], chain[2] = nxt, arm
            self._timers[key] = self.sim.call_at(
                nxt, partial(self._fire, key), (arm, chain[3]))
            if self._paused:  # frozen: the cycle survives, the tick is lost
                return
        elif self._paused:  # one-shot expiring under a pause fires at resume
            self._missed_timers.append(key)
            return
        self.on_timer(key)

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------

    def deliver(self, message: Message) -> None:
        """Entry point used by the network; dispatches to ``on_message``."""
        if self._crashed:
            return
        if self._paused:  # frozen endpoint: the kernel buffers for us
            self._held_messages.append(message)
            return
        self.on_message(message)

    # ------------------------------------------------------------------
    # Hooks for subclasses
    # ------------------------------------------------------------------

    def on_start(self) -> None:
        """Initialization hook; default does nothing."""

    def on_message(self, message: Message) -> None:
        """Message hook; default does nothing."""

    def on_timer(self, key: Hashable) -> None:
        """Timer hook; default does nothing."""

    def on_crash(self) -> None:
        """Crash hook; default does nothing."""

    def on_recover(self) -> None:
        """Recovery hook (new incarnation); default does nothing."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self._crashed:
            state = "crashed"
        elif self._paused:
            state = "paused"
        else:
            state = "up" if self._started else "new"
        return f"<{type(self).__name__} pid={self.pid} {state}>"
