"""The discrete-event simulation kernel.

:class:`Simulation` owns the virtual clock and the event queue.  Everything
else in this repository — link delivery, process timers, fault injection,
periodic probes — is expressed as events scheduled on one simulation.

Determinism
-----------
Runs are bit-for-bit reproducible: events execute in
``(time, arm_time, seq)`` order, and all randomness must come from the
simulation's :class:`~repro.sim.rng.RngFabric`.  Wall-clock time never
enters the kernel; the same seed and the same schedule of calls produce
the same interleaving on every machine and at every parallelism level.

``arm_time`` is the simulated time at which an event was scheduled and
``seq`` the insertion counter.  For an ordinary event this is exactly
"same-time events run in the order they were scheduled", because
``seq`` only grows as time advances.  The arm time is there for
periodic timer chains: :meth:`Simulation.call_at` accepts an explicit
``tie=(arm_time, seq)``, and :class:`~repro.sim.process.Process` keys
each re-arm of a chain by the grid time it was armed at and the ``seq``
of the chain's first arm.  A chain's order key is then a function of its
period grid and its origin alone, not of the instant its re-arm code
happened to run — so a chain that was parked and skipped ticks can be
resumed with exactly the key the never-parked chain would have had.
:attr:`Simulation.cursor` is the key of the event now running, which is
what a resume compares a would-be tick against.

Units
-----
All times (``now``, ``call_at`` deadlines, ``call_after`` delays, probe
periods) are **seconds of simulated time** as floats.  Wall-clock seconds
appear nowhere in this module.

Hot path: the two-tier calendar queue
-------------------------------------
The scheduler keeps two structures instead of one binary heap:

* **Time buckets** for fire-and-forget events (``post_at``/``post_after``/
  ``post_batch`` — message deliveries, probe ticks).  A bucket is a plain
  list covering one fixed-width span of simulated time, keyed by
  ``int(time * (1 / bucket_width))``.  Appending is O(1) amortized with
  no heap discipline; when the run loop reaches a bucket it sorts the
  list once (C-level tuple sort over ``(time, arm_time, seq, event)``)
  and then drains it by walking an index — the per-event cost drops
  from O(log n) heap pushes/pops to an append and an index increment.
* **An overflow heap** for everything that cannot live in a bucket:
  cancellable events (``call_at``/``call_after`` return an
  :class:`EventHandle`; tombstones and compaction stay heap-only) and
  late posts whose time falls inside the span the run loop has already
  opened (``time < _drained_until``).  The heap is ordered by the same
  ``(time, arm_time, seq, event)`` tuples.

The run loop merges the two tiers with a two-pointer walk: the next event
is whichever of (current bucket entry, live heap top) has the smaller
``(time, arm_time, seq)``.  Because live keys are unique, this
reproduces exactly the total order a single heap would produce — the
calendar queue is a throughput optimization, not a semantic change, and
the differential property test
(``tests/test_scheduler_differential.py``) holds it to that against
:class:`ReferenceSimulation`.

Why the bucket width must be a power of two: the mapping
``int(time * inv_width)`` and the window boundary ``(index + 1) * width``
must agree *exactly*, or an event could land in a bucket whose span the
loop believes is already drained.  With ``width = 2**-k`` both the
multiplication and the boundary product are exact in binary floating
point, so the mapping is monotone and ``time < (index + 1) * width``
holds for every time in bucket ``index`` — no epsilon, no edge cases.

Cancellation tombstones events in O(1) and the engine drops tombstones
when they surface; a compaction sweep rebuilds the overflow heap when
tombstones outnumber live events (threshold configurable via
``compact_threshold``), so a workload that cancels timers faster than
they expire cannot grow the heap without bound.  Resetting a process
timer to a later deadline is not such a workload: it cancels nothing
(:meth:`repro.sim.process.Process.set_timer` records the new deadline
and lets the armed event re-arm itself), so the failure detectors'
per-heartbeat watch resets leave no tombstones.

Typical use::

    sim = Simulation(seed=7)
    sim.call_after(1.5, lambda: print("fires at t=1.5"))
    sim.run_until(10.0)
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Iterable, Iterator

from repro.sim.events import EventHandle, ScheduledEvent
from repro.sim.rng import RngFabric

__all__ = ["Simulation", "ReferenceSimulation", "SimulationError"]

_INF = float("inf")

# Times at or beyond this are routed straight to the overflow heap: the
# bucket index of e.g. float("inf") is not representable, and a bucket
# dict spanning 2**60 seconds of calendar would never be reached anyway.
_FAR_HORIZON = 2.0 ** 60

# A queue entry: (time, arm_time, seq, event), compared as a tuple.
_Entry = tuple[float, float, int, ScheduledEvent]


class SimulationError(RuntimeError):
    """Raised on kernel misuse (e.g. scheduling in the past)."""


def _tied_entry(time: float, tie: tuple[float, int], now: float,
                cursor: tuple, action: Callable[[], None]) -> _Entry:
    """The queue entry of a ``call_at(..., tie=tie)``, validated."""
    arm, seq = tie
    if arm > now:
        raise SimulationError(f"tie arm time {arm} is after now={now}")
    if (time, arm, seq) < cursor:
        raise SimulationError(
            f"tie key {(time, arm, seq)} is behind the running event "
            f"{tuple(cursor[:3])}")
    return (time, arm, seq, ScheduledEvent(action))


class Simulation:
    """A deterministic discrete-event simulation.

    Parameters
    ----------
    seed:
        Root seed of the run's random fabric (see :class:`RngFabric`).
        Two simulations built with the same seed and driven by the same
        calls execute identical event interleavings.
    compact_threshold:
        Minimum number of tombstones before a cancellation can trigger a
        compaction sweep of the overflow heap (the sweep additionally
        requires tombstones to be at least half the heap).  Lower values
        bound heap memory tighter at the price of more frequent O(heap)
        sweeps; the default keeps the amortized cost of a cancel at
        O(log n).
    bucket_width:
        Span of simulated seconds covered by one calendar bucket.  Must
        be a positive power of two (see the module docstring for why);
        the default of 1/16 s keeps a heartbeat-scale workload (η ≈ 0.5 s,
        δ ≈ 0.05 s) at a handful of events per bucket per process.
    """

    def __init__(self, seed: int = 0, *, compact_threshold: int = 64,
                 bucket_width: float = 0.0625) -> None:
        if compact_threshold < 1:
            raise SimulationError(
                f"compact_threshold must be >= 1, got {compact_threshold}")
        if not (bucket_width > 0 and math.frexp(bucket_width)[0] == 0.5):
            raise SimulationError(
                f"bucket_width must be a positive power of two, "
                f"got {bucket_width}")
        self._now = 0.0
        self._seq = 0
        self._compact_threshold = compact_threshold
        self._bucket_width = bucket_width
        self._inv_width = 1.0 / bucket_width  # exact: width is 2**-k
        # Tier 1: calendar buckets of (time, arm_time, seq, event) tuples,
        # keyed by int(time * inv_width).  Only fire-and-forget events
        # live here.
        self._buckets: dict[int, list[_Entry]] = {}
        # Min-heap of bucket keys, pushed once per bucket creation, so
        # finding the next window is O(log buckets) instead of O(buckets).
        self._bucket_order: list[int] = []
        # The open window: the sorted entries of the bucket currently
        # being drained, and the index of the next entry to run.
        self._entries: list[_Entry] = []
        self._entry_idx = 0
        # End of the last opened window.  Fire-and-forget posts with
        # time < _drained_until must go to the heap: their bucket's
        # sorted snapshot has already been taken.
        self._drained_until = 0.0
        # Tier 2: the overflow heap, same entries.  Live keys are unique,
        # so tuple comparison reaches the event only for a tombstone.
        self._heap: list[_Entry] = []
        # The key of the event now running (or last run); see cursor.
        self._cursor: tuple = (0.0, 0.0, 0)
        self._tombstones = 0
        self._cancels = 0
        self._executed = 0
        # Profiling counters (cold paths only; hot-path figures are
        # derived from _seq/_executed, which exist anyway).
        self._tombstone_pops = 0
        self._compactions = 0
        self._rng = RngFabric(seed)

    # ------------------------------------------------------------------
    # Clock and randomness
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time, in seconds since the run started."""
        return self._now

    @property
    def cursor(self) -> tuple:
        """How far the run has got in ``(time, arm_time, seq)`` order.

        Inside an event this is that event's key (a 4-tuple whose last
        item is the event): every key below it has run, every key above
        it has not.  Between runs it is the last event's key, or, once
        :meth:`run_until` moved the clock past that, the key an event
        armed now would get.  A resumed timer chain compares its
        would-be ticks against it (:meth:`Process.unpark_timer
        <repro.sim.process.Process.unpark_timer>`).
        """
        return self._cursor

    @property
    def rng(self) -> RngFabric:
        """The run's random fabric — the only legitimate randomness source."""
        return self._rng

    @property
    def events_executed(self) -> int:
        """Total events run so far; the benchmark throughput denominator."""
        return self._executed

    def profile(self) -> dict[str, int]:
        """Kernel profiling counters, all integers and fully deterministic.

        * ``events_executed`` — live events whose actions ran;
        * ``heap_pushes`` — events ever scheduled (the insertion counter,
          so this costs the hot path nothing extra; bucket appends count
          the same as heap pushes);
        * ``heap_pops`` — extractions of live events (from either tier)
          plus tombstone discards;
        * ``tombstone_pops`` — cancelled events discarded at pop time;
        * ``compactions`` — tombstone sweeps that rebuilt the heap;
        * ``pending`` — live events still queued.

        These thread into bench reports as the additive ``profile``
        block of each case record.
        """
        return {
            "events_executed": self._executed,
            "heap_pushes": self._seq,
            "heap_pops": self._executed + self._tombstone_pops,
            "tombstone_pops": self._tombstone_pops,
            "compactions": self._compactions,
            "pending": self.pending(),
        }

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def call_at(self, time: float, action: Callable[[], None],
                tie: tuple[float, int] | None = None) -> EventHandle:
        """Schedule ``action`` to run at absolute simulated ``time`` (seconds).

        Scheduling strictly in the past is a programming error; scheduling
        at exactly ``now`` is allowed and runs after currently queued
        events for ``now``.  Returns a handle whose ``cancel()`` is O(1).

        ``tie`` replaces the event's ``(arm_time, seq)`` — by default
        ``(now, next seq)`` — with a key taken from an earlier event
        (its :attr:`EventHandle.tie`) and an arm time no later than now.
        Timer chains use it to keep one order key across re-arms (see
        the module docstring).  The resulting key must lie ahead of
        :attr:`cursor`.

        Cancellable events always live on the overflow heap — tombstone
        accounting and compaction never have to look inside buckets.
        """
        now = self._now
        if time < now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={now}"
            )
        seq = self._seq
        self._seq = seq + 1
        if tie is None:
            entry = (time, now, seq, ScheduledEvent(action))
        else:
            entry = _tied_entry(time, tie, now, self._cursor, action)
        heapq.heappush(self._heap, entry)
        return EventHandle(entry, self)

    def call_after(self, delay: float, action: Callable[[], None]) -> EventHandle:
        """Schedule ``action`` to run ``delay`` simulated seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.call_at(self._now + delay, action)

    def post_at(self, time: float, action: Callable[[], None]) -> None:
        """Schedule ``action`` at ``time`` without creating a handle.

        Fire-and-forget fast path for events that are never cancelled
        (message deliveries, probe re-arms).  Identical ordering semantics
        to :meth:`call_at`; it skips the :class:`EventHandle` allocation
        and, in the common case, the heap entirely — the event is
        appended to its calendar bucket in O(1).
        """
        now = self._now
        if time < now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={now}"
            )
        seq = self._seq
        self._seq = seq + 1
        entry = (time, now, seq, ScheduledEvent(action))
        if time < self._drained_until or time >= _FAR_HORIZON:
            # The event's bucket span is already open (or being drained):
            # its sorted snapshot was taken, so late arrivals merge
            # through the heap instead.
            heapq.heappush(self._heap, entry)
            return
        index = int(time * self._inv_width)
        bucket = self._buckets.get(index)
        if bucket is None:
            self._buckets[index] = [entry]
            heapq.heappush(self._bucket_order, index)
        else:
            bucket.append(entry)

    def post_after(self, delay: float, action: Callable[[], None]) -> None:
        """Handle-free :meth:`call_after`; see :meth:`post_at`."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self.post_at(self._now + delay, action)

    def post_batch(
        self, items: Iterable[tuple[float, Callable[[], None]]],
    ) -> None:
        """Bulk :meth:`post_at`: schedule ``(time, action)`` pairs in order.

        One kernel call for a whole fan-out (a broadcast's n−1 delivery
        events): seq numbers are assigned in iteration order, so the
        result is indistinguishable from calling :meth:`post_at` once per
        pair — just without n−1 rounds of attribute traffic and bounds
        checks.
        """
        now = self._now
        drained_until = self._drained_until
        inv_width = self._inv_width
        buckets = self._buckets
        heap = self._heap
        heappush = heapq.heappush
        seq = self._seq
        try:
            for time, action in items:
                if time < now:
                    raise SimulationError(
                        f"cannot schedule at t={time} before now={now}"
                    )
                entry = (time, now, seq, ScheduledEvent(action))
                seq += 1
                if time < drained_until or time >= _FAR_HORIZON:
                    heappush(heap, entry)
                    continue
                index = int(time * inv_width)
                bucket = buckets.get(index)
                if bucket is None:
                    buckets[index] = [entry]
                    heappush(self._bucket_order, index)
                else:
                    bucket.append(entry)
        finally:
            self._seq = seq

    def add_probe(self, period: float, probe: Callable[[float], None]) -> None:
        """Run ``probe(now)`` every ``period`` simulated seconds, forever.

        Probes are how observers (checkers, metric samplers) watch the
        system evolve without participating in it.  The first invocation
        happens at ``now + period``.
        """
        if period <= 0:
            raise SimulationError(f"probe period must be positive, got {period}")

        def fire() -> None:
            probe(self._now)
            self.post_after(period, fire)

        self.post_after(period, fire)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _run(self, deadline: float, limit: int | None) -> int:
        """Run events with ``time <= deadline`` in ``(time, arm_time, seq)`` order.

        Runs at most ``limit`` events when given.  Returns the number
        executed.  ``now`` tracks the last executed event and never
        overshoots to ``deadline`` here (run_until does that bump).
        """
        heap = self._heap
        buckets = self._buckets
        order = self._bucket_order
        width = self._bucket_width
        heappop = heapq.heappop
        executed = 0
        entries = self._entries
        idx = self._entry_idx
        while limit is None or executed < limit:
            # Live heap top (discard tombstones as they surface).
            while heap:
                head = heap[0]
                if head[3].cancelled:
                    heappop(heap)
                    self._tombstones -= 1
                    self._tombstone_pops += 1
                else:
                    break
            else:
                head = None

            if idx < len(entries):
                # Two-pointer merge of the open window with the heap.
                entry = entries[idx]
                if head is not None and head < entry:
                    if head[0] > deadline:
                        break
                    heappop(heap)
                    entry = head
                else:
                    if entry[0] > deadline:
                        break
                    idx += 1
                    self._entry_idx = idx
                event = entry[3]
                self._now = entry[0]
                self._cursor = entry
                self._executed += 1
                executed += 1
                event.fired = True
                event.action()
                continue

            # The open window's bucket is spent; release its storage.
            if entries:
                entries = self._entries = []
                idx = self._entry_idx = 0

            # Heap events inside the already-opened span run before any
            # new window (late posts and timers landed here).
            if head is not None and head[0] < self._drained_until:
                if head[0] > deadline:
                    break
                heappop(heap)
                event = head[3]
                self._now = head[0]
                self._cursor = head
                self._executed += 1
                executed += 1
                event.fired = True
                event.action()
                continue

            # Open the next window: the earliest of (next bucket, the
            # span containing the heap top).
            while order and order[0] not in buckets:
                heappop(order)  # bucket consumed without its order entry
            next_bucket = order[0] if order else None
            if head is None:
                if next_bucket is None:
                    break
                window = next_bucket
            elif next_bucket is not None and next_bucket * width <= head[0]:
                window = next_bucket
            else:
                window = int(head[0] * self._inv_width)
            if window * width > deadline:
                break
            if window == next_bucket:
                heappop(order)
                bucket = buckets.pop(window)
                bucket.sort()
                entries = self._entries = bucket
                idx = self._entry_idx = 0
            self._drained_until = (window + 1) * width
        return executed

    def step(self) -> bool:
        """Run the single next live event.  Returns False if none is queued."""
        return self._run(_INF, 1) == 1

    def run_until(self, deadline: float) -> None:
        """Run all events with ``time <= deadline``; leave ``now == deadline``.

        Events scheduled exactly at the deadline *do* run.  ``deadline``
        is absolute simulated seconds.
        """
        self._run(deadline, None)
        if deadline > self._now:
            self._now = deadline
            self._cursor = (deadline, deadline, self._seq)

    def run_for(self, duration: float) -> None:
        """Run for ``duration`` simulated seconds from now."""
        self.run_until(self._now + duration)

    def run_batch(self, deadline: float = _INF) -> int:
        """Drain the next pending calendar window as one batch.

        Executes every queued event in the bucket-width span containing
        the earliest pending event (capped at ``deadline``), without
        per-event heap discipline for the bucketed part, and returns the
        number executed.  Unlike :meth:`run_until`, the clock is left at
        the last executed event, not bumped to the window boundary — so
        callers can alternate ``run_batch()`` with inspection at event
        granularity while paying batch prices.
        """
        start = self._next_time()
        if start is None or start > deadline:
            return 0
        window_end = (int(start * self._inv_width) + 1) * self._bucket_width
        # Events at exactly window_end belong to the next window; walk
        # the inclusive deadline one ulp down to exclude them.
        return self._run(min(deadline, math.nextafter(window_end, 0.0)), None)

    def drain(self, max_events: int = 1_000_000) -> int:
        """Run until the queue empties; mostly useful in unit tests.

        Raises :class:`SimulationError` after ``max_events`` events as a
        guard against self-perpetuating schedules (heartbeats, probes).
        """
        count = self._run(_INF, max_events)
        if count >= max_events:
            raise SimulationError("drain() exceeded max_events; "
                                  "did you drain a self-perpetuating schedule?")
        return count

    def pending(self) -> int:
        """Number of queued live events; O(1) thanks to cancel accounting."""
        return self._seq - self._executed - self._cancels

    def pending_times(self) -> Iterator[float]:
        """Times of queued live events, unsorted; for diagnostics."""
        for entry in self._heap:
            if not entry[3].cancelled:
                yield entry[0]
        for bucket in self._buckets.values():
            for entry in bucket:
                yield entry[0]
        for entry in self._entries[self._entry_idx:]:
            yield entry[0]

    def _next_time(self) -> float | None:
        """Earliest pending event time, or None; pops tombstones it meets."""
        heap = self._heap
        while heap:
            if heap[0][3].cancelled:
                heapq.heappop(heap)
                self._tombstones -= 1
                self._tombstone_pops += 1
            else:
                break
        candidates = []
        if heap:
            candidates.append(heap[0][0])
        if self._entry_idx < len(self._entries):
            candidates.append(self._entries[self._entry_idx][0])
        order = self._bucket_order
        buckets = self._buckets
        while order and order[0] not in buckets:
            heapq.heappop(order)
        if order:
            # The window start is a lower bound for every entry in the
            # bucket — enough to identify the next window to open.
            candidates.append(min(entry[0] for entry in buckets[order[0]]))
        return min(candidates) if candidates else None

    # ------------------------------------------------------------------
    # Tombstone bookkeeping (called by EventHandle.cancel)
    # ------------------------------------------------------------------

    def _note_cancelled(self) -> None:
        self._cancels += 1
        self._tombstones += 1
        tombstones = self._tombstones
        heap = self._heap
        if (tombstones >= self._compact_threshold
                and tombstones * 2 >= len(heap)):
            # In-place (the run loops hold a reference to this list, and
            # cancellation can happen from inside a running event).
            heap[:] = [entry for entry in heap if not entry[3].cancelled]
            heapq.heapify(heap)
            self._tombstones = 0
            self._compactions += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulation(now={self._now:.3f}, pending={self.pending()})"


class ReferenceSimulation:
    """The pre-calendar-queue scheduler: one binary heap, nothing else.

    Retained as the differential-testing oracle: it is the simplest
    correct implementation of the kernel's ordering contract, and
    ``tests/test_scheduler_differential.py`` runs randomized workloads
    through both schedulers and asserts identical event orderings.  The
    public API matches :class:`Simulation` (including :meth:`post_batch`
    and :meth:`run_batch`, which degrade to their unbatched forms here).
    Do not use it outside tests — it is the slow path by construction.
    """

    def __init__(self, seed: int = 0, *, compact_threshold: int = 64) -> None:
        if compact_threshold < 1:
            raise SimulationError(
                f"compact_threshold must be >= 1, got {compact_threshold}")
        self._now = 0.0
        self._seq = 0
        self._compact_threshold = compact_threshold
        self._heap: list[_Entry] = []
        self._cursor: tuple = (0.0, 0.0, 0)
        self._tombstones = 0
        self._cancels = 0
        self._executed = 0
        self._tombstone_pops = 0
        self._compactions = 0
        self._rng = RngFabric(seed)

    @property
    def now(self) -> float:
        return self._now

    @property
    def cursor(self) -> tuple:
        """Same contract as :attr:`Simulation.cursor`."""
        return self._cursor

    @property
    def rng(self) -> RngFabric:
        return self._rng

    @property
    def events_executed(self) -> int:
        return self._executed

    def profile(self) -> dict[str, int]:
        """Same counters as :meth:`Simulation.profile`."""
        return {
            "events_executed": self._executed,
            "heap_pushes": self._seq,
            "heap_pops": self._executed + self._tombstone_pops,
            "tombstone_pops": self._tombstone_pops,
            "compactions": self._compactions,
            "pending": self.pending(),
        }

    def call_at(self, time: float, action: Callable[[], None],
                tie: tuple[float, int] | None = None) -> EventHandle:
        """Heap-scheduled :meth:`Simulation.call_at`; returns a handle."""
        now = self._now
        if time < now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={now}")
        seq = self._seq
        self._seq = seq + 1
        if tie is None:
            entry = (time, now, seq, ScheduledEvent(action))
        else:
            entry = _tied_entry(time, tie, now, self._cursor, action)
        heapq.heappush(self._heap, entry)
        return EventHandle(entry, self)

    def call_after(self, delay: float, action: Callable[[], None]) -> EventHandle:
        """Relative form of :meth:`call_at`."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.call_at(self._now + delay, action)

    def post_at(self, time: float, action: Callable[[], None]) -> None:
        """Handle-free :meth:`call_at`; still one heap push here."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self._now}")
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap,
                       (time, self._now, seq, ScheduledEvent(action)))

    def post_after(self, delay: float, action: Callable[[], None]) -> None:
        """Relative form of :meth:`post_at`."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self.post_at(self._now + delay, action)

    def post_batch(
        self, items: Iterable[tuple[float, Callable[[], None]]],
    ) -> None:
        """Unbatched reference semantics: one :meth:`post_at` per pair."""
        for time, action in items:
            self.post_at(time, action)

    def add_probe(self, period: float, probe: Callable[[float], None]) -> None:
        """Run ``probe(now)`` every ``period`` seconds, forever."""
        if period <= 0:
            raise SimulationError(f"probe period must be positive, got {period}")

        def fire() -> None:
            probe(self._now)
            self.post_after(period, fire)

        self.post_after(period, fire)

    def step(self) -> bool:
        """Run the single next live event; False if none queued."""
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            event = entry[3]
            if event.cancelled:
                self._tombstones -= 1
                self._tombstone_pops += 1
                continue
            self._now = entry[0]
            self._cursor = entry
            self._executed += 1
            event.fired = True
            event.action()
            return True
        return False

    def run_until(self, deadline: float) -> None:
        """Run events with ``time <= deadline``; leave ``now == deadline``."""
        heap = self._heap
        pop = heapq.heappop
        while heap:
            entry = heap[0]
            event = entry[3]
            if event.cancelled:
                pop(heap)
                self._tombstones -= 1
                self._tombstone_pops += 1
                continue
            if entry[0] > deadline:
                break
            pop(heap)
            self._now = entry[0]
            self._cursor = entry
            self._executed += 1
            event.fired = True
            event.action()
        if deadline > self._now:
            self._now = deadline
            self._cursor = (deadline, deadline, self._seq)

    def run_for(self, duration: float) -> None:
        """Run for ``duration`` simulated seconds from now."""
        self.run_until(self._now + duration)

    def run_batch(self, deadline: float = _INF) -> int:
        """Window-drain with :class:`Simulation`'s default bucket width."""
        # Reference semantics for Simulation.run_batch: same window
        # selection, plain heap execution, clock left on the last event.
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
            self._tombstones -= 1
            self._tombstone_pops += 1
        if not heap or heap[0][0] > deadline:
            return 0
        width = 0.0625
        window_end = (int(heap[0][0] / width) + 1) * width
        cap = min(deadline, math.nextafter(window_end, 0.0))
        executed = 0
        while heap:
            entry = heap[0]
            event = entry[3]
            if event.cancelled:
                heapq.heappop(heap)
                self._tombstones -= 1
                self._tombstone_pops += 1
                continue
            if entry[0] > cap:
                break
            heapq.heappop(heap)
            self._now = entry[0]
            self._cursor = entry
            self._executed += 1
            executed += 1
            event.fired = True
            event.action()
        return executed

    def drain(self, max_events: int = 1_000_000) -> int:
        """Run until empty; raise after ``max_events`` as a loop guard."""
        count = 0
        while self.step():
            count += 1
            if count >= max_events:
                raise SimulationError("drain() exceeded max_events; "
                                      "did you drain a self-perpetuating schedule?")
        return count

    def pending(self) -> int:
        """Number of queued live events."""
        return self._seq - self._executed - self._cancels

    def pending_times(self) -> Iterable[float]:
        """Times of queued live events, unsorted."""
        return (entry[0] for entry in self._heap if not entry[3].cancelled)

    def _note_cancelled(self) -> None:
        self._cancels += 1
        self._tombstones += 1
        tombstones = self._tombstones
        heap = self._heap
        if (tombstones >= self._compact_threshold
                and tombstones * 2 >= len(heap)):
            heap[:] = [entry for entry in heap if not entry[3].cancelled]
            heapq.heapify(heap)
            self._tombstones = 0
            self._compactions += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ReferenceSimulation(now={self._now:.3f}, "
                f"pending={self.pending()})")
