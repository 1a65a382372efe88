"""Aggregate message accounting.

The paper's headline property — *communication efficiency* — is a
statement about who still sends messages in the limit, and over how many
links.  :class:`MetricsCollector` keeps exactly the aggregates needed to
decide that empirically:

* totals per sender, per link (ordered pair) and per message kind;
* per-window activity: which processes sent, which links carried
  traffic, and how many messages, in each window of ``window`` time
  units.

It is an :class:`~repro.obs.Observer`: the network's hub feeds it on
every send/delivery/drop, and it is cheap enough to stay attached in
benchmarks (unlike :class:`~repro.sim.trace.TraceLog`).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Iterator

from repro.obs.observer import Observer

__all__ = ["MetricsCollector", "WindowStats"]


class WindowStats:
    """Activity in one time window; returned by :meth:`MetricsCollector.timeline`."""

    __slots__ = ("start", "senders", "links", "messages")

    def __init__(self, start: float, senders: frozenset[int],
                 links: frozenset[tuple[int, int]], messages: int) -> None:
        self.start = start
        self.senders = senders
        self.links = links
        self.messages = messages

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"WindowStats(start={self.start}, senders={sorted(self.senders)}, "
                f"links={len(self.links)}, messages={self.messages})")


class MetricsCollector(Observer):
    """Message-flow aggregates, windowed and total.

    An observer (attach it to a network's hub, or let ``Network(sim)``
    attach a default one); it only overrides the send/deliver/drop
    hooks, so it adds nothing to the cost of the other event kinds.

    Parameters
    ----------
    window:
        Width of the aggregation windows.  Pick a few multiples of the
        algorithms' heartbeat period so that "active in the window" is a
        meaningful notion of "still sending".
    """

    def __init__(self, window: float = 1.0) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = window
        self.sent_by_sender: Counter[int] = Counter()
        self.sent_by_kind: Counter[str] = Counter()
        self.sent_by_link: Counter[tuple[int, int]] = Counter()
        self.delivered_by_kind: Counter[str] = Counter()
        self.dropped_by_reason: Counter[str] = Counter()
        # Per window: sender -> the destinations it sent to.  The keys
        # are the window's senders.  Storing destination ints instead of
        # a fresh (src, dst) tuple per link and window keeps a long run's
        # windows small (a leader's n - 1 links, window after window).
        self._window_links: dict[int, dict[int, set[int]]] = defaultdict(dict)
        self._window_messages: Counter[int] = Counter()

    # ------------------------------------------------------------------
    # Feed (called by the network's observer hub)
    # ------------------------------------------------------------------

    def on_send(self, time: float, src: int, dst: int, kind: str) -> None:
        """Account one message handed to the network."""
        self.sent_by_sender[src] += 1
        self.sent_by_kind[kind] += 1
        self.sent_by_link[(src, dst)] += 1
        index = int(time // self.window)
        window = self._window_links[index]
        out = window.get(src)
        if out is None:
            window[src] = {dst}
        else:
            out.add(dst)
        self._window_messages[index] += 1

    def on_send_batch(self, time: float, src: int,
                      dsts: tuple[int, ...], kind: str) -> None:
        """Account a broadcast fan-out in one call (one message per dst).

        Batch-aware form of :meth:`on_send`: the aggregates end up
        identical, but the per-sender/per-kind/per-window counters are
        bumped once by ``len(dsts)`` instead of ``len(dsts)`` times.
        """
        count = len(dsts)
        self.sent_by_sender[src] += count
        self.sent_by_kind[kind] += count
        index = int(time // self.window)
        self._window_messages[index] += count
        window = self._window_links[index]
        out = window.get(src)
        if out is None:
            window[src] = set(dsts)
        else:
            out.update(dsts)
        sent_by_link = self.sent_by_link
        for dst in dsts:
            sent_by_link[(src, dst)] += 1

    def on_deliver(self, time: float, src: int, dst: int, kind: str,
                   sent_at: float = 0.0) -> None:
        """Account one delivered message (``sent_at`` is unused here)."""
        self.delivered_by_kind[kind] += 1

    def on_drop(self, time: float, src: int, dst: int, kind: str, reason: str) -> None:
        """Account one dropped message."""
        self.dropped_by_reason[reason] += 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def total_sent(self) -> int:
        """Total messages handed to the network."""
        return sum(self.sent_by_sender.values())

    def senders_between(self, start: float, end: float) -> set[int]:
        """Processes that sent in any window overlapping ``[start, end]``."""
        out: set[int] = set()
        for index in self._window_range(start, end):
            out.update(self._window_links.get(index, ()))
        return out

    def links_between(self, start: float, end: float) -> set[tuple[int, int]]:
        """Ordered pairs that carried traffic in windows overlapping ``[start, end]``."""
        out: set[tuple[int, int]] = set()
        for index in self._window_range(start, end):
            out.update(self._links_of(index))
        return out

    def messages_between(self, start: float, end: float) -> int:
        """Messages sent in windows overlapping ``[start, end]``."""
        return sum(self._window_messages.get(i, 0)
                   for i in self._window_range(start, end))

    def timeline(self, until: float) -> list[WindowStats]:
        """Per-window stats from time 0 up to ``until`` (exclusive)."""
        last = int(until // self.window)
        out = []
        for index in range(last):
            out.append(WindowStats(
                start=index * self.window,
                senders=frozenset(self._window_links.get(index, ())),
                links=frozenset(self._links_of(index)),
                messages=self._window_messages.get(index, 0),
            ))
        return out

    def _links_of(self, index: int) -> Iterator[tuple[int, int]]:
        """The ``(src, dst)`` links that carried traffic in window ``index``."""
        for src, dsts in self._window_links.get(index, {}).items():
            for dst in dsts:
                yield (src, dst)

    def _window_range(self, start: float, end: float) -> range:
        if end < start:
            raise ValueError(f"bad window query [{start}, {end})")
        return range(int(start // self.window), int(end // self.window) + 1)
