"""Unit tests for message-flow metrics."""

from __future__ import annotations

import pytest

from repro.sim.metrics import MetricsCollector


def feed(collector: MetricsCollector,
         events: list[tuple[float, int, int, str]]) -> None:
    for time, src, dst, kind in events:
        collector.on_send(time, src, dst, kind)


class TestTotals:
    def test_totals_by_sender_kind_link(self) -> None:
        m = MetricsCollector(window=1.0)
        feed(m, [(0.1, 0, 1, "A"), (0.2, 0, 2, "A"), (0.3, 1, 0, "B")])
        assert m.total_sent == 3
        assert m.sent_by_sender[0] == 2
        assert m.sent_by_kind["A"] == 2
        assert m.sent_by_link[(0, 1)] == 1

    def test_deliver_and_drop_counters(self) -> None:
        m = MetricsCollector()
        m.on_deliver(0.5, 0, 1, "A")
        m.on_drop(0.6, 0, 2, "A", "link")
        m.on_drop(0.7, 0, 2, "A", "dst_crashed")
        assert m.delivered_by_kind["A"] == 1
        assert m.dropped_by_reason["link"] == 1
        assert m.dropped_by_reason["dst_crashed"] == 1

    def test_window_must_be_positive(self) -> None:
        with pytest.raises(ValueError):
            MetricsCollector(window=0.0)


class TestWindows:
    def test_senders_between(self) -> None:
        m = MetricsCollector(window=1.0)
        feed(m, [(0.5, 0, 1, "A"), (1.5, 1, 0, "A"), (5.5, 2, 0, "A")])
        assert m.senders_between(0.0, 2.0) == {0, 1}
        assert m.senders_between(5.0, 6.0) == {2}
        assert m.senders_between(3.0, 4.0) == set()

    def test_links_between(self) -> None:
        m = MetricsCollector(window=1.0)
        feed(m, [(0.5, 0, 1, "A"), (0.6, 0, 2, "A"), (9.5, 1, 0, "A")])
        assert m.links_between(0.0, 1.0) == {(0, 1), (0, 2)}
        assert m.links_between(9.0, 10.0) == {(1, 0)}

    def test_messages_between(self) -> None:
        m = MetricsCollector(window=1.0)
        feed(m, [(0.5, 0, 1, "A"), (0.7, 0, 1, "A"), (2.5, 0, 1, "A")])
        assert m.messages_between(0.0, 1.0) == 2
        assert m.messages_between(0.0, 3.0) == 3

    def test_bad_window_query_rejected(self) -> None:
        m = MetricsCollector()
        with pytest.raises(ValueError):
            m.senders_between(5.0, 1.0)

    def test_sum_of_windows_equals_total(self) -> None:
        m = MetricsCollector(window=2.0)
        events = [(float(i) * 0.3, i % 3, (i + 1) % 3, "A") for i in range(50)]
        feed(m, events)
        timeline = m.timeline(until=20.0)
        assert sum(w.messages for w in timeline) == m.total_sent


class TestTimeline:
    def test_timeline_window_starts(self) -> None:
        m = MetricsCollector(window=2.0)
        feed(m, [(0.5, 0, 1, "A"), (3.5, 1, 0, "A")])
        timeline = m.timeline(until=6.0)
        assert [w.start for w in timeline] == [0.0, 2.0, 4.0]
        assert timeline[0].senders == frozenset({0})
        assert timeline[1].senders == frozenset({1})
        assert timeline[2].senders == frozenset()

    def test_timeline_links_and_counts(self) -> None:
        m = MetricsCollector(window=1.0)
        feed(m, [(0.1, 0, 1, "A"), (0.2, 0, 1, "A")])
        window = m.timeline(until=1.0)[0]
        assert window.links == frozenset({(0, 1)})
        assert window.messages == 2


class TestBatchedSends:
    def test_batch_matches_one_send_per_destination(self) -> None:
        batched, single = MetricsCollector(window=1.0), MetricsCollector(window=1.0)
        batched.on_send(0.1, 2, 0, "A")
        batched.on_send_batch(0.4, 2, (0, 1, 3), "A")
        batched.on_send_batch(0.6, 1, (0, 2), "B")
        feed(single, [(0.1, 2, 0, "A"), (0.4, 2, 0, "A"), (0.4, 2, 1, "A"),
                      (0.4, 2, 3, "A"), (0.6, 1, 0, "B"), (0.6, 1, 2, "B")])
        for m in (batched, single):
            assert m.links_between(0.0, 1.0) == {(2, 0), (2, 1), (2, 3),
                                                 (1, 0), (1, 2)}
            assert m.senders_between(0.0, 1.0) == {1, 2}
            assert m.sent_by_link[(2, 0)] == 2
            assert m.messages_between(0.0, 1.0) == 6
        assert batched.timeline(1.0)[0].links == single.timeline(1.0)[0].links

    def test_empty_fan_out_still_counts_its_sender(self) -> None:
        m = MetricsCollector(window=1.0)
        m.on_send_batch(1.5, 3, (), "B")
        assert m.senders_between(1.0, 2.0) == {3}
        assert m.links_between(1.0, 2.0) == set()
