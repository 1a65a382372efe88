"""Unit tests for the actor-style process runtime."""

from __future__ import annotations

from conftest import Probe, Recorder, make_pair

from repro.sim.engine import Simulation
from repro.sim.network import Network


class TestLifecycle:
    def test_start_runs_on_start_once(self, sim: Simulation, network: Network) -> None:
        starts: list[int] = []

        class Once(Recorder):
            def on_start(self) -> None:
                super().on_start()
                starts.append(1)

        p = Once(0, sim, network)
        p.start()
        p.start()
        assert starts == [1]
        assert p.started

    def test_crashed_process_cannot_start(self, sim: Simulation,
                                           network: Network) -> None:
        p = Recorder(0, sim, network)
        p.crash()
        p.start()
        assert not p.started

    def test_crash_is_idempotent(self, sim: Simulation, network: Network) -> None:
        crashes: list[int] = []

        class Crashy(Recorder):
            def on_crash(self) -> None:
                crashes.append(1)

        p = Crashy(0, sim, network)
        p.start()
        p.crash()
        p.crash()
        assert crashes == [1]
        assert p.crashed

    def test_crash_recorded_in_trace(self, sim: Simulation, network: Network) -> None:
        p = Recorder(0, sim, network)
        p.start()
        sim.run_until(3.0)
        p.crash()
        assert [c.pid for c in network.trace.crashes()] == [0]


class TestMessaging:
    def test_send_delivers_to_destination(self, sim: Simulation,
                                          network: Network) -> None:
        a, b = make_pair(sim, network)
        a.send(1, Probe(a.pid, payload=7))
        sim.run_until(1.0)
        assert [m.payload for _, m in b.received] == [7]

    def test_broadcast_excludes_self(self, sim: Simulation, network: Network) -> None:
        a, b = make_pair(sim, network)
        c = Recorder(2, sim, network)
        c.start()
        a.broadcast(Probe(a.pid))
        sim.run_until(1.0)
        assert len(a.received) == 0
        assert len(b.received) == 1
        assert len(c.received) == 1

    def test_crashed_sender_sends_nothing(self, sim: Simulation,
                                          network: Network) -> None:
        a, b = make_pair(sim, network)
        a.crash()
        a.send(1, Probe(a.pid))
        a.broadcast(Probe(a.pid))
        sim.run_until(1.0)
        assert b.received == []

    def test_crashed_receiver_gets_nothing(self, sim: Simulation,
                                           network: Network) -> None:
        a, b = make_pair(sim, network)
        a.send(1, Probe(a.pid))
        b.crash()  # crash before delivery completes
        sim.run_until(1.0)
        assert b.received == []
        assert network.metrics.dropped_by_reason["dst_crashed"] == 1


class TestTimers:
    def test_one_shot_fires_once(self, sim: Simulation, network: Network) -> None:
        p = Recorder(0, sim, network)
        p.start()
        p.set_timer("x", 1.0)
        sim.run_until(5.0)
        assert [key for _, key in p.timer_fires] == ["x"]
        assert not p.has_timer("x")

    def test_setting_existing_timer_resets_it(self, sim: Simulation,
                                              network: Network) -> None:
        p = Recorder(0, sim, network)
        p.start()
        p.set_timer("x", 1.0)
        sim.run_until(0.5)
        p.set_timer("x", 1.0)  # push expiry to t=1.5
        sim.run_until(5.0)
        assert p.timer_fires == [(1.5, "x")]

    def test_cancel_timer(self, sim: Simulation, network: Network) -> None:
        p = Recorder(0, sim, network)
        p.start()
        p.set_timer("x", 1.0)
        p.cancel_timer("x")
        sim.run_until(5.0)
        assert p.timer_fires == []

    def test_cancel_unknown_timer_is_noop(self, sim: Simulation,
                                          network: Network) -> None:
        p = Recorder(0, sim, network)
        p.start()
        p.cancel_timer("never-set")

    def test_periodic_fires_repeatedly(self, sim: Simulation,
                                       network: Network) -> None:
        p = Recorder(0, sim, network)
        p.start()
        p.set_periodic("tick", 1.0)
        sim.run_until(3.5)
        assert [t for t, _ in p.timer_fires] == [1.0, 2.0, 3.0]

    def test_periodic_can_be_stopped_from_handler(self, sim: Simulation,
                                                  network: Network) -> None:
        class StopAfterTwo(Recorder):
            def on_timer(self, key) -> None:  # noqa: ANN001
                super().on_timer(key)
                if len(self.timer_fires) == 2:
                    self.cancel_timer(key)

        p = StopAfterTwo(0, sim, network)
        p.start()
        p.set_periodic("tick", 1.0)
        sim.run_until(10.0)
        assert len(p.timer_fires) == 2

    def test_periodic_rejects_nonpositive_period(self, sim: Simulation,
                                                 network: Network) -> None:
        import pytest

        p = Recorder(0, sim, network)
        with pytest.raises(ValueError):
            p.set_periodic("tick", 0.0)

    def test_crash_cancels_all_timers(self, sim: Simulation,
                                      network: Network) -> None:
        p = Recorder(0, sim, network)
        p.start()
        p.set_timer("a", 1.0)
        p.set_periodic("b", 0.5)
        p.crash()
        sim.run_until(5.0)
        assert p.timer_fires == []

    def test_timer_racing_crash_stays_silent(self, sim: Simulation,
                                             network: Network) -> None:
        # Crash scheduled at the exact instant the timer fires, but
        # earlier in the event order: the timer must not fire.
        p = Recorder(0, sim, network)
        p.start()
        sim.call_at(1.0, p.crash)
        p.set_timer("x", 1.0)
        sim.run_until(2.0)
        assert p.timer_fires == []

    def test_distinct_keys_are_independent(self, sim: Simulation,
                                           network: Network) -> None:
        p = Recorder(0, sim, network)
        p.start()
        p.set_timer(("watch", 1), 1.0)
        p.set_timer(("watch", 2), 2.0)
        p.cancel_timer(("watch", 1))
        sim.run_until(5.0)
        assert p.timer_fires == [(2.0, ("watch", 2))]


class TestLazyTimerResets:
    """Resetting a one-shot to a later deadline only records the deadline.

    The armed event re-arms itself once at the recorded deadline when it
    fires early; every observable outcome matches an eager cancel and
    re-arm.
    """

    def test_repeated_later_resets_fire_once_at_last_deadline(
            self, sim: Simulation, network: Network) -> None:
        p = Recorder(0, sim, network)
        p.start()
        p.set_timer("x", 0.7)
        for step in range(1, 20):
            sim.run_until(step * 0.3)
            p.set_timer("x", 0.7)
        deadline = sim.now + 0.7
        sim.run_until(20.0)
        assert p.timer_fires == [(deadline, "x")]
        # No reset cancelled anything: the kernel saw no tombstones.
        assert sim.profile()["tombstone_pops"] == 0

    def test_reset_to_earlier_deadline_fires_early(
            self, sim: Simulation, network: Network) -> None:
        p = Recorder(0, sim, network)
        p.start()
        p.set_timer("x", 5.0)
        sim.run_until(1.0)
        p.set_timer("x", 1.0)  # before the armed event at t=5
        sim.run_until(10.0)
        assert p.timer_fires == [(2.0, "x")]

    def test_reset_below_a_deferred_deadline_fires_at_the_new_one(
            self, sim: Simulation, network: Network) -> None:
        p = Recorder(0, sim, network)
        p.start()
        p.set_timer("x", 1.0)
        sim.run_until(0.5)
        p.set_timer("x", 3.0)  # deferred to t=3.5
        sim.run_until(0.75)
        p.set_timer("x", 0.75)  # back to t=1.5, still after the armed t=1
        sim.run_until(10.0)
        assert p.timer_fires == [(1.5, "x")]

    def test_cancel_after_lazy_reset_never_fires(
            self, sim: Simulation, network: Network) -> None:
        p = Recorder(0, sim, network)
        p.start()
        p.set_timer("x", 1.0)
        p.set_timer("y", 1.0)
        sim.run_until(0.5)
        p.set_timer("x", 1.0)
        p.set_timer("y", 1.0)
        p.cancel_timer("x")  # before the early event at t=1
        sim.run_until(1.2)
        assert p.has_timer("y")  # early event re-armed for t=1.5
        p.cancel_timer("y")
        assert not p.has_timer("y")
        sim.run_until(10.0)
        assert p.timer_fires == []
        p.set_timer("x", 1.0)  # a stale deferral would swallow this
        sim.run_until(20.0)
        assert p.timer_fires == [(11.0, "x")]

    def test_crash_drops_deferred_deadline_and_recover_starts_clean(
            self, sim: Simulation, network: Network) -> None:
        p = Recorder(0, sim, network)
        p.start()
        p.set_timer("x", 1.0)
        sim.run_until(0.5)
        p.set_timer("x", 1.0)  # deferred to t=1.5
        p.crash()
        sim.run_until(1.2)
        p.recover()
        assert not p.has_timer("x")
        p.set_timer("x", 0.1)  # a stale deferral would swallow this
        deadline = sim.now + 0.1
        sim.run_until(10.0)
        assert p.timer_fires == [(deadline, "x")]

    def test_early_event_under_pause_is_not_replayed_at_resume(
            self, sim: Simulation, network: Network) -> None:
        p = Recorder(0, sim, network)
        p.start()
        p.set_timer("x", 1.0)
        sim.run_until(0.5)
        p.set_timer("x", 2.0)  # deferred to t=2.5; early event at t=1
        p.pause()
        sim.run_until(1.5)
        p.resume()
        assert p.timer_fires == []
        sim.run_until(2.0)
        p.pause()  # this time the deadline itself passes under the pause
        sim.run_until(3.0)
        p.resume()
        sim.run_until(10.0)
        assert p.timer_fires == [(3.0, "x")]

    def test_set_timer_on_periodic_key_makes_it_one_shot(
            self, sim: Simulation, network: Network) -> None:
        p = Recorder(0, sim, network)
        p.start()
        p.set_periodic("tick", 1.0)
        sim.run_until(1.5)
        p.set_timer("tick", 3.0)  # the pending tick at t=2 is earlier
        sim.run_until(10.0)
        assert p.timer_fires == [(1.0, "tick"), (4.5, "tick")]
