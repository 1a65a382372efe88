"""Unit tests for the actor-style process runtime."""

from __future__ import annotations

from conftest import Beacon, Probe, Recorder, make_pair

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


def _grid(period: float, until: float = 3.0) -> list[float]:
    """The float grid of a chain started at 0 up to ``until``: repeated
    addition, as the chain itself computes it."""
    times, t = [], period
    while t <= until:
        times.append(t)
        t += period
    return times


class TestParkedTimers:
    """Parked periodic chains resume on the eager chain's grid and order."""

    PERIOD = 0.1  # not exact in binary: the grid accumulates rounding

    def _twin(self, script, horizon: float = 3.0):
        """Run ``script(sim, beacons)`` eagerly and parked; logs must match."""
        logs = []
        for parking in (False, True):
            sim = Simulation(seed=1)
            network = Network(sim)
            log: list = []
            # Start order fixes the origin order: 2, then 0, then 1.
            beacons = {pid: Beacon(pid, sim, network, log, parking)
                       for pid in (2, 0, 1)}
            for beacon in beacons.values():
                beacon.start()
                beacon.set_periodic("hb", self.PERIOD)
            script(sim, beacons)
            sim.run_until(horizon)
            logs.append(log)
        eager, parked = logs
        assert parked == eager
        return parked

    @staticmethod
    def _silence(sim: Simulation, beacon: Beacon, at: float) -> None:
        sim.call_at(at, lambda: setattr(beacon, "silent", True))

    def test_resume_keeps_grid_and_same_time_order(self) -> None:
        grid = _grid(self.PERIOD)

        def script(sim, beacons):
            self._silence(sim, beacons[0], 0.25)
            sim.call_at(1.57, beacons[0].wake)

        log = self._twin(script)
        ticks = [t for t, pid, _ in log if pid == 0]
        assert ticks == grid[:2] + [t for t in grid if t > 1.57]
        # At every shared instant the chains run in origin order.
        for t in grid[15:]:
            assert [pid for time, pid, _ in log if time == t] == [2, 0, 1]

    def test_resume_at_grid_instant_after_the_ghost_tick(self) -> None:
        grid = _grid(self.PERIOD)

        def script(sim, beacons):
            self._silence(sim, beacons[0], 0.25)
            # Armed after the ghost tick at grid[9] was (at grid[8]).
            sim.call_at(0.95, lambda: sim.call_at(grid[9], beacons[0].wake))

        log = self._twin(script)
        ticks = [t for t, pid, _ in log if pid == 0]
        assert ticks == grid[:2] + grid[10:]

    def test_resume_at_grid_instant_before_the_ghost_tick(self) -> None:
        grid = _grid(self.PERIOD)

        def script(sim, beacons):
            self._silence(sim, beacons[0], 0.25)
            # Armed before the ghost tick was: the ghost still runs.
            sim.call_at(0.75, lambda: sim.call_at(grid[9], beacons[0].wake))

        log = self._twin(script)
        ticks = [t for t, pid, _ in log if pid == 0]
        assert ticks == grid[:2] + grid[9:]
        at_resume = [pid for t, pid, _ in log if t == grid[9]]
        assert at_resume == [2, 0, 1]

    def test_resume_armed_at_the_ghost_arm_instant(self) -> None:
        # The wake is armed at grid[8], the instant the ghost tick for
        # grid[9] is armed: the chain's older origin seq orders the
        # ghost first, so it has already run at the resume.
        grid = _grid(self.PERIOD)

        def script(sim, beacons):
            self._silence(sim, beacons[0], 0.25)
            sim.call_at(grid[8], lambda: sim.call_at(grid[9],
                                                     beacons[0].wake))

        log = self._twin(script)
        ticks = [t for t, pid, _ in log if pid == 0]
        assert ticks == grid[:2] + grid[10:]

    def test_resume_from_a_same_instant_chain_tick(self) -> None:
        # Woken by another chain's tick at a shared grid instant: the
        # ghost runs iff its origin is younger than the waker's.
        grid = _grid(self.PERIOD)

        class Waker(Beacon):
            target = None

            def on_timer(self, key) -> None:  # noqa: ANN001
                super().on_timer(key)
                if self.now == grid[9]:
                    self.target.wake()

        for waker_pid, sleeper_pid, first in ((2, 0, 9), (1, 0, 10)):
            logs = []
            for parking in (False, True):
                sim = Simulation(seed=1)
                network = Network(sim)
                log: list = []
                beacons = {}
                for pid in (2, 0, 1):
                    cls = Waker if pid == waker_pid else Beacon
                    beacons[pid] = cls(pid, sim, network, log, parking)
                    beacons[pid].start()
                    beacons[pid].set_periodic("hb", self.PERIOD)
                beacons[waker_pid].target = beacons[sleeper_pid]
                self._silence(sim, beacons[sleeper_pid], 0.25)
                sim.run_until(3.0)
                logs.append(log)
            assert logs[0] == logs[1]
            ticks = [t for t, pid, _ in logs[1] if pid == sleeper_pid]
            assert ticks == grid[:2] + grid[first:]

    def test_resume_before_the_parked_tick_rearms_it_unchanged(self) -> None:
        grid = _grid(self.PERIOD)
        # grid[2] - PERIOD != grid[1] in floats: the parked tick's arm
        # time must be the stored grid point, not one recomputed from it.
        assert grid[2] - self.PERIOD != grid[1]

        def script(sim, beacons):
            self._silence(sim, beacons[0], 0.15)
            sim.call_at(0.25, beacons[0].wake)  # parked tick is grid[2]

        log = self._twin(script)
        assert [t for t, pid, _ in log if pid == 0] == grid[:1] + grid[2:]
        assert [pid for t, pid, _ in log if t == grid[2]] == [2, 0, 1]

    def test_resume_between_runs_skips_the_deadline_tick(self) -> None:
        grid = _grid(self.PERIOD)
        logs = []
        for parking in (False, True):
            sim = Simulation(seed=1)
            log: list = []
            beacon = Beacon(0, sim, Network(sim), log, parking)
            beacon.start()
            beacon.set_periodic("hb", self.PERIOD)
            sim.run_until(0.25)
            beacon.silent = True
            sim.run_until(grid[9])  # the ghost at grid[9] ran silently
            beacon.wake()
            sim.run_until(3.0)
            logs.append(log)
        assert logs[0] == logs[1]
        assert [t for t, _, _ in logs[1]] == grid[:2] + grid[10:]

    def test_parked_chain_runs_no_events(self) -> None:
        sim = Simulation(seed=1)
        beacon = Beacon(0, sim, Network(sim), [], parking=True)
        beacon.start()
        beacon.set_periodic("hb", self.PERIOD)
        beacon.silent = True
        sim.run_until(0.15)
        assert not beacon.has_timer("hb")
        before = sim.events_executed
        sim.run_until(100.0)
        assert sim.events_executed == before
        assert sim.pending() == 0

    def test_crash_while_parked_clears_the_chain(self) -> None:
        sim = Simulation(seed=1)
        log: list = []
        beacon = Beacon(0, sim, Network(sim), log, parking=True)
        beacon.start()
        beacon.set_periodic("hb", self.PERIOD)
        beacon.silent = True
        sim.run_until(0.25)
        beacon.crash()
        beacon.wake()  # nothing to resume: the crash took the chain
        sim.run_until(1.0)
        beacon.recover()
        beacon.wake()
        sim.run_until(2.0)
        assert log == [] and not beacon.has_timer("hb")
        beacon.set_periodic("hb", 0.25)  # a fresh chain from now
        sim.run_until(2.6)
        assert [t for t, _, _ in log] == [2.25, 2.5]

    def test_pause_while_parked_then_watch_expiry_at_resume(self) -> None:
        class Follower(Beacon):
            # The watch expiring makes the beacon a candidate again.
            def on_timer(self, key) -> None:  # noqa: ANN001
                if key == "watch":
                    self.tick(key)
                    self.wake()
                    return
                super().on_timer(key)

        grid = _grid(self.PERIOD)
        logs = []
        for parking in (False, True):
            sim = Simulation(seed=1)
            log: list = []
            beacon = Follower(0, sim, Network(sim), log, parking)
            beacon.start()
            beacon.set_periodic("hb", self.PERIOD)
            sim.call_at(0.25, lambda b=beacon: setattr(b, "silent", True))
            sim.call_at(0.5, lambda b=beacon: b.set_timer("watch", 0.6))
            sim.call_at(0.8, beacon.pause)
            sim.call_at(1.73, beacon.resume)  # watch expired at 1.1
            sim.run_until(3.0)
            logs.append(log)
        assert logs[0] == logs[1]
        assert [t for t, _, key in logs[1] if key == "watch"] == [1.73]
        hb = [t for t, _, key in logs[1] if key == "hb"]
        assert hb == grid[:2] + [t for t in grid if 1.73 < t <= 3.0]

    def test_cancel_timer_on_a_parked_key_ends_the_chain(self) -> None:
        sim = Simulation(seed=1)
        log: list = []
        beacon = Beacon(0, sim, Network(sim), log, parking=True)
        beacon.start()
        beacon.set_periodic("hb", self.PERIOD)
        beacon.silent = True
        sim.run_until(0.25)
        beacon.cancel_timer("hb")
        beacon.wake()
        sim.run_until(2.0)
        assert log == [] and not beacon.has_timer("hb")
        assert sim.pending() == 0

    def test_set_periodic_on_a_parked_key_starts_a_fresh_chain(self) -> None:
        sim = Simulation(seed=1)
        log: list = []
        beacon = Beacon(0, sim, Network(sim), log, parking=True)
        beacon.start()
        beacon.set_periodic("hb", self.PERIOD)
        beacon.silent = True
        sim.run_until(0.25)
        assert not beacon.has_timer("hb")  # parked at t=0.1
        beacon.silent = False
        beacon.set_periodic("hb", 0.5)  # not unparked: replaced
        beacon.unpark_timer("hb")       # the new chain is not parked
        sim.run_until(1.9)
        assert [t for t, _, _ in log] == [0.75, 1.25, 1.75]
