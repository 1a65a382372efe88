"""Differential property tests: calendar queue vs the reference heap.

:class:`~repro.sim.engine.Simulation` (the two-tier calendar-queue
scheduler) must execute every workload in exactly the order the retained
:class:`~repro.sim.engine.ReferenceSimulation` (a single binary heap)
does — the calendar queue is a throughput optimization with zero
semantic freedom.  These tests drive randomized workloads (timers,
cancellations, fire-and-forget posts, batched posts, self-perpetuating
churn) and full protocol runs (broadcast fan-out, crashes, recovery)
through both schedulers and assert identical event orderings and trace
digests, including periodic chains that park and resume on their grid
(where a parking run must also match the never-parked one).
"""

from __future__ import annotations

import hashlib
import random

import pytest
from conftest import Beacon

import repro.sim.cluster as cluster_mod
from repro.harness.scenarios import OmegaScenario
from repro.sim.engine import ReferenceSimulation, Simulation, SimulationError
from repro.sim.network import Network


class _Churn:
    """A self-perpetuating randomized workload, deterministic per seed.

    Every fired event logs ``(now, label)`` and draws from its own
    :class:`random.Random` to decide what to schedule next: a
    cancellable timer (sometimes cancelling an older one), a
    fire-and-forget post, or a batched post of several events.  Both
    schedulers run the identical decision sequence as long as they fire
    events in the identical order — which is exactly the property under
    test: any ordering divergence snowballs into different logs.
    """

    MAX_EVENTS = 400

    def __init__(self, sim, seed: int) -> None:
        self.sim = sim
        self.rng = random.Random(seed)
        self.log: list[tuple[float, str]] = []
        self.handles: list = []

    def kick(self, actors: int) -> None:
        for index in range(actors):
            self._spawn(f"a{index}")

    def _spawn(self, tag: str) -> None:
        rng = self.rng
        choice = rng.random()
        delay = rng.uniform(0.0, 2.5)
        if choice < 0.40:
            handle = self.sim.call_after(
                delay, lambda t=tag: self._fire(f"timer/{t}"))
            self.handles.append(handle)
            if len(self.handles) > 3 and rng.random() < 0.5:
                victim = self.handles.pop(rng.randrange(len(self.handles)))
                victim.cancel()
        elif choice < 0.70:
            self.sim.post_after(delay, lambda t=tag: self._fire(f"post/{t}"))
        else:
            base = self.sim.now
            count = rng.randrange(1, 6)
            self.sim.post_batch([
                (base + rng.uniform(0.0, 4.0),
                 lambda t=f"{tag}.{k}": self._fire(f"batch/{t}"))
                for k in range(count)
            ])

    def _fire(self, label: str) -> None:
        self.log.append((self.sim.now, label))
        if len(self.log) < self.MAX_EVENTS and self.rng.random() < 0.85:
            self._spawn(label.rsplit("/", 1)[-1])

    def digest(self) -> str:
        payload = repr(self.log).encode()
        return hashlib.sha256(payload).hexdigest()


@pytest.mark.parametrize("seed", [0, 1, 7, 23, 91])
def test_randomized_churn_orders_identically(seed: int) -> None:
    logs = {}
    for cls in (Simulation, ReferenceSimulation):
        churn = _Churn(cls(seed=seed), seed)
        churn.kick(6)
        churn.sim.run_until(60.0)
        logs[cls.__name__] = (churn.log, churn.digest(),
                              churn.sim.events_executed)
    fast_log, fast_digest, fast_events = logs["Simulation"]
    ref_log, ref_digest, ref_events = logs["ReferenceSimulation"]
    assert fast_log == ref_log
    assert fast_digest == ref_digest
    assert fast_events == ref_events


@pytest.mark.parametrize("seed", [3, 17])
def test_step_and_run_batch_agree_with_reference(seed: int) -> None:
    # Mixed-granularity draining must preserve the total order too.
    churns = []
    for cls in (Simulation, ReferenceSimulation):
        churn = _Churn(cls(seed=seed), seed)
        churn.kick(4)
        drive = random.Random(seed + 1)
        while True:
            mode = drive.random()
            if mode < 0.3:
                if not churn.sim.step():
                    break
            elif mode < 0.6:
                if churn.sim.run_batch() == 0:
                    break
            else:
                before = churn.sim.events_executed
                churn.sim.run_for(drive.uniform(0.1, 5.0))
                if before == churn.sim.events_executed \
                        and churn.sim.pending() == 0:
                    break
        churns.append(churn)
    assert churns[0].log == churns[1].log
    assert churns[0].sim.events_executed == churns[1].sim.events_executed


def _scenario_digest(trace) -> str:
    payload = "\n".join(repr(record) for record in trace).encode()
    return hashlib.sha256(payload).hexdigest()


@pytest.mark.parametrize("algorithm,faults", [
    ("comm-efficient", ()),
    ("source", ((12.0, 3, 25.0),)),   # crash + recovery mid-run
    ("all-timely", ((8.0, 2),)),      # crash-stop
])
def test_protocol_runs_trace_identically(monkeypatch, algorithm: str,
                                         faults: tuple) -> None:
    """Full protocol runs — broadcasts, faults — digest identically."""
    def run(sim_cls):
        monkeypatch.setattr(cluster_mod, "Simulation", sim_cls)
        scenario = OmegaScenario(
            algorithm=algorithm, n=5,
            system="source" if algorithm != "all-timely" else "all-et",
            source=1, seed=11, horizon=40.0, ce_window=10.0,
            crashes=faults, trace=True)
        outcome = scenario.run()
        return (outcome.cluster.sim.events_executed,
                _scenario_digest(outcome.cluster.trace),
                outcome.report.final_leader)

    fast = run(Simulation)
    reference = run(ReferenceSimulation)
    assert fast == reference


class _Beacon(Beacon):
    """A :class:`Beacon` whose working ticks drive a :class:`_ChainChurn`."""

    churn: "_ChainChurn"

    def tick(self, key) -> None:  # noqa: ANN001
        self.churn.fire(f"{key}/{self.pid}")


class _ChainChurn:
    """Randomized periodic chains that fall silent, park and resume.

    Chains share a few periods, so their grids meet; every logged event
    draws its next action from one :class:`random.Random`: silence or
    wake a chain (wakes often land on another chain's tick, i.e. at a
    shared grid instant), restart a chain from inside a tick where
    other chains re-arm, arm one-shots and posts one period ahead (the
    next grid instant, tied against the chain ticks armed now), and
    pause/resume.  Silent ticks log nothing and draw nothing, so an
    eager run (``parking=False``) must log exactly what a parking run
    logs — and both schedulers must agree on either.
    """

    PERIODS = (0.25, 0.5, 0.1)
    MAX_EVENTS = 600

    def __init__(self, sim, seed: int, parking: bool = True) -> None:  # noqa: ANN001
        self.sim = sim
        self.rng = random.Random(seed)
        self.log: list[tuple[float, str]] = []
        network = Network(sim)
        self.beacons = [_Beacon(pid, sim, network, self.log, parking)
                        for pid in range(6)]
        for beacon in self.beacons:
            beacon.churn = self
            beacon.start()
            beacon.set_periodic("hb", self.PERIODS[beacon.pid % 3])

    def fire(self, label: str) -> None:
        self.log.append((self.sim.now, label))
        if len(self.log) >= self.MAX_EVENTS:
            return
        rng = self.rng
        beacon = rng.choice(self.beacons)
        choice = rng.random()
        period = self.PERIODS[rng.randrange(3)]
        if choice < 0.20:
            if beacon.pid:  # chain 0 never falls silent: it keeps the churn going
                beacon.silent = True
        elif choice < 0.50:
            beacon.wake()
        elif choice < 0.55:
            beacon.set_periodic("hb", period)
        elif choice < 0.65:
            beacon.set_timer(("once", len(self.log)), period)
        elif choice < 0.75:
            self.sim.post_after(period,
                                lambda n=len(self.log): self.fire(f"post/{n}"))
        elif choice < 0.80:
            self.sim.call_after(period, beacon.pause)
            self.sim.call_after(period + rng.choice(self.PERIODS),
                                beacon.resume)

    def digest(self) -> str:
        return hashlib.sha256(repr(self.log).encode()).hexdigest()


@pytest.mark.parametrize("seed", [0, 1, 5, 42, 77])
def test_parked_chains_order_identically(seed: int) -> None:
    runs = {}
    for cls, parking in ((Simulation, True), (ReferenceSimulation, True),
                         (Simulation, False)):
        churn = _ChainChurn(cls(seed=seed), seed, parking)
        churn.sim.run_until(40.0)
        runs[cls.__name__, parking] = churn
    fast = runs["Simulation", True]
    reference = runs["ReferenceSimulation", True]
    eager = runs["Simulation", False]
    assert len(fast.log) > 300
    assert fast.log == reference.log
    assert fast.sim.events_executed == reference.sim.events_executed
    # Parking drops only the silent ticks: what runs is what the eager
    # chains run, in the same order.
    assert fast.log == eager.log
    assert fast.sim.events_executed < eager.sim.events_executed


def test_tie_key_behind_the_running_event_is_rejected() -> None:
    for cls in (Simulation, ReferenceSimulation):
        sim = cls(seed=0)
        errors = []

        def probe(sim=sim, errors=errors) -> None:
            _, arm, seq, _ = sim.cursor
            for time, tie in (
                    (sim.now, (arm, seq)),          # the running key itself
                    (sim.now, (arm - 0.5, seq)),    # would have run already
                    (sim.now + 1.0, (sim.now + 0.5, 0))):  # arm in future
                try:
                    sim.call_at(time, lambda: None, tie)
                except SimulationError as exc:
                    errors.append(exc)
            sim.call_at(sim.now, lambda: None, (arm, seq + 1))  # just ahead

        sim.call_at(2.0, probe)
        sim.run_until(3.0)
        assert len(errors) == 3
        assert sim.events_executed == 2
