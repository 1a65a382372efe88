"""The four benchmark workloads.

Each workload is built from one seed in one single-threaded process and
exposes the same three steps to the child runner:

``build()``
    Everything up to the first timed event (the end of set-up).
``measure()``
    The timed phase; returns ``(raw_s, normalized_s)``.
``finish()``
    Judge the run with the repository's own checkers and distill its
    end-to-end metrics, a detail block and the per-layer counts.

The sim workloads size their horizon from ``--seconds`` with a fixed
per-workload factor, so every sim-time and count metric is a pure
function of ``(seed, seconds)``; only the timings drift with the host.
"""

from __future__ import annotations

import asyncio
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.consensus.checker import check_log
from repro.consensus.config import ConsensusConfig
from repro.consensus.replica import LogReplica, entry_commands
from repro.core.checker import analyze_omega_run, communication_report
from repro.core.config import OmegaConfig
from repro.harness.scenarios import OmegaScenario
from repro.harness.stats import percentile
from repro.load import LoadSpec
from repro.obs.observer import Observer
from repro.sim.metrics import MetricsCollector
from repro.sim.topology import LinkTimings

import timing

CHUNKS = 200
"""Timed chunks per sim run (each normalized by the speed probes around it)."""

TAIL_MIN_BEYOND = 10
"""A tail percentile is reported only with at least this many samples
strictly beyond it."""


class BenchmarkError(RuntimeError):
    """The workload could not produce a metric it must report."""


def tail(samples: list[float], fraction: float) -> float | None:
    """The ``fraction`` percentile, or ``None`` when fewer than
    :data:`TAIL_MIN_BEYOND` samples lie strictly beyond it."""
    if not samples:
        return None
    value = percentile(samples, fraction)
    beyond = sum(1 for sample in samples if sample > value)
    return value if beyond >= TAIL_MIN_BEYOND else None


def latency_metrics(samples: list[float], tail_fraction: float) -> dict:
    """``op_p50_s``/``op_tail_s`` plus the sample counts that back them."""
    value = tail(samples, tail_fraction)
    if value is None:
        raise BenchmarkError(
            f"{len(samples)} samples cannot support p{tail_fraction * 100:g} "
            f"with {TAIL_MIN_BEYOND} beyond it")
    return {
        "op_p50_s": percentile(samples, 0.5),
        "op_tail_s": value,
        "_detail": {
            "op_samples": len(samples),
            "op_tail_percentile": tail_fraction * 100,
            "op_tail_beyond": sum(1 for s in samples if s > value),
        },
    }


@dataclass
class Outcome:
    """What ``finish()`` hands back to the child runner."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    violations: list[str]
    detail: dict[str, Any] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)


def _exactly_once(replicas: list[LogReplica], submitted: set[Any]) -> list[str]:
    """Every replica applies each command at most once; the longest
    applied log holds every submitted command exactly once."""
    violations = []
    longest: list[Any] = []
    for replica in replicas:
        applied = replica.applied_commands()
        if len(applied) != len(set(applied)):
            violations.append(f"replica {replica.pid} applied a command twice")
        if len(applied) > len(longest):
            longest = applied
    missing = len(submitted - set(longest))
    if missing:
        violations.append(f"{missing} submitted commands never applied")
    return violations


def _load_layers(replicas: list[LogReplica]) -> dict[str, float]:
    slots = cmds = sheds = depth = 0
    for replica in replicas:
        stats = replica.load_stats()
        sheds += stats["shed"]
        depth = max(depth, stats["max_queue_depth"])
        for size, count in stats["batch_sizes"].items():
            slots += count
            cmds += size * count
    return {
        "consensus.slots": slots,
        "consensus.cmds_per_slot": cmds / slots if slots else 0.0,
        "consensus.max_queue_depth": depth,
        "consensus.sheds": sheds,
    }


def election_s(histories: list[list[tuple[float, int]]], crashed_at: float,
               leader: int) -> float:
    """Time from ``crashed_at`` until every Omega output ``history`` that
    trusted the crashed ``leader`` moved to another process."""
    worst = 0.0
    for history in histories:
        before = [trusted for t, trusted in history if t <= crashed_at]
        if before and before[-1] != leader:
            continue
        moved = next((t for t, trusted in history
                      if t > crashed_at and trusted != leader), None)
        if moved is None:
            raise BenchmarkError(
                f"a process still trusts the crashed leader {leader}")
        worst = max(worst, moved - crashed_at)
    return worst


# ----------------------------------------------------------------------
# Sim workloads
# ----------------------------------------------------------------------

class SimWorkload:
    """A seeded simulation run to a horizon in :data:`CHUNKS` chunks."""

    name = ""
    horizon: float

    def __init__(self, seed: int, seconds: int) -> None:
        self.seed = seed
        self.seconds = seconds

    @property
    def sim(self) -> Any:
        raise NotImplementedError

    def start(self) -> None:
        raise NotImplementedError

    def build(self) -> None:
        raise NotImplementedError

    def boundaries(self) -> list[float]:
        return [self.horizon * (i + 1) / CHUNKS for i in range(CHUNKS)]

    def measure(self) -> tuple[float, float]:
        self.start()
        return timing.run_chunked(self.sim.run_until, self.boundaries())

    def finish(self) -> Outcome:
        raise NotImplementedError

    def engine_layers(self) -> dict[str, float]:
        profile = self.sim.profile()
        return {
            "engine.events": profile["events_executed"],
            "engine.heap_pushes": profile["heap_pushes"],
            "engine.compactions": profile["compactions"],
        }


class OmegaCensus(SimWorkload):
    """Comm-efficient Omega at n=256 in the ``source`` system (E18 settings).

    The paper's headline property at scale: after stabilization only the
    leader's n-1 links carry messages.  Nearly all the work is the
    scheduler, the broadcast fan-out and the watch-timer re-arming; no
    consensus, storage, load or codec code runs.
    """

    name = "omega-census"
    n = 256
    window = 20.0
    sim_s_per_s = 150.0

    def build(self) -> None:
        self.horizon = 40.0 + self.sim_s_per_s * self.seconds
        self.scenario = OmegaScenario(
            algorithm="comm-efficient", n=self.n, system="source", source=0,
            seed=self.seed, horizon=self.horizon, ce_window=self.window,
            timings=LinkTimings(gst=5.0),
            config=OmegaConfig(initial_timeout=8.0), link_rng="src")
        self.cluster = self.scenario.build()

    @property
    def sim(self) -> Any:
        return self.cluster.sim

    def start(self) -> None:
        self.cluster.start_all()

    def hubs(self) -> list[Any]:
        return [self.cluster.network.hub]

    def finish(self) -> Outcome:
        cluster, n = self.cluster, self.n
        report = analyze_omega_run(cluster)
        comm = communication_report(cluster, self.window)
        violations = [] if report.omega_holds else [
            "omega does not hold: no common correct leader"]
        if len(comm.links) != n - 1:
            violations.append(
                f"{len(comm.links)} busy links in the final "
                f"{self.window:g} s, expected {n - 1}")
        if not comm.is_communication_efficient(report.final_leader):
            violations.append("a non-leader still sends after stabilization")
        # One op per process: the instant it trusted the final leader
        # for good (its last output change), measured from the start.
        adopted = [cluster.process(pid).history[-1][0]
                   for pid in report.correct]
        latency = latency_metrics(adopted, 0.90)
        detail = latency.pop("_detail")
        metrics = {
            "busy_links": len(comm.links),
            "msgs_per_s": comm.messages / self.window,
            **latency,
        }
        detail.update(horizon_s=self.horizon, final_leader=report.final_leader,
                      events=self.sim.events_executed)
        layers = {**self.engine_layers(),
                  "omega.stabilize_s": report.stabilization_time or 0.0}
        return Outcome(metrics, attempted=n,
                       failed=n if violations else 0,
                       violations=violations, detail=detail, layers=layers)


class _LogWorkload(SimWorkload):
    """The ``LoadSpec`` replicated log at n=5, sources {0, 1}.

    Links: the two sources are ◇timely (δ=50 ms after GST, 1 ms floor);
    every other link is fair-lossy (30% loss).  Open-loop Poisson
    arrivals from 10k clients over 4096 Zipf(1.1) keys, batch 8,
    window 8, queue limit 128.
    """

    rate = 90.0
    persist = False
    omega = "comm-efficient"
    load_s_per_s = 64.0
    drain = 40.0
    idle_window = 10.0
    tail_fraction = 0.99

    def build(self) -> None:
        duration = self.load_s_per_s * self.seconds
        self.spec = LoadSpec(
            n=5, seed=self.seed, rate=self.rate, clients=10_000, keys=4096,
            zipf_s=1.1, batch_size=8, window=8, queue_limit=128,
            persist=self.persist, omega=self.omega, start=5.0,
            duration=duration, horizon=5.0 + duration + self.drain)
        self.horizon = self.spec.horizon
        self.run = self.spec.build()
        self.group = self.run.system.groups[0]

    @property
    def sim(self) -> Any:
        return self.run.system.sim

    def start(self) -> None:
        self.run.system.start_all()

    def hubs(self) -> list[Any]:
        return [net.hub for net in self.group.networks]

    def _collectors(self) -> list[MetricsCollector]:
        return [net.hub.first(MetricsCollector) for net in self.group.networks]

    def _idle_links(self) -> int:
        """Links the failure detector keeps busy once the log is idle."""
        fd = self.group.fd_network.hub.first(MetricsCollector)
        return len(fd.links_between(self.horizon - self.idle_window,
                                    self.horizon))

    def stabilize_s(self) -> float:
        return max(node.omega.history[-1][0]
                   for node in self.group.nodes.values() if not node.crashed)

    def finish(self) -> Outcome:
        spec, fleet, group = self.spec, self.run.fleet, self.group
        replicas = [group.nodes[pid].agreement for pid in group.pids]
        report = check_log(group, fleet.group_payloads[0])
        violations = list(report.verdict().violations)
        violations += _exactly_once(
            [r for r in replicas if not r.crashed], fleet.group_payloads[0])
        load_end = spec.start + spec.duration
        collectors = self._collectors()
        messages = sum(c.messages_between(spec.start, load_end)
                       for c in collectors)
        latency = latency_metrics(fleet.latencies(), self.tail_fraction)
        detail = latency.pop("_detail")
        committed = len(fleet.commit_times)
        metrics = {
            "busy_links": self._idle_links(),
            "msgs_per_s": messages / spec.duration,
            **latency,
        }
        offers = fleet.issued + fleet.retries
        layers = {
            **self.engine_layers(),
            **_load_layers(replicas),
            "load.retries": fleet.retries,
            "load.sheds": fleet.shed,
            "load.useful_ratio": committed / offers if offers else 0.0,
            "omega.stabilize_s": self.stabilize_s(),
        }
        detail.update(
            horizon_s=self.horizon, issued=fleet.issued, committed=committed,
            commit_rate_cps=committed / spec.duration,
            msgs_per_commit=messages / committed if committed else None,
            events=self.sim.events_executed)
        return Outcome(metrics, attempted=fleet.issued,
                       failed=(fleet.issued if violations
                               else fleet.issued - committed),
                       violations=violations, detail=detail, layers=layers)


class LogSteady(_LogWorkload):
    """Volatile log at 90 cmd/s: the measured knee.

    The queue reaches its limit of 128 and some offers are shed, but the
    backlog drains (100 cmd/s already gives a p99 of ~14 s).  Work is in
    consensus batching and pipelining, the client fleet, the observer
    hub and the checker; no large-n fan-out, storage or codec.
    """

    name = "log-steady"


class LogFailover(_LogWorkload):
    """Durable log (``persist=True``, crash-recovery Omega) at 2 cmd/s.

    Every :attr:`period` seconds of load the current leader crashes and
    recovers :attr:`down` seconds later.  Exercises durable syncs,
    recovery, failure-detector timeouts and ballot restarts — the paths
    ``log-steady`` never takes — so a gain on one path that costs the
    other shows.

    The tail of a crash run is set by its few worst crash episodes, so
    it varies from seed to seed.  Hence many crashes per run, a rate
    well under the durable path's ~8 cmd/s ceiling (at 4 cmd/s the
    backlog of one crash spilled into the next and p99 spread +-20%
    across seeds), and p90 as the reported tail.
    """

    name = "log-failover"
    rate = 2.0
    persist = True
    omega = "crash-recovery"
    load_s_per_s = 240.0
    period = 200.0
    down = 30.0
    drain = 120.0
    tail_fraction = 0.90

    def build(self) -> None:
        super().build()
        self.crashes: list[tuple[float, int]] = []
        sim = self.sim
        at = self.spec.start + self.period / 2
        while at + self.down < self.spec.start + self.spec.duration:
            sim.call_at(at, self._crash_leader)
            at += self.period

    def _crash_leader(self) -> None:
        system = self.run.system
        observer = self.group.nodes[system.up_pids()[0]].omega
        leader = observer.leader()
        self.crashes.append((self.sim.now, leader))
        system.crash(leader)
        self.sim.call_after(self.down, lambda: system.recover(leader))

    def _elections(self) -> list[float]:
        return [election_s([node.omega.history
                            for pid, node in self.group.nodes.items()
                            if pid != leader], crashed_at, leader)
                for crashed_at, leader in self.crashes]

    def _unavailable(self) -> list[float]:
        """Per crash: time from the crash to the first commit after it."""
        commits = sorted(self.run.fleet.commit_times.values())
        out = []
        for crashed_at, _ in self.crashes:
            after = next(t for t in commits if t > crashed_at)
            out.append(after - crashed_at)
        return out

    def stabilize_s(self) -> float:
        return statistics.median(self._elections())

    def finish(self) -> Outcome:
        outcome = super().finish()
        unavailable = self._unavailable()
        outcome.detail.update(
            crashes=len(self.crashes),
            unavailable_s_median=statistics.median(unavailable),
            unavailable_s_max=max(unavailable))
        return outcome


# ----------------------------------------------------------------------
# Live workload
# ----------------------------------------------------------------------

class _CommitWatch(Observer):
    """First-decide instant of every command id (the commit)."""

    def __init__(self) -> None:
        self.commit_at: dict[Any, float] = {}

    def on_decide(self, time: float, pid: int, value: Any) -> None:
        _, entry = value
        for command_id, _ in entry_commands(entry):
            self.commit_at.setdefault(command_id, time)


class _LiveGroup:
    """The ``ConsensusSystem`` surface ``check_log`` reads."""

    @dataclass
    class _Node:
        agreement: LogReplica

    def __init__(self, replicas: dict[int, LogReplica]) -> None:
        self._replicas = replicas
        self.pids = sorted(replicas)

    def node(self, pid: int) -> "_LiveGroup._Node":
        return self._Node(self._replicas[pid])

    def up_pids(self) -> list[int]:
        return [pid for pid in self.pids if not self._replicas[pid].crashed]


class LiveLog:
    """The log stack over real asyncio/UDP on loopback, one process.

    n=5 on two :class:`~repro.live.transport.LiveTransport` planes (FD
    and agreement, as in ``live/node.py``), comm-efficient Omega (eta
    0.1, initial timeout 0.5 s) and :class:`LogReplica` (tick 0.25 s,
    batch 8, no sync latency).  The initial leader crashes during the
    warm-up (see :meth:`_load`); then a fixed-interval open loop offers
    100 cmd/s to the new leader; each command is timed from its
    due time.  The only workload that runs the codec, the transport and
    the event loop, and the only one with no sim-kernel work.  There is
    no injected delay: latency reflects the tick and the loop.
    """

    name = "live-log"
    n = 5
    rate = 100.0
    warmup = 2.5
    crash_after = 0.5
    probe_every = 0.02
    drain_limit = 10.0
    idle_window = 2.0

    def __init__(self, seed: int, seconds: int) -> None:
        self.seed = seed
        self.seconds = seconds
        self.loop = asyncio.new_event_loop()

    def build(self) -> None:
        self.loop.run_until_complete(self._build())

    async def _build(self) -> None:
        from repro.core.registry import make_factory
        from repro.live.runtime import LiveClock
        from repro.live.transport import LiveTransport

        n = self.n
        self.clock = LiveClock()
        endpoints = {pid: ("127.0.0.1", 0) for pid in range(n)}
        self.fd_metrics = MetricsCollector(window=1.0)
        self.watch = _CommitWatch()
        self.fd = LiveTransport(self.clock, dict(endpoints), range(n),
                                observers=(self.fd_metrics,), seed=self.seed)
        self.ag = LiveTransport(self.clock, dict(endpoints), range(n),
                                observers=(self.watch,),
                                seed=self.seed + 1)
        await self.fd.open()
        await self.ag.open()
        factory = make_factory("comm-efficient",
                               OmegaConfig(eta=0.1, initial_timeout=0.5), n=n)
        self.omegas = {pid: factory(pid, self.clock, self.fd)
                       for pid in range(n)}
        config = ConsensusConfig(tick=0.25, batch_size=8, sync_latency=0.0)
        self.replicas = {
            pid: LogReplica(pid, self.clock, self.ag, n,
                            leader_of=self.omegas[pid].leader, config=config)
            for pid in range(n)}
        for pid in range(n):
            self.omegas[pid].start()
            self.replicas[pid].start()

    def hubs(self) -> list[Any]:
        return [self.fd.hub, self.ag.hub]

    def measure(self) -> tuple[float, float]:
        return self.loop.run_until_complete(self._load())

    async def _load(self) -> tuple[float, float]:
        """Warm up, offer the load, drain.

        Returns the process CPU seconds spent during the load, raw and
        normalized: every :attr:`probe_every` seconds the loop times a
        burst-sized reference (:func:`timing.cold_probe`), and the CPU
        time between probes, theirs excluded, is normalized by the mean.

        Half a second into the warm-up the initial leader (pid 0)
        crashes, so Omega has to detect it on real timers and elect
        pid 1: that detection is ``omega.stabilize_s``.  The load then runs
        on the four survivors (a majority of five).
        """
        await asyncio.sleep(self.crash_after)
        self.crashed_at = self.clock.now
        self.omegas[0].crash()
        self.replicas[0].crash()
        await asyncio.sleep(self.warmup - self.crash_after)
        clock, rng = self.clock, random.Random(self.seed)
        count = int(self.rate * self.seconds)
        self.due: dict[tuple[int, int], float] = {}
        self.late: list[float] = []
        self.submitted: set[Any] = set()
        frames_before = self.fd.frames_sent + self.ag.frames_sent
        self.load_start = clock.now + 0.05
        done = asyncio.Event()
        probes: list[tuple[float, float, float]] = []

        def sample() -> None:
            cpu = time.process_time()
            speed = timing.cold_probe()
            probes.append((cpu, speed, time.process_time()))
            if not done.is_set():
                clock.call_after(self.probe_every, sample)

        def offer(index: int) -> None:
            # Catch up on every command already due, then sleep until
            # the next one: a stalled loop queues work, it does not
            # thin the schedule.
            now = clock.now
            while index < count:
                due = self.load_start + index / self.rate
                if due > now:
                    clock.call_at(due, lambda i=index: offer(i))
                    return
                command_id = (index % 10_000, index)
                command = ("w", index, rng.randrange(4096))
                self.due[command_id] = due
                self.late.append(now - due)
                self.submitted.add(command)
                leader = self.omegas[1].leader()
                self.replicas[leader].submit(command_id, command)
                index += 1
            done.set()

        clock.call_at(self.load_start, lambda: offer(0))
        sample()
        await done.wait()
        sample()
        raw = sum(cpu - resumed for (_, _, resumed), (cpu, _, _)
                  in zip(probes, probes[1:]))
        normalized = timing.normalize(
            raw, statistics.mean(speed for _, speed, _ in probes))
        self.cpu_s = raw
        self.load_end = clock.now
        self.frames_load = (self.fd.frames_sent + self.ag.frames_sent
                            - frames_before)
        deadline = clock.now + self.drain_limit
        while (len(self.watch.commit_at) < count
               and clock.now < deadline):
            await asyncio.sleep(0.05)
        await asyncio.sleep(self.idle_window)
        self.ended_at = clock.now
        return raw, normalized

    def finish(self) -> Outcome:
        replicas = [self.replicas[pid] for pid in range(self.n)
                    if not self.replicas[pid].crashed]
        for transport in (self.fd, self.ag):
            transport.close()
        self.loop.run_until_complete(asyncio.sleep(0))
        self.loop.close()
        report = check_log(_LiveGroup(self.replicas), self.submitted)
        violations = list(report.verdict().violations)
        violations += _exactly_once(replicas, self.submitted)
        latencies = [self.watch.commit_at[cid] - due
                     for cid, due in self.due.items()
                     if cid in self.watch.commit_at]
        committed = len(latencies)
        latency = latency_metrics(latencies, 0.99)
        detail = latency.pop("_detail")
        links = self.fd_metrics.links_between(
            self.ended_at - self.idle_window + 1.0, self.ended_at)
        load_s = self.load_end - self.load_start
        survivors = [omega for omega in self.omegas.values()
                     if not omega.crashed]
        leaders = {omega.leader() for omega in survivors}
        if len(leaders) != 1 or 0 in leaders:
            violations.append(f"survivors trust {sorted(leaders)}, "
                              f"expected one live leader")
        metrics = {
            "busy_links": len(links),
            "msgs_per_s": self.frames_load / load_s,
            **latency,
        }
        late = self.late
        issued = len(self.due)
        detail.update(
            issued=issued, committed=committed,
            cpu_ms_per_commit_raw=1000 * self.cpu_s / max(committed, 1),
            frames_per_commit=self.frames_load / max(committed, 1),
            gen_late_p99_ms=1000 * percentile(late, 0.99))
        layers = {
            **_load_layers(replicas),
            "transport.frames_sent": self.fd.frames_sent + self.ag.frames_sent,
            "transport.frames_received": (self.fd.frames_received
                                          + self.ag.frames_received),
            "loop.gen_late_p99_frac": percentile(late, 0.99) * self.rate,
            "load.useful_ratio": committed / issued if issued else 0.0,
            "omega.stabilize_s": election_s(
                [omega.history for omega in survivors], self.crashed_at, 0),
        }
        return Outcome(metrics, attempted=issued,
                       failed=issued if violations else issued - committed,
                       violations=violations, detail=detail, layers=layers)


WORKLOADS: dict[str, Callable[[int, int], Any]] = {
    OmegaCensus.name: OmegaCensus,
    LogSteady.name: LogSteady,
    LogFailover.name: LogFailover,
    LiveLog.name: LiveLog,
}
"""Workload name -> constructor ``(seed, seconds)``."""
