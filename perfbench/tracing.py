"""Layer spans for the traced run.

The traced run wraps the public calls at each layer boundary — from the
benchmark's own files, touching nothing in ``src/`` — and keeps, per
layer, the *self time*: a span's duration minus the part of it that
child spans cover.  Spans live in memory; only the per-layer totals and
counts leave the process.

Wrapping happens on the classes before the system is built, because
the observer hub captures its bound callbacks when observers attach.
None of the wrappers changes an argument or a return value, so the
event schedule of a traced sim run is identical to the untraced one
(the child runner checks this).
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Any, Callable

from repro.consensus.replica import LogReplica
from repro.core.omega import OmegaProtocol
from repro.load import ClientFleet
from repro.obs.observer import Observer
from repro.sim.engine import Simulation
from repro.sim.links import LinkPolicy
from repro.sim.network import Network
from repro.sim.process import Process
from repro.sim.storage import StableStorage
import repro.live.transport as live_transport

import timing


def _subclasses(cls: type) -> list[type]:
    """``cls`` and every class below it, each once."""
    out: dict[type, None] = {}
    todo = [cls]
    while todo:
        klass = todo.pop()
        if klass not in out:
            out[klass] = None
            todo.extend(klass.__subclasses__())
    return list(out)


def _handler_layer(process: Any) -> str:
    if isinstance(process, OmegaProtocol):
        return "omega.handler"
    if isinstance(process, LogReplica):
        return "consensus.handler"
    return "other.handler"


class SyncCounter(Observer):
    """Counts committed stable-storage syncs and the keys they carried."""

    def __init__(self, counts: dict[str, int]) -> None:
        self.counts = counts

    def on_sync(self, time: float, pid: int, keys: tuple, ok: bool) -> None:
        self.counts["storage.syncs"] += 1
        self.counts["storage.keys"] += len(keys)


class Tracer:
    """Self time per layer and call counts at the layer boundaries."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.sync_counter = SyncCounter(self.counts)
        self._stack: list[float] = [0.0]
        self._undo: list[tuple[Any, str, Any]] = []

    # -- wrapping ---------------------------------------------------------

    def _timed(self, layer: str | Callable[[Any], str],
               fn: Callable[..., Any], count: str | None = None,
               nbytes: str | None = None) -> Callable[..., Any]:
        stack, self_s, counts = self._stack, self.self_s, self.counts
        clock = time.perf_counter
        fixed = isinstance(layer, str)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spent = clock() - started
                child = stack.pop()
                stack[-1] += spent
                self_s[layer if fixed else layer(args[0])] += spent - child
            if count is not None:
                counts[count] += 1
            if nbytes is not None:
                counts[nbytes] += len(result)
            return result

        return wrapper

    def _counted(self, fn: Callable[..., Any], count: str,
                 only: type) -> Callable[..., Any]:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(instance: Any, *args: Any, **kwargs: Any) -> Any:
            if isinstance(instance, only):
                counts[count] += 1
            return fn(instance, *args, **kwargs)

        return wrapper

    def _patch(self, owner: Any, name: str, wrapper: Any) -> None:
        self._undo.append((owner, name, owner.__dict__[name]
                           if isinstance(owner, type) else getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _wrap(self, owner: Any, name: str, layer: Any, **kw: Any) -> None:
        fn = owner.__dict__[name] if isinstance(owner, type) \
            else getattr(owner, name)
        self._patch(owner, name, self._timed(layer, fn, **kw))

    def install(self, checker_owner: Any) -> None:
        """Wrap every layer boundary; ``checker_owner`` is the module
        whose ``check_log``/``analyze_omega_run``/``communication_report``
        names the workloads call."""
        self._wrap(Simulation, "run_until", "engine")
        self._wrap(Network, "send", "network", count="network.sends")
        self._wrap(Network, "broadcast", "network",
                   count="network.broadcasts")
        self._wrap(Network, "_deliver", "network")
        for klass in _subclasses(LinkPolicy):
            if "plan" in klass.__dict__:
                self._wrap(klass, "plan", "links.plan")
        self._wrap(Process, "deliver", _handler_layer)
        for klass in _subclasses(Process):
            if "on_timer" in klass.__dict__:
                self._wrap(klass, "on_timer", _handler_layer)
        self._patch(Process, "set_timer", self._counted(
            Process.set_timer, "omega.timer_sets", OmegaProtocol))
        self._patch(Process, "cancel_timer", self._counted(
            Process.cancel_timer, "omega.timer_cancels", OmegaProtocol))
        self._wrap(StableStorage, "sync", "storage")
        self._wrap(LogReplica, "submit", "load.submit")
        for name in ("_open_arrival", "_retry"):
            self._wrap(ClientFleet, name, "load")
        for klass in _subclasses(Observer):
            if klass in (Observer, SyncCounter):
                continue
            for name in list(klass.__dict__):
                if name.startswith("on_") and callable(klass.__dict__[name]):
                    self._wrap(klass, name, "obs", count="obs.callbacks")
        for name in ("check_log", "analyze_omega_run", "communication_report"):
            self._wrap(checker_owner, name, "obs.checker")
        self._wrap(live_transport, "encode_frame", "codec.encode",
                   count="codec.frames", nbytes="codec.bytes")
        self._wrap(live_transport, "decode_frame", "codec.decode")
        for name in ("send", "broadcast"):
            self._wrap(live_transport.LiveTransport, name, "transport")
        self._wrap(live_transport._Endpoint, "datagram_received", "transport")
        self._wrap(timing, "time_reference", "reference")

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # -- results ----------------------------------------------------------

    def layers(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics; self times as shares of ``wall_s`` minus the
        reference loops."""
        busy = wall_s - self.self_s.get("reference", 0.0)
        s, c = self.self_s, self.counts

        def frac(layer: str) -> float:
            return s.get(layer, 0.0) / busy

        frames = c.get("codec.frames", 0)
        syncs = c.get("storage.syncs", 0)
        return {
            "engine.self_frac": frac("engine"),
            "network.sends": c.get("network.sends", 0),
            "network.broadcasts": c.get("network.broadcasts", 0),
            "network.self_frac": frac("network"),
            "links.plan_frac": frac("links.plan"),
            "omega.timer_sets": c.get("omega.timer_sets", 0),
            "omega.timer_cancels": c.get("omega.timer_cancels", 0),
            "omega.handler_frac": frac("omega.handler"),
            "consensus.handler_frac": frac("consensus.handler"),
            "storage.syncs": syncs,
            "storage.keys_per_sync": (c.get("storage.keys", 0) / syncs
                                      if syncs else 0.0),
            "storage.self_frac": frac("storage"),
            "load.submit_frac": frac("load.submit"),
            "load.self_frac": frac("load"),
            "obs.callbacks": c.get("obs.callbacks", 0),
            "obs.self_frac": frac("obs"),
            "obs.checker_frac": frac("obs.checker"),
            "codec.frames": frames,
            "codec.bytes_per_frame": (c.get("codec.bytes", 0) / frames
                                      if frames else 0.0),
            "codec.encode_frac": frac("codec.encode"),
            "codec.decode_frac": frac("codec.decode"),
            "transport.self_frac": frac("transport"),
        }
