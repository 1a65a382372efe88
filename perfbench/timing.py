"""Host-drift-normalized timing.

On a shared 2-vCPU VM the speed of the host drifts between processes:
identical ``omega-census`` work took 2.80-4.25 s of wall time in six
fresh processes, and process CPU time tracked wall time, so the spread
is host speed, not scheduling.  A fixed pure-Python reference loop run
in the same process drifts with it.  Every timing this benchmark
reports is therefore expressed in *reference-normalized seconds*:

    normalized = measured * (REFERENCE_NOMINAL_S / reference nearby) ** 0.9

(the exponent is :data:`HOST_SENSITIVITY`).  The raw value is kept beside it for information only.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time
from typing import Callable, Sequence

REFERENCE_NOMINAL_S = 0.010
"""Nominal duration of one :func:`reference_work` call.  It is only a
scale: a normalized second equals a raw second on a host where one
reference call takes exactly this long (close to the 2-vCPU VM the
benchmark was tuned on)."""

HOST_SENSITIVITY = 0.9
"""How strongly the workloads track the reference loop's speed.

Fitted on ten seeds of every workload at ``--seconds 15``: full
correction (1.0) over-corrected, so fast-host runs read slowest.  The
spread of ``run_s`` between its lowest and highest value, as a share of
the median, was 0.118, 0.064, 0.129 and 0.135 at 1.0, and 0.103, 0.047,
0.090 and 0.126 at 0.9 (omega-census, log-steady, log-failover,
live-log).  The loop is pure interpreter work; the workloads also wait
on memory, which a busy sibling core slows less."""

_REFERENCE_ROUNDS = 4000
_PROBE_ROUNDS = 500
_COLD_ROUNDS = 100


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value

    def bump(self, delta: int) -> int:
        self.value += delta
        return self.value


def reference_work(rounds: int = _REFERENCE_ROUNDS) -> int:
    """A fixed CPU-bound loop shaped like the simulator's hot path.

    Heap pushes and pops of tuples, dict insert/pop churn, small-object
    allocation and bound-method calls — the operations the event kernel,
    the network fan-out and the protocol handlers spend their time on.
    Returns a checksum so the work cannot be skipped.
    """
    heap: list[tuple[float, int, _Item]] = []
    table: dict[int, _Item] = {}
    state = 12345
    checksum = 0
    for index in range(rounds):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        item = _Item(state & 1023, index)
        heapq.heappush(heap, (state / 2147483648.0, index, item))
        old = table.pop(item.key, None)
        table[item.key] = item
        if old is not None:
            checksum += old.bump(1) & 7
        if len(heap) > 256:
            _, seq, popped = heapq.heappop(heap)
            checksum += popped.bump(seq) & 15
    return checksum + len(table)


def time_reference(rounds: int = _REFERENCE_ROUNDS) -> float:
    """Wall seconds one :func:`reference_work` call takes right now.

    The cyclic garbage collector is paused for the call: the loop makes
    no cycles, and a collection inside it would charge the reference
    for the size of whatever heap the process happens to hold.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        reference_work(rounds)
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def cold_probe() -> float:
    """Host speed as seen by a short burst, scaled to one reference call.

    The live workload runs in bursts of well under a millisecond
    between idle waits; a hot-loop probe misjudges how fast such
    bursts run, a burst-sized one does not.  Single bursts are noisy,
    so callers average many.
    """
    return time_reference(_COLD_ROUNDS) * (_REFERENCE_ROUNDS / _COLD_ROUNDS)


def host_speed(samples: int = 5) -> float:
    """Median of ``samples`` speed probes (see :func:`probe`)."""
    return statistics.median(probe() for _ in range(samples))


def normalize(seconds: float, reference_s: float) -> float:
    """``seconds`` measured on a host where the reference took ``reference_s``.

    The correction is damped by :data:`HOST_SENSITIVITY`: the workloads
    slow down less than the reference loop when the host does.
    """
    return seconds * (REFERENCE_NOMINAL_S / reference_s) ** HOST_SENSITIVITY


def probe() -> float:
    """Host speed right now, as the time of one full reference call.

    Two short reference calls, keeping the faster: an interrupt only
    ever slows a call down, so the minimum rejects it.
    """
    return min(time_reference(_PROBE_ROUNDS), time_reference(_PROBE_ROUNDS)) \
        * (_REFERENCE_ROUNDS / _PROBE_ROUNDS)


def run_chunked(step: Callable[[float], None],
                boundaries: Sequence[float]) -> tuple[float, float]:
    """Run ``step(b)`` for each boundary, interleaved with speed probes.

    The sequence is ``P0 C1 P1 C2 P2 ... Ck Pk``: each chunk ``Ci`` is
    normalized by the mean of the two probes around it, so a host that
    slows down mid-run is corrected where it slowed.  The host's speed
    changes within a second, so use many short chunks.  Returns
    ``(raw_s, normalized_s)`` summed over the chunks.  The chunking
    itself changes nothing a simulation computes: ``run_until(a)``
    followed by ``run_until(b)`` is ``run_until(b)``.
    """
    raw = 0.0
    normalized = 0.0
    before = probe()
    for boundary in boundaries:
        started = time.perf_counter()
        step(boundary)
        spent = time.perf_counter() - started
        after = probe()
        raw += spent
        normalized += normalize(spent, (before + after) / 2)
        before = after
    return raw, normalized
