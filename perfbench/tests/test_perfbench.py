"""Tests of the benchmark itself: honest rows, tails, tracing, exit codes.

Run with ``python3 -m pytest -q perfbench/tests`` from the repository
root (the repository's own ``tests/`` suite does not collect these).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import timing  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SIM = ("omega-census", "log-steady", "log-failover")


def _measured(name: str, seed: int = 3) -> tuple[object, workloads.Outcome]:
    workload = workloads.WORKLOADS[name](seed, 1)
    workload.build()
    workload.measure()
    return workload, workload.finish()


@pytest.mark.parametrize("name", SIM)
def test_engine_events_are_the_timed_systems(name: str) -> None:
    workload, outcome = _measured(name)
    assert outcome.violations == []
    assert outcome.failed == 0
    assert outcome.layers["engine.events"] == workload.sim.events_executed
    assert outcome.detail["events"] == workload.sim.events_executed
    assert workload.sim.now == workload.horizon


@pytest.mark.parametrize("name", SIM)
def test_chunked_normalized_timing_changes_no_sim_metric(name: str) -> None:
    _, chunked = _measured(name)
    plain = workloads.WORKLOADS[name](3, 1)
    plain.build()
    plain.start()
    plain.sim.run_until(plain.horizon)
    unchunked = plain.finish()
    assert chunked.metrics == unchunked.metrics
    assert chunked.layers == unchunked.layers
    assert (chunked.attempted, chunked.failed) == (
        unchunked.attempted, unchunked.failed)


def test_same_seed_repeats_and_another_seed_passes() -> None:
    _, first = _measured("log-steady", seed=3)
    _, again = _measured("log-steady", seed=3)
    _, other = _measured("log-steady", seed=4)
    assert first.metrics == again.metrics
    assert other.violations == [] and other.failed == 0
    assert other.metrics != first.metrics


def test_tail_needs_ten_samples_beyond_it() -> None:
    assert workloads.tail([float(i) for i in range(100)], 0.99) is None
    assert workloads.tail([float(i) for i in range(1001)], 0.99) == 990.0
    assert workloads.tail([], 0.5) is None
    with pytest.raises(workloads.BenchmarkError):
        workloads.latency_metrics([float(i) for i in range(900)], 0.99)
    metrics = workloads.latency_metrics([float(i) for i in range(1001)], 0.99)
    assert metrics["op_tail_s"] == 990.0
    assert metrics["_detail"]["op_tail_beyond"] == 10


def test_tracing_keeps_the_schedule_and_splits_layers() -> None:
    _, untraced = _measured("log-failover")
    tracer = tracing.Tracer()
    tracer.install(workloads)
    try:
        workload = workloads.WORKLOADS["log-failover"](3, 1)
        workload.build()
        for hub in workload.hubs():
            hub.attach(tracer.sync_counter)
        workload.measure()
        traced = workload.finish()
    finally:
        tracer.uninstall()
    assert traced.metrics == untraced.metrics
    assert traced.layers == untraced.layers
    layers = tracer.layers(1.0)
    assert layers["storage.syncs"] > 0
    assert layers["consensus.handler_frac"] > 0
    assert layers["codec.frames"] == 0
    assert layers["codec.encode_frac"] == 0
    # uninstall restored every wrapped attribute
    from repro.sim.network import Network
    assert not hasattr(Network.send, "__wrapped__")


def test_normalize_scales_by_reference() -> None:
    assert timing.normalize(2.0, timing.REFERENCE_NOMINAL_S) == 2.0
    slow = timing.normalize(2.0, 2 * timing.REFERENCE_NOMINAL_S)
    assert slow == pytest.approx(2.0 * 0.5 ** timing.HOST_SENSITIVITY)
    raw, normalized = timing.run_chunked(lambda _: None, [1.0, 2.0])
    assert raw >= 0 and normalized >= 0


def test_runner_fails_without_the_repository(tmp_path: Path) -> None:
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "log-steady",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_runner_reports_a_failing_child(tmp_path: Path) -> None:
    # live-log cannot back a p99 with one second of load: the child
    # fails, and so must the command, without a result line.
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "live-log",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    for line in done.stdout.splitlines():
        assert "correct" not in json.loads(line)


def test_benchmark_json_names_what_the_workloads_report() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    _, census = _measured("omega-census")
    _, failover = _measured("log-failover")
    assert {m["name"] for m in spec["end_to_end"]} == set(
        census.metrics) | {"setup_s", "run_s", "peak_rss_mb"}
    assert set(census.metrics) == set(failover.metrics)
    live_only = {"transport.frames_sent", "transport.frames_received",
                 "loop.gen_late_p99_frac"}
    reported = (set(tracing.Tracer().layers(1.0)) | set(census.layers)
                | set(failover.layers) | live_only
                | {"trace.run_s", "trace.overhead_frac"})
    assert {m["name"] for m in spec["per_layer"]} == reported
