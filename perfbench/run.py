"""The repository benchmark: one command, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each workload run happens in fresh
single-threaded child processes (``child.py``) built from ``--seed``
alone.  The last stdout line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the ``end_to_end`` metrics of ``BENCHMARK.json``;
``--trace 1`` runs the workload once untraced and once with layer spans
and reports its ``per_layer`` metrics (0 for a layer the workload does
not use).  The line before it is a JSON detail block (every metric's
direction, sample counts, raw timings, the checkers' violations).  The
exit code is non-zero when a checker fails, an operation fails, or a
child dies; see README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from timing import normalize  # noqa: E402

SETUP_PROBES = 4
"""Set-up-only child processes per untraced run; with the measuring
child that makes five set-up samples, reported as their median."""

CHILD_ENV = {**os.environ, "PYTHONHASHSEED": "0"}
"""Children run with a pinned string-hash seed, so dict and set layouts
do not vary from run to run.  The simulation does not depend on it."""

RUN_BUDGET_S = 170.0
"""Wall-clock budget of one command; children still running past it are
killed and the run fails."""

EXPECTED_IDLE = {
    "omega-census": ("consensus.handler_frac", "storage.self_frac",
                     "codec.encode_frac", "codec.decode_frac",
                     "load.submit_frac", "transport.self_frac"),
    "log-steady": ("storage.self_frac", "codec.encode_frac",
                   "codec.decode_frac", "transport.self_frac"),
    "log-failover": ("codec.encode_frac", "codec.decode_frac",
                     "transport.self_frac"),
    "live-log": ("engine.self_frac", "network.self_frac", "links.plan_frac",
                 "storage.self_frac", "load.self_frac"),
}
"""Layers each workload was chosen *not* to exercise; time in one of
them is reported as a mismatch."""


class ChildFailed(RuntimeError):
    """A workload child exited non-zero, timed out or printed no result."""


def spawn(mode: str, workload: str, seed: int, seconds: int,
          deadline: float) -> dict:
    """Run one child; return its JSON result plus its ``setup_s`` sample."""
    command = [sys.executable, str(HERE / "child.py"), mode, workload,
               str(seed), str(seconds)]
    spawned = time.monotonic()
    child = subprocess.Popen(command, cwd=ROOT, env=CHILD_ENV,
                             stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = child.communicate(timeout=max(deadline - spawned, 1.0))
    except subprocess.TimeoutExpired as error:
        raise ChildFailed(f"{mode} child timed out") from error
    finally:
        # Also reached on SIGTERM (see main): never leave a child behind.
        if child.poll() is None:
            child.kill()
            child.wait()
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise ChildFailed(f"{mode} child exited {child.returncode}")
    result = json.loads(lines[-1])
    result["setup_raw_s"] = result["ready"] - spawned
    result["setup_s"] = normalize(result["setup_raw_s"], result["reference_s"])
    return result


def end_to_end(workload: str, seed: int, seconds: int,
               deadline: float) -> tuple[dict, dict]:
    measured = spawn("measure", workload, seed, seconds, deadline)
    setups = [measured["setup_s"]] + [
        spawn("setup", workload, seed, seconds, deadline)["setup_s"]
        for _ in range(SETUP_PROBES)]
    values = dict(measured["metrics"],
                  setup_s=statistics.median(setups),
                  run_s=measured["run_s"],
                  peak_rss_mb=measured["peak_rss_mb"])
    detail = dict(measured["detail"], run_raw_s=measured["run_raw_s"],
                  setup_samples_s=setups, layers=measured["layers"])
    return values, {"measured": measured, "detail": detail}


def per_layer(workload: str, seed: int, seconds: int,
              deadline: float) -> tuple[dict, dict]:
    untraced = spawn("measure", workload, seed, seconds, deadline)
    traced = spawn("trace", workload, seed, seconds, deadline)
    values = dict(traced["layers"])
    values["trace.run_s"] = traced["run_s"]
    values["trace.overhead_frac"] = traced["run_s"] / untraced["run_s"] - 1
    mismatches = [f"{name} = {values[name]:.4f} on {workload}"
                  for name in EXPECTED_IDLE[workload]
                  if values.get(name, 0) > 0]
    violations = []
    if "engine.events" in untraced["layers"]:
        # Tracing must not move a simulation: same seed, same schedule.
        for key in ("metrics", "attempted", "failed"):
            if traced[key] != untraced[key]:
                violations.append(f"traced run changed {key}")
        if traced["layers"]["engine.events"] != untraced["layers"][
                "engine.events"]:
            violations.append("traced run changed engine.events")
    detail = {"layer_mismatches": mismatches,
              "untraced_run_s": untraced["run_s"],
              "traced_detail": traced["detail"]}
    traced["violations"] = (untraced["violations"] + traced["violations"]
                            + violations)
    return values, {"measured": traced, "detail": detail}


def _terminate(signum: int, frame: object) -> None:
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text()) if spec_path.is_file() else {}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[
        w["name"] for w in spec.get("workloads", ())])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro package under {ROOT / 'src'}; run from a "
              f"full checkout of the repository", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    collect = per_layer if args.trace else end_to_end
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        values, run = collect(args.workload, args.seed, args.seconds,
                              deadline)
    except ChildFailed as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    measured = run["measured"]
    violations = measured["violations"]
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        values = {m["name"]: values.get(m["name"], 0) for m in wanted}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "better": {m["name"]: m["better"] for m in wanted},
                      "violations": violations, **run["detail"]}))
    for message in violations:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    for message in run["detail"].get("layer_mismatches", ()):
        print(f"LAYER MISMATCH: {message}", file=sys.stderr)
    correct = not violations
    print(json.dumps({"correct": correct,
                      "attempted": measured["attempted"],
                      "failed": measured["failed"],
                      "metrics": metrics}))
    return 0 if correct and measured["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
