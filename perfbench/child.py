"""One workload process: ``python3 perfbench/child.py MODE WORKLOAD SEED SECONDS``.

``run.py`` starts every workload run in a fresh single-threaded process
through this file.  MODE is

``setup``
    import and build, then exit (one more set-up-time sample);
``measure``
    build, run the timed phase untraced, judge, report;
``trace``
    the same with the layer spans of :mod:`tracing` installed.

Every mode records ``time.monotonic()`` at the end of set-up (``ready``;
the parent subtracts its own spawn instant) and the host speed probed
just before importing the repository and just after the build, and
prints one JSON object as its last stdout line.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import timing  # noqa: E402

MODES = ("setup", "measure", "trace")


def main(argv: list[str]) -> int:
    speed_before = timing.host_speed()
    import workloads

    mode, name, seed, seconds = argv[0], argv[1], int(argv[2]), int(argv[3])
    if mode not in MODES or name not in workloads.WORKLOADS:
        print(f"usage: child.py {{{','.join(MODES)}}} WORKLOAD SEED SECONDS",
              file=sys.stderr)
        return 2
    tracer = None
    if mode == "trace":
        import tracing

        tracer = tracing.Tracer()
        tracer.install(workloads)
    workload = workloads.WORKLOADS[name](seed, seconds)
    workload.build()
    ready = time.monotonic()
    reference_s = (speed_before + timing.host_speed()) / 2
    result: dict = {"ready": ready, "reference_s": reference_s}
    if mode == "setup":
        print(json.dumps(result))
        return 0
    if tracer is not None:
        for hub in workload.hubs():
            hub.attach(tracer.sync_counter)
    gc.collect()  # every timed phase starts from the same collector state
    started = time.perf_counter()
    raw_s, run_s = workload.measure()
    outcome = workload.finish()
    wall_s = time.perf_counter() - started
    result.update(
        run_raw_s=raw_s,
        run_s=run_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        metrics=outcome.metrics,
        attempted=outcome.attempted,
        failed=outcome.failed,
        violations=outcome.violations,
        detail=outcome.detail,
        layers=outcome.layers,
    )
    if tracer is not None:
        tracer.uninstall()
        result["layers"].update(tracer.layers(wall_s))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
