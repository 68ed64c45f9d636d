"""Child process that runs the yardstick: a frozen copy of gridcosim.

The host this benchmark runs on changes speed by up to 1.7x within
minutes, and often within one run, so host seconds of two runs taken a
minute apart do not compare.  Every timed window is therefore shared with
the yardstick: ``yardstick/gridcosim``, a copy of the package frozen when
the benchmark was defined, runs the same scenario back to back in this
process, pinned to the same CPU as the measured process.  The scheduler
time-slices the two every few milliseconds, so both see the same host
speed, and the ratio of their CPU times per run cancels it.  A change to
the package moves the ratio; a change of host speed does not.

The yardstick runs in its own process so that its memory does not count
toward the measured process's peak RSS.

Protocol on stdin/stdout: the parent writes ``go``; the worker runs until
the parent writes ``stop <monotonic time>``, then prints one JSON list of
the CPU seconds of its runs that ended by that time (at least one) and
exits.

    python3 bench/yardstick_worker.py WORKLOAD SEED [DURATION_S]
"""

from __future__ import annotations

import gc
import json
import select
import sys
import time
from pathlib import Path

import run


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    duration_s = float(sys.argv[3]) if len(sys.argv) > 3 else None
    sys.path.insert(0, str(Path(__file__).resolve().parent / "yardstick"))
    workload = run.WORKLOADS[name]
    api = run.import_api()
    cfg = run.make_config(api, workload, seed, duration_s)
    out_dir = run.OUT_DIR / f"{name}-yardstick"

    if sys.stdin.readline().strip() != "go":
        return 1
    runs: list[tuple[float, float]] = []  # (CPU seconds, monotonic end)
    while not select.select([sys.stdin], [], [], 0)[0]:
        gc.collect()
        cpu_s = run.run_once(api, cfg, workload, out_dir)[-1]
        runs.append((cpu_s, time.monotonic()))
    command, _, stop_at = sys.stdin.readline().partition(" ")
    if command != "stop":
        return 1
    counted = [cpu for cpu, ended in runs if ended <= float(stop_at)] or [runs[0][0]]
    print(json.dumps(counted), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
