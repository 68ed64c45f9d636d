"""gridcosim benchmark: host cost of full scenario runs, end to end and per layer.

Usage, from the repository root:

    python3 bench/run.py --workload failover-wfq-ra --seed 1 --seconds 30 --trace 0

Each run builds the workload's scenario from ``--seed``, calls the package's
public API the way the CLI does (``run_scenario`` then ``write_outputs``),
repeats until ``--seconds`` of host time are spent, checks every run's
outputs (see checks.py), and prints a summary followed by one JSON line:

    {"correct": ..., "attempted": runs, "failed": runs failing a check, "metrics": {...}}

With ``--trace 0`` the runs share the CPU with the yardstick (see
yardstick_worker.py) and the metrics are the end-to-end ones.  With
``--trace 1`` untraced and traced runs alternate alone on the CPU and the
metrics are the per-layer split of layers.py.  See README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import types
from pathlib import Path

import checks
from layers import LAYER_UNITS, LayerTrace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCENARIO = ROOT / "scenarios" / "lte_failover_case_study.cfg"
REFERENCES = BENCH / "references.json"
OUT_DIR = ROOT / ".bench_out"

END_TO_END_UNITS = {"cpu_ratio": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}

# Set-up is timed this many times before each timed run, so that its
# median samples the same stretch of host time as the runs.
SETUPS_PER_RUN = 3
# At least this many timed runs, even when one run outlasts --seconds.  With
# --trace 1 the minimum is one untraced and one traced run.
MIN_RUNS = 3


@dataclasses.dataclass(frozen=True)
class Workload:
    overrides: dict
    # The yardstick's mean CPU seconds per run at the reference host speed:
    # the median over the 20 processes measured when the benchmark was
    # defined.  setup_s is rescaled to that speed (see main).
    yardstick_cpu_s: float
    transport: str = "inproc"


# Each workload is bound by a different layer (README.md says why these):
# failover-wfq-ra by the coordinator, 84% of its 160,000 slots being idle;
# scale-x10 by the federates; socket-wfq-ra by the socket transport.
WORKLOADS = {
    "failover-wfq-ra": Workload({"qos": "wfq-ra", "lte_fail_at_s": 500.0}, yardstick_cpu_s=2.02),
    "scale-x10": Workload({"count_hva_lv": 3320, "count_switch": 260, "lte_bs_count": 20,
                           "duration_s": 400.0}, yardstick_cpu_s=5.76),
    "socket-wfq-ra": Workload({"qos": "wfq-ra", "lte_fail_at_s": 100.0, "duration_s": 200.0},
                              yardstick_cpu_s=4.76, transport="socket"),
}


def import_api() -> types.SimpleNamespace:
    """Import gridcosim afresh, so that import time counts toward set-up."""
    for name in [m for m in sys.modules if m == "gridcosim" or m.startswith("gridcosim.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module(f"gridcosim.{name}")
            for name in ("config", "topology", "itfed", "netfed", "rti", "transport", "runner")}
    return types.SimpleNamespace(**mods)


def make_config(api, workload: Workload, seed: int, duration_s: float | None):
    overrides = dict(workload.overrides, seed=seed)
    if duration_s is not None:
        overrides["duration_s"] = duration_s
    cfg = dataclasses.replace(api.config.load_config(SCENARIO), **overrides)
    cfg.validate()
    return cfg


def time_setup(workload: Workload, seed: int, duration_s: float | None):
    """CPU seconds before the first slot: import, config, topology, federates.

    Returns the time and the freshly imported API, which the next run uses,
    so that no run mixes classes from two imports of the package.
    """
    t0 = time.process_time()
    api = import_api()
    cfg = make_config(api, workload, seed, duration_s)
    nodes = api.topology.generate_topology(cfg)
    api.itfed.ITFederate(cfg, nodes)
    api.netfed.NetFederate(cfg, nodes)
    return time.process_time() - t0, api


def pin_to_one_cpu() -> None:
    """Run this process, its threads and the yardstick on one CPU.

    The yardstick must share the CPU to see the same host speed.  Pinning
    also keeps the socket transport's threads together: on a small VM,
    whether the scheduler spreads them over CPUs decides between about 4 s
    and 9 s for the same socket run, because every slot then pays
    cross-CPU wake-ups.
    """
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError) as exc:
        print(f"note: could not pin to one CPU ({exc})", file=sys.stderr)


def run_once(api, cfg, workload: Workload, out_dir: Path):
    """One run, from run_scenario through write_outputs.

    Returns the result, host seconds of the whole run, of run_scenario and
    of write_outputs, and CPU seconds of the whole run.
    """
    c0 = time.process_time()
    t0 = time.perf_counter()
    result = api.runner.run_scenario(cfg, transport=workload.transport)
    t1 = time.perf_counter()
    api.runner.write_outputs(out_dir, result)
    t2 = time.perf_counter()
    return result, t2 - t0, t1 - t0, t2 - t1, time.process_time() - c0


class Yardstick:
    """Client of yardstick_worker.py, which explains the co-scheduled runs."""

    def __init__(self, workload: str, seed: int, duration_s: float | None):
        cmd = [sys.executable, str(BENCH / "yardstick_worker.py"), workload, str(seed)]
        if duration_s is not None:
            cmd.append(repr(duration_s))
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def _send(self, line: str) -> None:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def start(self) -> None:
        self._send("go")

    def stop(self, until: float) -> list[float]:
        """CPU seconds of the yardstick runs that ended by ``until`` (time.monotonic)."""
        self._send(f"stop {until!r}")
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"yardstick worker exited with {self.proc.wait()}")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=180)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def load_references(path: Path | None, workload: str, seed: int) -> dict:
    if path is None:
        return {}
    return json.loads(path.read_text()).get(workload, {}).get(str(seed), {})


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def describe(name: str, values: list[float], unit: str) -> str:
    q1, median, q3 = quartiles(values)
    return (f"{name} median {median:.4f} {unit}, quartiles {q1:.4f}..{q3:.4f}, n={len(values)}; "
            f"runs: {' '.join(f'{v:.3f}' for v in values)}")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="host seconds of timed runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--duration", type=float,
                        help="override the simulated horizon (smoke tests); pinned references then do not apply")
    parser.add_argument("--references", type=Path,
                        help="pinned references file (default: references.json, full horizons only)")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "gridcosim" / "__init__.py").is_file() or not SCENARIO.is_file():
        print(f"error: gridcosim sources not found under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]
    refs_path = args.references or (REFERENCES if args.duration is None else None)
    references = load_references(refs_path, args.workload, args.seed)
    out_dir = OUT_DIR / args.workload

    pin_to_one_cpu()
    import_api()  # compile and cache bytecode once, untimed
    api = import_api()
    cfg = make_config(api, workload, args.seed, args.duration)

    expected = [("reference", references)]
    if workload.transport != "inproc":
        # The socket run must reproduce the in-process outputs exactly.
        inproc = api.runner.run_scenario(cfg)
        api.runner.write_outputs(out_dir, inproc)
        expected.append(("in-process run", checks.signature(inproc, out_dir)))
        del inproc

    attempted = failed = 0
    walls: list[float] = []
    cpus: list[float] = []
    yardstick_cpus: list[float] = []
    setup_times: list[float] = []
    traced_walls: list[float] = []
    layer_runs: list[dict] = []
    problems: list[str] = []
    first: dict | None = None
    min_runs = 2 if args.trace else MIN_RUNS
    yardstick = None if args.trace else Yardstick(args.workload, args.seed, args.duration)
    try:
        if yardstick is not None:
            yardstick.start()
        deadline = time.perf_counter() + args.seconds
        while (attempted < min_runs or time.perf_counter() < deadline
               or (args.trace and attempted % 2)):
            traced = bool(args.trace) and attempted % 2 == 1
            attempted += 1
            if yardstick is not None:
                for _ in range(SETUPS_PER_RUN):
                    setup_s, api = time_setup(workload, args.seed, args.duration)
                    setup_times.append(setup_s)
                cfg = make_config(api, workload, args.seed, args.duration)
            trace = LayerTrace(api) if traced else None
            gc.collect()
            try:
                if trace is None:
                    result, wall, run_s, write_s, cpu = run_once(api, cfg, workload, out_dir)
                else:
                    with trace:
                        result, wall, run_s, write_s, cpu = run_once(api, cfg, workload, out_dir)
            except Exception:
                failed += 1
                problems.append(f"run {attempted} raised:\n{traceback.format_exc()}")
                continue
            last_run_end = time.monotonic()
            observed = dict(checks.signature(result, out_dir), **checks.sim_counts(result))
            run_problems = checks.invariant_violations(result)
            if first is None:
                first = observed
            for what, values in expected + [("first run", first)]:
                run_problems += checks.mismatches(values, observed, what)
            if run_problems:
                failed += 1
                problems.extend(f"run {attempted}: {p}" for p in run_problems)
            if trace is None:
                walls.append(wall)
                cpus.append(cpu)
            else:
                traced_walls.append(wall)
                layer_runs.append(trace.metrics(run_s, write_s, wall, checks.sim_counts(result)))
            del result, trace
        if yardstick is not None and cpus:
            yardstick_cpus = yardstick.stop(last_run_end)
    finally:
        if yardstick is not None:
            yardstick.close()
        shutil.rmtree(OUT_DIR, ignore_errors=True)

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {attempted} runs, {failed} failed, "
          f"failed_runs_ratio {failed / attempted:g}")
    if not walls or (args.trace and not layer_runs):
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}))
        return 1
    delivered = first["rti.delivered"]
    print(f"messages delivered per run: {delivered} over {first['rti.slots']} slots; "
          f"trace_digest {first['trace_digest']}")

    if args.trace:
        median_wall = statistics.median(walls)
        print(describe("wall_s (untraced, alone on the CPU)", walls, "s"))
        print(f"msgs_per_s median {delivered / median_wall:.1f} 1/s")
        metrics = {name: statistics.median(run[name] for run in layer_runs)
                   for name in LAYER_UNITS if name != "trace.overhead_ratio"}
        metrics["trace.overhead_ratio"] = statistics.median(traced_walls) / median_wall - 1
        units = LAYER_UNITS
        unattributed = statistics.median(run["unattributed_s"] for run in layer_runs)
        closure = abs(unattributed) / metrics["trace.wall_s"]
        print(f"layer split: unattributed {unattributed:.6f} s, {closure:.2%} of traced wall_s")
        if closure > 0.05:
            print("warning: layer split does not close within 5%", file=sys.stderr)
    else:
        print(describe("cpu_s per run", cpus, "s"))
        print(describe("yardstick cpu_s per run", yardstick_cpus, "s"))
        setup_cpu_s = statistics.median(setup_times)
        # Set-up is too short to pair with the yardstick, so its CPU seconds
        # are rescaled by the host speed the yardstick saw in this window;
        # raw, their median moved by a third between two passes an hour apart.
        host_speed = workload.yardstick_cpu_s / statistics.fmean(yardstick_cpus)
        print(f"set-up CPU s median {setup_cpu_s:.4f} over {len(setup_times)} set-ups; "
              f"host speed {host_speed:.3f} of the reference")
        metrics = {
            # Both sides ran in the same window, sharing the CPU; a ratio of
            # means weights every stretch of that window alike, where a ratio
            # of medians would compare runs from different stretches.
            "cpu_ratio": statistics.fmean(cpus) / statistics.fmean(yardstick_cpus),
            "setup_s": setup_cpu_s * host_speed,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"  {name:28s} {value:16.6f} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
