"""Smoke tests of the benchmark itself, on short horizons.

They check that every metric BENCHMARK.json names is printed with its unit,
that the layer split closes, that a wrong pinned reference is caught, and
that the benchmark refuses to run without the package sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Simulated horizons short enough for a few seconds per workload.
SMOKE_DURATION_S = {"failover-wfq-ra": 50, "scale-x10": 25, "socket-wfq-ra": 10}

SELF_TIMES = (
    "topology.generate_s", "itfed.init_s", "netfed.init_s", "rti.self_s",
    "itfed.step_s", "netfed.step_s", "transport.rtt_s", "envelope.encode_s",
    "envelope.decode_s", "runner.post_s", "runner.write_s",
)


def run_bench(workload: str, trace: int, *extra: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def smoke(workload: str, trace: int, *extra: str) -> dict:
    proc = run_bench(workload, trace, "--duration", str(SMOKE_DURATION_S[workload]), *extra)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(SMOKE_DURATION_S)


@pytest.mark.parametrize("workload", list(SMOKE_DURATION_S))
def test_every_metric_printed_with_its_unit(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        out = smoke(workload, trace)
        assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
        assert {name: m["unit"] for name, m in out["metrics"].items()} == {
            m["name"]: m["unit"] for m in SPEC[key]
        }
        if trace:
            metrics = {name: m["value"] for name, m in out["metrics"].items()}
            attributed = sum(metrics[name] for name in SELF_TIMES)
            assert abs(metrics["trace.wall_s"] - attributed) <= 0.05 * metrics["trace.wall_s"]
            # A negative self time would mean spans overlap or leak out of
            # their parent, which the subtraction would otherwise hide.
            assert all(metrics[name] >= 0 for name in SELF_TIMES)


def test_wrong_reference_digest_fails_every_run(tmp_path):
    workload = "failover-wfq-ra"
    refs = tmp_path / "refs.json"
    refs.write_text(json.dumps({workload: {"1": {"trace_digest": "0" * 64}}}))
    out = smoke(workload, 0, "--references", str(refs))
    assert out["correct"] is False
    assert out["failed"] == out["attempted"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("failover-wfq-ra", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
