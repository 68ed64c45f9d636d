"""Regenerate references.json: pinned outputs per workload and seed.

Usage, from the repository root, only when a change is meant to alter the
simulated behaviour (the pins are how the benchmark proves it did not):

    python3 bench/pin_references.py

Every workload is run in process, including the socket one, whose runs must
reproduce the in-process outputs.
"""

from __future__ import annotations

import json
import shutil
import sys

import checks
import run

PINNED_SEEDS = range(0, 11)


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    api = run.import_api()
    out_dir = run.OUT_DIR / "pin"
    pins: dict = {}
    try:
        for name, workload in run.WORKLOADS.items():
            for seed in PINNED_SEEDS:
                cfg = run.make_config(api, workload, seed, None)
                result = api.runner.run_scenario(cfg)
                problems = checks.invariant_violations(result)
                if problems:
                    print(f"{name} seed {seed}: {problems}", file=sys.stderr)
                    return 1
                api.runner.write_outputs(out_dir, result)
                pins.setdefault(name, {})[str(seed)] = dict(
                    checks.signature(result, out_dir),
                    **{"rti.delivered": result.federation.messages_delivered},
                )
                print(f"{name} seed {seed}: {result.federation.messages_delivered} messages")
    finally:
        shutil.rmtree(run.OUT_DIR, ignore_errors=True)
    run.REFERENCES.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
