"""Command-line scenario runner."""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
import time
from pathlib import Path

from .config import QOS_MODES, ScenarioConfig, load_config
from .errors import GridCoSimError, UsageError
from .runner import run_scenario, run_tau_sweep, write_ddf_csv, write_manifest, write_outputs

#: Flags that override the config field of the same name (``--tau`` on ``run`` only).
_OVERRIDES = ("tau_s", "qos", "lte_fail_at_s", "duration_s", "seed")
#: What a command may fail with, each reported the same way: an output file
#: that cannot be written raises OSError, and a config too large for the
#: host MemoryError.  One constant, so that matching one allocates nothing.
_FAILURES = (GridCoSimError, OSError, MemoryError)


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, help="scenario file (defaults are built in)")
    parser.add_argument("--qos", choices=QOS_MODES, help="queueing discipline")
    parser.add_argument("--fail-at", dest="lte_fail_at_s", metavar="FAIL_AT", type=float,
                        help="simulated second at which every LTE base station fails")
    parser.add_argument("--duration", dest="duration_s", metavar="DURATION", type=float,
                        help="simulated duration in seconds")
    parser.add_argument("--seed", type=int, help="run seed")
    parser.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    parser.add_argument("--transport", choices=("inproc", "socket"), default="inproc")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridcosim",
        description="Run federated smart-grid telecontrol scenarios and write CSV time series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run one scenario")
    _add_common_flags(run_parser)
    run_parser.add_argument("--tau", dest="tau_s", metavar="TAU", type=float,
                            help="slot duration in seconds")
    run_parser.add_argument("--exchange-log", action="store_true",
                            help="also write per-exchange records to exchange_log.csv")
    run_parser.add_argument("--link-log", action="store_true",
                            help="also write per-link queue/throughput series to link_log.csv")
    run_parser.add_argument("--dump-topology", action="store_true",
                            help="also write the generated topology to topology.csv")

    # No abbreviations, so that --tau is refused rather than read as --taus.
    sweep_parser = sub.add_parser("tau-sweep", help="run the same scenario over several slot durations",
                                  allow_abbrev=False)
    _add_common_flags(sweep_parser)
    sweep_parser.add_argument("--taus", required=True,
                              help="comma-separated slot durations in seconds, at least two")
    return parser


def _load_cfg(args: argparse.Namespace, taus: list[float] | None) -> ScenarioConfig:
    """The command's config, validated as its runs see it: a sweep's runs take
    their slot durations from ``taus``, which its manifest records as ``tau_s``."""
    cfg = load_config(args.config) if args.config else ScenarioConfig()
    cfg = dataclasses.replace(cfg, **{key: value for key, value in vars(args).items()
                                      if key in _OVERRIDES and value is not None})
    runs = [cfg] if taus is None else [dataclasses.replace(cfg, tau_s=tau_s) for tau_s in taus]
    for run_cfg in runs:
        run_cfg.validate()
    for note in runs[0].warnings():
        print(f"warning: {note}", file=sys.stderr)
    return cfg if taus is None else dataclasses.replace(cfg, tau_s=taus)


def _parse_taus(text: str) -> list[float]:
    try:
        taus = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise UsageError(f"--taus must be comma-separated numbers: {exc}") from exc
    if len(taus) < 2:
        raise UsageError("--taus needs at least two slot durations")
    return taus


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    out_dir: Path = args.out
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        # The manifest goes in the output directory, so this error has none.
        print(f"usage error: --out {out_dir}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    cfg = ScenarioConfig()
    t0 = time.perf_counter()
    try:
        taus = _parse_taus(args.taus) if args.command == "tau-sweep" else None
        cfg = _load_cfg(args, taus)
        if args.command == "run":
            result = run_scenario(cfg, transport=args.transport)
            outputs = write_outputs(
                out_dir, result,
                exchange_log=args.exchange_log,
                link_log=args.link_log,
                dump_topology=args.dump_topology,
            )
            experiments = {"run": "ok"}
            trace_digest = result.federation.trace_digest
            report = [f"wrote {', '.join(sorted(outputs))} to {out_dir}"]
        else:
            rows = run_tau_sweep(cfg, taus, transport=args.transport)
            write_ddf_csv(out_dir / "ddf.csv", rows)
            outputs = ["ddf.csv"]
            experiments = {f"tau={tau_s:g}": "ok" for tau_s, _, _ in rows}
            trace_digest = ""
            report = [f"tau={tau_s:g}s ddf={ddf_percent:.3f}% wallclock={wallclock_s:.3f}s"
                      for tau_s, ddf_percent, wallclock_s in rows]
        write_manifest(
            out_dir / "manifest.json", cfg,
            outputs=outputs + ["manifest.json"],
            wallclock_s=time.perf_counter() - t0,
            experiments=experiments,
            status="ok",
            trace_digest=trace_digest,
        )
    except _FAILURES as exc:
        # Kept without its traceback, which holds the failed run's frames:
        # after a MemoryError, the report below needs what they hold.
        failure = exc.with_traceback(None)
    else:
        print("\n".join(report))
        return 0
    usage, detail = isinstance(failure, UsageError), str(failure) or type(failure).__name__
    print(f"{'usage error' if usage else 'error'}: {detail}", file=sys.stderr)
    try:
        write_manifest(
            out_dir / "manifest.json", cfg,
            outputs=["manifest.json"],
            wallclock_s=time.perf_counter() - t0,
            experiments={args.command: "failed"},
            status="error",
            error=detail,
        )
    except OSError as write_exc:
        print(f"error: manifest not written: {write_exc}", file=sys.stderr)
        return 1
    return 2 if usage else 1
