"""Command-line scenario runner."""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
import time
from pathlib import Path

from .config import ScenarioConfig, load_config
from .errors import GridCoSimError, UsageError
from .runner import run_scenario, run_tau_sweep, write_ddf_csv, write_manifest, write_outputs
from .transport import parse_listen_address

logger = logging.getLogger(__name__)


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, help="scenario file (defaults are built in)")
    parser.add_argument("--tau", type=float, help="slot duration in seconds")
    parser.add_argument("--qos", choices=("fifo", "wfq", "wfq-ra"), help="queueing discipline")
    parser.add_argument("--fail-at", type=float, help="simulated second at which every LTE base station fails")
    parser.add_argument("--duration", type=float, help="simulated duration in seconds")
    parser.add_argument("--seed", type=int, help="run seed")
    parser.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    parser.add_argument("--transport", choices=("inproc", "socket"), default="inproc")
    parser.add_argument("--rti-listen", default="127.0.0.1:0", metavar="HOST:PORT",
                        help="coordinator listen address for the socket transport")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridcosim",
        description="Run federated smart-grid telecontrol scenarios and write CSV time series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run one scenario")
    _add_common_flags(run_parser)
    run_parser.add_argument("--exchange-log", action="store_true",
                            help="also write per-exchange records to exchange_log.csv")
    run_parser.add_argument("--link-log", action="store_true",
                            help="also write per-link queue/throughput series to link_log.csv")
    run_parser.add_argument("--dump-topology", action="store_true",
                            help="also write the generated topology to topology.csv")

    sweep_parser = sub.add_parser("tau-sweep", help="run the same scenario over several slot durations")
    _add_common_flags(sweep_parser)
    sweep_parser.add_argument("--taus", required=True,
                              help="comma-separated slot durations in seconds, at least two")
    return parser


def _load_cfg(args: argparse.Namespace) -> ScenarioConfig:
    cfg = load_config(args.config) if args.config else ScenarioConfig()
    overrides = {}
    if args.tau is not None:
        overrides["tau_s"] = args.tau
    if args.qos is not None:
        overrides["qos"] = args.qos
    if args.fail_at is not None:
        overrides["lte_fail_at_s"] = args.fail_at
    if args.duration is not None:
        overrides["duration_s"] = args.duration
    if args.seed is not None:
        overrides["seed"] = args.seed
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    cfg.validate()
    for note in cfg.warnings():
        print(f"warning: {note}", file=sys.stderr)
    return cfg


def _listen_address(text: str) -> tuple[str, int]:
    try:
        return parse_listen_address(text)
    except ValueError as exc:
        raise UsageError(f"--rti-listen: {exc}") from exc


def _parse_taus(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise UsageError(f"--taus must be comma-separated numbers: {exc}") from exc


def _fail(out_dir: Path, cfg: ScenarioConfig | None, t0: float, experiment: str,
          exc: GridCoSimError) -> int:
    """Record the failure in the manifest; usage errors exit 2, others 1."""
    write_manifest(
        out_dir / "manifest.json", cfg or ScenarioConfig(),
        seed=getattr(cfg, "seed", 0), outputs=["manifest.json"],
        wallclock_s=time.perf_counter() - t0,
        experiments={experiment: "failed"}, status="error", error=str(exc),
    )
    if isinstance(exc, UsageError):
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    print(f"error: {exc}", file=sys.stderr)
    return 1


def _cmd_run(args: argparse.Namespace) -> int:
    out_dir: Path = args.out
    cfg = None
    t0 = time.perf_counter()
    try:
        cfg = _load_cfg(args)
        result = run_scenario(
            cfg,
            transport=args.transport,
            listen=_listen_address(args.rti_listen),
        )
        outputs = write_outputs(
            out_dir, result,
            exchange_log=args.exchange_log,
            link_log=args.link_log,
            dump_topology=args.dump_topology,
        )
        write_manifest(
            out_dir / "manifest.json", cfg, seed=cfg.seed,
            outputs=outputs + ["manifest.json"],
            wallclock_s=time.perf_counter() - t0,
            experiments={"run": "ok"},
            status="ok",
            trace_digest=result.federation.trace_digest,
        )
        print(f"wrote {', '.join(sorted(outputs))} to {out_dir}")
        return 0
    except GridCoSimError as exc:
        return _fail(out_dir, cfg, t0, "run", exc)


def _cmd_tau_sweep(args: argparse.Namespace) -> int:
    out_dir: Path = args.out
    cfg = None
    t0 = time.perf_counter()
    try:
        taus = _parse_taus(args.taus)
        cfg = _load_cfg(args)
        rows = run_tau_sweep(
            cfg, taus,
            transport=args.transport,
            listen=_listen_address(args.rti_listen),
        )
        write_ddf_csv(out_dir / "ddf.csv", rows)
        write_manifest(
            out_dir / "manifest.json", cfg, seed=cfg.seed,
            outputs=["ddf.csv", "manifest.json"],
            wallclock_s=time.perf_counter() - t0,
            experiments={f"tau={tau_s:g}": "ok" for tau_s, _, _ in rows},
            status="ok",
        )
        for tau_s, ddf_percent, wallclock_s in rows:
            print(f"tau={tau_s:g}s ddf={ddf_percent:.3f}% wallclock={wallclock_s:.3f}s")
        return 0
    except GridCoSimError as exc:
        return _fail(out_dir, cfg, t0, "tau-sweep", exc)


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        args.out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        # The manifest goes in the output directory, so this error has none.
        print(f"usage error: --out {args.out}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    if args.command == "run":
        return _cmd_run(args)
    return _cmd_tau_sweep(args)
