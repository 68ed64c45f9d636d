"""Scenario orchestration: wire config, topology, federation and reports.

``run_scenario`` builds both federates from one config and topology, runs
the federation over the chosen transport, and collects into a
:class:`RunResult` the federates' records and the reports that ``metrics``
builds from them: interval reliability, delay statistics and the
delay-mismatch figure.  ``write_outputs`` renders the CSV files and a
JSON manifest; outputs are byte-identical for identical (config, transport)
inputs apart from the manifest and wallclock columns.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from pathlib import Path

from . import __version__
from .config import ScenarioConfig, serialize_config
from .errors import UsageError
from .itfed import CommLegs, Exchanges, ITFederate
from .messages import _CLASSES, MISSING, MessageClass, NodeDescriptor
from .metrics import DelayStats, IntervalMetrics, ddf, delay_series, reliability_series
from .netfed import NetFederate
from .rti import FederationResult
from .simtime import TICKS_PER_SECOND
from .topology import generate_topology
from .transport import run_federation


@dataclasses.dataclass
class RunResult:
    cfg: ScenarioConfig
    federation: FederationResult
    nodes: list[NodeDescriptor]
    reliability: list[IntervalMetrics]
    delays: list[DelayStats]
    ddf: float | None
    conservation: dict[MessageClass, dict[str, int]]
    exchange_rows: Exchanges
    comm_legs: CommLegs
    link_rows: list[tuple[float, str, int, int, int, int, int]]
    adapted_period_ticks: int | None


def run_scenario(cfg: ScenarioConfig, *, transport: str = "inproc") -> RunResult:
    nodes = generate_topology(cfg)
    it_federate = ITFederate(cfg, nodes)
    net_federate = NetFederate(cfg, nodes)
    federation = run_federation(
        cfg.tau_ticks,
        cfg.n_slots,
        [it_federate, net_federate],
        transport=transport,
    )
    end_tick = federation.slots_run * cfg.tau_ticks
    it_federate.finalize_run(end_tick)
    net_federate.finalize_run(end_tick)

    legs = it_federate.comm_legs
    return RunResult(
        cfg=cfg,
        federation=federation,
        nodes=nodes,
        reliability=reliability_series(it_federate.exchange_rows, cfg.interval_ticks),
        delays=delay_series(legs, cfg.interval_ticks),
        ddf=ddf(zip(legs.d_it, legs.d_comm)) if legs else None,
        conservation=net_federate.conservation(),
        exchange_rows=it_federate.exchange_rows,
        comm_legs=legs,
        link_rows=_link_rows(net_federate, cfg, end_tick),
        adapted_period_ticks=net_federate.adapted_period_ticks,
    )


def _link_rows(net: NetFederate, cfg: ScenarioConfig, end_tick: int) -> list:
    """Per-interval link records: queue depths, bits served, bits offered, busy ticks.

    An interval the run ended inside was never sampled; its queues read (0, 0)."""
    n_intervals = -(-end_tick // cfg.interval_ticks) if end_tick else 0
    rows = []
    for interval in range(n_intervals):
        t_s = interval * cfg.metrics_interval_s
        for link in net.links:
            q_mon, q_ctl = link.queue_samples[interval] if interval < len(link.queue_samples) else (0, 0)
            rows.append((t_s, link.id, q_mon, q_ctl, link.served_bits[interval],
                         link.offered_bits[interval], link.busy_ticks[interval]))
    return rows


# ------------------------------------------------------------------ output

def _fmt(value: float) -> str:
    return format(value, ".10g")


def _write_csv(path: Path, header: list[str], rows) -> None:
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def write_reliability_csv(path: Path, result: RunResult) -> None:
    _write_csv(path, ["t_s", "class", "mean", "ci_low", "ci_high",
                      "ci_low_clamped", "ci_high_clamped", "clamped"], ([
        _fmt(m.interval * result.cfg.metrics_interval_s),
        m.msg_class.value,
        _fmt(m.mean),
        _fmt(m.ci_low),
        _fmt(m.ci_high),
        _fmt(m.ci_low_clamped),
        _fmt(m.ci_high_clamped),
        int(m.clamped),
    ] for m in result.reliability))


def write_delay_csv(path: Path, result: RunResult) -> None:
    _write_csv(path, ["t_s", "class", "mean_s", "p95_s"], ([
        _fmt(d.interval * result.cfg.metrics_interval_s),
        d.msg_class.value,
        _fmt(d.mean_s),
        _fmt(d.p95_s),
    ] for d in result.delays))


def write_ddf_csv(path: Path, rows: list[tuple[float, float, float]]) -> None:
    _write_csv(path, ["tau_s", "ddf_percent", "wallclock_s"], (
        [_fmt(tau_s), _fmt(ddf_percent), _fmt(wallclock_s)] for tau_s, ddf_percent, wallclock_s in rows))


def _seconds(ticks: int, since: int = 0) -> str:
    """Ticks after ``since`` in seconds; an empty cell when ``ticks`` is ``MISSING``."""
    return "" if ticks == MISSING else _fmt((ticks - since) / TICKS_PER_SECOND)


def write_exchange_log(path: Path, result: RunResult) -> None:
    """One row per exchange, by creation interval, then class in
    ``MessageClass`` order, then creation order (the sort is stable)."""
    ex, w = result.exchange_rows, result.cfg.interval_ticks
    order = sorted(range(len(ex)), key=lambda i: (ex.created[i] // w, ex.classes[i]))
    _write_csv(path, ["id", "class", "node", "created_s", "delivered_s",
                      "d_it_s", "d_comm_s", "within_limit"], ([
        ex.ids[i], _CLASSES[ex.classes[i]].value, ex.nodes[i], _seconds(ex.created[i]),
        _seconds(ex.delivered[i]), _seconds(ex.delivered[i], ex.created[i]), _seconds(ex.d_comm[i]),
        "" if ex.scores[i] == MISSING else ex.scores[i],
    ] for i in order))


def write_link_log(path: Path, result: RunResult) -> None:
    _write_csv(path, ["t_s", "link", "queue_bytes_monitoring", "queue_bytes_control",
                      "bits_served"], (
        [_fmt(t_s), link, q_mon, q_ctl, served]
        for t_s, link, q_mon, q_ctl, served, _offered, _busy in result.link_rows))


def write_topology_csv(path: Path, nodes: list[NodeDescriptor]) -> None:
    _write_csv(path, ["id", "kind", "x_km", "y_km"], (
        [node.id, node.kind.value, _fmt(node.x_km), _fmt(node.y_km)] for node in nodes))


def write_manifest(path: Path, cfg: ScenarioConfig, *, outputs: list[str],
                   wallclock_s: float, experiments: dict, status: str, error: str = "",
                   trace_digest: str = "") -> None:
    manifest = {
        "version": __version__,
        "seed": cfg.seed,
        "config": {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)},
        "outputs": sorted(outputs),
        "wallclock_s": wallclock_s,
        "experiments": experiments,
        "status": status,
    }
    if error:
        manifest["error"] = error
    if trace_digest:
        manifest["trace_digest"] = trace_digest
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def write_outputs(
    out_dir: Path,
    result: RunResult,
    *,
    exchange_log: bool = False,
    link_log: bool = False,
    dump_topology: bool = False,
) -> list[str]:
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []

    write_reliability_csv(out_dir / "reliability.csv", result)
    outputs.append("reliability.csv")
    write_delay_csv(out_dir / "delay.csv", result)
    outputs.append("delay.csv")
    ddf_rows = []
    if result.ddf is not None:
        ddf_rows.append((result.cfg.tau_s, result.ddf, result.federation.wallclock_s))
    write_ddf_csv(out_dir / "ddf.csv", ddf_rows)
    outputs.append("ddf.csv")
    if exchange_log:
        write_exchange_log(out_dir / "exchange_log.csv", result)
        outputs.append("exchange_log.csv")
    if link_log:
        write_link_log(out_dir / "link_log.csv", result)
        outputs.append("link_log.csv")
    if dump_topology:
        write_topology_csv(out_dir / "topology.csv", result.nodes)
        outputs.append("topology.csv")
    scenario_path = out_dir / "scenario.cfg"
    scenario_path.write_text(serialize_config(result.cfg))
    outputs.append("scenario.cfg")
    return outputs


def run_tau_sweep(
    cfg: ScenarioConfig,
    taus: list[float],
    *,
    transport: str = "inproc",
) -> list[tuple[float, float, float]]:
    """One run per slot duration, identical seed; rows of (tau, ddf%, wallclock)."""
    if len(taus) < 2:
        raise UsageError("a sweep needs at least two slot durations")
    # Every run's config is checked before the first run starts.
    run_cfgs = [dataclasses.replace(cfg, tau_s=tau_s) for tau_s in taus]
    for run_cfg in run_cfgs:
        run_cfg.validate()
    rows = []
    for run_cfg in run_cfgs:
        result = run_scenario(run_cfg, transport=transport)
        if result.ddf is None:
            raise UsageError("sweep produced no completed exchanges; extend the duration")
        rows.append((run_cfg.tau_s, result.ddf, result.federation.wallclock_s))
    return rows
